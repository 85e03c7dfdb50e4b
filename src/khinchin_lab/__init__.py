"""Moment comparison for weighted sums of symmetric discrete laws.

Exact moments, and quadrature moments with error estimates, of
S = sum_i a_i X_i for independent symmetric atomic X_i, plus verifiers for
the majorization, convex-dominance and characteristic-function inequalities
that pin down the sharp Gaussian constants and the zero-mass thresholds
where they stop holding.  Each module's `__all__` lists its public names.
"""
# perfbench/run.py `import_metrics` times a fresh `import khinchin_lab` and
# raises unless it loads scipy.special (which `lemmas` imports), so the
# package loads every layer; dropping scipy at run time waits on that check
from . import exactprob, haagerup, lemmas, quadrature, reports, schur
