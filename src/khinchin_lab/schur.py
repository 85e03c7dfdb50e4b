"""Majorization monotonicity of weighted-sum moments.

The objective is Phi(a) = E|sum_i sqrt(a_i) X_i|^p on the simplex of
squared weights.  For the three-point laws with zero mass at most 1/2 and
p >= 3 the objective is Schur-concave, so spreading the squared weights
out (in the majorization order) can only increase the moment.  This module
provides the objective, the pairwise derivative criterion, randomized
majorization sampling with exact rational weight pairs, the Gaussian
comparison verdict, and the zero-mass thresholds that mark where each
mechanism stops working.  The ratios ||S_n||_p / ||S_n||_2 of
equal-weight sums, `equal_weight_ratio_sequence`, are computed in
`exactprob` beside the moment routes they take and imported here under the
same name, which the CLI calls and the benchmark tracer wraps.

Phi needs no merged law: for a law with k atoms and n weights it is the
sum over the k^n atom patterns P (one atom per coordinate) of
mass(P) |sum_i sqrt(a_i) v_(P_i)|^p.  One batched kernel,
`_schur_objectives`, evaluates it for many weight vectors at once in blocks
of at most _PATTERN_BLOCK entries, so each verdict makes one call for all
its objectives.  The same kernel gives the exact partials
dPhi/da_i = p / (2 sqrt(a_i)) E[X_i sgn(S) |S|^(p-1)] from the same
patterns, which the pairwise criterion and the zero-mass threshold read
with no finite-difference step (Marshall, Olkin and Arnold, Inequalities:
Theory of Majorization and Its Applications, 2nd ed., 2011, Thm 3.A.4, for
the criterion).  While k^n <= SUPPORT_GUARD the patterns are enumerated;
past it each vector takes the exact convolution, which merges equal sums,
and each partial the merged law of the other n - 1 summands.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactprob import (
    SUPPORT_GUARD,
    SymmetricAtomLaw,
    StepLawParams,
    abs_moment,
    convolve_weighted,
    equal_weight_ratio_sequence,
    gaussian_norm,
    make_step_law,
    moment_root,
    sum_abs_moment,
    sum_even_moment,
)
from .reports import VerdictReport

__all__ = [
    "COMPARISON_ZERO_MASS_LIMIT",
    "MajorizationPair",
    "SCHUR_ZERO_MASS_THRESHOLD",
    "SchurVerdict",
    "comparison_threshold_by_L",
    "comparison_zero_mass_limit",
    "majorization_report",
    "majorization_sample_test",
    "ostrowski_check",
    "schur_objective",
    "schur_zero_mass_threshold",
    "verify_gaussian_comparison",
]


#: entries the pattern kernel holds at once, over rows and patterns
_PATTERN_BLOCK = 1 << 16


def _as_weight(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("majorization pairs must use exact rational weights")
    return Fraction(x)


@dataclass(frozen=True)
class MajorizationPair:
    """Pair of equal-sum weight vectors with upper majorizing lower.

    Validation is exact: sorted prefix sums of `upper` dominate those of
    `lower`, and the totals agree.
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]

    def __post_init__(self):
        upper = tuple(_as_weight(x) for x in self.upper)
        lower = tuple(_as_weight(x) for x in self.lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        if len(upper) != len(lower):
            raise ValueError("majorization pair components must have equal length")
        # exact prefix sums, as integer numerators over one denominator
        den = math.lcm(*(x.denominator for x in upper + lower))
        _check_majorization([x.numerator * (den // x.denominator) for x in upper],
                            [x.numerator * (den // x.denominator) for x in lower], den)


def _check_majorization(us: list[int], ls: list[int], den: int) -> None:
    """Raise ValueError unless us/den and ls/den are nonnegative and us/den
    majorizes ls/den."""
    if any(x < 0 for x in us + ls):
        raise ValueError("weights must be nonnegative")
    pu = pl = 0
    for k, (u, l) in enumerate(zip(sorted(us, reverse=True), sorted(ls, reverse=True))):
        pu += u
        pl += l
        if pu < pl:
            raise ValueError(f"prefix sum {k + 1} violates majorization: "
                             f"{Fraction(pu, den)} < {Fraction(pl, den)}")
    if pu != pl:
        raise ValueError(f"totals differ: {Fraction(pu, den)} != {Fraction(pl, den)}")


@dataclass(frozen=True)
class SchurVerdict:
    passed: bool
    worst_margin: float
    witness_pair: MajorizationPair | None
    trials: int = 0


def _schur_objectives(rows, law: SymmetricAtomLaw, p: float,
                      partials: bool = False) -> np.ndarray:
    """Phi(a) = E|sum_i sqrt(a_i) X_i|^p, i.i.d. X_i ~ law, for each row a
    of the (B, n) squared weights `rows`; with `partials`, the (B, n)
    partials dPhi/da_i = p / (2 sqrt(a_i)) E[X_i sgn(S) |S|^(p-1)] instead,
    for positive rows.

    With k atoms, Phi(a) is the sum over the k^n atom patterns P of
    mass(P) |sum_i sqrt(a_i) v_(P_i)|^p.  The patterns split into head x
    tail: the tail is the last t coordinates, t as large as k^t <=
    _PATTERN_BLOCK allows, and its sums are built once per block of rows.  A
    block is a run of head patterns times every tail pattern, with sums and
    masses made for that block only, so memory stays bounded whatever k^n
    is.  Each row sums a block's terms with one `.sum` and adds the block
    sums in pattern order; the blocks depend on k and n alone, so a row's
    value does not depend on the rows batched with it.  The partials divide
    the same terms by S, giving g(P) = mass(P) sgn(S) |S|^(p-1) (0 where
    S = 0); g is summed per head pattern and per tail pattern, and
    `_atom_sums` weights those sums with each coordinate's atom.  Past
    k^n > SUPPORT_GUARD each row's value takes the convolution and float
    moment instead, which merge equal sums, and its partials
    `_merged_partials`.
    """
    a = np.array(rows, dtype=float)
    if a.ndim != 2:
        raise ValueError("rows must be a two-dimensional array of squared weights")
    n_rows, n = a.shape
    if n == 0:
        raise ValueError("need at least one weight")
    if np.any(a < 0):
        raise ValueError("squared weights must be nonnegative")
    if not (p >= 1):
        raise ValueError(f"p must satisfy p >= 1, got {p!r}")
    roots = np.sqrt(a)
    vals, masses = law.values_float(), law.masses_float()
    k = len(vals)
    if k**n > SUPPORT_GUARD:
        if partials:
            return np.array([_merged_partials(row, law, float(p)) for row in roots.tolist()])
        return np.array([abs_moment(convolve_weighted([law] * n, row), p).value
                         for row in roots.tolist()])
    pf = float(p)
    t = n
    while k**t > _PATTERN_BLOCK:
        t -= 1
    head = n - t
    tail_size, head_size = k**t, k**head
    per_block = min(head_size, max(1, _PATTERN_BLOCK // tail_size))  # head patterns
    row_block = max(1, _PATTERN_BLOCK // (per_block * tail_size))
    tail_mass = np.ones(1)
    for _ in range(t):
        tail_mass = np.multiply.outer(tail_mass, masses).ravel()
    out = np.empty((n_rows, n) if partials else n_rows)
    for r0 in range(0, n_rows, row_block):
        w = roots[r0:r0 + row_block]
        tail = np.zeros((len(w), 1))
        for i in range(head, n):
            tail = (tail[:, :, None] + w[:, i, None, None] * vals).reshape(len(w), -1)
        total = np.zeros(len(w))
        if partials:  # sums of g(P) per head pattern and per tail pattern
            by_head = np.zeros((len(w), head_size))
            by_tail = np.zeros((len(w), tail_size))
        for j0 in range(0, head_size, per_block):
            js = np.arange(j0, min(j0 + per_block, head_size))
            sums = np.zeros((len(w), len(js)))
            mass = np.ones(len(js))
            for i in range(head):
                digit = js // k**(head - 1 - i) % k
                sums += w[:, i, None] * vals[digit]
                mass *= masses[digit]
            s = sums[:, :, None] + tail[:, None, :]
            terms = np.abs(s) ** pf
            terms *= np.multiply.outer(mass, tail_mass)
            if partials:
                g = np.divide(terms, s, out=np.zeros_like(terms), where=s != 0)
                by_head[:, js] = g.sum(axis=2)
                by_tail += g.sum(axis=1)
            else:
                total += terms.reshape(len(w), -1).sum(axis=1)
        if partials:
            total = np.hstack((_atom_sums(by_head, vals, head), _atom_sums(by_tail, vals, t)))
        out[r0:r0 + row_block] = total
    return out * (pf / (2 * roots)) if partials else out


def _atom_sums(g: np.ndarray, vals: np.ndarray, d: int) -> np.ndarray:
    """(B, d) sums over the k^d patterns P of g[:, P] times the atom of
    digit i of P, for each digit i, most significant first."""
    k = len(vals)
    out = np.empty((len(g), d))
    for i in range(d):
        by_atom = g.reshape(len(g), k**i, k, -1).swapaxes(1, 2).reshape(len(g), k, -1).sum(axis=2)
        out[:, i] = (by_atom * vals).sum(axis=1)
    return out


def _merged_partials(roots: list[float], law: SymmetricAtomLaw, p: float) -> list[float]:
    """dPhi/da_i for one row from merged laws: with R_i the convolution of
    the other n - 1 summands, E[X_i g(S)] = sum_x m_x x E g(c_i x + R_i)
    for g(y) = sgn(y) |y|^(p-1), one convolution per coordinate and memory
    of one merged law."""
    vals, masses = law.values_float(), law.masses_float()
    out = []
    for i, c in enumerate(roots):
        rest = convolve_weighted([law] * (len(roots) - 1), roots[:i] + roots[i + 1:])
        r_vals, r_masses = rest.values_float(), rest.masses_float()
        e = 0.0
        for x, m in zip(vals.tolist(), masses.tolist()):
            y = c * x + r_vals
            e += m * x * float(np.sign(y) * np.abs(y) ** (p - 1) @ r_masses)
        out.append(p / (2 * c) * e)
    return out


def schur_objective(a: Sequence, law: SymmetricAtomLaw, p: float) -> float:
    """Phi(a) = E|sum_i sqrt(a_i) X_i|^p for i.i.d. X_i ~ law.

    One row of `_schur_objectives`: a sum over the k^n atom patterns while
    k^n <= SUPPORT_GUARD, else the exact convolution's float moment.
    """
    return float(_schur_objectives([[float(x) for x in a]], law, p)[0])


#: the criterion's slack for rounding in the partials
_OSTROWSKI_SLACK = 1e-9


def ostrowski_check(a: Sequence, law: SymmetricAtomLaw, p: float) -> VerdictReport:
    """Pairwise derivative criterion for Schur-concavity at the point a.

    For every index pair with a_i < a_j the criterion needs
    dPhi/da_i - dPhi/da_j >= 0.  The partials are the closed form
    p / (2 sqrt(a_i)) E[X_i sgn(S) |S|^(p-1)], summed over the atom patterns
    or, past SUPPORT_GUARD, over merged laws (`_schur_objectives`).  The
    margin is the worst pairwise difference; the verdict passes at margin
    >= -1e-9.
    """
    af = [float(x) for x in a]
    if len(af) < 2:
        raise ValueError("need at least two weights")
    if any(x <= 0 for x in af):
        raise ValueError("squared weights must be positive for the derivative check")
    partials = _schur_objectives([af], law, p, partials=True)[0].tolist()
    worst = math.inf
    witness = None
    for i in range(len(af)):
        for j in range(len(af)):
            if af[i] < af[j]:
                m = partials[i] - partials[j]
                if m < worst:
                    worst = m
                    witness = (i, j)
    if witness is None:
        worst = 0.0  # all weights equal; criterion holds by symmetry
    return VerdictReport(
        claim="ostrowski-criterion",
        params={"a": list(af), "p": p, "zero_mass": law.zero_mass},
        passed=worst >= -_OSTROWSKI_SLACK,
        margin=worst,
        witness={"pair": list(witness) if witness else None, "partials": partials},
    )


def _draw_numerators(trial_seed: int, n: int) -> tuple[list[int], list[int], int]:
    """One trial's weights k_i / total, k_i in [1, 50], and their T-transform
    (coordinates i and j averaged with weight lam / 100, which moves strictly
    down in majorization order), as numerators over 100 * total."""
    rng = random.Random(trial_seed)
    ks = [rng.randint(1, 50) for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    lam = rng.randint(1, 99)
    upper = [100 * k for k in ks]
    lower = upper.copy()
    lower[i] = (100 - lam) * ks[i] + lam * ks[j]
    lower[j] = lam * ks[i] + (100 - lam) * ks[j]
    return upper, lower, 100 * sum(ks)


def majorization_sample_test(n: int, law: SymmetricAtomLaw, p: float,
                             trials: int, seed: int) -> SchurVerdict:
    """Randomized Schur-concavity test: sample exact rational weight
    vectors, average two coordinates (a T-transform, which the sampled
    vector majorizes), and require the objective not to drop by more than
    1e-9 of its scale.  Per-trial generators are pre-seeded so the run is
    reproducible regardless of evaluation order.  Every trial's pair is
    drawn and validated first and only its float rows kept; all 2 * trials
    objectives come from one `_schur_objectives` call, and the witness, the
    first trial with the smallest margin, is drawn again from its seed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(seed)
    trial_seeds = [master.randrange(2**63) for _ in range(trials)]
    rows = np.empty((2 * trials, n))
    for t, ts in enumerate(trial_seeds):
        upper, lower, den = _draw_numerators(ts, n)
        # int / int rounds correctly, so each row is float() of its exact weight
        rows[2 * t] = [u / den for u in upper]
        rows[2 * t + 1] = [l / den for l in lower]
        _check_majorization(upper, lower, den)
    phi = _schur_objectives(rows, law, p).tolist()
    worst = math.inf
    witness_seed = None
    for ts, phi_u, phi_l in zip(trial_seeds, phi[0::2], phi[1::2]):
        margin = (phi_l - phi_u) / max(1.0, phi_u, phi_l)
        if margin < worst:
            worst = margin
            witness_seed = ts
    witness = None if witness_seed is None else _draw_pair(witness_seed, n)
    return SchurVerdict(passed=worst >= -1e-9, worst_margin=worst,
                        witness_pair=witness, trials=trials)


def _draw_pair(trial_seed: int, n: int) -> MajorizationPair:
    upper, lower, den = _draw_numerators(trial_seed, n)
    return MajorizationPair(upper=tuple(Fraction(u, den) for u in upper),
                            lower=tuple(Fraction(l, den) for l in lower))


def _infer_step_params(law: SymmetricAtomLaw) -> tuple[Fraction, int] | None:
    values, nums, unit, _ = law.positive_grid()
    if values != [unit * k for k in range(1, len(values) + 1)]:
        return None
    if len(set(nums)) != 1:
        return None
    return law.zero_mass, len(values)


def majorization_report(n: int, law: SymmetricAtomLaw, p: float,
                        trials: int, seed: int) -> VerdictReport:
    """Wrap majorization_sample_test in a report, flagging parameter
    ranges outside the proved regime (three-point law, zero mass <= 1/2,
    p >= 3) as exploratory."""
    verdict = majorization_sample_test(n, law, p, trials, seed)
    step = _infer_step_params(law)
    proved = step is not None and step[1] == 1 and step[0] <= Fraction(1, 2) and p >= 3
    witness = None
    if verdict.witness_pair is not None:
        witness = {"upper": list(verdict.witness_pair.upper),
                   "lower": list(verdict.witness_pair.lower)}
    return VerdictReport(
        claim="schur-concavity-sampled",
        params={"n": n, "p": p, "trials": trials, "seed": seed,
                "zero_mass": law.zero_mass, "exploratory": not proved},
        passed=verdict.passed,
        margin=verdict.worst_margin,
        witness=witness,
    )


def verify_gaussian_comparison(weights: Sequence, laws: Sequence[SymmetricAtomLaw],
                               p: float) -> VerdictReport:
    """Check ||sum a_j X_j||_p <= ||G||_p ||sum a_j X_j||_2 for independent
    symmetric block laws with no mass at zero and p >= 3.

    The 2-norm, and at even p on rational input the p-norm too, come from
    the summands' moments, with no convolution.  A sum that is identically
    0 meets the bound with equality: margin 0."""
    if not (p >= 3):
        raise ValueError(f"p must satisfy p >= 3, got {p!r}")
    if len(weights) != len(laws):
        raise ValueError("weights and laws must have equal length")
    for k, law in enumerate(laws):
        if law.zero_mass != 0:
            raise ValueError(f"law {k} has mass {law.zero_mass} at zero; the comparison needs none")
    mp = sum_abs_moment(laws, weights, p)
    n_p = moment_root(mp, p)
    n_2 = math.sqrt(float(sum_even_moment(laws, weights, 2)))
    c_p = gaussian_norm(p)
    bound = c_p * n_2
    scale = max(bound, n_p)
    margin = (bound - n_p) / scale if scale > 0 else 0.0
    return VerdictReport(
        claim="gaussian-moment-comparison",
        params={"p": p, "n": len(weights), "moment_method": mp.method.value},
        passed=margin >= -1e-9,
        margin=margin,
        witness={"norm_p": n_p, "norm_2": n_2, "gaussian_norm": c_p},
    )


#: the zero mass past which the three-point objective stops being Schur-concave
SCHUR_ZERO_MASS_THRESHOLD = Fraction(1, 2)


def schur_zero_mass_threshold() -> Fraction:
    """Zero-mass threshold 1/2 for Schur-concavity of the three-point
    objective.

    The two-weight objective Phi(lam) = E|sqrt(lam) X_1 + sqrt(1-lam) X_2|^p
    has d Phi / d lam -> (3/2)(1-r)(1-2r) as lam -> 0 for p = 3 and zero
    mass r, so concavity forces r <= 1/2.  Confirms the sign of the slope
    dPhi/da_1 - dPhi/da_2, from the exact partials, on both sides before
    returning; raises if the sign pattern disagrees.
    """
    lams = (1e-4, 1e-5)
    for rho, expect_pos in ((Fraction(2, 5), True), (Fraction(3, 5), False)):
        grads = _schur_objectives([[lam, 1 - lam] for lam in lams],
                                  make_symmetric_three_point(rho), 3, partials=True)
        for lam, (d1, d2) in zip(lams, grads.tolist()):
            slope = d1 - d2
            if (slope > 0) != expect_pos:
                raise ArithmeticError(
                    f"derivative sign at zero mass {rho}, lam = {lam} is {slope}, "
                    f"expected {'positive' if expect_pos else 'negative'}")
    return SCHUR_ZERO_MASS_THRESHOLD


def make_symmetric_three_point(rho0) -> SymmetricAtomLaw:
    """Law with mass rho0 at 0 and (1-rho0)/2 at each of -1, +1."""
    params = StepLawParams(Fraction(rho0), 1)
    return make_step_law(params)


def comparison_threshold_by_L(L: int) -> float:
    """Largest zero mass at which a single coordinate still satisfies the
    p = 3 Gaussian comparison E|Y|^3 <= ||G||_3^3 (E Y^2)^(3/2).

    With m_k = E|X|^k of the block X uniform on {1..L} and g3 = ||G||_3^3,
    zero mass rho gives the gap g3 ((1 - rho) m2)^(3/2) - (1 - rho) m3,
    which is positive exactly when sqrt(1 - rho) > m3 / (g3 m2^(3/2)): the
    threshold is max(0, 1 - (m3 / (g3 m2^(3/2)))^2).  The moments are the
    closed forms m2 = (L+1)(2L+1)/6 and m3 = L(L+1)^2/4, each the correctly
    rounded quotient of two integers.
    """
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    m3 = L * (L + 1) ** 2 / 4
    m2 = (L + 1) * (2 * L + 1) / 6
    ratio = m3 / (gaussian_norm(3) ** 3 * m2**1.5)
    return max(0.0, 1.0 - ratio * ratio)


#: the limit of `comparison_threshold_by_L` as L grows
COMPARISON_ZERO_MASS_LIMIT = 1.0 - 27.0 * math.pi / 128.0


def comparison_zero_mass_limit(l_values: Sequence[int] = (10, 100, 1000, 10000),
                               tol: float = 1e-4) -> float:
    """Limiting zero-mass threshold 1 - 27 pi / 128 for the p = 3 Gaussian
    comparison as the block size grows.

    Confirms the per-size thresholds decrease along `l_values` and land
    within `tol` of the analytic limit at the largest size; raises if the
    sweep disagrees.
    """
    limit = COMPARISON_ZERO_MASS_LIMIT
    thresholds = [comparison_threshold_by_L(L) for L in l_values]
    for prev, cur in zip(thresholds, thresholds[1:]):
        if cur >= prev:
            raise ArithmeticError(f"thresholds failed to decrease: {thresholds}")
    if abs(thresholds[-1] - limit) > tol:
        raise ArithmeticError(
            f"threshold at L = {l_values[-1]} is {thresholds[-1]}, "
            f"not within {tol} of {limit}")
    return limit
