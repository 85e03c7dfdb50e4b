"""Majorization monotonicity of weighted-sum moments.

The objective is Phi(a) = E|sum_i sqrt(a_i) X_i|^p on the simplex of
squared weights.  For the three-point laws with zero mass at most 1/2 and
p >= 3 the objective is Schur-concave, so spreading the squared weights
out (in the majorization order) can only increase the moment.  This module
provides the objective, the pairwise derivative criterion, randomized
majorization sampling with exact rational weight pairs, the exact
two-point reduction of the derivative criterion, the Gaussian comparison
verdict, and the zero-mass thresholds that mark where each mechanism
stops working.

Phi needs no merged law: for a law with k atoms and n weights it is the
sum over the k^n atom patterns P (one atom per coordinate) of
mass(P) |sum_i sqrt(a_i) v_(P_i)|^p.  One batched kernel,
`_schur_objectives`, evaluates it for many weight vectors at once in blocks
of at most _PATTERN_BLOCK entries, so each verdict makes one call for all
its objectives (Marshall, Olkin and Arnold, Inequalities: Theory of
Majorization and Its Applications, 2nd ed., 2011, Thm 3.A.4, for the
criterion).  While k^n <= SUPPORT_GUARD the patterns are enumerated; past
it each vector takes the exact convolution, which merges equal sums.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .exactprob import (
    SUPPORT_GUARD,
    SymmetricAtomLaw,
    StepLawParams,
    abs_moment,
    convolve_weighted,
    gaussian_norm,
    make_step_law,
    second_moment,
)
from .reports import VerdictReport

__all__ = [
    "MajorizationPair",
    "SchurVerdict",
    "comparison_threshold_by_L",
    "comparison_zero_mass_limit",
    "equal_weight_ratio_sequence",
    "majorization_report",
    "majorization_sample_test",
    "ostrowski_check",
    "schur_objective",
    "schur_zero_mass_threshold",
    "two_point_schur_check",
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


def _schur_objectives(rows, law: SymmetricAtomLaw, p: float) -> np.ndarray:
    """Phi(a) = E|sum_i sqrt(a_i) X_i|^p, i.i.d. X_i ~ law, for each row a
    of the (B, n) squared weights `rows`.

    With k atoms, Phi(a) is the sum over the k^n atom patterns P of
    mass(P) |sum_i sqrt(a_i) v_(P_i)|^p.  The patterns split into head x
    tail: the tail is the last t coordinates, t as large as k^t <=
    _PATTERN_BLOCK allows, and its sums are built once per block of rows.  A
    block is a run of head patterns times every tail pattern, with sums and
    masses made for that block only, so memory stays bounded whatever k^n
    is.  Each row sums a block's terms with one `.sum` and adds the block
    sums in pattern order; the blocks depend on k and n alone, so a row's
    value does not depend on the rows batched with it.  Past k^n >
    SUPPORT_GUARD each row takes the convolution and float moment instead,
    which merge equal sums.
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
        return np.array([abs_moment(convolve_weighted([law] * n, row), p, mode="float").value
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
    out = np.empty(n_rows)
    for r0 in range(0, n_rows, row_block):
        w = roots[r0:r0 + row_block]
        tail = np.zeros((len(w), 1))
        for i in range(head, n):
            tail = (tail[:, :, None] + w[:, i, None, None] * vals).reshape(len(w), -1)
        total = np.zeros(len(w))
        for j0 in range(0, head_size, per_block):
            js = np.arange(j0, min(j0 + per_block, head_size))
            sums = np.zeros((len(w), len(js)))
            mass = np.ones(len(js))
            for i in range(head):
                digit = js // k**(head - 1 - i) % k
                sums += w[:, i, None] * vals[digit]
                mass *= masses[digit]
            terms = np.abs(sums[:, :, None] + tail[:, None, :]) ** pf
            terms *= np.multiply.outer(mass, tail_mass)
            total += terms.reshape(len(w), -1).sum(axis=1)
        out[r0:r0 + row_block] = total
    return out


def schur_objective(a: Sequence, law: SymmetricAtomLaw, p: float) -> float:
    """Phi(a) = E|sum_i sqrt(a_i) X_i|^p for i.i.d. X_i ~ law.

    One row of `_schur_objectives`: a sum over the k^n atom patterns while
    k^n <= SUPPORT_GUARD, else the exact convolution's float moment.
    """
    return float(_schur_objectives([[float(x) for x in a]], law, p)[0])


def ostrowski_check(a: Sequence, law: SymmetricAtomLaw, p: float,
                    h: float | None = None, tol: float = 1e-9) -> VerdictReport:
    """Pairwise derivative criterion for Schur-concavity at the point a.

    For every index pair with a_i < a_j the criterion needs
    dPhi/da_i - dPhi/da_j >= 0; partials are central differences with
    step h (default 1e-6 times the smallest weight).  The margin is the
    worst pairwise difference.
    """
    af = [float(x) for x in a]
    if len(af) < 2:
        raise ValueError("need at least two weights")
    if any(x <= 0 for x in af):
        raise ValueError("squared weights must be positive for the derivative check")
    amin = min(af)
    if h is None:
        h = 1e-6 * amin
    if not (0 < h < 0.25 * amin):
        raise ValueError(f"step h = {h!r} too large for smallest weight {amin!r}")
    rows = []
    for i in range(len(af)):
        hi = af.copy()
        lo = af.copy()
        hi[i] += h
        lo[i] -= h
        rows += [hi, lo]
    phi = _schur_objectives(rows, law, p).tolist()
    partials = [(up - dn) / (2 * h) for up, dn in zip(phi[0::2], phi[1::2])]
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
        params={"a": list(af), "p": p, "h": h, "zero_mass": law.zero_mass},
        passed=worst >= -tol,
        margin=worst,
        witness={"pair": list(witness) if witness else None,
                 "partials": [float(x) for x in partials]},
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
    pos = [(v, m) for v, m in zip(law.values, law.masses) if v > 0]
    if [v for v, _ in pos] != list(range(1, len(pos) + 1)):
        return None
    if len({m for _, m in pos}) != 1:
        return None
    return law.zero_mass, len(pos)


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


def _signed_pow(y, q):
    if isinstance(y, Fraction) and isinstance(q, int):
        mag = y if y >= 0 else -y
        val = mag**q
        return val if y >= 0 else -val
    yf = float(y)
    return math.copysign(abs(yf) ** float(q), yf)


def two_point_schur_check(a, b, rho0, w_law: SymmetricAtomLaw, p) -> VerdictReport:
    """Exact two-point form of the derivative criterion.

    With phi(x) = E F'(x + W) for F'(y) = p sgn(y)|y|^(p-1) and W the sum
    of the remaining weighted coordinates, the criterion at weights
    0 < a <= b reduces to

        (1/rho0 - 1) [ (phi(a+b) - phi(b-a))/(2a) - (phi(a+b) + phi(b-a))/(2b) ]
        - [ phi(b)/b - phi(a)/a ]  >=  0.

    Exact rational arithmetic whenever p is an integer and a, b and the
    conditioning law are rational.  rho0 = 0 is rejected: the zero-mass
    factor disappears from the criterion there, see the limit form.
    """
    rho0 = Fraction(rho0) if not isinstance(rho0, float) else rho0
    if isinstance(rho0, float):
        if not (0.0 < rho0 <= 1.0):
            raise ValueError("rho0 must lie in (0, 1]; the rho0 = 0 case needs the limit form")
    elif not (0 < rho0 <= 1):
        raise ValueError("rho0 must lie in (0, 1]; the rho0 = 0 case needs the limit form")
    exact = (isinstance(p, int) or (isinstance(p, Rational) and p.denominator == 1)) \
        and not isinstance(a, float) and not isinstance(b, float) \
        and not isinstance(rho0, float) and w_law.is_rational
    if exact:
        q = int(p) - 1
        a = Fraction(a)
        b = Fraction(b)
        pf = Fraction(int(p))
    else:
        q = float(p) - 1.0
        a = float(a)
        b = float(b)
        pf = float(p)
    if not (q >= 2):
        raise ValueError(f"p must satisfy p >= 3, got {p!r}")
    if not (0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a = {a!r}, b = {b!r}")

    atoms = list(zip(w_law.values, w_law.masses))

    def phi(x):
        # E F'(x + W) over the full signed support of W
        acc = 0
        for w, m in atoms:
            if not exact:
                w = float(w)
                m = float(m)
            acc = acc + m * _signed_pow(x + w, q)
        return pf * acc

    bracket = (phi(a + b) - phi(b - a)) / (2 * a) - (phi(a + b) + phi(b - a)) / (2 * b)
    margin = (1 / rho0 - 1) * bracket - (phi(b) / b - phi(a) / a)
    return VerdictReport(
        claim="two-point-derivative-criterion",
        params={"a": a, "b": b, "rho0": rho0, "p": p, "exact": exact},
        passed=margin >= (0 if exact else -1e-12),
        margin=float(margin),
        witness={"bracket": bracket, "margin_exact": margin if exact else None},
    )


def verify_gaussian_comparison(weights: Sequence, laws: Sequence[SymmetricAtomLaw],
                               p: float) -> VerdictReport:
    """Check ||sum a_j X_j||_p <= ||G||_p ||sum a_j X_j||_2 for independent
    symmetric block laws with no mass at zero and p >= 3."""
    if not (p >= 3):
        raise ValueError(f"p must satisfy p >= 3, got {p!r}")
    if len(weights) != len(laws):
        raise ValueError("weights and laws must have equal length")
    for k, law in enumerate(laws):
        if law.zero_mass != 0:
            raise ValueError(f"law {k} has mass {law.zero_mass} at zero; the comparison needs none")
    s = convolve_weighted(laws, list(weights))
    mp = abs_moment(s, p)
    n_p = mp.value ** (1.0 / float(p))
    m2 = second_moment(s)
    n_2 = math.sqrt(float(m2))
    c_p = gaussian_norm(p)
    bound = c_p * n_2
    margin = (bound - n_p) / max(bound, n_p)
    return VerdictReport(
        claim="gaussian-moment-comparison",
        params={"p": p, "n": len(weights), "moment_method": mp.method.value},
        passed=margin >= -1e-9,
        margin=margin,
        witness={"norm_p": n_p, "norm_2": n_2, "gaussian_norm": c_p},
    )


def equal_weight_ratio_sequence(law: SymmetricAtomLaw, p: float, n_max: int) -> list[float]:
    """Ratios ||S_n||_p / ||S_n||_2 for equal weights, n = 1..n_max.

    Under the Gaussian comparison bound these increase toward the Gaussian
    norm, approaching it as the CLT kicks in.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    out = []
    s = convolve_weighted([law], [1])
    for n in range(1, n_max + 1):
        if n > 1:
            s = convolve_weighted([s, law], [1, 1])  # S_n = S_{n-1} + X_n
        n_p = abs_moment(s, p).value ** (1.0 / float(p))
        n_2 = math.sqrt(float(second_moment(s)))
        out.append(n_p / n_2)
    return out


def schur_zero_mass_threshold() -> Fraction:
    """Zero-mass threshold 1/2 for Schur-concavity of the three-point
    objective.

    The two-weight objective Phi(lam) = E|sqrt(lam) X_1 + sqrt(1-lam) X_2|^p
    has d Phi / d lam -> (3/2)(1-r)(1-2r) as lam -> 0 for p = 3 and zero
    mass r, so concavity forces r <= 1/2.  Confirms the derivative sign on
    both sides numerically before returning; raises if the sign pattern
    disagrees.
    """
    lams = (1e-4, 1e-5)
    for rho, expect_pos in ((Fraction(2, 5), True), (Fraction(3, 5), False)):
        rows = []
        for lam in lams:
            h = 0.25 * lam
            rows += [[lam + h, 1 - lam - h], [lam - h, 1 - lam + h]]
        phi = _schur_objectives(rows, make_symmetric_three_point(rho), 3).tolist()
        for lam, up, dn in zip(lams, phi[0::2], phi[1::2]):
            h = 0.25 * lam
            slope = (up - dn) / (2 * h)
            if (slope > 0) != expect_pos:
                raise ArithmeticError(
                    f"derivative sign at zero mass {rho}, lam = {lam} is {slope}, "
                    f"expected {'positive' if expect_pos else 'negative'}")
    return Fraction(1, 2)


def make_symmetric_three_point(rho0) -> SymmetricAtomLaw:
    """Law with mass rho0 at 0 and (1-rho0)/2 at each of -1, +1."""
    params = StepLawParams(Fraction(rho0), 1)
    return make_step_law(params)


def comparison_threshold_by_L(L: int, width: float = 1e-13) -> float:
    """Largest zero mass at which a single coordinate still satisfies the
    p = 3 Gaussian comparison, found by bisection on the exact moment
    inequality E|Y|^3 <= ||G||_3^3 (E Y^2)^(3/2).
    """
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    js = np.arange(1, L + 1, dtype=float)
    m3 = float(np.sum(js**3)) / L
    m2 = float(np.sum(js**2)) / L
    g3 = gaussian_norm(3) ** 3

    def gap(rho: float) -> float:
        return g3 * ((1 - rho) * m2) ** 1.5 - (1 - rho) * m3

    lo, hi = 0.0, 1.0
    if gap(lo) <= 0:
        return 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def comparison_zero_mass_limit(l_values: Sequence[int] = (10, 100, 1000, 10000),
                               tol: float = 1e-4) -> float:
    """Limiting zero-mass threshold 1 - 27 pi / 128 for the p = 3 Gaussian
    comparison as the block size grows.

    Confirms the per-size thresholds decrease along `l_values` and land
    within `tol` of the analytic limit at the largest size; raises if the
    sweep disagrees.
    """
    limit = 1.0 - 27.0 * math.pi / 128.0
    thresholds = [comparison_threshold_by_L(L) for L in l_values]
    for prev, cur in zip(thresholds, thresholds[1:]):
        if cur >= prev:
            raise ArithmeticError(f"thresholds failed to decrease: {thresholds}")
    if abs(thresholds[-1] - limit) > tol:
        raise ArithmeticError(
            f"threshold at L = {l_values[-1]} is {thresholds[-1]}, "
            f"not within {tol} of {limit}")
    return limit
