"""Characteristic-function route to first-absolute-moment bounds.

For a symmetric law the first absolute moment has the integral form

    E|S| = (2/pi) int_0^inf (1 - phi_S(t)) / t^2 dt,

with phi_S the characteristic function of S, and for unit-variance-free
comparisons the relevant object is

    F(s) = (2/pi) int_0^inf (1 - |phi_Y(t/sqrt(s))|^s) / t^2 dt,

which interpolates the moment of a sum of s equal pieces.  When the mass
at zero is at least 1/2 the characteristic function is nonnegative, F(1)
recovers E|Y|, and F(s) >= F(1) for s >= 1; that floor powers the
L1-versus-L2 comparison with constant E|Y| / sqrt(E Y^2).  A grid of s is
one quadrature family (`charfn_power_integrals`).  This module
also locates the exponent where the normalized Gaussian absolute moment
passes through the value it takes at 2, and the zero-mass threshold that
two equal weights force on the L1 comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .exactprob import (
    MomentMethod,
    StepLawParams,
    SymmetricAtomLaw,
    convolve_weighted,
    first_abs_moment,
    make_step_law,
    make_symmetric_law,
    second_moment,
    sum_abs_moment,
    sum_even_moment,
)
from .quadrature import (
    QuadratureResult,
    convergence_margin,
    integrate_khinchin_tail,
    integrate_periodic_tails,
)
from .reports import VerdictReport

__all__ = [
    "CharFn",
    "CriticalExponentResult",
    "charfn_power_integral",
    "charfn_power_integrals",
    "concavity_in_zero_mass",
    "first_abs_moment_integral",
    "l1_l2_verdict",
    "power_charfn_period",
    "product_charfn_period_degree",
    "solve_critical_exponent",
    "two_weight_closed_form",
    "two_weight_threshold",
    "verify_charfn_power_floor",
]


#: cap on the entries of one sin(outer(t, frequencies / 2)) block in CharFn
CHARFN_BLOCK = 1 << 16

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CharFn:
    """Characteristic function of a symmetric atomic law, vectorized in t."""

    frequencies: tuple[float, ...]  # positive support
    pair_masses: tuple[float, ...]  # mass of +v (equal at -v)
    zero_mass: float
    _half_v: np.ndarray = field(init=False, repr=False, compare=False)
    _m4: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_half_v", 0.5 * np.array(self.frequencies, dtype=float))
        object.__setattr__(self, "_m4", 4.0 * np.array(self.pair_masses, dtype=float))

    @classmethod
    def from_law(cls, law: SymmetricAtomLaw) -> "CharFn":
        # int / int is correctly rounded, as float(Fraction) is
        values, nums, scale, den = law.positive_grid()
        return cls(
            frequencies=tuple(v / scale for v in values),
            pair_masses=tuple(num / den for num in nums),
            zero_mass=float(law.zero_mass),
        )

    def __call__(self, t):
        return 1.0 - self.complement(t)

    def complement(self, t):
        """1 - phi(t) = 4 sum_v m_v sin^2(v t / 2), which keeps its relative
        accuracy as t -> 0 where 1 - (sum of cosines) would cancel."""
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        sums = np.empty(flat.size)
        rows = max(1, CHARFN_BLOCK // max(1, self._half_v.size))  # points per sin block
        for i in range(0, flat.size, rows):
            sines = np.sin(np.multiply.outer(flat[i:i + rows], self._half_v))
            sums[i:i + rows] = (sines * sines) @ self._m4
        out = sums.reshape(ts.shape)
        return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def _all_rational(xs) -> bool:
    return all(isinstance(x, Rational) and not isinstance(x, bool) for x in xs)


def product_charfn_period_degree(law: SymmetricAtomLaw, weights) -> tuple[float, int] | None:
    """Common period P of t -> prod_j phi(a_j t) and its degree K as a
    trigonometric polynomial in units of 2 pi/P, or None if a weight or
    support value is not rational (or no frequency is positive).

    The frequencies |a_j| v share the gcd omega = gcd(|a|) gcd(v), where
    the weights share gcd(numerators over one denominator) / that
    denominator; P = 2 pi/omega, and the top frequency
    sum_j |a_j| max(v) is K omega, K = sum_j |a_j| max(v) / (gcd(|a|) gcd(v))
    in exact integers.  Zero weights drop out.
    """
    if not (law.is_rational and _all_rational(weights)):
        return None
    values, _, scale, _ = law.positive_grid()
    rates = [a for a in weights if a != 0]
    if not (values and rates):
        return None
    den = math.lcm(*(a.denominator for a in rates))
    nums = [abs(a.numerator) * (den // a.denominator) for a in rates]
    num, gv = math.gcd(*nums), math.gcd(*values)
    return (float(2 * math.pi / Fraction(num * gv, den * scale)),
            sum(nums) // num * (max(values) // gv))


def power_charfn_period(law: SymmetricAtomLaw, s: float) -> float | None:
    """Period of t -> |phi(t / sqrt(s))|^s for rational support."""
    if not law.is_rational:
        return None
    values, _, scale, _ = law.positive_grid()
    if not values:
        return None
    g = Fraction(math.gcd(*values), scale)
    return 2.0 * math.pi * math.sqrt(float(s)) / float(g)


def first_abs_moment_integral(weights: Sequence, law: SymmetricAtomLaw,
                              tol: float = 1e-8,
                              max_evals: int = 10_000_000,
                              *,
                              sum_law: SymmetricAtomLaw | None = None) -> QuadratureResult:
    """E|sum_j a_j Y_j| through the characteristic-function integral.

    With rational support and weights, g(t) = 1 - prod_j phi(a_j t) is a
    trigonometric polynomial of period P and degree K
    (`product_charfn_period_degree`), and the exact periodic sum of
    `quadrature.integrate_khinchin_tail` takes the integral from its
    ceil(K/2) nodes; the result's abs_error then bounds the rounding, not a
    quadrature error.  Without a period, or when ceil(K/2) passes
    quadrature.NODE_CAP or `max_evals`, the tail past the cut T comes from
    integration by parts with M = P(S = 0) and K = E[|S|^-1; S != 0] of the
    sum S.  The law of S is `sum_law` when given (it must be
    convolve_weighted([law] * n, weights)), else it is built here, once and
    only when that route runs; convolve_weighted's ValueError past its
    support guard then propagates.  Weights of equal absolute value share
    one characteristic-function evaluation per integrand call, raised to
    the power of their count.

    The exact sum needs the slope s of g's rounding: at a node t within 6u
    of the exact one (u = eps/2), g returns a value within s t of g(t).
    Here s = (64 + m + 2G) u A, with m the positive support values of Y, G
    the groups of equal |a_j| and A = E|Y| sum_j |a_j|.  To first order,
    with sin, expm1, log1p and the power within 4 ulp (8u):
    - each argument a_j v t/2 is off by 10u (6u from the node; float(a_j),
      a_j t, v/scale and their product one rounding each), and sin^2 is
      1-Lipschitz, so h_j = 1 - phi(a_j t) = sum_v 4 m_v sin^2(a_j v t/2)
      moves by at most 10u |a_j| t E|Y|; sin (16u once squared), the
      square, the masses and a dot of m nonnegative terms add (18 + m)u h_j,
      and h_j <= |a_j| t E|Y| since 1 - cos x <= |x|;
    - a group of k equal |a_j| maps h to r = 1 - (1 - h)^k, whose slope is
      at most k and r <= k h; expm1 and log1p (or 1 - h and the power)
      add at most 26u k h;
    - the running product and sum over the G groups add (2G + 2)u sum r,
      and g has slope at most 1 in each r.
    With sum over groups of k h <= A t: s <= (56 + m + 2G) u A, rounded up.
    """
    if len(weights) == 0:
        raise ValueError("need at least one weight")
    phi = CharFn.from_law(law)
    a = [float(x) for x in weights]
    v_max = max(phi.frequencies) if phi.frequencies else 0.0
    groups: dict[float, list] = {}  # |a_j| -> [its first weight, count]
    for aj in a:
        groups.setdefault(abs(aj), [aj, 0])[1] += 1
    total = sum(abs(x) for x in a)

    def g(ts):
        # 1 - prod_j (1 - h_j) = sum_j h_j prod_{i<j} (1 - h_i), h_j = 1 - phi(a_j t),
        # where a group of k equal |a_j| is one factor (1 - h)^k with
        # 1 - (1 - h)^k = -expm1(k log1p(-h)) below h = 1/2: every term is
        # small where g is, so small t loses no digits
        out = np.zeros_like(ts)
        keep = np.ones_like(ts)  # prod_{i<j} (1 - h_i)
        for aj, k in groups.values():
            term = phi.complement(aj * ts)
            if k > 1:
                near = term < 0.5
                term[near] = -np.expm1(k * np.log1p(-term[near]))
                term[~near] = 1.0 - (1.0 - term[~near]) ** k
            term *= keep
            out += term
            keep -= term
        return out

    def bohr():
        s_law = sum_law if sum_law is not None else convolve_weighted(
            [law] * len(weights), list(weights))
        values = s_law.values_float()
        nonzero = values != 0.0
        k = float(s_law.masses_float()[nonzero] @ (1.0 / np.abs(values[nonzero])))
        return float(s_law.zero_mass), k, s_law.merge_shift

    period, degree = product_charfn_period_degree(law, weights) or (None, None)
    mean_y = float(phi._m4 @ phi._half_v)  # E|Y| = 2 sum_v m_v v
    return integrate_khinchin_tail(
        g,
        period_hint=period,
        tol=tol,
        degree=degree,
        error_slope=(64 + len(phi.frequencies) + 2 * len(groups)) * 0.5 * _EPS * total * mean_y,
        rate_hint=total * v_max,
        bohr=bohr,
        max_evals=max_evals,
    )


def charfn_power_integrals(law: SymmetricAtomLaw, s_grid: Sequence[float],
                           tol: float = 1e-8,
                           max_evals: int = 10_000_000) -> list[QuadratureResult]:
    """F(s) = (2/pi) int_0^inf (1 - |phi(t/sqrt(s))|^s) / t^2 dt for each
    s of s_grid, every s >= 1; one result per s.

    The law needs rational support (a ValueError otherwise): each integrand
    is then periodic and its integral runs over half a period against
    (pi/P)^2 csc^2(pi u/P).  The characteristic function and E|X| are
    built once, and the integrals of the grid advance in lock-step as one
    family of `quadrature.integrate_periodic_tails`; each keeps its own
    evaluation budget `max_evals` and its own convergence flag.  The point
    mass at 0 gives F = 0 exactly.
    """
    sfs = [float(s) for s in s_grid]
    for s, sf in zip(s_grid, sfs):
        if not (sf >= 1.0):
            raise ValueError(f"s must satisfy s >= 1, got {s!r}")
    if not law.is_rational:
        raise ValueError("the power integral needs a law with rational support")
    phi = CharFn.from_law(law)
    if not phi.frequencies:  # the point mass at 0: the integrand is 0
        return [QuadratureResult(0.0, 0.0, 0) for _ in sfs]
    roots = [math.sqrt(sf) for sf in sfs]
    mean = float(first_abs_moment(law))
    powers, scales = np.array(sfs), np.array(roots)

    def g(ts, members):
        # 1 - |1 - h|^s with h = 1 - phi; below h = 1/2 through expm1 and log1p,
        # which keep their digits as h -> 0
        s = powers[members]
        h = phi.complement(ts / scales[members])
        near = h < 0.5
        out = np.empty_like(h)
        out[near] = -np.expm1(s[near] * np.log1p(-h[near]))
        far = ~near
        out[far] = 1.0 - np.abs(1.0 - h[far]) ** s[far]
        return out

    return integrate_periodic_tails(
        g,
        [power_charfn_period(law, sf) for sf in sfs],
        tol=tol,
        rate_hints=[root * mean for root in roots],
        max_evals=max_evals,
    )


def charfn_power_integral(law: SymmetricAtomLaw, s: float,
                          tol: float = 1e-8,
                          max_evals: int = 10_000_000) -> QuadratureResult:
    """F(s) = (2/pi) int_0^inf (1 - |phi(t/sqrt(s))|^s) / t^2 dt, s >= 1:
    the one-element grid of `charfn_power_integrals`."""
    return charfn_power_integrals(law, [s], tol=tol, max_evals=max_evals)[0]


_SIGN_LAW = make_step_law(StepLawParams(Fraction(0), 1))


def _half_mass_companion(law: SymmetricAtomLaw) -> SymmetricAtomLaw:
    """Law with the same conditional radius but zero mass exactly 1/2."""
    rho = law.zero_mass
    if not (Fraction(1, 2) <= rho < 1):
        raise ValueError("companion needs zero mass in [1/2, 1)")
    scale = 2 * (1 - rho)
    pos = {v: m / scale for v, m in zip(law.values, law.masses) if v > 0}
    return make_symmetric_law(Fraction(1, 2), pos)


#: the power-floor verdict's slack for quadrature error in its checks
_POWER_FLOOR_SLACK = 1e-6


def verify_charfn_power_floor(law: SymmetricAtomLaw, s_grid: Sequence[float],
                              tol: float = 1e-8,
                              max_evals: int = 10_000_000) -> VerdictReport:
    """Check F(s) >= F(1) = E|Y| on a grid, replaying the proof chain.

    Needs zero mass >= 1/2 so the characteristic function is nonnegative.
    The chain: splitting off the extra zero mass against the mass-1/2
    companion gives F(s) >= 2(1-rho) F_half(s); writing the companion's
    phi as E cos^2(R t / 2) and applying the power-mean step gives
    F_half(s) >= (E R / sqrt(2)) F_coin(2s); and F_coin(2s) >= 1/sqrt(2)
    lands on 2(1-rho) E R / 2 = E|Y|.

    Each witness row carries `converged` (all three of its integrals
    converged) and `abs_error` (the largest of their error estimates); the
    verdict fails when any integral did not converge, its margin then below
    0 (`quadrature.convergence_margin`).  The integrals run as
    three `charfn_power_integrals` families (the law, its companion, and
    the coin at 2s); `max_evals` caps the integrand points of each integral.
    """
    rho = law.zero_mass
    if not (Fraction(1, 2) <= rho < 1):
        raise ValueError(f"zero mass must lie in [1/2, 1), got {rho}")
    if any(float(s) < 1 for s in s_grid):
        raise ValueError("grid points must satisfy s >= 1")
    f1 = float(first_abs_moment(law))
    companion = _half_mass_companion(law)
    e_radius = float(first_abs_moment(companion)) * 2.0  # E R = E|Y| / (1 - rho)
    split = float(2 * (1 - rho))
    rows = []
    worst = math.inf
    families = (charfn_power_integrals(law, s_grid, tol=tol, max_evals=max_evals),
                charfn_power_integrals(companion, s_grid, tol=tol, max_evals=max_evals),
                charfn_power_integrals(_SIGN_LAW, [2.0 * float(s) for s in s_grid],
                                       tol=tol, max_evals=max_evals))
    for s, inputs in zip(s_grid, zip(*families)):
        f_s, f_half, f_coin = (r.value for r in inputs)
        checks = {
            "floor": f_s - f1,
            "split": f_s - split * f_half,
            "power_mean": f_half - (e_radius / math.sqrt(2.0)) * f_coin,
            "coin_floor": f_coin - 1.0 / math.sqrt(2.0),
        }
        worst = min(worst, min(checks.values()))
        rows.append({"s": float(s), **checks, "converged": all(r.converged for r in inputs),
                     "abs_error": max(r.abs_error for r in inputs)})
    return VerdictReport(
        claim="charfn-power-floor",
        params={"zero_mass": rho, "s_grid": [float(s) for s in s_grid]},
        passed=all(row["converged"] for row in rows) and worst >= -_POWER_FLOOR_SLACK,
        margin=convergence_margin(worst, [r for family in families for r in family]),
        witness={"rows": rows, "first_abs_moment": f1},
    )


def l1_l2_verdict(law: SymmetricAtomLaw, weights: Sequence) -> VerdictReport:
    """Check E|sum a_j Y_j| >= c1 ||sum a_j Y_j||_2 with c1 = E|Y|/sqrt(E Y^2).

    E|S| comes from `sum_abs_moment`: exact for rational inputs, from two
    half sums and no law of S, which gives an exact squared comparison;
    otherwise a float from the convolved law, and the margin is a relative
    float gap.  Runs outside the proved zero-mass range [1/2, 1) are
    flagged exploratory.
    """
    if len(weights) == 0:
        raise ValueError("need at least one weight")
    m2y = second_moment(law)
    if m2y == 0:
        raise ValueError("law is degenerate at zero")
    m1 = sum_abs_moment([law] * len(weights), weights, 1)
    exact = m1.method is MomentMethod.EXACT_RATIONAL
    n1 = m1.exact if exact else m1.value
    m2s = sum_even_moment([law] * len(weights), weights, 2)  # sum of a_j^2 E Y^2
    ey = first_abs_moment(law)
    if exact:
        margin_exact = n1 * n1 * m2y - ey * ey * m2s
        passed = margin_exact >= 0
    else:
        margin_exact = None
        passed = None
    n1f = float(n1)
    c1n2 = float(ey) / math.sqrt(float(m2y)) * math.sqrt(float(m2s))
    margin = (n1f - c1n2) / max(n1f, c1n2, 1e-300)
    if passed is None:
        passed = margin >= -1e-12
    return VerdictReport(
        claim="l1-l2-comparison",
        params={"n": len(weights), "zero_mass": law.zero_mass,
                "exact": exact, "exploratory": law.zero_mass < Fraction(1, 2)},
        passed=passed,
        margin=margin,
        witness={"first_abs": n1f, "c1_times_l2": c1n2,
                 "squared_gap": margin_exact},
    )


def concavity_in_zero_mass(L: int, s: float, rho_grid: Sequence,
                           tol: float = 1e-8,
                           max_evals: int = 10_000_000) -> VerdictReport:
    """Concavity of rho -> F_rho(s) for block laws, plus the exact linear
    side: the chord to the degenerate endpoint (rho = 1, F = 0) stays
    below, so F_rho(s) >= 2 (1 - rho) F_half(s) on [1/2, 1].

    The witness has one row per grid point with the integral's value,
    `abs_error` and `converged`; the verdict fails when any integral did
    not converge, its margin then below 0 (`quadrature.convergence_margin`).
    `max_evals` caps the integrand points of each integral."""
    rhos = [Fraction(r) for r in rho_grid]
    if len(rhos) < 3:
        raise ValueError("need at least 3 grid points")
    if any(not (0 <= r < 1) for r in rhos) or any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("grid must be strictly increasing inside [0, 1)")
    results = [charfn_power_integral(make_step_law(StepLawParams(r, L)), s, tol=tol,
                                     max_evals=max_evals)
               for r in rhos]
    vals = [r.value for r in results]
    worst = math.inf
    for i in range(len(rhos) - 2):
        x0, x1, x2 = (float(r) for r in rhos[i:i + 3])
        f0, f1, f2 = vals[i:i + 3]
        dd = ((f2 - f1) / (x2 - x1) - (f1 - f0) / (x1 - x0)) / (x2 - x0)
        worst = min(worst, -dd)  # concave: second divided differences <= 0
    chord_worst = math.inf
    f_half = None
    if any(r == Fraction(1, 2) for r in rhos):
        f_half = vals[rhos.index(Fraction(1, 2))]
        for r, f in zip(rhos, vals):
            if r >= Fraction(1, 2):
                chord_worst = min(chord_worst, f - 2.0 * float(1 - r) * f_half)
    margin = min(worst, chord_worst) if chord_worst < math.inf else worst
    min_gap = min(float(b - a) for a, b in zip(rhos, rhos[1:]))
    # quadrature noise in the values passes through the second differences
    # amplified by the squared spacing
    dd_tol = 1e-6 + 8.0 * tol / (min_gap * min_gap)
    return VerdictReport(
        claim="zero-mass-concavity",
        params={"L": L, "s": float(s), "grid": [float(r) for r in rhos]},
        passed=all(r.converged for r in results) and margin >= -dd_tol,
        margin=convergence_margin(margin, results),
        witness={"rows": [{"rho": rho, "value": r.value, "abs_error": r.abs_error,
                           "converged": bool(r.converged)} for rho, r in zip(rhos, results)],
                 "f_half": f_half},
    )


@dataclass(frozen=True)
class CriticalExponentResult:
    value: float
    residual: float
    bracket: tuple[float, float]


def _gamma_gap(p: float) -> float:
    return math.gamma(0.5 * (p + 1.0)) - 0.5 * math.sqrt(math.pi)


def solve_critical_exponent() -> CriticalExponentResult:
    """Unique p in (0, 2) with Gamma((p+1)/2) = sqrt(pi)/2, about 1.8474.

    Gamma is convex (log-convex, by Bohr-Mollerup), so the gap
    Gamma((p+1)/2) - sqrt(pi)/2 has at most two zeros, one at p = 2: a sign
    change in (0, 2) is its only zero there.  Bisection of [1, 1.99] stops
    at adjacent floats, the float gap positive at the lower end (`value`,
    with gap `residual`) and at most 0 at the upper.  The gap's slope there
    is about -0.0165, so an ulp of rounding in it moves the root ~30 ulps.
    """
    lo, hi = 1.0, 1.99
    glo = _gamma_gap(lo)
    ghi = _gamma_gap(hi)
    if not (glo > 0 >= ghi):
        raise ArithmeticError(f"bisection bracket broken: g({lo}) = {glo}, g({hi}) = {ghi}")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        gmid = _gamma_gap(mid)
        if gmid > 0:
            lo, glo = mid, gmid
        else:
            hi = mid
    return CriticalExponentResult(value=lo, residual=glo, bracket=(lo, hi))


_TWO_WEIGHT_NOTE = (
    "E|Y1 + Y2| >= sqrt(2) E|Y| holds exactly for zero mass at or above the "
    "threshold and fails below it; a statement placing the closed form on "
    "the other side of the comparison has the direction reversed."
)


def two_weight_closed_form(L: int) -> float:
    """1 - 3L(2 - sqrt(2)) / (2L + 1), the two-weight threshold for the step
    law on {1..L}; sqrt(2) - 1 at L = 1."""
    return 1.0 - 3.0 * L * (2.0 - math.sqrt(2.0)) / (2 * L + 1)


def two_weight_threshold(L: int) -> VerdictReport:
    """Zero-mass threshold forced by two equal weights on the L1 bound,
    certified at c = `two_weight_closed_form(L)`.

    With m = E|X| and a = E|X_1 + X_2| < 2m for the law X of Y given
    Y != 0, E|Y_1 + Y_2| - sqrt(2) E|Y| = (1 - rho)(a - sqrt(2) m +
    rho (2m - a)) rises through one zero in rho, and E|Y_1 + Y_2| +
    sqrt(2) E|Y| > 0: so the exact g(rho) = (E|Y_1 + Y_2|)^2 - 2 (E|Y|)^2
    changes sign once.  The verdict passes iff g(lo) < 0 < g(hi) at the
    rationals lo, hi = c -+ 1e-13 (`threshold` is their midpoint c); the
    margin is min(-g(lo), g(hi)).
    """
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")

    def gap(rho: Fraction) -> Fraction:
        law = make_step_law(StepLawParams(rho, L))
        n1 = sum_abs_moment([law, law], [1, 1], 1).exact
        ey = first_abs_moment(law)
        return n1 * n1 - 2 * ey * ey

    closed_form = two_weight_closed_form(L)
    lo = Fraction(closed_form) - Fraction(1, 10**13)
    hi = Fraction(closed_form) + Fraction(1, 10**13)
    margin = float(min(-gap(lo), gap(hi)))
    return VerdictReport(
        claim="two-weight-zero-mass-threshold",
        params={"L": L},
        passed=margin > 0,
        margin=margin,
        witness={"threshold": closed_form, "closed_form": closed_form,
                 "bracket": [float(lo), float(hi)], "width": float(hi - lo),
                 "direction_note": _TWO_WEIGHT_NOTE},
    )
