"""Characteristic-function route to first-absolute-moment bounds.

For a symmetric law the first absolute moment has the integral form

    E|S| = (2/pi) int_0^inf (1 - charfn_S(t)) / t^2 dt,

and for unit-variance-free comparisons the relevant object is

    F(s) = (2/pi) int_0^inf (1 - |charfn_Y(t/sqrt(s))|^s) / t^2 dt,

which interpolates the moment of a sum of s equal pieces.  When the mass
at zero is at least 1/2 the characteristic function is nonnegative, F(1)
recovers E|Y|, and F(s) >= F(1) for s >= 1; that floor powers the
L1-versus-L2 comparison with constant E|Y| / sqrt(E Y^2).  This module
also locates the exponent where the normalized Gaussian absolute moment
passes through the value it takes at 2, and the zero-mass threshold that
two equal weights force on the L1 comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

from .exactprob import (
    StepLawParams,
    SymmetricAtomLaw,
    convolve_weighted,
    first_abs_moment,
    make_step_law,
    make_symmetric_law,
    second_moment,
)
from .quadrature import QuadratureResult, integrate_khinchin_tail
from .reports import VerdictReport

__all__ = [
    "CharFn",
    "CriticalExponentResult",
    "charfn",
    "charfn_power_integral",
    "concavity_in_zero_mass",
    "first_abs_moment_integral",
    "haagerup_function",
    "l1_l2_verdict",
    "power_charfn_period",
    "product_charfn_period",
    "rational_frequency_gcd",
    "solve_critical_exponent",
    "two_weight_threshold",
    "verify_charfn_power_floor",
]


#: cap on the entries of one sin(outer(t, frequencies / 2)) block in CharFn
CHARFN_BLOCK = 1 << 16


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
        pos = [(float(v), float(m)) for v, m in zip(law.values, law.masses) if v > 0]
        return cls(
            frequencies=tuple(v for v, _ in pos),
            pair_masses=tuple(m for _, m in pos),
            zero_mass=float(law.zero_mass),
        )

    def __call__(self, t):
        return 1.0 - self.complement(t)

    def complement(self, t):
        """1 - charfn(t) = 4 sum_v m_v sin^2(v t / 2), which keeps its relative
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

    @property
    def lower_bound(self) -> float:
        """charfn >= zero_mass - (1 - zero_mass); nonnegative from mass 1/2 up."""
        return 2.0 * self.zero_mass - 1.0


def charfn(law: SymmetricAtomLaw, t):
    return CharFn.from_law(law)(t)


def rational_frequency_gcd(freqs: Iterable) -> Fraction:
    """gcd of rational frequencies: every one is an integer multiple."""
    fracs = [Fraction(f) for f in freqs]
    if not fracs or any(f <= 0 for f in fracs):
        raise ValueError("need positive rational frequencies")
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    return Fraction(math.gcd(*nums), den)


def _all_rational(xs) -> bool:
    return all(isinstance(x, Rational) and not isinstance(x, bool) for x in xs)


def product_charfn_period(law: SymmetricAtomLaw, weights) -> float | None:
    """Common period of t -> prod_j charfn(a_j t), or None if a weight or
    support value is not rational."""
    if not (law.is_rational and _all_rational(weights)):
        return None
    freqs = [abs(Fraction(a)) * v for a in weights for v in law.values
             if a != 0 and v > 0]
    if not freqs:
        return None
    return float(2 * math.pi / rational_frequency_gcd(freqs))


def power_charfn_period(law: SymmetricAtomLaw, s: float) -> float | None:
    """Period of t -> |charfn(t / sqrt(s))|^s for rational support."""
    if not law.is_rational:
        return None
    pos = [v for v in law.values if v > 0]
    if not pos:
        return None
    g = rational_frequency_gcd(pos)
    return 2.0 * math.pi * math.sqrt(float(s)) / float(g)


def first_abs_moment_integral(weights: Sequence, law: SymmetricAtomLaw,
                              tol: float = 1e-8,
                              max_evals: int = 10_000_000,
                              *,
                              sum_law: SymmetricAtomLaw | None = None) -> QuadratureResult:
    """E|sum_j a_j Y_j| through the characteristic-function integral.

    With rational support and weights the integrand is periodic and the
    whole half-line folds onto half a period.  Without a period, or when
    its half needs more than quadrature.SEED_CAP seed panels, the tail past
    the cut T comes from integration by parts with M = P(S = 0) and
    K = E[|S|^-1; S != 0] of the sum S.  The law of S is `sum_law` when
    given (it must be convolve_weighted([law] * n, weights)), else it is
    built here, once and only when that route runs; convolve_weighted's
    ValueError past its support guard then propagates.
    """
    if len(weights) == 0:
        raise ValueError("need at least one weight")
    phi = CharFn.from_law(law)
    a = [float(x) for x in weights]
    v_max = max(phi.frequencies) if phi.frequencies else 0.0

    def g(ts):
        # 1 - prod_j (1 - h_j) = sum_j h_j prod_{i<j} (1 - h_i), h_j = 1 - phi(a_j t):
        # every term is small where g is, so small t loses no digits
        out = np.zeros_like(ts)
        keep = np.ones_like(ts)  # prod_{i<j} (1 - h_i)
        for aj in a:
            term = phi.complement(aj * ts)
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

    return integrate_khinchin_tail(
        g,
        period_hint=product_charfn_period(law, weights),
        tol=tol,
        rate_hint=sum(abs(x) for x in a) * v_max,
        bohr=bohr,
        max_evals=max_evals,
    )


def charfn_power_integral(law: SymmetricAtomLaw, s: float,
                          tol: float = 1e-8,
                          max_evals: int = 10_000_000) -> QuadratureResult:
    """F(s) = (2/pi) int_0^inf (1 - |charfn(t/sqrt(s))|^s) / t^2 dt, s >= 1.

    The law needs rational support (a ValueError otherwise): the integrand
    is then periodic and the integral runs over half a period against
    (pi/P)^2 csc^2(pi u/P).  The point mass at 0 gives F = 0 exactly.
    """
    sf = float(s)
    if not (sf >= 1.0):
        raise ValueError(f"s must satisfy s >= 1, got {s!r}")
    if not law.is_rational:
        raise ValueError("charfn_power_integral needs a law with rational support")
    phi = CharFn.from_law(law)
    if not phi.frequencies:  # the point mass at 0: the integrand is 0
        return QuadratureResult(0.0, 0.0, 0)
    root = math.sqrt(sf)
    rate = root * float(first_abs_moment(law))

    def g(ts):
        # 1 - |1 - h|^s with h = 1 - phi; below h = 1/2 through expm1 and log1p,
        # which keep their digits as h -> 0
        h = phi.complement(ts / root)
        near = h < 0.5
        out = np.empty_like(h)
        out[near] = -np.expm1(sf * np.log1p(-h[near]))
        out[~near] = 1.0 - np.abs(1.0 - h[~near]) ** sf
        return out

    return integrate_khinchin_tail(
        g,
        period_hint=power_charfn_period(law, sf),
        tol=tol,
        rate_hint=rate,
        max_evals=max_evals,
    )


_SIGN_LAW = make_step_law(StepLawParams(Fraction(0), 1))


def haagerup_function(s: float, tol: float = 1e-8,
                      max_evals: int = 10_000_000) -> QuadratureResult:
    """F for the +-1 coin law: (2/pi) int (1 - |cos(t/sqrt(s))|^s)/t^2 dt.

    Nondecreasing in s, with the closed value 1/sqrt(2) at s = 2.
    """
    return charfn_power_integral(_SIGN_LAW, s, tol=tol, max_evals=max_evals)


def _half_mass_companion(law: SymmetricAtomLaw) -> SymmetricAtomLaw:
    """Law with the same conditional radius but zero mass exactly 1/2."""
    rho = law.zero_mass
    if not (Fraction(1, 2) <= rho < 1):
        raise ValueError("companion needs zero mass in [1/2, 1)")
    scale = 2 * (1 - rho)
    pos = {v: m / scale for v, m in zip(law.values, law.masses) if v > 0}
    return make_symmetric_law(Fraction(1, 2), pos)


def verify_charfn_power_floor(law: SymmetricAtomLaw, s_grid: Sequence[float],
                              tol: float = 1e-8,
                              margin_tol: float = 1e-6,
                              max_evals: int = 10_000_000) -> VerdictReport:
    """Check F(s) >= F(1) = E|Y| on a grid, replaying the proof chain.

    Needs zero mass >= 1/2 so the characteristic function is nonnegative.
    The chain: splitting off the extra zero mass against the mass-1/2
    companion gives F(s) >= 2(1-rho) F_half(s); writing the companion's
    charfn as E cos^2(R t / 2) and applying the power-mean step gives
    F_half(s) >= (E R / sqrt(2)) F_coin(2s); and F_coin(2s) >= 1/sqrt(2)
    lands on 2(1-rho) E R / 2 = E|Y|.

    Each witness row carries `converged` (all three of its integrals
    converged) and `abs_error` (the largest of their error estimates); the
    verdict fails when any integral did not converge.  `max_evals` caps the
    integrand points of each integral.
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
    for s in s_grid:
        inputs = (charfn_power_integral(law, s, tol=tol, max_evals=max_evals),
                  charfn_power_integral(companion, s, tol=tol, max_evals=max_evals),
                  haagerup_function(2.0 * float(s), tol=tol, max_evals=max_evals))
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
        passed=all(row["converged"] for row in rows) and worst >= -margin_tol,
        margin=worst,
        witness={"rows": rows, "first_abs_moment": f1},
    )


def l1_l2_verdict(law: SymmetricAtomLaw, weights: Sequence) -> VerdictReport:
    """Check E|sum a_j Y_j| >= c1 ||sum a_j Y_j||_2 with c1 = E|Y|/sqrt(E Y^2).

    Rational inputs get an exact squared comparison; otherwise the margin
    is a relative float gap.  Runs outside the proved zero-mass range
    [1/2, 1) are flagged exploratory.
    """
    if len(weights) == 0:
        raise ValueError("need at least one weight")
    m2y = second_moment(law)
    if m2y == 0:
        raise ValueError("law is degenerate at zero")
    s_law = convolve_weighted([law] * len(weights), list(weights))
    n1 = first_abs_moment(s_law)
    m2s = second_moment(s_law)
    ey = first_abs_moment(law)
    exact = law.is_rational and _all_rational(weights)
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
    not converge.  `max_evals` caps the integrand points of each integral."""
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
        margin=margin,
        witness={"rows": [{"rho": rho, "value": r.value, "abs_error": r.abs_error,
                           "converged": bool(r.converged)} for rho, r in zip(rhos, results)],
                 "f_half": f_half},
    )


@dataclass(frozen=True)
class CriticalExponentResult:
    value: float
    residual: float
    bracket: tuple[float, float]
    sign_changes: int


def _gamma_gap(p: float) -> float:
    return math.gamma(0.5 * (p + 1.0)) - 0.5 * math.sqrt(math.pi)


def solve_critical_exponent(tol: float = 1e-12) -> CriticalExponentResult:
    """Unique p in (0, 2) with Gamma((p+1)/2) = sqrt(pi)/2, about 1.8474.

    Gamma((p+1)/2) falls from sqrt(pi) through its minimum near p = 1.92
    and climbs back to exactly sqrt(pi)/2 at the excluded endpoint p = 2,
    so the gap changes sign exactly once inside the open interval.  The
    root is bracketed by bisection; the residual must come out below tol.
    """
    lo, hi = 1.0, 1.99
    glo = _gamma_gap(lo)
    ghi = _gamma_gap(hi)
    if not (glo > 0 > ghi):
        raise ArithmeticError(f"bisection bracket broken: g({lo}) = {glo}, g({hi}) = {ghi}")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _gamma_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    p0 = 0.5 * (lo + hi)
    residual = abs(_gamma_gap(p0))
    if residual > tol:
        raise ArithmeticError(f"residual {residual} exceeds {tol}")
    ps = np.linspace(0.005, 1.995, 399)
    signs = np.sign([_gamma_gap(float(p)) for p in ps])
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    if changes != 1:
        raise ArithmeticError(f"expected exactly one sign change in (0, 2), found {changes}")
    return CriticalExponentResult(value=p0, residual=residual,
                                  bracket=(lo, hi), sign_changes=changes)


_TWO_WEIGHT_NOTE = (
    "E|Y1 + Y2| >= sqrt(2) E|Y| holds exactly for zero mass at or above the "
    "threshold and fails below it; a statement placing the closed form on "
    "the other side of the comparison has the direction reversed."
)


def two_weight_threshold(L: int) -> VerdictReport:
    """Zero-mass threshold forced by two equal weights on the L1 bound.

    Enumerates E|Y_1 + Y_2| exactly and bisects (rational midpoints) the
    squared comparison (E|S|)^2 >= 2 (E|Y|)^2, then matches the closed
    form 1 - 3L(2 - sqrt(2)) / (2L + 1); at L = 1 this is sqrt(2) - 1.
    """
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")

    def gap(rho: Fraction) -> Fraction:
        law = make_step_law(StepLawParams(rho, L))
        s = convolve_weighted([law, law], [1, 1])
        n1 = first_abs_moment(s)
        ey = first_abs_moment(law)
        return n1 * n1 - 2 * ey * ey

    lo, hi = Fraction(0), Fraction(7, 8)
    if not (gap(lo) < 0 < gap(hi)):
        raise ArithmeticError("two-weight comparison bracket broken")
    while hi - lo > Fraction(1, 10**13):
        mid = (lo + hi) / 2
        if gap(mid) >= 0:
            hi = mid
        else:
            lo = mid
    threshold = float((lo + hi) / 2)
    closed_form = 1.0 - 3.0 * L * (2.0 - math.sqrt(2.0)) / (2 * L + 1)
    agreement = abs(threshold - closed_form)
    return VerdictReport(
        claim="two-weight-zero-mass-threshold",
        params={"L": L},
        passed=agreement <= 1e-10,
        margin=-agreement,
        witness={"threshold": threshold, "closed_form": closed_form,
                 "direction_note": _TWO_WEIGHT_NOTE},
    )
