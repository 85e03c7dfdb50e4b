"""Convexity kernels and certificates behind the moment-comparison proofs.

Three groups of tools:

* cone checks: numerical membership certificates for the cone of odd
  nondecreasing-convex-on-(0, inf) functions and its even counterpart,
  applied to the signed power kernels and their chord slopes;
* the exact piecewise-linear two-point inequality in rational arithmetic,
  whose best multiplicative constant is 1;
* the plus-part gap between the Gaussian and uniform-block second moments,
  with the Gaussian plus-part E (G^2 - a)_+ and its closed-form slopes at
  integer-square breakpoints, the slope and tangent tables, and the scaled
  endpoint function h(t) used for large blocks, whose defining integral and
  its derivative are taken in closed form through erf.

Its three erfc calls (the Gaussian plus-part and the two slope helpers)
are the package's only use of scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

import numpy as np
from scipy.special import erfc as _erfc_vec

from .reports import VerdictReport, sig12

__all__ = [
    "Cone",
    "ConvexityVerdict",
    "NodeTable",
    "SLOPE_LOWER_BOUNDS",
    "SlopeTable",
    "TANGENT_LOWER_BOUNDS",
    "check_cone_membership",
    "endpoint_argument",
    "endpoint_gap",
    "endpoint_gap_slope",
    "plus_part_gap",
    "plus_part_gap_grid",
    "plus_part_gap_slope",
    "signed_power_chord",
    "signed_power_sum",
    "slope_at_breakpoint",
    "slope_table",
    "sqrt_power_pair",
    "tangent_values",
    "two_point_best_constant",
    "two_point_gap",
    "two_point_nodes",
    "two_point_witness_ratio",
    "verify_convex_dominance",
    "verify_two_point",
]


class Cone(str, Enum):
    """Function cones used by the comparison machinery."""

    ODD_CONVEX = "odd-nondecreasing-convex"
    EVEN_CONVEX = "even-nondecreasing-convex"


@dataclass(frozen=True)
class ConvexityVerdict:
    parity_ok: bool
    nondecreasing_ok: bool
    convex_ok: bool
    worst_violation: float
    witness: float | None

    @property
    def ok(self) -> bool:
        return self.parity_ok and self.nondecreasing_ok and self.convex_ok


def signed_power_sum(q: float, w: float, x):
    """sgn(x+w)|x+w|^q + sgn(x-w)|x-w|^q, the two-point derivative kernel."""
    if not (q >= 2):
        raise ValueError(f"q must satisfy q >= 2, got {q!r}")
    if not (w >= 0):
        raise ValueError(f"w must be nonnegative, got {w!r}")
    xa = np.asarray(x, dtype=float)
    out = np.sign(xa + w) * np.abs(xa + w) ** q + np.sign(xa - w) * np.abs(xa - w) ** q
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def signed_power_chord(q: float, w: float, x):
    """Chord slope signed_power_sum(q, w, x)/x, extended by its limit at 0.

    For w > 0 the limit is 2 q w^(q-1); for w = 0 it is 0 (q >= 2).
    """
    if not (q >= 2):
        raise ValueError(f"q must satisfy q >= 2, got {q!r}")
    if not (w >= 0):
        raise ValueError(f"w must be nonnegative, got {w!r}")
    xa = np.asarray(x, dtype=float)
    limit = 2.0 * q * w ** (q - 1.0) if w > 0 else 0.0
    tiny = np.abs(xa) < 1e-14 * max(w, 1.0)
    safe = np.where(tiny, 1.0, xa)
    phi = np.sign(safe + w) * np.abs(safe + w) ** q + np.sign(safe - w) * np.abs(safe - w) ** q
    out = np.where(tiny, limit, phi / safe)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def check_cone_membership(f, cone: Cone, grid, tol: float = 1e-9) -> ConvexityVerdict:
    """Grid certificate that f has the cone's parity and is nondecreasing and
    convex on (0, inf).

    The grid must hold at least 3 strictly increasing positive points.
    Violations are measured against the local scale (max(1, |f|) for parity
    and monotonicity, max(1, |slope|) for convexity) and tolerated up to
    `tol` times that scale.
    """
    xs = np.asarray(list(grid), dtype=float)
    if xs.size < 3:
        raise ValueError("cone membership needs a grid of at least 3 points")
    if not (np.all(xs > 0) and np.all(np.diff(xs) > 0)):
        raise ValueError("grid must be strictly increasing and positive")
    cone = Cone(cone)
    fx = np.asarray(f(xs), dtype=float)
    fneg = np.asarray(f(-xs), dtype=float)
    fscale = max(1.0, float(np.max(np.abs(fx))))
    if cone is Cone.ODD_CONVEX:
        parity_gap = np.abs(fneg + fx)
    else:
        parity_gap = np.abs(fneg - fx)
    parity_viol = float(np.max(parity_gap))
    parity_ok = parity_viol <= tol * fscale

    diffs = np.diff(fx)
    mono_viol = float(max(0.0, -np.min(diffs))) if diffs.size else 0.0
    mono_ok = mono_viol <= tol * fscale

    slopes = diffs / np.diff(xs)
    sscale = max(1.0, float(np.max(np.abs(slopes)))) if slopes.size else 1.0
    dslopes = np.diff(slopes)
    convex_viol = float(max(0.0, -np.min(dslopes))) if dslopes.size else 0.0
    convex_ok = convex_viol <= tol * sscale

    worst = max(parity_viol if not parity_ok else 0.0,
                mono_viol if not mono_ok else 0.0,
                convex_viol if not convex_ok else 0.0)
    witness = None
    if not parity_ok:
        witness = float(xs[int(np.argmax(parity_gap))])
    elif not mono_ok:
        witness = float(xs[int(np.argmin(diffs))])
    elif not convex_ok:
        witness = float(xs[1 + int(np.argmin(dslopes))])
    return ConvexityVerdict(parity_ok, mono_ok, convex_ok, worst, witness)


def _pos(z):
    """Positive part, exact for Fractions (z*0 keeps the input type)."""
    return z if z > 0 else z * 0


def two_point_gap(a, gamma):
    """Gap of the two-point inequality for piecewise-linear test slopes.

    With P = (1+a-gamma)_+ and M = (1-a-gamma)_+ this is

        ((1+a)P - (1-a)M)/(2a) - ((1+a)P + (1-a)M)/2
        - (1-gamma)_+ + (a-gamma)_+,

    nonnegative for all gamma >= 0 exactly when the inequality holds at a.
    Fraction inputs are evaluated exactly.
    """
    if isinstance(a, float):
        if not (0.0 < a < 1.0):
            raise ValueError(f"a must lie in (0, 1), got {a!r}")
    else:
        a = Fraction(a)
        if not (0 < a < 1):
            raise ValueError(f"a must lie in (0, 1), got {a!r}")
        if not isinstance(gamma, float):
            gamma = Fraction(gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    big = _pos(1 + a - gamma)
    small = _pos(1 - a - gamma)
    lhs = ((1 + a) * big - (1 - a) * small) / (2 * a) - ((1 + a) * big + (1 - a) * small) / 2
    rhs = _pos(1 - gamma) - _pos(a - gamma)
    return lhs - rhs


@dataclass(frozen=True)
class NodeTable:
    """Two-point gap evaluated at the breakpoints of its piecewise-linear
    argument; the gap vanishes identically for gamma >= 1 + a."""

    a: Fraction
    nodes: tuple[tuple[Fraction, Fraction], ...]  # (gamma, gap)


def two_point_nodes(a) -> NodeTable:
    a = Fraction(a)
    gammas = sorted({Fraction(0), a, 1 - a, Fraction(1), 1 + a})
    return NodeTable(a, tuple((g, two_point_gap(a, g)) for g in gammas))


def verify_two_point(a) -> VerdictReport:
    """Exact check of the two-point inequality at the minimizing nodes.

    The gap is piecewise linear in gamma with breakpoints {0, a, 1-a, 1}
    (and vanishes beyond 1 + a), so nonnegativity at those nodes settles
    the whole line.  Rational a gives a fully exact verdict.
    """
    a = Fraction(a)
    if not (0 < a < 1):
        raise ValueError(f"a must lie in (0, 1), got {a!r}")
    nodes = [Fraction(0), a, 1 - a, Fraction(1)]
    gaps = [(g, two_point_gap(a, g)) for g in nodes]
    worst_gamma, worst = min(gaps, key=lambda t: t[1])
    return VerdictReport(
        claim="two-point-inequality",
        params={"a": a},
        passed=worst >= 0,
        margin=float(worst),
        witness={"gamma": worst_gamma, "gap": worst},
    )


def two_point_witness_ratio(a) -> Fraction:
    """Constant forced by the absolute-value test slope: (1-a)/(1-a^2)."""
    a = Fraction(a)
    if not (0 < a < 1):
        raise ValueError(f"a must lie in (0, 1), got {a!r}")
    return (1 - a) / (1 - a * a)


def two_point_best_constant(grid_size: int = 99) -> float:
    """Best multiplicative constant in the two-point inequality: exactly 1.

    Upper direction: the inequality holds with constant 1 at every rational
    a on a uniform grid (exact node arithmetic).  Lower direction: the
    absolute-value witness forces at least (1-a)/(1-a^2) -> 1 as a -> 1.
    """
    for k in range(1, grid_size + 1):
        a = Fraction(k, grid_size + 1)
        if not verify_two_point(a).passed:
            raise ArithmeticError(f"two-point inequality failed at a = {a}")
    return 1.0


def sqrt_power_pair(p: float, a: float, x):
    """|a + sqrt(x)|^p + |a - sqrt(x)|^p for x >= 0, convex and nondecreasing
    in x for p >= 3."""
    if not (p >= 3):
        raise ValueError(f"p must satisfy p >= 3, got {p!r}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise ValueError("x must be nonnegative")
    r = np.sqrt(xa)
    out = np.abs(a + r) ** p + np.abs(a - r) ** p
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


# Lower bounds asserted for the slopes at integer-square breakpoints and
# for the last-branch tangent values.
SLOPE_LOWER_BOUNDS: dict[tuple[int, int], float] = {
    (3, 1): 0.02,
    (4, 1): 0.03, (4, 2): 0.03,
    (5, 1): 0.03, (5, 2): 0.05, (5, 3): 0.03,
    (6, 1): 0.03, (6, 2): 0.05, (6, 3): 0.05, (6, 4): 0.02,
}
TANGENT_LOWER_BOUNDS: dict[int, float] = {2: 0.2, 3: 0.7, 4: 1.2, 5: 1.9, 6: 2.6}


def _sigma2(L: int) -> Fraction:
    return Fraction((L + 1) * (2 * L + 1), 6)


def _gaussian_plus_part(s2: float, a):
    """E (G^2 - a)_+ for G centred Gaussian with variance s2, elementwise in
    the thresholds a >= 0 (a float or an array).

    The complementary-error closed form
    s2 * 2 * (sqrt(t) pdf(sqrt(t)) + (1 - t) Q(sqrt(t))) at t = a/s2,
    where Q is the standard upper tail.
    """
    t = a / s2
    rt = np.sqrt(t)
    pdf = np.exp(-0.5 * t) / math.sqrt(2.0 * math.pi)
    upper = 0.5 * _erfc_vec(rt / math.sqrt(2.0))
    return s2 * 2.0 * (rt * pdf + (1.0 - t) * upper)


def plus_part_gap(L: int, a) -> float:
    """Gaussian-minus-block gap f(a) = E (G^2 - a)_+ - E (X^2 - a)_+ where
    X is uniform on {-L..-1, 1..L} and G matches its variance.
    Nonnegativity of f on [0, L^2] is the (x - a)_+ reduction of the convex
    dominance claim.  The one-threshold case of `plus_part_gap_grid`."""
    return float(plus_part_gap_grid(L, [float(a)])[0])


def plus_part_gap_grid(L: int, a_values: np.ndarray) -> np.ndarray:
    """plus_part_gap over an array of thresholds: the Gaussian part in
    closed form, and E (X^2 - a)_+ = sum_{k >= sqrt(a)} (k^2 - a) / L from
    suffix sums of k^2."""
    if not (isinstance(L, int) and L >= 2):
        raise ValueError(f"L must be an integer >= 2, got {L!r}")
    a = np.asarray(a_values, dtype=float)
    if np.any(a < 0):
        raise ValueError("thresholds must be nonnegative")
    gauss = _gaussian_plus_part(float(_sigma2(L)), a)
    # suffix sums S2[c] = sum_{k=c}^{L} k^2, c = ceil(sqrt(a))
    ks = np.arange(L + 1)
    suffix = np.concatenate([np.cumsum((ks * ks)[::-1])[::-1], [0]])
    c = np.ceil(np.sqrt(a)).astype(int)
    c = np.clip(c, 0, L + 1)
    count = np.maximum(L - c + 1, 0)
    block = (suffix[c] - a * count) / L
    return gauss - block


def plus_part_gap_slope(L: int, a, b: int) -> float:
    """Slope f'(a) = (L-b)/L - erfc(sqrt(a)/(sigma sqrt(2))) on the branch
    a in (b^2, (b+1)^2); strictly increasing in a on each branch."""
    if not (isinstance(L, int) and L >= 2):
        raise ValueError(f"L must be an integer >= 2, got {L!r}")
    if not (isinstance(b, int) and 0 <= b <= L - 1):
        raise ValueError(f"b must be an integer in [0, {L - 1}], got {b!r}")
    af = float(a)
    if not (b * b < af < (b + 1) * (b + 1)):
        raise ValueError(f"a = {a!r} is outside the open branch ({b * b}, {(b + 1) * (b + 1)})")
    sigma = math.sqrt(float(_sigma2(L)))
    return (L - b) / L - float(_erfc_vec(math.sqrt(af) / (sigma * math.sqrt(2.0))))


def slope_at_breakpoint(L: int, b: int) -> float:
    """Right limit of the slope at the breakpoint a = b^2 (the branch
    minimum, since slopes increase along each branch)."""
    if not (isinstance(L, int) and L >= 2):
        raise ValueError(f"L must be an integer >= 2, got {L!r}")
    if not (isinstance(b, int) and 0 <= b <= L - 1):
        raise ValueError(f"b must be an integer in [0, {L - 1}], got {b!r}")
    sigma = math.sqrt(float(_sigma2(L)))
    return (L - b) / L - float(_erfc_vec(b / (sigma * math.sqrt(2.0))))


@dataclass(frozen=True)
class SlopeTable:
    """Branch-minimum slopes theta_{L,b} for L in 3..6, b in 1..L-2."""

    entries: tuple[tuple[int, int, float], ...]

    def value(self, L: int, b: int) -> float:
        for ell, bb, theta in self.entries:
            if (ell, bb) == (L, b):
                return theta
        raise KeyError((L, b))

    def to_csv(self) -> str:
        lines = ["L,b,theta"]
        lines += [f"{L},{b},{sig12(theta):.12g}" for L, b, theta in self.entries]
        return "\n".join(lines) + "\n"

    def check_lower_bounds(self) -> tuple[bool, float]:
        worst = math.inf
        for L, b, theta in self.entries:
            worst = min(worst, theta - SLOPE_LOWER_BOUNDS[(L, b)])
        return worst > 0, worst


def slope_table() -> SlopeTable:
    entries = []
    for L in range(3, 7):
        for b in range(1, L - 1):
            entries.append((L, b, slope_at_breakpoint(L, b)))
    return SlopeTable(tuple(entries))


def tangent_values() -> dict[int, float]:
    """Last-branch tangent lower bounds v_L = theta_{L,L-1} (2L-1) + f((L-1)^2).

    The slope at the last breakpoint is negative, so the tangent from the
    left endpoint bounds f from below across the final branch of length
    2L-1; positivity of v_L certifies f > 0 there.
    """
    out = {}
    for L in range(2, 7):
        theta = slope_at_breakpoint(L, L - 1)
        out[L] = theta * (2 * L - 1) + plus_part_gap(L, (L - 1) ** 2)
    return out


def tangent_csv() -> str:
    lines = ["L,v"]
    lines += [f"{L},{sig12(v):.12g}" for L, v in sorted(tangent_values().items())]
    return "\n".join(lines) + "\n"


def endpoint_argument(L: int) -> Fraction:
    """t(L) = L^2/sigma^2 = 6 L^2 / ((L+1)(2L+1)), kept exact."""
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    return Fraction(6 * L * L, (L + 1) * (2 * L + 1))


def endpoint_gap(t) -> float:
    """h(t) = sqrt(2/pi) int_0^sqrt(t) (t - x^2) e^(-x^2/2) dx - (2/3) t.

    The scaled endpoint value of the smoothed gap: g(L^2)/sigma^2 = h(t(L)).
    Integrating x^2 e^(-x^2/2) by parts gives the closed form
    h(t) = (t - 1) erf(sqrt(t/2)) + sqrt(2t/pi) e^(-t/2) - (2/3) t.
    """
    tf = float(t)
    if tf < 0:
        raise ValueError("t must be nonnegative")
    return ((tf - 1.0) * math.erf(math.sqrt(0.5 * tf))
            + math.sqrt(2.0 * tf / math.pi) * math.exp(-0.5 * tf) - (2.0 / 3.0) * tf)


def endpoint_gap_slope(t) -> float:
    """h'(t) = sqrt(2/pi) int_0^sqrt(t) e^(-x^2/2) dx - 2/3
    = erf(sqrt(t/2)) - 2/3, increasing in t."""
    tf = float(t)
    if tf < 0:
        raise ValueError("t must be nonnegative")
    return math.erf(math.sqrt(0.5 * tf)) - 2.0 / 3.0


_ENDPOINT_T0 = Fraction(49, 20)


def verify_convex_dominance(L: int) -> VerdictReport:
    """Certificate that E h(X^2) <= E h(G^2) for convex nondecreasing h,
    where X is the uniform block law of size L and G matches its variance.

    Reduced to (x - a)_+ test functions, so the content is f(a) >= 0 on
    [0, L^2] with f = plus_part_gap.  Branches: L = 1 is Jensen (X^2 is
    constant); 2 <= L <= 6 combines branch-slope positivity with the
    last-branch tangent bound and a redundant dense-grid check; L >= 7 uses
    the scaled endpoint function h, increasing past t0 = 49/20 with
    h(t0) > 0.01.
    """
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    if L == 1:
        return VerdictReport(
            claim="convex-dominance-gaussian",
            params={"L": 1, "branch": "jensen"},
            passed=True,
            margin=0.0,
            witness={"note": "X^2 is the constant 1, so E h(X^2) = h(E G^2) <= E h(G^2)"},
        )
    if 2 <= L <= 6:
        checks: dict[str, float] = {}
        for b in range(1, L - 1):
            checks[f"slope_b{b}"] = slope_at_breakpoint(L, b)
        checks["tangent"] = tangent_values()[L]
        grid = np.arange(0.0, L * L + 1e-9, 1e-3)
        fvals = plus_part_gap_grid(L, grid)
        imin = int(np.argmin(fvals))
        checks["grid_min"] = float(fvals[imin])
        margin = min(checks.values())
        return VerdictReport(
            claim="convex-dominance-gaussian",
            params={"L": L, "branch": "slopes+tangent", "grid_step": 1e-3},
            passed=margin >= -1e-9,
            margin=margin,
            witness={"checks": checks, "grid_argmin": float(grid[imin])},
        )
    t_L = endpoint_argument(L)
    reaches_t0 = t_L >= _ENDPOINT_T0  # exact rational comparison; t(7) = 49/20
    slope0 = endpoint_gap_slope(_ENDPOINT_T0)
    gap0 = endpoint_gap(_ENDPOINT_T0)
    gap_at_L = endpoint_gap(t_L)
    checks = {
        "slope_at_t0_minus_0.2": slope0 - 0.2,
        "gap_at_t0_minus_0.01": gap0 - 0.01,
        "gap_at_t": gap_at_L,
    }
    margin = min(checks.values())
    return VerdictReport(
        claim="convex-dominance-gaussian",
        params={"L": L, "branch": "endpoint", "t": t_L},
        passed=reaches_t0 and margin > 0,
        margin=margin,
        witness={"checks": checks, "t_reaches_t0": reaches_t0},
    )
