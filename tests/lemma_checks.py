"""Checks that only the tests read: numerical cone-membership checks for the
signed power kernels and their chord slopes, the two-point inequality's
node table and best constant, the square-root power pair, the plus-part
slope inside a branch, the exact two-point form of the Schur derivative
criterion, and lookups of a slope-table cell and of the characteristic
function's floor.

None of these is a certificate a CLI claim runs; `check_cone_membership`
in particular is a grid check at a tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

import numpy as np
from scipy.special import erfc as _erfc_vec

from khinchin_lab.exactprob import SymmetricAtomLaw
from khinchin_lab.haagerup import CharFn
from khinchin_lab.lemmas import SlopeTable, _sigma2, two_point_gap, verify_two_point
from khinchin_lab.reports import VerdictReport


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


def slope_value(table: SlopeTable, L: int, b: int) -> float:
    """theta_{L,b} of a slope table."""
    for ell, bb, theta in table.entries:
        if (ell, bb) == (L, b):
            return theta
    raise KeyError((L, b))


def charfn_lower_bound(phi: CharFn) -> float:
    """charfn >= zero_mass - (1 - zero_mass); nonnegative from mass 1/2 up."""
    return 2.0 * phi.zero_mass - 1.0
