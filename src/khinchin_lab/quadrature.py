"""One-dimensional quadrature with error estimates.

Two entry points.  `integrate_adaptive` handles finite intervals with a
globally adaptive Gauss-Kronrod (7, 15) rule and QUADPACK's embedded error
estimate (Piessens et al., 1983).  That estimate scales |Kronrod - Gauss|
by a heuristic; it is not a proven bound on the error.
`integrate_khinchin_tail` handles the semi-infinite integrals
(2/pi) * int_0^inf g(t)/t^2 dt, with g even, bounded and O(t^2) at the
origin, that arise from characteristic-function representations of first
absolute moments (Haagerup, "The best constants in the Khintchine
inequality", Studia Math. 70 (1981)).

Panels are evaluated in batches: the panels of the initial subdivision go
PANEL_CHUNK at a time, each chunk in one integrand call on its (chunk, 15)
grid of nodes, and each bisection evaluates both halves of the worst panel
in one 30-point call.  Refinement order and running sums follow the
panels one by one, as a panel-at-a-time driver would; a panel's value and
error estimate can differ from one-panel calls only through the summation
order inside its 15-term rule.  The evaluation budget covers the initial
subdivision too: past it, every k-th breakpoint is kept.

The semi-infinite routine integrates from t = 0 by one of three routes; the
integrand g(t)/t^2 is analytic at 0 and no Gauss-Kronrod node touches an
endpoint, so the origin needs no special zone.
- Periodic g, with period P (laws with rational support and commensurable
  rational weights): the whole half-line folds onto one period,
  sum_{k>=0} (u + kP)^(-2) = psi_1(u/P)/P^2, a trigamma value, so
  int_0^inf g/t^2 = int_0^P g(u) psi_1(u/P)/P^2 du with no truncation error.
- g = 1 - psi with psi(t) = E cos(tS) for a known finite law S: with
  M = P(S = 0) and K = E[|S|^-1; S != 0], integration by parts gives
  int_T^inf g/t^2 = (1 - M)/T - R with |R| <= 2K/T^2, since the
  antiderivative of psi - M is bounded by K.  One integral over [0, T]
  with T = sqrt(2K/eps) leaves a tail error eps.
- Any other g: T grows in doubling blocks under the coarse bound
  sup|g|/T.
Each route reports the achieved error, flagged as non-converged when the
tolerance is out of reach within the evaluation budget.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import polygamma

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_khinchin_tail",
]

_EPS = np.finfo(float).eps

#: seed panels per integrand call (15 nodes each)
PANEL_CHUNK = 128

#: most seed panels the tail routine lays over one integral
SEED_CAP = 20_000


class QuadratureError(RuntimeError):
    """Raised by callers that require a converged quadrature result."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with an error estimate.

    `abs_error` estimates |value - true integral| by QUADPACK's heuristic
    (plus the truncation terms of the tail scheme); it is not a proven
    bound.  `evaluations` counts integrand points;
    `converged` is False when a depth or budget cap stopped refinement
    before the tolerance was met (the value and the larger error are still
    reported).  `tail` is (T, M, K) when `integrate_khinchin_tail` cut the
    integral at T by integration by parts, and None otherwise.
    """

    value: float
    abs_error: float
    evaluations: int
    converged: bool = True
    tail: tuple[float, float, float] | None = None

    def require_converged(self) -> "QuadratureResult":
        if not self.converged:
            raise QuadratureError(
                f"quadrature did not converge: value={self.value!r} "
                f"abs_error={self.abs_error!r} after {self.evaluations} evaluations"
            )
        return self


# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1], ascending order.
_KRONROD_X = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# The embedded Gauss-7 rule lives on the odd-index Kronrod nodes.
_GAUSS_W = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _evaluate(f, xs: np.ndarray) -> np.ndarray:
    """f(xs) as floats; f must be vectorized, returning one value per point."""
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(
            f"integrand must map an array of shape {xs.shape} to one of the same shape, "
            f"got shape {ys.shape}")
    return ys


def _gk15(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [a[i], b[i]] in one integrand call on their
    (k, 15) grid of nodes; returns per-panel (values, error estimates)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = _evaluate(f, (mid[:, None] + half[:, None] * _KRONROD_X).ravel()).reshape(-1, 15)
    val_k = half * (ys @ _KRONROD_W)
    val_g = half * (ys[:, 1::2] @ _GAUSS_W)
    resabs = half * (np.abs(ys) @ _KRONROD_W)
    mean = val_k / (b - a)
    resasc = half * (np.abs(ys - mean[:, None]) @ _KRONROD_W)
    diff = np.abs(val_k - val_g)
    scaled = resasc > 0.0
    ratio = np.divide(200.0 * diff, resasc, out=np.zeros_like(diff), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), diff)
    return val_k, np.maximum(err, 50.0 * _EPS * resabs)


def integrate_adaptive(
    f,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    *,
    max_depth: int = 60,
    max_evals: int = 10_000_000,
    breakpoints=(),
) -> QuadratureResult:
    """Adaptive panel-bisection integral of f over the finite interval [lo, hi].

    Refines the interval with the worst embedded error estimate until the
    summed estimate satisfies abs_error <= tol * max(1, |result|), a depth
    cap of `max_depth` bisections, or the evaluation budget.  `breakpoints`
    seeds the initial subdivision (interior points; kinks and known feature
    scales go here).  When the budget cannot cover the panels they make, at
    most max_evals // 15 panels (at least one) are kept by taking every k-th
    breakpoint, and the result is flagged unconverged.  The integrand must
    be vectorized: called on an array of points it returns an array of the
    same shape, or a ValueError is raised.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    inner = np.unique(np.asarray(breakpoints, dtype=float))
    inner = inner[(inner > lo) & (inner < hi)]
    cap = max(max_evals // 15, 1)
    thinned = inner.size + 1 > cap
    if thinned:
        step = -(-(inner.size + 1) // cap)  # ceil(panels / cap)
        inner = inner[step - 1::step]
    ends = np.concatenate(([lo], inner, [hi]))
    lefts, rights = ends[:-1], ends[1:]
    chunks = [_gk15(f, lefts[i:i + PANEL_CHUNK], rights[i:i + PANEL_CHUNK])
              for i in range(0, lefts.size, PANEL_CHUNK)]
    vals = np.concatenate([v for v, _ in chunks])
    errs = np.concatenate([e for _, e in chunks])
    # np.cumsum adds left to right: the running sum over the panels from 0.0
    total_val = float(np.cumsum(np.concatenate(([0.0], vals)))[-1])
    total_err = float(np.cumsum(np.concatenate(([0.0], errs)))[-1])
    n = vals.size
    evals = 15 * n
    seq = n
    heap: list[tuple[float, int, float, float, float, float, int]] = []
    if total_err > tol * max(1.0, abs(total_val)):
        # (-err, seq, a, b, val, err, depth): the worst panel pops first
        heap = list(zip((-errs).tolist(), range(n), lefts.tolist(), rights.tolist(),
                        vals.tolist(), errs.tolist(), [0] * n))
        heapq.heapify(heap)

    while heap and total_err > tol * max(1.0, abs(total_val)) and evals + 30 <= max_evals:
        _, _, a, b, val, err, depth = heapq.heappop(heap)
        width = b - a
        if depth >= max_depth or width <= 8.0 * _EPS * max(abs(a), abs(b), 1.0):
            # Unrefinable piece: keep its contribution, stop touching it.
            continue
        mid = 0.5 * (a + b)
        halves, half_errs = _gk15(f, np.array([a, mid]), np.array([mid, b]))
        (v1, v2), (e1, e2) = halves.tolist(), half_errs.tolist()
        evals += 30
        total_val += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, seq, a, mid, v1, e1, depth + 1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, b, v2, e2, depth + 1))
        seq += 1

    converged = not thinned and total_err <= tol * max(1.0, abs(total_val))
    return QuadratureResult(total_val, total_err, evals, converged)


def _seed_count(lo: float, hi: float, width: float) -> int:
    """Number of panels of roughly the given width that cover [lo, hi]."""
    return max(int((hi - lo) / max(width, 1e-12)), 0)


def _integrate_seeded(f, lo: float, hi: float, width: float, tol: float,
                      max_evals: int) -> QuadratureResult:
    """`integrate_adaptive` over [lo, hi] from at most SEED_CAP uniform seed
    panels of about the given width."""
    n = min(_seed_count(lo, hi, width), SEED_CAP)
    return integrate_adaptive(f, lo, hi, tol, max_evals=max_evals,
                              breakpoints=np.linspace(lo, hi, n + 1)[1:-1])


def integrate_khinchin_tail(
    g,
    period_hint: float | None = None,
    tol: float = 1e-8,
    *,
    rate_hint: float | None = None,
    sup_bound: float = 2.0,
    bohr=None,
    max_evals: int = 10_000_000,
) -> QuadratureResult:
    """Compute (2/pi) * int_0^inf g(t)/t^2 dt.

    Preconditions on g: even, bounded by `sup_bound`, g(0) = 0 with
    g(t) = O(t^2) at the origin (true for g(t) = 1 - prod_j phi_j(a_j t)
    built from characteristic functions of symmetric laws, and for the
    |phi|^s variants).  Every route starts at t = 0, so g must keep its
    relative accuracy at small t: build it from 1 - phi, not from phi.

    `period_hint` selects the periodic route; pass it only when g is
    genuinely periodic with that period P (rational-support laws under
    rational weights; never float weights).  The integral is then
    int_0^P g(u) psi_1(u/P) / P^2 du, exactly.

    Off the period, `bohr` = (M, K, shift), or a function returning it
    that runs only on this route, describes g = 1 - psi with
    psi(t) = E cos(tS) for a finite law S: M = P(S = 0), the Bohr mean of
    psi, and K = E[|S|^-1; S != 0], read from a law whose atoms lie within
    `shift` of those of S (0 when exact).  One integral runs over [0, T]
    with T = sqrt(2K/eps), eps = 0.2 pi tol, and the tail adds
    (1 - M)/T; the error is (2/pi) (quadrature error + 2K/T^2) + shift,
    where moving atoms by at most `shift` moves the tail term by at most
    (pi/2) shift.  A budget too small to seed [0, T] at panel width
    pi/rate shrinks T to what it covers, charges 2K/T^2 there and flags
    the result unconverged.  The result's `tail` is (T, M, K).

    Without either, doubling blocks [0, 12], [12, 24], ... run until the
    bound 0 <= int_T^inf g/t^2 <= sup_bound/T, whose midpoint is added,
    leaves the error under tol.

    `rate_hint` bounds |d/dt| of the oscillatory part and seeds the
    subdivision with panels of width pi/rate, so narrow features are not
    missed by the panel rule.  `max_evals` caps the integrand points; a run
    that exhausts it returns what it integrated (plus the tail term at the
    T reached) flagged unconverged.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    rate = max(float(rate_hint) if rate_hint else 1.0, 1e-6)
    seed_width = math.pi / rate
    two_over_pi = 2.0 / math.pi

    periodic = period_hint is not None
    if periodic:
        period = float(period_hint)
        if not (period > 0.0 and math.isfinite(period)):
            raise ValueError("period_hint must be a positive finite number")
        # Wider than pi/rate, seed panels can step over the integrand's
        # features while the panel rule agrees with itself on them; the
        # aperiodic routes need no period.
        periodic = _seed_count(0.0, period, seed_width) <= SEED_CAP
    if periodic:
        pref = 1.0 / (period * period)

        def weighted(us):
            return _evaluate(g, us) * polygamma(1, us / period) * pref

        res = _integrate_seeded(weighted, 0.0, period, seed_width, tol, max_evals)
        # within tol of the raw integral is within tol after the factor 2/pi
        return replace(res, value=two_over_pi * res.value,
                       abs_error=two_over_pi * res.abs_error)

    def f(ts):
        return _evaluate(g, ts) / ts**2

    if bohr is not None:
        mean, k, shift = (float(x) for x in (bohr() if callable(bohr) else bohr))
        # (2/pi) 2K/T^2 = 0.4 tol, and the quadrature's 0.5 tol max(1, raw)
        # is at most 0.5 tol max(1, value) after the factor 2/pi
        cut = max(math.sqrt(2.0 * k / (0.2 * math.pi * tol)), seed_width)
        panels = max(max_evals // 15, 1)
        short = _seed_count(0.0, cut, seed_width) > panels
        if short:
            cut = panels * seed_width
        res = _integrate_seeded(f, 0.0, cut, seed_width, 0.5 * tol, max_evals)
        value = two_over_pi * (res.value + (1.0 - mean) / cut)
        abs_error = two_over_pi * (res.abs_error + 2.0 * k / (cut * cut)) + shift
        converged = res.converged and not short and abs_error <= tol * max(1.0, abs(value))
        return QuadratureResult(value, abs_error, res.evaluations, converged, (cut, mean, k))

    raw_val = raw_err = 0.0
    evals = 0
    lo, hi = 0.0, 12.0
    while True:
        blk = _integrate_seeded(f, lo, hi, seed_width, 0.2 * tol, max_evals - evals)
        raw_val += blk.value
        raw_err += blk.abs_error
        evals += blk.evaluations
        # 0 <= int_hi^inf g/t^2 <= sup_bound/hi: add the midpoint.
        half = 0.5 * sup_bound / hi
        value = two_over_pi * (raw_val + half)
        abs_error = two_over_pi * (raw_err + half)
        converged = blk.converged and abs_error <= 0.9 * tol * max(1.0, abs(value))
        # further blocks cannot make up for one short of its tol, and each
        # costs at least one panel
        if converged or not blk.converged or evals + 15 > max_evals:
            return QuadratureResult(value, abs_error, evals, converged)
        lo, hi = hi, 2.0 * hi
