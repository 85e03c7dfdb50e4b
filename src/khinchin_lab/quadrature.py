"""One-dimensional quadrature with error estimates.

Two entry points.  `integrate_adaptive` handles finite intervals with a
globally adaptive Gauss-Kronrod (7, 15) rule and QUADPACK's embedded error
estimate (Piessens et al., 1983).  That estimate scales |Kronrod - Gauss|
by a heuristic; it is not a proven bound on the error.
`integrate_khinchin_tail` handles the semi-infinite integrals
(2/pi) * int_0^inf g(t)/t^2 dt, with g even, bounded and O(t^2) at the
origin, that arise from characteristic-function representations of first
absolute moments.

Panels are evaluated in batches: the panels of the initial subdivision go
PANEL_CHUNK at a time, each chunk in one integrand call on its (chunk, 15)
grid of nodes, and each bisection evaluates both halves of the worst panel
in one 30-point call.  Refinement order and running sums follow the
panels one by one, as a panel-at-a-time driver would; a panel's value and
error estimate can differ from one-panel calls only through the summation
order inside its 15-term rule.

The semi-infinite routine splits the axis into three zones: a Taylor zone
near 0 where g(t)/t^2 is replaced by its even quadratic extension (the
limit g(t)/t^2 -> g''(0)/2 is estimated by symmetric differencing), an
adaptive middle zone, and a tail.  When the integrand is periodic (laws
with rational support and commensurable rational weights) the tail over
[T, inf) collapses exactly onto a single period integrated against the
weight sum_k (T+u+kP)^(-2), which is a trigamma value, so no truncation
error is incurred.  Aperiodic integrands instead grow T under the coarse
bound sup|g|/T and report the achieved error, flagged as non-converged
when the tolerance is out of reach within the evaluation budget.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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

#: most seed panels the tail routine lays over one zone
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
    reported).
    """

    value: float
    abs_error: float
    evaluations: int
    converged: bool = True

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
    scales go here).  The integrand must be vectorized: called on an array
    of points it returns an array of the same shape, or a ValueError is
    raised.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    inner = np.unique(np.asarray(breakpoints, dtype=float))
    ends = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
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

    converged = total_err <= tol * max(1.0, abs(total_val))
    return QuadratureResult(total_val, total_err, evals, converged)


def _seed_count(lo: float, hi: float, width: float) -> int:
    """Number of panels of roughly the given width that cover [lo, hi]."""
    return max(int((hi - lo) / max(width, 1e-12)), 0)


def _seed_points(lo: float, hi: float, width: float):
    """Uniform interior breakpoints of roughly the given width, at most
    SEED_CAP panels."""
    n = min(_seed_count(lo, hi, width), SEED_CAP)
    if n <= 1:
        return ()
    return np.linspace(lo, hi, n + 1)[1:-1]


def integrate_khinchin_tail(
    g,
    period_hint: float | None = None,
    tol: float = 1e-8,
    *,
    rate_hint: float | None = None,
    sup_bound: float = 2.0,
    max_evals: int = 10_000_000,
    max_depth: int = 60,
) -> QuadratureResult:
    """Compute (2/pi) * int_0^inf g(t)/t^2 dt.

    Preconditions on g: even, bounded by `sup_bound`, g(0) = 0 with
    g(t) = O(t^2) at the origin (true for g(t) = 1 - prod_j phi_j(a_j t)
    built from characteristic functions of symmetric laws, and for the
    |phi|^s variants).

    `period_hint` activates the exact periodic tail; pass it only when g is
    genuinely periodic with that period (rational-support laws under
    rational weights; never float weights).  `rate_hint` bounds |d/dt| of
    the oscillatory part and seeds the subdivision so narrow features are
    not missed by the panel rule; a periodic zone that would need more than
    SEED_CAP seed panels of width pi/rate is reported as not converged.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    def fn(ts):
        return _evaluate(g, ts)

    t0 = 1e-3
    two_over_pi = 2.0 / math.pi

    # Taylor zone [0, t0]: g(t)/t^2 = c + d t^2 + O(t^4) with even g.
    pair = fn(np.array([t0 / 2.0, t0]))
    evals = 2
    g_half = pair[0] / (t0 / 2.0) ** 2
    g_full = pair[1] / t0**2
    c = (4.0 * g_half - g_full) / 3.0
    d = 4.0 * (g_full - g_half) / (3.0 * t0 * t0)
    near_val = c * t0 + d * t0**3 / 3.0
    near_err = abs(d) * t0**3 + 1e-12 * max(1.0, abs(c)) * t0

    rate = max(float(rate_hint) if rate_hint else 1.0, 1e-6)
    seed_width = math.pi / rate

    def midf(ts):
        return fn(ts) / ts**2

    if period_hint is not None:
        period = float(period_hint)
        if not (period > 0.0 and math.isfinite(period)):
            raise ValueError("period_hint must be a positive finite number")
        t_switch = max(12.0, period)
        mid = integrate_adaptive(
            midf, t0, t_switch, tol=0.4 * tol,
            max_depth=max_depth, max_evals=max(max_evals // 2, 10_000),
            breakpoints=_seed_points(t0, t_switch, seed_width),
        )
        pref = 1.0 / (period * period)

        def tailf(us):
            ts = t_switch + us
            return fn(ts) * polygamma(1, ts / period) * pref

        tail = integrate_adaptive(
            tailf, 0.0, period, tol=0.4 * tol,
            max_depth=max_depth, max_evals=max(max_evals // 2, 10_000),
            breakpoints=_seed_points(0.0, period, seed_width),
        )
        raw_val = near_val + mid.value + tail.value
        raw_err = near_err + mid.abs_error + tail.abs_error
        evals += mid.evaluations + tail.evaluations
        # Wider than pi/rate, seed panels can step over the integrand's
        # features while the panel rule agrees with itself on them: a zone
        # that needs more than SEED_CAP of them is not converged.
        seeds_fit = max(_seed_count(t0, t_switch, seed_width),
                        _seed_count(0.0, period, seed_width)) <= SEED_CAP
        pieces_ok = mid.converged and tail.converged and seeds_fit
    else:
        # Aperiodic: integrate outward in doubling blocks under sup|g|/T.
        raw_mid = 0.0
        err_mid = 0.0
        lo_block = t0
        hi_block = 12.0
        pieces_ok = False
        while True:
            budget_left = max_evals - evals
            if budget_left < 30_000:
                break
            blk = integrate_adaptive(
                midf, lo_block, hi_block, tol=0.2 * tol,
                max_depth=max_depth, max_evals=budget_left - 10_000,
                breakpoints=_seed_points(lo_block, hi_block, seed_width),
            )
            raw_mid += blk.value
            err_mid += blk.abs_error
            evals += blk.evaluations
            lo_block = hi_block
            # 0 <= int_T^inf g/t^2 <= sup_bound/T: estimate the midpoint.
            bound = sup_bound / lo_block
            raw_err = near_err + err_mid + 0.5 * bound
            raw_val = near_val + raw_mid + 0.5 * bound
            if two_over_pi * raw_err <= 0.9 * tol * max(1.0, two_over_pi * abs(raw_val)):
                pieces_ok = True
                break
            hi_block *= 2.0
        bound = sup_bound / lo_block
        raw_val = near_val + raw_mid + 0.5 * bound
        raw_err = near_err + err_mid + 0.5 * bound

    value = two_over_pi * raw_val
    abs_error = two_over_pi * raw_err
    converged = pieces_ok and abs_error <= tol * max(1.0, abs(value))
    return QuadratureResult(value, abs_error, evals, converged)
