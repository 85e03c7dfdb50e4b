"""One-dimensional quadrature with error estimates.

One driver advances a family of finite integrals in lock-step with a
globally adaptive Gauss-Kronrod (7, 15) rule and QUADPACK's embedded error
estimate (Piessens et al., 1983).  That estimate scales |Kronrod - Gauss|
by a heuristic; it is not a proven bound on the error.
`integrate_adaptive` is its one-member call.  The semi-infinite integrals
(2/pi) * int_0^inf g(t)/t^2 dt, with g even, bounded and O(t^2) at the
origin, arise from characteristic-function representations of first
absolute moments (Haagerup, "The best constants in the Khintchine
inequality", Studia Math. 70 (1981)); `integrate_khinchin_tail` takes one
of them, and `integrate_periodic_tails` a family of periodic ones.

The integrand of a family receives the points and each point's member
index, and sees the points grouped by member in increasing member order.
The seed panels of all members, in member order, go PANEL_CHUNK at a
time, each chunk in one integrand call on its (chunk, 15) grid of nodes.
Then, each round, every member whose summed error estimate exceeds the
tolerance, and whose budget allows, gives up its worst panels: as many
as it takes for their error estimates to cover that excess, and at most
PANEL_CHUNK.  All of them are bisected together, PANEL_CHUNK bisections
(30 points each) per integrand call.  This is the vectorized refinement
of Shampine ("Vectorized adaptive quadrature in MATLAB", J. Comput.
Appl. Math. 211, 2008).  A member's running sums take its bisections one
by one, in the order its panels left its heap.  Each member keeps its
own evaluation budget, which covers its seed panels too (past it, every
k-th breakpoint is kept; a budget below one panel raises ValueError), its
own depth cap and its own convergence flag, so it reports what it would
alone, save the order of some sums.
The 15-term panel sums run through BLAS matrix-vector products, whose
order of summing a row can depend on how many rows the call holds, so a
seed panel's value and error estimate can move in the last bits with
the panels that share its chunk.  Each bisection sums its two halves as
a block of its own, as a driver that bisects one panel per call does.

The semi-infinite integrals start at t = 0 and take one of three routes,
each with no truncation error or a closed-form remainder; the integrand is
bounded at 0 and no node touches an endpoint, so the origin needs no
special zone.  The first two rest on one fold: for g even and periodic
with period P, sum_{k in Z} (u + kP)^(-2) = (pi/P)^2 csc^2(pi u/P) gives
int_0^inf g/t^2 = int_0^{P/2} g(u) (pi/P)^2 csc^2(pi u/P) du.
- Exact periodic sum (`integrate_khinchin_tail`), for a trigonometric
  polynomial g of known degree K in units of 2 pi/P (a product of
  characteristic functions under commensurable rational weights).  Then
  g(0) = 0 makes g(u) csc^2(pi u/P) a trigonometric polynomial of degree
  K - 1, which the P-periodic midpoint rule with K nodes integrates
  exactly (Trefethen and Weideman, "The exponentially convergent
  trapezoidal rule", SIAM Rev. 56, 2014); evenness about P/2 leaves
  ceil(K/2) distinct nodes.  Its error is an a-priori bound on rounding,
  derived at `_periodic_sum`.
- Gauss-Kronrod on the folded half period (`integrate_periodic_tails`),
  for periodic g of no known degree: the |phi|^s integrands.
- By parts (`integrate_khinchin_tail`), for g = 1 - psi with
  psi(t) = E cos(tS) for a known finite law S: with M = P(S = 0) and
  K = E[|S|^-1; S != 0], integration by parts gives
  int_T^inf g/t^2 = (1 - M)/T - R with |R| <= 2K/T^2, since the
  antiderivative of psi - M is bounded by K.  One integral over [0, T]
  with T = sqrt(2K/eps) leaves a tail error eps.
Each route reports the achieved error, flagged as non-converged when the
tolerance is out of reach within the evaluation budget.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_khinchin_tail",
    "integrate_periodic_tails",
]

_EPS = np.finfo(float).eps
_UNIT = 0.5 * float(_EPS)  # unit roundoff u: a rounded operation is off by at most u relative
_ROUNDOFF = 50.0 * _EPS  # QUADPACK's floor on a panel's error estimate, per unit resabs
_ZERO = np.zeros(1)

#: bisections of a seed panel past which a piece is not refined
_MAX_DEPTH = 60

#: seed panels (15 nodes each) per integrand call, bisections (30 nodes
#: each) per refinement call, and the most panels one member gives up in a round
PANEL_CHUNK = 128

#: most seed panels the by-parts tail lays over [0, T]
SEED_CAP = 20_000

#: most nodes of the exact periodic sum, the points of SEED_CAP seed panels;
#: a degree that needs more goes by parts
NODE_CAP = 15 * SEED_CAP


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with an error estimate.

    `abs_error` estimates |value - true integral| by QUADPACK's heuristic
    (plus the truncation terms of the tail scheme); it is not a proven
    bound, save on the exact periodic route of `integrate_khinchin_tail`,
    where it bounds the rounding.  `evaluations` counts integrand points;
    `converged` is False when a depth or budget cap stopped refinement
    before the tolerance was met, or when the rounding bound of the exact
    periodic route exceeds it (the value and the larger error are still
    reported).  `tail` is (T, M, K) when `integrate_khinchin_tail` cut the
    integral at T by integration by parts, and None otherwise.
    """

    value: float
    abs_error: float
    evaluations: int
    converged: bool = True
    tail: tuple[float, float, float] | None = None


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


def _evaluate(f, xs: np.ndarray, *args) -> np.ndarray:
    """f(xs, *args) as floats; f must be vectorized, returning one value per point."""
    ys = np.asarray(f(xs, *args), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(
            f"integrand must map an array of shape {xs.shape} to one of the same shape, "
            f"got shape {ys.shape}")
    return ys


def _gk15(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [a, b], elementwise over two arrays of one shape,
    in one integrand call on the flattened grid of their 15 nodes each;
    returns per-panel (values, error estimates) in that shape.  Each 15-term
    sum is one row of a matrix-vector product over the last axis, so panels
    in separate rows of a 2-D shape are summed as separate calls would."""
    width = b - a
    half = 0.5 * width
    mid = 0.5 * (a + b)
    xs = mid[..., None] + half[..., None] * _KRONROD_X
    ys = _evaluate(f, xs.ravel()).reshape(xs.shape)
    val_k = half * (ys @ _KRONROD_W)
    val_g = half * (ys[..., 1::2] @ _GAUSS_W)
    resabs = half * (np.abs(ys) @ _KRONROD_W)
    mean = val_k / width
    resasc = half * (np.abs(ys - mean[..., None]) @ _KRONROD_W)
    diff = np.abs(val_k - val_g)
    scaled = resasc > 0.0
    ratio = np.divide(200.0 * diff, resasc, out=np.zeros_like(diff), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), diff)
    return val_k, np.maximum(err, _ROUNDOFF * resabs)


class _Member:
    """Running state of one integral of a family: the value and error sums,
    the evaluations spent, and the heap of refinable panels."""

    __slots__ = ("val", "err", "evals", "seq", "heap", "thinned")


def _panel_cap(max_evals: int) -> int:
    """Most 15-point panels a budget of `max_evals` points covers; a budget
    below one panel raises ValueError."""
    if max_evals < 15:
        raise ValueError(f"the evaluation budget must cover one 15-point panel, got {max_evals!r}")
    return max_evals // 15


def _integrate_family(f, intervals, tol: float, max_evals: int) -> list[QuadratureResult]:
    """Adaptive integrals of x -> f(x, m) over the m-th of `intervals`, all
    advanced in lock-step; one result per member.

    `intervals` holds one (lo, hi, breakpoints) per member: a finite
    interval and the interior points that seed its subdivision.
    f(xs, members) gets a 1-D array of points and the member index of each
    point (an int array of the same shape), and must return one value per
    point.  Each member follows the rules of `integrate_adaptive` with its
    own budget of `max_evals` points; the module docstring gives the order
    of the integrand calls.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    cap = _panel_cap(max_evals)
    lefts, rights, members = [], [], []
    for lo, hi, breakpoints in intervals:
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
        inner = np.unique(np.asarray(breakpoints, dtype=float))
        inner = inner[(inner > lo) & (inner < hi)]
        member = _Member()
        member.thinned = inner.size + 1 > cap
        if member.thinned:
            step = -(-(inner.size + 1) // cap)  # ceil(panels / cap)
            inner = inner[step - 1::step]
        ends = np.concatenate(([lo], inner, [hi]))
        lefts.append(ends[:-1])
        rights.append(ends[1:])
        members.append(member)
    if not members:
        return []

    sizes = [x.size for x in lefts]
    a, b = np.concatenate(lefts + rights).reshape(2, -1)
    owners = np.arange(len(members)).repeat([15 * n for n in sizes])  # member of each seed node
    chunks = [_gk15(lambda xs: f(xs, owners[15 * i:15 * (i + PANEL_CHUNK)]),
                    a[i:i + PANEL_CHUNK], b[i:i + PANEL_CHUNK])
              for i in range(0, a.size, PANEL_CHUNK)]
    vals = np.concatenate([v for v, _ in chunks])
    errs = np.concatenate([e for _, e in chunks])
    start = 0
    for member, n, lo, hi in zip(members, sizes, lefts, rights):
        v, e = vals[start:start + n], errs[start:start + n]
        start += n
        # cumsum adds left to right: the running sums over the panels from 0.0
        member.val, member.err = np.concatenate((_ZERO, v, _ZERO, e)).reshape(2, -1).cumsum(
            axis=1)[:, -1].tolist()
        member.evals = 15 * n
        member.seq = n
        member.heap = []
        if member.err > tol * max(1.0, abs(member.val)):
            # (-err, seq, a, b, val, err, depth): the worst panel pops first
            member.heap = list(zip((-e).tolist(), range(n), lo.tolist(), hi.tolist(),
                                   v.tolist(), e.tolist(), [0] * n))
            heapq.heapify(member.heap)

    while True:
        picked = []  # (member, its index, a, mid, b, val, err, depth)
        for k, member in enumerate(members):
            room = min(PANEL_CHUNK, (max_evals - member.evals) // 30)
            excess = member.err - tol * max(1.0, abs(member.val))
            covered, taken = 0.0, 0
            while member.heap and taken < room and covered < excess:
                _, _, lo, hi, val, err, depth = heapq.heappop(member.heap)
                if depth >= _MAX_DEPTH or hi - lo <= 8.0 * _EPS * max(abs(lo), abs(hi), 1.0):
                    # Unrefinable piece: keep its contribution, stop touching it.
                    continue
                picked.append((member, k, lo, 0.5 * (lo + hi), hi, val, err, depth))
                covered += err
                taken += 1
        if not picked:
            break
        for i in range(0, len(picked), PANEL_CHUNK):
            batch = picked[i:i + PANEL_CHUNK]
            ends = np.array([p[2:5] for p in batch])  # (a, mid, b) per parent
            owners = np.array([p[1] for p in batch]).repeat(30)
            halves, half_errs = _gk15(lambda xs: f(xs, owners), ends[:, :2], ends[:, 1:])
            for (member, _, lo, mid, hi, val, err, depth), (v1, v2), (e1, e2) in zip(
                    batch, halves.tolist(), half_errs.tolist()):
                member.evals += 30
                member.val += (v1 + v2) - val
                member.err += (e1 + e2) - err
                heapq.heappush(member.heap, (-e1, member.seq, lo, mid, v1, e1, depth + 1))
                heapq.heappush(member.heap, (-e2, member.seq + 1, mid, hi, v2, e2, depth + 1))
                member.seq += 2

    return [QuadratureResult(m.val, m.err, m.evals,
                             not m.thinned and m.err <= tol * max(1.0, abs(m.val)))
            for m in members]


def integrate_adaptive(
    f,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    *,
    max_evals: int = 10_000_000,
    breakpoints=(),
) -> QuadratureResult:
    """Adaptive panel-bisection integral of f over the finite interval [lo, hi].

    The one-member call of the module's family driver: refines the
    interval with the worst embedded error estimates until the summed
    estimate satisfies abs_error <= tol * max(1, |result|), a depth cap of
    _MAX_DEPTH bisections, or the evaluation budget.  `breakpoints` seeds
    the initial subdivision (interior points; kinks and known feature
    scales go here).  When the budget cannot cover the panels they make,
    at most max_evals // 15 panels are kept by taking every k-th
    breakpoint, and the result is flagged unconverged; a budget below one
    panel (15 points) raises ValueError.  Each round bisects the fewest
    worst panels whose error estimates cover the excess over the
    tolerance, at most PANEL_CHUNK, in one integrand call.  The integrand
    must be vectorized: called on an array of points it returns an array
    of the same shape, or a ValueError is raised.
    """
    return _integrate_family(lambda xs, _: f(xs), [(lo, hi, breakpoints)], tol, max_evals)[0]


def _seed_count(hi: float, width: float) -> int:
    """Number of panels of roughly the given width that cover [0, hi]."""
    return max(int(hi / max(width, 1e-12)), 0)


def _seed_breakpoints(hi: float, n: int) -> np.ndarray:
    """Interior breakpoints of n uniform seed panels over [0, hi]: the
    points k (hi / n), 0 < k < n, that np.linspace(0, hi, n + 1) makes,
    without its fixed cost."""
    return np.arange(1, n) * (hi / n) if n > 1 else np.empty(0)


def _seed_width(rate_hint) -> float:
    """Seed panel width pi/rate for a rate hint (1 when None or 0)."""
    return math.pi / max(float(rate_hint) if rate_hint else 1.0, 1e-6)


def _period(period_hint) -> float:
    """A period hint as a float, which must be positive and finite."""
    period = float(period_hint)
    if not (period > 0.0 and math.isfinite(period)):
        raise ValueError("period_hint must be a positive finite number")
    return period


def integrate_periodic_tails(
    g,
    periods,
    tol: float = 1e-8,
    *,
    rate_hints,
    max_evals: int = 10_000_000,
) -> list[QuadratureResult]:
    """(2/pi) * int_0^inf g(t, m)/t^2 dt for each member m of a family of
    periodic integrands, advanced in lock-step as one family.

    g(ts, members) is called as a family integrand is; t -> g(t, m) must
    meet the preconditions of `integrate_khinchin_tail` and be periodic
    with period periods[m].  Member m is
    int_0^{P/2} g(u, m) (pi/P)^2 csc^2(pi u/P) du with P = periods[m],
    exactly, on seed panels of width pi/rate_hints[m], where the rate
    bounds |d/dt| of the oscillatory part; a half period that needs more
    panels than the budget allows is seeded with what it allows and
    flagged unconverged.  `max_evals` caps the
    integrand points of each member; below one panel (15 points) it raises
    ValueError.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    if len(rate_hints) != len(periods):
        raise ValueError("need one rate hint per period")
    panels = _panel_cap(max_evals)
    scales, seeds, spans = [], [], []
    for period, rate in zip(periods, rate_hints):
        period = _period(period)
        half = 0.5 * period
        n = _seed_count(half, _seed_width(rate))
        scales.append(math.pi / period)
        seeds.append(n)
        spans.append((0.0, half, _seed_breakpoints(half, min(n, panels))))
    scales = np.array(scales)

    def weighted(us, members):
        # sum_{k in Z} (u + kP)^-2 = (pi/P)^2 csc^2(pi u/P), and g is even
        # and P-periodic: the half-line folds onto [0, P/2]
        scale = scales[members]
        w = scale / np.sin(scale * us)
        return _evaluate(g, us, members) * (w * w)

    two_over_pi = 2.0 / math.pi
    # within tol of the raw integral is within tol after the factor 2/pi
    return [QuadratureResult(two_over_pi * res.value, two_over_pi * res.abs_error,
                             res.evaluations, res.converged and n <= panels)
            for res, n in zip(_integrate_family(weighted, spans, tol, max_evals), seeds)]


def _periodic_sum(g, period: float, degree: int, error_slope: float) -> tuple[float, float]:
    """(2/pi) int_0^inf g(t)/t^2 dt by the exact periodic midpoint rule, for
    g a trigonometric polynomial of degree K = `degree` in units of 2 pi/P,
    P = `period`, with g(0) = 0; returns the value and a bound on its rounding.

    With theta_j = pi (j + 1/2)/K and nodes t_j = theta_j P/pi, the K-node
    midpoint rule over one period of the folded integrand is exact, and
    t_{K-1-j} = P - t_j carries the same term, so with n = ceil(K/2)

        I = (pi/(P K)) sum_{j<K} g(t_j) csc^2 theta_j
          = (2 pi/(P K)) sum_{j<n} mu_j g(t_j) csc^2 theta_j,

    mu_j = 1 save mu = 1/2 on the node theta = pi/2 of an odd K.

    The bound, to first order in the unit roundoff u = eps/2, with the
    constants rounded up to cover the higher orders.  P is taken within 4u
    of the true period (float(2 pi/omega) rounds three times), and sin
    within 4 ulp, 8u, of the true sine.
    - g: the computed node is within 6u of t_j (4u from P, one rounding
      each for P/K and its multiple).  The caller vouches that g there
      returns a value within s t_j of g(t_j), s = `error_slope`.  Weighted,
      that is (2 pi/(P K)) sum_j mu_j csc^2(theta_j) s t_j
      = (2 s/K) sum_j mu_j theta_j csc^2 theta_j, and sin theta >= 2 theta/pi
      on [0, pi/2] bounds it by (s pi/2) sum_{j<n} 1/(j + 1/2)
      <= (s pi/2)(2 + ln n), the sum bounded by the convexity of 1/x.
    - csc^2: theta_j comes off by 3u (fl(pi), /K, times j + 1/2), so sin
      theta_j by 3u theta cot theta + 8u <= 11u, its reciprocal by 12u and
      the square by 25u; the product with g(t_j) makes each term tau_j good
      to 26u.
    - the sum: math.fsum rounds once, u |sum|.
    - the prefactor 2 pi/(P K): fl(pi), /P and /K round once each and P is
      off by 4u, so 7u, and its product with the sum one more: with fsum,
      9u |value|.
    So |value - I| <= s (pi/2)(2 + ln n) + 32u (2 pi/(P K)) sum_j |tau_j|
    + 16u |value|.
    """
    n = (degree + 1) // 2
    halves = np.arange(n) + 0.5
    csc = 1.0 / np.sin(halves * (math.pi / degree))
    terms = _evaluate(g, halves * (period / degree)) * (csc * csc)
    if degree % 2:
        terms[-1] *= 0.5  # the node pi/2 is its own mirror image
    scale = 2.0 * math.pi / period / degree
    value = scale * math.fsum(terms.tolist())
    abs_error = (0.5 * math.pi * (2.0 + math.log(n)) * error_slope
                 + _UNIT * (32.0 * scale * float(np.abs(terms).sum()) + 16.0 * abs(value)))
    return value, abs_error


def integrate_khinchin_tail(
    g,
    period_hint: float | None = None,
    tol: float = 1e-8,
    *,
    degree: int | None = None,
    error_slope: float = 0.0,
    rate_hint: float | None = None,
    bohr=None,
    max_evals: int = 10_000_000,
) -> QuadratureResult:
    """Compute (2/pi) * int_0^inf g(t)/t^2 dt.

    Preconditions on g: even, bounded, g(0) = 0 with g(t) = O(t^2) at the
    origin (true for g(t) = 1 - prod_j phi_j(a_j t) built from
    characteristic functions of symmetric laws).  Every route starts at
    t = 0, so g must keep its relative accuracy at small t: build it from
    1 - phi, not from phi.  Two routes (the module docstring gives their
    mathematics):

    - Exact periodic sum.  `period_hint` P and `degree` K, given together,
      say that g is a trigonometric polynomial of degree K in units of
      2 pi/P (rational-support laws under rational weights; never float
      weights).  The sum takes its ceil(K/2) nodes, when they number at
      most NODE_CAP and at most `max_evals`.  Its `abs_error` bounds the
      rounding (see `_periodic_sum`), given the caller's `error_slope` s:
      g, called at a node t within 6u of the exact one (u = eps/2),
      returns a value within s t of the exact g(t); `converged` is
      abs_error <= tol * max(1, |value|).  No sum is taken over fewer
      nodes than the degree needs: past either cap the integral goes by
      parts.  A period without a degree raises ValueError; a family of
      periodic g of no known degree goes to `integrate_periodic_tails`.
    - By parts, without a period or past the exact sum's caps.  `bohr` =
      (M, K, shift), or a function returning it that runs only on this
      route, describes g = 1 - psi with psi(t) = E cos(tS) for a finite law
      S: M = P(S = 0), the Bohr mean of psi, and K = E[|S|^-1; S != 0],
      read from a law whose atoms lie within `shift` of those of S (0 when
      exact).  One integral runs over [0, T] with T = sqrt(2K/eps),
      eps = 0.2 pi tol, and the tail adds (1 - M)/T; the error is
      (2/pi) (quadrature error + 2K/T^2) + shift, where moving atoms by at
      most `shift` moves the tail term by at most (pi/2) shift.  A budget
      too small to seed [0, T] at panel width pi/rate shrinks T to what it
      covers, charges 2K/T^2 there and flags the result unconverged; a
      budget below one panel (15 points) raises ValueError.  The result's
      `tail` is (T, M, K).  Without `bohr` this route raises ValueError.

    `rate_hint` bounds |d/dt| of the oscillatory part and seeds the
    Gauss-Kronrod subdivision with panels of width pi/rate, so narrow
    features are not missed by the panel rule.  `max_evals` caps the
    integrand points; a Gauss-Kronrod run that exhausts it returns what it
    integrated (plus the tail term at the T reached) flagged unconverged.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    if period_hint is None:
        if degree is not None:
            raise ValueError("degree needs period_hint")
        if bohr is None:
            raise ValueError("the tail needs period_hint and degree (g a trigonometric "
                             "polynomial) or bohr (g = 1 - E cos(tS) for a finite law S)")
    else:
        period = _period(period_hint)
        if degree is None:
            raise ValueError("period_hint needs degree; integrate_periodic_tails takes "
                             "a periodic g of no known degree")
        degree = operator.index(degree)
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        nodes = (degree + 1) // 2
        if nodes <= min(NODE_CAP, max_evals):
            value, abs_error = _periodic_sum(g, period, degree, error_slope)
            return QuadratureResult(value, abs_error, nodes,
                                    abs_error <= tol * max(1.0, abs(value)))
        if bohr is None:
            raise ValueError(f"the exact periodic sum needs {nodes} nodes, past "
                             f"min(NODE_CAP, max_evals); going by parts needs bohr")

    def f(ts):
        return _evaluate(g, ts) / ts**2

    seed_width = _seed_width(rate_hint)
    mean, k, shift = (float(x) for x in (bohr() if callable(bohr) else bohr))
    # (2/pi) 2K/T^2 = 0.4 tol, and the quadrature's 0.5 tol max(1, raw)
    # is at most 0.5 tol max(1, value) after the factor 2/pi
    cut = max(math.sqrt(2.0 * k / (0.2 * math.pi * tol)), seed_width)
    panels = _panel_cap(max_evals)
    short = _seed_count(cut, seed_width) > panels
    if short:
        cut = panels * seed_width
    res = integrate_adaptive(f, 0.0, cut, 0.5 * tol, max_evals=max_evals,
                             breakpoints=_seed_breakpoints(
                                 cut, min(_seed_count(cut, seed_width), SEED_CAP)))
    two_over_pi = 2.0 / math.pi
    value = two_over_pi * (res.value + (1.0 - mean) / cut)
    abs_error = two_over_pi * (res.abs_error + 2.0 * k / (cut * cut)) + shift
    converged = res.converged and not short and abs_error <= tol * max(1.0, abs(value))
    return QuadratureResult(value, abs_error, res.evaluations, converged, (cut, mean, k))
