import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from khinchin_lab import quadrature
from khinchin_lab.exactprob import StepLawParams, make_step_law
from khinchin_lab.haagerup import CHARFN_BLOCK, CharFn
from khinchin_lab.quadrature import (
    PANEL_CHUNK,
    _GAUSS_W,
    _KRONROD_W,
    _KRONROD_X,
    _gk15,
    _integrate_family,
    integrate_adaptive,
    integrate_khinchin_tail,
    integrate_periodic_tails,
)

EPS = np.finfo(float).eps


def test_polynomial_exact():
    res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-10)
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) < 1e-12
    assert res.abs_error <= 1e-10 * max(1.0, abs(res.value))


def test_gaussian_mass():
    res = integrate_adaptive(
        lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -8.0, 8.0, tol=1e-10)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-10


@pytest.mark.parametrize("f,lo,hi", [
    (lambda x: np.exp(-0.5 * x * x) * np.cos(3 * x), -6.0, 6.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 4.0),
    (lambda x: np.abs(x) ** 2.5, 0.0, 2.0),
    (lambda x: np.sin(7 * x) ** 2 / (1 + x), 0.0, 10.0),
])
def test_matches_scipy_on_smooth_corpus(f, lo, hi):
    res = integrate_adaptive(f, lo, hi, tol=1e-10)
    ref, _ = quad(lambda x: float(f(np.asarray(x))), lo, hi,
                  epsabs=1e-12, epsrel=1e-12, limit=300)
    assert res.converged
    assert abs(res.value - ref) <= max(res.abs_error, 1e-9)
    assert res.abs_error <= 1e-10 * max(1.0, abs(res.value))


def test_breakpoint_kink():
    # int_0^1 |x - 1/3| dx = 5/18
    res = integrate_adaptive(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                             tol=1e-12, breakpoints=(1.0 / 3.0,))
    assert abs(res.value - 5.0 / 18.0) < 1e-12


def test_scalar_returning_integrand_raises():
    with pytest.raises(ValueError, match="same shape"):
        integrate_adaptive(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="same shape"):
        integrate_khinchin_tail(lambda t: 0.5, period_hint=2 * math.pi, degree=1)
    with pytest.raises(ValueError, match="same shape"):
        integrate_periodic_tails(lambda t, m: 0.5, [2 * math.pi], rate_hints=[1.0])


def test_integrand_error_on_arrays_propagates():
    def f(x):  # scalar-only: the comparison is ambiguous on an array
        if x < 0.5:
            return float(x)
        return float(1.0 - x)
    with pytest.raises(ValueError, match="truth value"):
        integrate_adaptive(f, 0.0, 1.0, tol=1e-10, breakpoints=(0.5,))


def _gk15_error(diff, resasc, resabs):
    """QUADPACK's error estimate from |Kronrod - Gauss|, resasc and resabs."""
    if resasc > 0.0 and diff > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return max(err, 50.0 * EPS * resabs)


def _gk15_reference(f, a, b):
    """One QUADPACK (7, 15) panel: one integrand call on its 15 nodes, then
    the sums in Python floats.  Returns (value, diff, resasc, resabs)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = f(mid + half * _KRONROD_X).tolist()
    wk, wg = _KRONROD_W.tolist(), _GAUSS_W.tolist()
    val_k = half * sum(w * y for w, y in zip(wk, ys))
    val_g = half * sum(w * y for w, y in zip(wg, ys[1::2]))
    resabs = half * sum(w * abs(y) for w, y in zip(wk, ys))
    mean = val_k / (b - a)
    resasc = half * sum(w * abs(y - mean) for w, y in zip(wk, ys))
    return val_k, abs(val_k - val_g), resasc, resabs


def _charfn_integrand():
    phi = CharFn.from_law(make_step_law(StepLawParams(Fraction(1, 3), 3)))
    weights = (1.0, math.sqrt(2.0), 0.3)

    def f(ts):
        acc = np.ones_like(ts)
        for a in weights:
            acc = acc * phi(a * ts)
        return (1.0 - acc) / ts**2
    return f


def test_batched_panels_match_per_panel_reference():
    f = _charfn_integrand()
    ends = np.linspace(1e-3, 150.0, 3001)
    lefts, rights = ends[:-1], ends[1:]
    chunks = [_gk15(f, lefts[i:i + PANEL_CHUNK], rights[i:i + PANEL_CHUNK])
              for i in range(0, lefts.size, PANEL_CHUNK)]
    vals = np.concatenate([v for v, _ in chunks])
    errs = np.concatenate([e for _, e in chunks])
    ref = [_gk15_reference(f, a, b) for a, b in zip(lefts.tolist(), rights.tolist())]
    ref_val = np.array([r[0] for r in ref])
    # Either order of summing 15 terms is within 15 eps * sum|terms| of the
    # exact sum, so the two orders differ by at most 32 eps * resabs, and
    # |Kronrod - Gauss| by twice that.  The error estimate grows with that
    # difference, so it lies between its values at the two ends of the
    # difference's range, up to a few ulps from resasc and resabs.
    value_tol = 32.0 * EPS * np.array([r[3] for r in ref])
    err_lo = np.array([_gk15_error(max(d - 2 * t, 0.0), ra, rb)
                       for (_, d, ra, rb), t in zip(ref, value_tol)])
    err_hi = np.array([_gk15_error(d + 2 * t, ra, rb)
                       for (_, d, ra, rb), t in zip(ref, value_tol)])
    assert np.all(np.abs(vals - ref_val) <= value_tol)
    assert np.all(errs >= err_lo * (1.0 - 8.0 * EPS))
    assert np.all(errs <= err_hi * (1.0 + 8.0 * EPS))

    n = lefts.size
    res = integrate_adaptive(f, 1e-3, 150.0, tol=1e-6, breakpoints=ends[1:-1])
    assert res.evaluations == 15 * n  # the seed panels meet tol
    # the sums of n terms add at most n eps times their size
    assert abs(res.value - ref_val.sum()) <= value_tol.sum() + n * EPS * np.abs(ref_val).sum()
    assert err_lo.sum() * (1.0 - n * EPS) <= res.abs_error <= err_hi.sum() * (1.0 + n * EPS)


def test_integrand_calls_hold_at_most_one_chunk():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sqrt(np.abs(np.sin(40.0 * x)))

    panels = 5 * PANEL_CHUNK + 7
    res = integrate_adaptive(f, 0.0, 3.0, tol=1e-9,
                             breakpoints=np.linspace(0.0, 3.0, panels + 1)[1:-1])
    seeds = -(-panels // PANEL_CHUNK)
    assert sizes[:seeds] == [15 * PANEL_CHUNK] * (seeds - 1) + [15 * (panels % PANEL_CHUNK)]
    assert len(sizes) > seeds  # the kinks of |sin| force bisection
    # each refinement call bisects 1 to PANEL_CHUNK panels, 30 points each
    assert all(size % 30 == 0 and 30 <= size <= 30 * PANEL_CHUNK for size in sizes[seeds:])
    assert res.evaluations == sum(sizes)


def test_family_integrand_sees_each_points_member():
    calls = []

    def f(x, members):
        calls.append(members.copy())
        return (members + 1.0) * np.ones_like(x)

    res = _integrate_family(f, [(0.0, 1.0, ()), (0.0, 2.0, (0.5, 1.0)), (1.0, 4.0, ())],
                            1e-10, 10_000)
    assert [r.value for r in res] == pytest.approx([1.0, 4.0, 9.0], rel=1e-14)
    assert [r.evaluations for r in res] == [15, 45, 15]
    assert len(calls) == 1  # the seed panels of every member in one call
    assert calls[0].tolist() == [0] * 15 + [1] * 45 + [2] * 15
    assert _integrate_family(f, [], 1e-10, 10_000) == []


def test_family_members_match_one_member_calls():
    # members of different difficulty refine in the same rounds, each on its
    # own budget: one converges on its seed panel, one within the budget, two
    # run out of it, and the results are those of separate calls
    def f(x, members):
        return np.sqrt(np.abs(np.sin((members + 1) * 20.0 * x)))

    intervals = [(0.0, 3.0, np.linspace(0.0, 3.0, 41)[1:-1]), (0.5, 2.0, ()),
                 (0.0, 1.0, (0.25, 0.5)), (0.1, 0.11, ())]
    sizes = []

    def recording(x, members):
        sizes.append(x.size)
        assert np.all(np.diff(members) >= 0)  # grouped by member, in order
        return f(x, members)

    family = _integrate_family(recording, intervals, 1e-9, 13_700)
    assert len(sizes) > 1 and all(size % 30 == 0 and size <= 30 * PANEL_CHUNK
                                  for size in sizes[1:])
    assert sum(sizes) == sum(r.evaluations for r in family)
    assert [r.converged for r in family] == [False, True, False, True]
    assert family[3].evaluations == 15
    for m, ((lo, hi, bps), got) in enumerate(zip(intervals, family)):
        solo = integrate_adaptive(lambda x: f(x, np.full(x.shape, m)), lo, hi, tol=1e-9,
                                  max_evals=13_700, breakpoints=bps)
        assert (got.evaluations, got.converged) == (solo.evaluations, solo.converged)
        # the seed panels may sum their 15 terms in another order (see
        # test_batched_panels_match_per_panel_reference); f >= 0, so resabs
        # sums to the value, and the estimate is 300-Lipschitz in
        # |Kronrod - Gauss|, which moves by at most 64 eps resabs
        n = solo.evaluations // 15
        assert abs(got.value - solo.value) <= (32 + 2 * n) * EPS * solo.value
        assert abs(got.abs_error - solo.abs_error) <= (
            300 * 64 * EPS * solo.value + (16 + 2 * n) * EPS * solo.abs_error)


def test_periodic_tails_family_matches_one_member_tails():
    # (2/pi) int (1 - cos(kt))/t^2 dt = k, period 2 pi / k
    ks = (1.0, 2.0, 3.0)
    family = integrate_periodic_tails(lambda t, members: 1.0 - np.cos(np.take(ks, members) * t),
                                      [2 * math.pi / k for k in ks], tol=1e-8,
                                      rate_hints=ks)
    for k, got in zip(ks, family):
        solo, = integrate_periodic_tails(lambda t, _: 1.0 - np.cos(k * t), [2 * math.pi / k],
                                         tol=1e-8, rate_hints=[k])
        assert got.converged and abs(got.value - k) < 2e-8 * k
        assert (got.evaluations, got.converged) == (solo.evaluations, solo.converged)
        assert got.value == pytest.approx(solo.value, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError, match="one rate hint per period"):
        integrate_periodic_tails(lambda t, m: t, [1.0, 2.0], rate_hints=[1.0])
    with pytest.raises(ValueError, match="period_hint"):
        integrate_periodic_tails(lambda t, m: t, [1.0, -2.0], rate_hints=[1.0, 1.0])


@pytest.mark.parametrize("k", [1, 2, 5, 40, 1001])
def test_exact_periodic_sum_of_one_cosine(k):
    # (2/pi) int (1 - cos(k t))/t^2 dt = k: degree k at period 2 pi.  At a
    # node off by 6u, k t is off by 7u, which moves cos by 7u k t; cos and
    # the subtraction add at most 10u, and k t >= pi at every node, so
    # s = (7 + 10/pi) u k covers the rounding of g
    calls = []

    def g(t):
        calls.append(t.size)
        return 1.0 - np.cos(k * t)

    res = integrate_khinchin_tail(g, 2 * math.pi, 1e-12, degree=k,
                                  error_slope=(7 + 10 / math.pi) * 0.5 * EPS * k)
    assert res.evaluations == (k + 1) // 2 == sum(calls) and len(calls) == 1
    assert res.tail is None and res.converged
    assert abs(res.value - k) <= res.abs_error <= 1e-12 * k


def test_exact_periodic_sum_reports_its_rounding_bound():
    # tol below the rounding bound: the sum is taken, flagged unconverged
    res = integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), 2 * math.pi, 1e-17, degree=3,
                                  error_slope=EPS)
    assert res.evaluations == 2 and not res.converged
    assert abs(res.value - 1.0) <= res.abs_error


def test_exact_periodic_sum_past_its_caps(monkeypatch):
    r2 = math.sqrt(2.0)
    g = lambda t: 1.0 - np.cos(t) * np.cos(r2 * t)  # any g: only the route is checked
    with pytest.raises(ValueError, match="needs bohr"):
        integrate_khinchin_tail(g, 2 * math.pi, degree=41, max_evals=20)
    res = integrate_khinchin_tail(g, 2 * math.pi, degree=41, max_evals=21, bohr=(0.0, r2, 0.0))
    assert res.tail is None and res.evaluations == 21
    res = integrate_khinchin_tail(g, 2 * math.pi, degree=41, max_evals=20, bohr=(0.0, r2, 0.0))
    assert res.tail is not None and res.evaluations <= 20 and not res.converged
    monkeypatch.setattr(quadrature, "NODE_CAP", 20)
    res = integrate_khinchin_tail(g, 2 * math.pi, degree=41, bohr=(0.0, r2, 0.0))
    assert res.tail is not None and res.converged
    with pytest.raises(ValueError, match="degree needs period_hint"):
        integrate_khinchin_tail(g, None, degree=3, bohr=(0.0, r2, 0.0))
    for bad in (0, -2):
        with pytest.raises(ValueError, match="positive integer"):
            integrate_khinchin_tail(g, 2 * math.pi, degree=bad)
    with pytest.raises(TypeError):
        integrate_khinchin_tail(g, 2 * math.pi, degree=2.5)


def test_charfn_blocks_bound_temporaries(monkeypatch):
    phi = CharFn.from_law(make_step_law(StepLawParams(Fraction(1, 2), 2000)))
    ts = np.linspace(0.0, 40.0, 15 * PANEL_CHUNK)
    whole = phi.zero_mass + np.cos(np.multiply.outer(ts, np.array(phi.frequencies))) @ (
        2.0 * np.array(phi.pair_masses))
    sin = np.sin
    sizes = []

    def recording_sin(x, *args, **kwargs):
        sizes.append(np.size(x))
        return sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", recording_sin)
    got = phi(ts)
    assert max(sizes) <= CHARFN_BLOCK
    assert sum(sizes) == ts.size * len(phi.frequencies)
    np.testing.assert_allclose(got, whole, rtol=0.0, atol=1e-13)


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tol_outside_positive_finite_rejected(tol):
    # a NaN tol fails every comparison, so it must be refused, not refined against
    for route in (lambda: integrate_adaptive(lambda x: x, 0.0, 1.0, tol=tol),
                  lambda: integrate_periodic_tails(lambda t, m: 1.0 - np.cos(t), [2 * math.pi],
                                                   tol, rate_hints=[1.0]),
                  lambda: integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), 2 * math.pi, tol,
                                                  degree=1)):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            route()


def test_budget_exhaustion_flags_nonconvergence():
    res = integrate_adaptive(np.sin, 0.0, 10.0, tol=1e-14, max_evals=60)
    assert not res.converged


def test_seed_panels_fit_the_budget():
    # 1000 seed panels against a 60-point budget: every 250th breakpoint stays
    res = integrate_adaptive(np.sin, 0.0, 10.0, tol=1e-14, max_evals=60,
                             breakpoints=np.linspace(0, 10, 1001)[1:-1])
    assert res.evaluations <= 60
    assert not res.converged


def test_linearity_within_error_budget():
    f = lambda x: np.exp(-x) * np.sin(x)
    g = lambda x: x ** 3
    rf = integrate_adaptive(f, 0.0, 3.0, tol=1e-11)
    rg = integrate_adaptive(g, 0.0, 3.0, tol=1e-11)
    rc = integrate_adaptive(lambda x: 2.0 * f(x) - 0.5 * g(x), 0.0, 3.0, tol=1e-11)
    combo = 2.0 * rf.value - 0.5 * rg.value
    assert abs(rc.value - combo) <= 2.0 * rf.abs_error + 0.5 * rg.abs_error + rc.abs_error


# Each g below has degree 1 in units of 2 pi/P, so the exact sum takes one
# node, t = P/2.  Its error slope s covers g's rounding there (u = eps/2):
# the node is off by 6u relative, which moves g by at most 6u t |g'|, and
# g's own roundings add c u for a g built from c roundings of values <= 1;
# with t = P/2 that is at most (6 |g'| + 2c/P) u t.

# (2/pi) int (1 - cos t)/t^2 dt = 1: the single random-sign first moment.
def test_tail_one_minus_cos():
    # |g'| <= 1, c = 10 (cos 8u, the subtraction 2u), P = 2 pi
    res = integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), period_hint=2 * math.pi,
                                  tol=1e-8, degree=1, error_slope=(6 + 10 / math.pi) * 0.5 * EPS)
    assert res.converged and res.tail is None and res.evaluations == 1
    assert abs(res.value - 1.0) <= res.abs_error <= 1e-8


# g = sin^2(t/sqrt(2)) is the two-fold |cos|^2 bracket; the integral is
# 1/sqrt(2) by the substitution u = t/sqrt(2).
def test_tail_sin_squared():
    # |g'| <= 1/sqrt(2) < 1, with 2u more on the argument from sqrt(2) and
    # the division; c = 20 (sin 8u, squared 17u, the argument 2u), P = pi sqrt(2)
    res = integrate_khinchin_tail(
        lambda t: np.sin(t / math.sqrt(2.0)) ** 2, period_hint=math.pi * math.sqrt(2.0),
        tol=1e-8, degree=1, error_slope=(8 + 40 / (math.pi * math.sqrt(2.0))) * 0.5 * EPS)
    assert res.converged and res.tail is None and res.evaluations == 1
    assert abs(res.value - 1.0 / math.sqrt(2.0)) <= res.abs_error <= 1e-8


def test_tail_two_coin_product():
    # E|X1 + X2| for the +-1 coin through 1 - cos^2 t; equals 1.
    # |g'| = |sin 2t| <= 1, c = 19 (cos 8u, squared 17u, the subtraction 2u), P = pi
    res = integrate_khinchin_tail(lambda t: 1.0 - np.cos(t) ** 2, period_hint=math.pi,
                                  tol=1e-8, degree=1, error_slope=(6 + 38 / math.pi) * 0.5 * EPS)
    assert res.converged and res.tail is None and res.evaluations == 1
    assert abs(res.value - 1.0) <= res.abs_error <= 1e-8


def test_tail_zero_integrand():
    def zero(t, *_):
        return np.zeros_like(np.asarray(t, dtype=float))

    res = integrate_khinchin_tail(zero, period_hint=math.pi, tol=1e-8, degree=1)
    assert (res.value, res.abs_error, res.converged) == (0.0, 0.0, True)
    # the Gauss-Kronrod family: every panel has resasc = 0, and its error
    # estimate is |Kronrod - Gauss| = 0
    res, = integrate_periodic_tails(zero, [math.pi], tol=1e-8, rate_hints=[1.0])
    assert (res.value, res.abs_error, res.converged) == (0.0, 0.0, True)


def test_tail_period_needs_a_degree():
    # a periodic g of no known degree goes to integrate_periodic_tails
    with pytest.raises(ValueError, match="period_hint needs degree"):
        integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), 2 * math.pi)
    with pytest.raises(ValueError, match="period_hint needs degree"):
        integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), 2 * math.pi,
                                bohr=(0.0, 1.0, 0.0))


def test_budget_below_one_panel_raises():
    with pytest.raises(ValueError, match="one 15-point panel"):
        integrate_adaptive(np.sin, 0.0, 1.0, max_evals=14)
    res = integrate_adaptive(np.sin, 0.0, 1.0, max_evals=15)
    assert res.evaluations == 15 and res.converged
    with pytest.raises(ValueError, match="one 15-point panel"):
        integrate_periodic_tails(lambda t, m: 1.0 - np.cos(t), [2 * math.pi], rate_hints=[1.0],
                                 max_evals=14)
    with pytest.raises(ValueError, match="one 15-point panel"):
        integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), bohr=(0.0, 1.0, 0.0), max_evals=14)
    # the exact periodic sum needs no panel: one node under a budget of 1
    res = integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), 2 * math.pi, degree=1,
                                  max_evals=1, bohr=(0.0, 1.0, 0.0))
    assert res.tail is None and res.evaluations == 1
    # past the budget it goes by parts, where the budget is too small
    with pytest.raises(ValueError, match="one 15-point panel"):
        integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), 2 * math.pi, degree=41,
                                max_evals=14, bohr=(0.0, 1.0, 0.0))


def test_tail_needs_a_period_or_bohr():
    # E|X1 + sqrt(2) X2| for the coin: no period, and without the law's
    # M and K there is no closed-form remainder to cut the integral with
    r2 = math.sqrt(2.0)
    with pytest.raises(ValueError, match="period_hint.*bohr"):
        integrate_khinchin_tail(lambda t: 1.0 - np.cos(t) * np.cos(r2 * t),
                                period_hint=None, tol=1e-5, rate_hint=1.0 + r2)


def test_tail_by_parts_route():
    # S = X1 + sqrt(2) X2 for the coin has atoms +-(sqrt(2) + 1) and
    # +-(sqrt(2) - 1), 1/4 each: M = P(S = 0) = 0 and K = E 1/|S| = sqrt(2)
    r2 = math.sqrt(2.0)
    res = integrate_khinchin_tail(
        lambda t: 1.0 - np.cos(t) * np.cos(r2 * t),
        period_hint=None, tol=1e-8, rate_hint=1.0 + r2, bohr=(0.0, r2, 0.0),
        max_evals=500_000)
    assert res.converged
    assert abs(res.value - r2) <= res.abs_error
    assert res.tail[1:] == (0.0, r2)


def test_tail_aperiodic_budget_flag():
    res = integrate_khinchin_tail(
        lambda t: 1.0 - np.cos(t) * np.cos(math.sqrt(2.0) * t),
        period_hint=None, tol=1e-10, bohr=(0.0, math.sqrt(2.0), 0.0), max_evals=50_000)
    assert not res.converged
    assert res.evaluations <= 50_000


def test_tail_rejects_bad_period():
    with pytest.raises(ValueError):
        integrate_khinchin_tail(lambda t: 1.0 - np.cos(t), period_hint=-1.0)
