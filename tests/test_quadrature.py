import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from khinchin_lab.exactprob import StepLawParams, make_step_law
from khinchin_lab.haagerup import CHARFN_BLOCK, CharFn
from khinchin_lab.quadrature import (
    PANEL_CHUNK,
    QuadratureError,
    _GAUSS_W,
    _KRONROD_W,
    _KRONROD_X,
    _gk15,
    integrate_adaptive,
    integrate_khinchin_tail,
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
        integrate_khinchin_tail(lambda t: 0.5, period_hint=2 * math.pi)


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
    assert set(sizes[seeds:]) == {30}  # both children in one call
    assert res.evaluations == sum(sizes)


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


def test_budget_exhaustion_flags_nonconvergence():
    res = integrate_adaptive(np.sin, 0.0, 10.0, tol=1e-14, max_evals=60)
    assert not res.converged
    with pytest.raises(QuadratureError):
        res.require_converged()


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


# (2/pi) int (1 - cos t)/t^2 dt = 1: the single random-sign first moment.
def test_tail_one_minus_cos():
    res = integrate_khinchin_tail(lambda t: 1.0 - np.cos(t),
                                  period_hint=2 * math.pi, tol=1e-8)
    assert res.converged
    assert abs(res.value - 1.0) < 2e-8


# g = sin^2(t/sqrt(2)) is the two-fold |cos|^2 bracket; the integral is
# 1/sqrt(2) by the substitution u = t/sqrt(2).
def test_tail_sin_squared():
    res = integrate_khinchin_tail(
        lambda t: np.sin(t / math.sqrt(2.0)) ** 2,
        period_hint=math.pi * math.sqrt(2.0), tol=1e-8)
    assert res.converged
    assert abs(res.value - 1.0 / math.sqrt(2.0)) < 2e-8


def test_tail_two_coin_product():
    # E|X1 + X2| for the +-1 coin through 1 - cos^2 t; equals 1.
    res = integrate_khinchin_tail(lambda t: 1.0 - np.cos(t) ** 2,
                                  period_hint=math.pi, tol=1e-8)
    assert res.converged
    assert abs(res.value - 1.0) < 2e-8


def test_tail_zero_integrand():
    res = integrate_khinchin_tail(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                                  period_hint=math.pi, tol=1e-8)
    assert abs(res.value) < 1e-12


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
