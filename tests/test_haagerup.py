import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from khinchin_lab import haagerup, quadrature
from khinchin_lab.exactprob import (
    StepLawParams,
    convolve_weighted,
    first_abs_moment,
    make_step_law,
    make_symmetric_law,
    sum_abs_moment,
)
from khinchin_lab.haagerup import (
    CharFn,
    charfn_power_integral,
    charfn_power_integrals,
    concavity_in_zero_mass,
    first_abs_moment_integral,
    l1_l2_verdict,
    power_charfn_period,
    product_charfn_period_degree,
    solve_critical_exponent,
    two_weight_threshold,
    verify_charfn_power_floor,
)
from khinchin_lab.schur import _infer_step_params
from lemma_checks import charfn_lower_bound

COIN = make_step_law(StepLawParams(Fraction(0), 1))
HALF = make_step_law(StepLawParams(Fraction(1, 2), 1))


# ---------------------------------------------------------------- charfn

def test_charfn_values():
    assert CharFn.from_law(COIN)(0.0) == pytest.approx(1.0)
    for t in (0.3, 1.7, 4.0):
        assert CharFn.from_law(COIN)(t) == pytest.approx(math.cos(t), rel=1e-12)
        assert CharFn.from_law(HALF)(t) == pytest.approx(0.5 + 0.5 * math.cos(t), rel=1e-12)
    assert CharFn.from_law(HALF)(math.pi) == pytest.approx(0.0, abs=1e-15)


def test_charfn_from_law_filters_sign():
    cf = CharFn.from_law(make_step_law(StepLawParams(Fraction(1, 2), 3)))
    assert list(cf.frequencies) == [1.0, 2.0, 3.0]
    assert cf.zero_mass == pytest.approx(0.5)
    assert charfn_lower_bound(cf) == pytest.approx(0.0)


@given(rho_num=st.integers(5, 9), t=st.floats(0.0, 50.0))
def test_charfn_floor_above_half(rho_num, t):
    law = make_step_law(StepLawParams(Fraction(rho_num, 10), 2))
    lb = 2 * rho_num / 10 - 1
    assert CharFn.from_law(law)(t) >= lb - 1e-12


def test_charfn_vectorized():
    ts = np.linspace(0.0, 6.0, 11)
    vals = CharFn.from_law(COIN)(ts)
    assert np.allclose(vals, np.cos(ts), atol=1e-14)


@pytest.mark.parametrize("law", [COIN, make_step_law(StepLawParams(Fraction(1, 3), 3))])
def test_charfn_complement_keeps_relative_accuracy(law):
    cf = CharFn.from_law(law)
    ts = [1e-8, 1e-4, 1.0, 37.0]
    got = cf.complement(np.array(ts))
    with mpmath.workdps(40):
        for t, g in zip(ts, got.tolist()):
            ref = mpmath.fsum(2 * mpmath.mpf(m.numerator) / m.denominator
                              * (1 - mpmath.cos(mpmath.mpf(v.numerator) / v.denominator * t))
                              for v, m in zip(law.values, law.masses) if v > 0)
            assert abs(g - ref) <= 1e-14 * ref
            assert cf.complement(t) == g


# ---------------------------------------------------------------- periods

def test_product_period():
    assert product_charfn_period_degree(COIN, [1, 1])[0] == pytest.approx(2 * math.pi)
    assert product_charfn_period_degree(COIN, [Fraction(1, 2), Fraction(1, 3)])[0] == \
        pytest.approx(12 * math.pi)
    assert product_charfn_period_degree(COIN, [1 / math.sqrt(2), 1.0]) is None


def test_power_period():
    assert power_charfn_period(HALF, 4.0) == pytest.approx(4 * math.pi)
    assert power_charfn_period(make_step_law(StepLawParams(Fraction(0), 2)), 1.0) == \
        pytest.approx(2 * math.pi)


# ---------------------------------------------------------------- integrals

def test_first_abs_moment_integral_single_coin():
    res = first_abs_moment_integral([1], COIN)
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_first_abs_moment_integral_matches_enumeration():
    res = first_abs_moment_integral([1, 1], HALF)
    assert res.value == pytest.approx(0.75, abs=1e-8)
    # three rational weights against the exact convolution value
    w = [Fraction(1), Fraction(1, 3), Fraction(2, 3)]
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    res = first_abs_moment_integral(w, law)
    assert res.value == pytest.approx(209 / 192, abs=1e-8)


# sums with a large E S^4, so g(t)/t^2 bends hard near t = 0
@pytest.mark.parametrize("weights,rho0,L", [
    ("6,1/2,7/3", Fraction(0), 3),
    ("1,1/3,2/7", Fraction(1, 2), 2),
    ("5,3/2,1", Fraction(0), 3),
    ("7/2,3,1/2", Fraction(1, 4), 3),
])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_integral_from_zero_converges_at_tight_tol(weights, rho0, L, tol):
    w = [Fraction(x) for x in weights.split(",")]
    exact = float(oracles.enum_abs_moment(w, [oracles.step_atoms(rho0, L)] * len(w), 1))
    res = first_abs_moment_integral(w, make_step_law(StepLawParams(rho0, L)), tol=tol)
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error


def test_budget_caps_both_tail_routes():
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    w = [Fraction(1), Fraction(1, 3), Fraction(2, 7)]
    exact = float(oracles.enum_abs_moment(w, [oracles.step_atoms(Fraction(1, 2), 2)] * 3, 1))
    # degree (21 + 7 + 6) * 2 = 68: the exact periodic sum takes 34 nodes
    assert first_abs_moment_integral(w, law).evaluations == 34
    res = first_abs_moment_integral(w, law, max_evals=30)  # below them: by parts
    assert res.tail is not None
    assert res.evaluations <= 30 and not res.converged
    assert abs(res.value - exact) <= res.abs_error
    r2 = [1.0, math.sqrt(2.0)]  # aperiodic
    exact = float(first_abs_moment(convolve_weighted([HALF] * 2, r2)))
    for budget in (20_000, 1000, 15):
        res = first_abs_moment_integral(r2, HALF, max_evals=budget)
        assert res.evaluations <= budget and not res.converged
        assert abs(res.value - exact) <= res.abs_error


def test_periodic_tail_past_seed_cap_takes_aperiodic_route():
    # period ~6e15 against features near t ~ 1/rate ~ 3e4: half a period
    # needs ~3e10 seed panels, far past SEED_CAP, so the tail goes by parts
    w = [Fraction(1, 100003), Fraction(1, 100019), Fraction(1, 100043)]
    exact = float(first_abs_moment(convolve_weighted([HALF] * 3, w)))
    res = first_abs_moment_integral(w, HALF)
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error


@given(rho0=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
       L=st.integers(1, 2),
       weights=st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)),
                        min_size=1, max_size=3))
def test_periodic_tail_within_its_error(rho0, L, weights):
    exact = float(oracles.enum_abs_moment(weights, [oracles.step_atoms(rho0, L)] * len(weights), 1))
    res = first_abs_moment_integral(weights, make_step_law(StepLawParams(rho0, L)), tol=1e-8)
    assert res.tail is None  # the periodic route
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error


# ---------------------------------------------------------------- exact periodic sum

def _positive_atoms(law):
    return [(v, m) for v, m in zip(law.values, law.masses) if v > 0]


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from([COIN, HALF, make_step_law(StepLawParams(Fraction(1, 3), 3)),
                            make_symmetric_law(Fraction(1, 5), {Fraction(3, 2): Fraction(1, 5),
                                                                Fraction(9, 4): Fraction(1, 5)})]),
       weights=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                        min_size=1, max_size=2),
       copies=st.integers(0, 2))
def test_degree_is_the_top_frequency(law, weights, copies):
    # equal |weights|: the first one again, with either sign
    weights = weights + [(-1) ** k * weights[0] for k in range(copies)]
    atoms = list(zip(law.values, law.masses))
    freqs = [abs(a) * v for a in weights for v, _ in _positive_atoms(law) if a != 0]
    got = product_charfn_period_degree(law, weights)
    if not freqs:
        assert got is None
        return
    omega = oracles.rational_frequency_gcd(freqs)
    # the top frequency of prod_j charfn(a_j t) is the largest |atom| of the sum
    top = max(abs(s) for s in oracles.enum_distribution(weights, [atoms] * len(weights)))
    assert (top / omega).denominator == 1
    assert got == (oracles.product_charfn_period(law, weights), int(top / omega))


def test_exact_periodic_sum_counted_by_hand():
    # weights 18/30, 20/30, 30/30, 15/30 share 1/30, and step(1/2, 2) has
    # values 1 and 2: omega = 1/30 and K = (18 + 20 + 30 + 15) * 2 = 166
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    w = [Fraction(3, 5), Fraction(2, 3), Fraction(1), Fraction(1, 2)]
    assert product_charfn_period_degree(law, w) == (oracles.product_charfn_period(law, w), 166)
    assert product_charfn_period_degree(law, w)[0] == pytest.approx(60 * math.pi, rel=1e-15)
    res = first_abs_moment_integral(w, law)
    assert res.evaluations == 83 and res.tail is None and res.converged
    exact = float(oracles.enum_abs_moment(w, [oracles.step_atoms(Fraction(1, 2), 2)] * 4, 1))
    assert abs(res.value - exact) <= res.abs_error


def _mp_node_sum(law, weights, omega, degree):
    """E|S| as the midpoint sum over the ceil(K/2) nodes of half a period, in
    50-digit mpmath from the law's atoms and the weights as exact rationals."""
    def mp(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(50):
        atoms = [(mp(v), mp(m)) for v, m in _positive_atoms(law)]
        zero, rates, w = mp(law.zero_mass), [mp(a) for a in weights], mp(omega)
        total = mpmath.mpf(0)
        for j in range((degree + 1) // 2):
            theta = mpmath.pi * (2 * j + 1) / (2 * degree)
            t = 2 * theta / w  # theta P / pi
            prod = mpmath.mpf(1)
            for a in rates:
                prod *= zero + 2 * mpmath.fsum(m * mpmath.cos(a * v * t) for v, m in atoms)
            term = (1 - prod) / mpmath.sin(theta) ** 2
            total += term / 2 if 2 * j + 1 == degree else term
        return w / degree * total


@settings(max_examples=25, deadline=None)
@given(rho0=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]),
       L=st.integers(1, 2),
       weights=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
                        .filter(lambda a: a != 0), min_size=1, max_size=3))
def test_exact_periodic_sum_within_its_rounding_bound(rho0, L, weights):
    law = make_step_law(StepLawParams(rho0, L))
    exact = oracles.enum_abs_moment(weights, [oracles.step_atoms(rho0, L)] * len(weights), 1)
    period, degree = product_charfn_period_degree(law, weights)
    res = first_abs_moment_integral(weights, law, tol=1e-10)
    assert res.tail is None and res.converged
    assert res.evaluations == (degree + 1) // 2
    assert abs(res.value - float(exact)) <= res.abs_error
    with mpmath.workdps(50):
        # the sum is exact, and the float sum is within its bound of it
        nodes = _mp_node_sum(law, weights, oracles.rational_frequency_gcd(
            [abs(a) * v for a in weights for v in range(1, L + 1)]), degree)
        assert abs(nodes - mpmath.mpf(exact.numerator) / exact.denominator) < mpmath.mpf(10) ** -40
        assert abs(mpmath.mpf(res.value) - nodes) <= res.abs_error


def _fixed_point_node_sum(rho, nums, degree):
    """K/omega times the node sum of `_mp_node_sum` for the law with mass rho
    at 0 and (1 - rho)/2 at +-1 under weights n_i omega, in 200-bit fixed
    point: cos(a_i t_j) = cos(pi n_i (2j + 1)/K) and sin(theta_j) advance by
    one rotation per node, each seeded by 70-digit mpmath."""
    bits = 200
    one = 1 << bits

    def unit(angle):
        return [int(mpmath.floor(mpmath.cos(angle) * one)),
                int(mpmath.floor(mpmath.sin(angle) * one))]

    with mpmath.workdps(70):
        points = [unit(mpmath.pi * n / degree) for n in nums] + [unit(mpmath.pi / (2 * degree))]
        steps = [unit(2 * mpmath.pi * n / degree) for n in nums] + [unit(mpmath.pi / degree)]
    zero = rho.numerator * one // rho.denominator
    total = 0
    for j in range((degree + 1) // 2):
        prod = one
        for c, _ in points[:-1]:
            prod = prod * (zero + ((one - zero) * c >> bits)) >> bits
        sin = points[-1][1]
        term = ((one - prod) << 2 * bits) // (sin * sin)  # g csc^2, times one
        total += term // 2 if 2 * j + 1 == degree else term
        for point, (cs, sn) in zip(points, steps):
            c, s = point
            point[0], point[1] = (c * cs - s * sn) >> bits, (c * sn + s * cs) >> bits
    return mpmath.mpf(total) / one


def test_exact_periodic_sum_at_the_node_cap():
    # weights 1 and 199999/400000 share omega = 1/400000: K = 599 999 takes
    # ceil(K/2) = NODE_CAP nodes; one more in the degree goes by parts
    w = [Fraction(1), Fraction(199_999, 400_000)]
    assert product_charfn_period_degree(HALF, w)[1] == 599_999
    exact = oracles.enum_abs_moment(w, [oracles.step_atoms(Fraction(1, 2), 1)] * 2, 1)
    res = first_abs_moment_integral(w, HALF, tol=1e-10)
    assert res.evaluations == quadrature.NODE_CAP and res.tail is None and res.converged
    assert abs(res.value - float(exact)) <= res.abs_error
    with mpmath.workdps(50):
        nodes = _fixed_point_node_sum(Fraction(1, 2), (400_000, 199_999), 599_999) / 599_999 \
            / 400_000
        assert abs(nodes - mpmath.mpf(exact.numerator) / exact.denominator) < mpmath.mpf(10) ** -40
        assert abs(mpmath.mpf(res.value) - nodes) <= res.abs_error
    w = [Fraction(1), Fraction(200_000, 400_001)]
    assert product_charfn_period_degree(HALF, w)[1] == 600_001
    exact = float(oracles.enum_abs_moment(w, [oracles.step_atoms(Fraction(1, 2), 1)] * 2, 1))
    res = first_abs_moment_integral(w, HALF)
    assert res.tail is not None and res.converged
    assert abs(res.value - exact) <= res.abs_error


def test_first_abs_moment_integral_irrational_weights():
    r = 1 / math.sqrt(2)
    res = first_abs_moment_integral([r, r], COIN, tol=1e-5)
    assert res.value == pytest.approx(r, abs=2e-5)


def test_aperiodic_tail_three_irrational_weights():
    w = [1.0, math.sqrt(2.0), 0.3]
    exact = oracles.enum_abs_moment_float(w, [oracles.step_atoms(Fraction(1, 2), 1)] * 3, 1)
    res = first_abs_moment_integral(w, HALF, tol=1e-8, max_evals=500_000)
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error


def test_aperiodic_tail_uses_the_sums_zero_mass():
    # S = X1 + X2 + 2 X3 for the coin: P(S = 0) = 1/4, not rho0^3 = 0, and E|S| = 2
    res = first_abs_moment_integral([1.0, 1.0, 2.0], COIN, tol=1e-8, max_evals=500_000)
    assert res.converged
    assert abs(res.value - 2.0) <= res.abs_error
    assert res.tail[1] == 0.25


@given(rho0=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
       L=st.integers(1, 2), weights=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3))
def test_aperiodic_tail_within_its_error(rho0, L, weights):
    exact = oracles.enum_abs_moment_float(weights, [oracles.step_atoms(rho0, L)] * len(weights), 1)
    res = first_abs_moment_integral(weights, make_step_law(StepLawParams(rho0, L)), tol=1e-6)
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error


def test_charfn_power_integral_is_first_moment_at_s1():
    for law in (HALF, make_step_law(StepLawParams(Fraction(3, 4), 2))):
        res = charfn_power_integral(law, 1.0)
        assert res.value == pytest.approx(float(first_abs_moment(law)), abs=1e-8)


def test_charfn_power_integral_periodic_past_seed_cap(monkeypatch):
    # with no `bohr` to go by parts the period is integrated whatever
    # SEED_CAP says: here half a period takes 4 seed panels against a cap of 2
    monkeypatch.setattr(quadrature, "SEED_CAP", 2)
    atoms = oracles.step_atoms(Fraction(1, 2), 3)
    exact = float(oracles.enum_abs_moment([1] * 4, [atoms] * 4, 1)) / 2  # E|S_4| / sqrt(4)
    res = charfn_power_integral(make_step_law(StepLawParams(Fraction(1, 2), 3)), 4.0, tol=1e-10)
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error


EPS = np.finfo(float).eps


def _assert_family_matches_solo(law, s_grid, tol):
    """Each member of one charfn_power_integrals family against its own
    one-element call.

    Both integrate the same nonnegative integrand on the same panels and
    bisect the same panels, so evaluations and convergence agree.  Only the
    order of summing a seed panel's 15 terms can differ (with the panels
    that share its integrand call).  Two orders of the Kronrod sum differ
    by at most 32 eps resabs, the integrand's last-bit differences
    included, and resabs is the panel value for a nonnegative integrand,
    so the value moves by at most 32 eps |value| plus the rounding of the
    running sums over the n panels.  The Gauss weights are at most 2.05
    times the Kronrod weights on their nodes, so d = |Kronrod - Gauss|
    moves by at most 64 eps resabs.  The error estimate
    resasc min(1, (200 d / resasc)^1.5) is 300-Lipschitz in d, and moves by
    at most 16 eps of itself with the order of resasc's nonnegative terms.
    """
    family = charfn_power_integrals(law, s_grid, tol=tol)
    assert len(family) == len(s_grid)
    for s, got in zip(s_grid, family):
        solo = charfn_power_integral(law, s, tol=tol)
        assert (got.evaluations, got.converged) == (solo.evaluations, solo.converged)
        n = solo.evaluations // 15
        assert abs(got.value - solo.value) <= (32 + 2 * n) * EPS * abs(solo.value)
        assert abs(got.abs_error - solo.abs_error) <= (
            300 * 64 * EPS * abs(solo.value) + (16 + 2 * n) * EPS * solo.abs_error)


@pytest.mark.parametrize("rho0", [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)])
@pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-8])
def test_sweep_family_matches_one_member_calls(rho0, tol):
    # every `sweep` table the benchmark draws at seeds 1 and 2: L = 3, s = 1..10
    _assert_family_matches_solo(make_step_law(StepLawParams(rho0, 3)),
                                [float(s) for s in range(1, 11)], tol)


@settings(max_examples=25, deadline=None)
@given(rho0=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]),
       L=st.integers(1, 4),
       s_grid=st.lists(st.floats(1.0, 12.0), min_size=1, max_size=6),
       tol=st.sampled_from([1e-6, 1e-8]))
def test_power_family_matches_one_member_calls(rho0, L, s_grid, tol):
    _assert_family_matches_solo(make_step_law(StepLawParams(rho0, L)), s_grid, tol)


def test_power_family_edge_cases():
    assert charfn_power_integrals(HALF, []) == []
    point = make_step_law(StepLawParams(Fraction(1), 2))
    assert [(r.value, r.abs_error, r.evaluations) for r in charfn_power_integrals(
        point, [1.0, 4.0])] == [(0.0, 0.0, 0)] * 2
    with pytest.raises(ValueError, match="s >= 1"):
        charfn_power_integrals(HALF, [2.0, 0.5])


def test_aperiodic_refinement_in_batches(monkeypatch):
    # [1, sqrt 2, 0.3] at tol 1e-10: 1 890 330 evaluations, which a driver
    # that bisects one panel per integrand call spends in 53 168 calls
    law = HALF
    weights = [1.0, math.sqrt(2.0), 0.3]
    sizes = []
    complement = CharFn.complement

    def counting(self, t):
        sizes.append(np.size(t))
        return complement(self, t)

    monkeypatch.setattr(CharFn, "complement", counting)
    res = first_abs_moment_integral(weights, law, tol=1e-10)
    assert res.converged
    assert res.evaluations <= 1_890_330
    exact = float(first_abs_moment(convolve_weighted([law] * 3, weights)))
    assert abs(res.value - exact) <= res.abs_error
    calls = len(sizes) // len(weights)  # one complement per weight per integrand call
    assert sum(sizes) == len(weights) * res.evaluations
    assert calls <= 53_168 // 10


@pytest.mark.parametrize("weight", [Fraction(1, 2), 0.5])
def test_equal_weights_share_one_charfn_call(monkeypatch, weight):
    # 15 equal weights: one factor phi(t/2)^15, so one complement call per
    # integrand call, on the periodic route (rational) and by parts (float)
    law = make_step_law(StepLawParams(Fraction(1, 3), 2))
    weights = [weight] * 15
    sizes = []
    complement = CharFn.complement

    def counting(self, t):
        sizes.append(np.size(t))
        return complement(self, t)

    monkeypatch.setattr(CharFn, "complement", counting)
    res = first_abs_moment_integral(weights, law, tol=1e-8)
    assert res.converged
    assert sum(sizes) == res.evaluations
    exact = float(sum_abs_moment([law] * 15, [Fraction(1, 2)] * 15, 1).exact)
    assert abs(res.value - exact) <= res.abs_error


def test_charfn_power_integral_point_mass_is_zero():
    res = charfn_power_integral(make_step_law(StepLawParams(Fraction(1), 2)), 3.0)
    assert (res.value, res.abs_error, res.converged) == (0.0, 0.0, True)


def test_charfn_power_integral_needs_rational_support():
    law = make_symmetric_law(Fraction(1, 2), {math.sqrt(2.0): Fraction(1, 4)})
    with pytest.raises(ValueError, match="rational support"):
        charfn_power_integral(law, 2.0)


# ---------------------------------------------------------------- F function

def test_haagerup_function_analytic_points():
    # closed forms via the Fourier series of |cos|: F(1) = 2/pi, F(4) = 3/4
    assert charfn_power_integral(COIN, 1.0).value == pytest.approx(2 / math.pi, abs=1e-8)
    assert charfn_power_integral(COIN, 2.0).value == pytest.approx(1 / math.sqrt(2), abs=1e-8)
    assert charfn_power_integral(COIN, 4.0).value == pytest.approx(0.75, abs=1e-8)
    res = charfn_power_integral(COIN, 2.0, tol=1e-12)
    assert res.converged
    assert abs(res.value - 1 / math.sqrt(2)) <= res.abs_error


def test_haagerup_function_frozen_values():
    assert charfn_power_integral(COIN, 3.0).value == pytest.approx(0.735105193879, abs=1e-8)
    assert charfn_power_integral(COIN, 5.0).value == pytest.approx(0.759213379645, abs=1e-8)
    assert charfn_power_integral(COIN, 20.0).value == pytest.approx(0.7879771714, abs=1e-7)


def test_haagerup_function_monotone_below_gaussian():
    grid = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0]
    vals = [charfn_power_integral(COIN, s).value for s in grid]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    assert all(v < math.sqrt(2 / math.pi) for v in vals)


# ---------------------------------------------------------------- floor chain

def test_power_floor_half_coin():
    rep = verify_charfn_power_floor(HALF, [1.0, 2.0, 4.0, 8.0])
    assert rep.passed
    rows = rep.witness["rows"]
    assert len(rows) == 4
    for row in rows:
        assert all(v >= -1e-6 for k, v in row.items() if k != "s")


def test_power_floor_deep_law():
    law = make_step_law(StepLawParams(Fraction(3, 4), 3))
    rep = verify_charfn_power_floor(law, [1.0, 3.0])
    assert rep.passed
    assert rep.witness["first_abs_moment"] == pytest.approx(
        float(first_abs_moment(law)), rel=1e-9)


def test_power_floor_needs_half_mass():
    with pytest.raises(ValueError):
        verify_charfn_power_floor(COIN, [1.0])


def test_power_mean_split_unequal_weights():
    # sum a_j^2 = 1, so E|S| >= sum_j a_j^2 F_law(1/a_j^2) by weighted AM-GM
    a = [Fraction(3, 5), Fraction(4, 5)]
    lhs = first_abs_moment_integral(a, HALF).value
    rhs = sum(float(w) ** 2 * charfn_power_integral(HALF, float(1 / w**2)).value
              for w in a)
    assert lhs >= rhs - 1e-6


# ---------------------------------------------------------------- l1 vs l2

def test_l1_l2_equality_single_weight():
    law = make_step_law(StepLawParams(Fraction(1, 2), 3))
    rep = l1_l2_verdict(law, [Fraction(1)])
    assert rep.passed
    assert rep.witness["squared_gap"] == 0


def test_l1_l2_two_weights_exact_gap():
    rep = l1_l2_verdict(HALF, [Fraction(1), Fraction(1)])
    assert rep.passed
    gap = rep.witness["first_abs"] - rep.witness["c1_times_l2"]
    assert gap == pytest.approx(0.75 - 1 / math.sqrt(2), rel=1e-12)
    assert rep.witness["squared_gap"] == Fraction(1, 32)
    assert rep.params["exploratory"] is False


def test_l1_l2_exploratory_below_half():
    rep = l1_l2_verdict(make_step_law(StepLawParams(Fraction(1, 4), 1)),
                        [Fraction(1), Fraction(2)])
    assert rep.params["exploratory"] is True


def test_l1_l2_degenerate_rejected():
    with pytest.raises(ValueError):
        l1_l2_verdict(make_step_law(StepLawParams(Fraction(1), 1)), [Fraction(1)])


# ---------------------------------------------------------------- concavity

def test_concavity_small_grids():
    rep = concavity_in_zero_mass(1, 2.0, [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)])
    assert rep.passed
    rep = concavity_in_zero_mass(3, 4.0,
                                 [Fraction(k, 10) for k in range(1, 10)])
    assert rep.passed


def test_concavity_fails_on_unconverged_integrals():
    grid = [Fraction(1, 2), Fraction(5, 8), Fraction(3, 4)]
    assert concavity_in_zero_mass(2, 3.0, grid, tol=1e-8).passed
    # 60 evaluations (four seed panels) leave each error above 1e-12
    rep = concavity_in_zero_mass(2, 3.0, grid, tol=1e-15, max_evals=60)
    assert not rep.passed
    rows = rep.witness["rows"]
    assert [row["rho"] for row in rows] == grid
    assert not any(row["converged"] for row in rows)
    assert all(row["abs_error"] > 1e-12 * row["value"] for row in rows)


def test_concavity_grid_validation():
    with pytest.raises(ValueError):
        concavity_in_zero_mass(1, 2.0, [Fraction(1, 2), Fraction(3, 5)])
    with pytest.raises(ValueError):
        concavity_in_zero_mass(1, 2.0, [Fraction(3, 5), Fraction(1, 2), Fraction(7, 10)])


# ---------------------------------------------------------------- exponent

def _gamma_gap(p, lib=math):
    return lib.gamma((p + 1) / 2) - lib.sqrt(lib.pi) / 2


def test_critical_exponent_bracket_and_residual():
    res = solve_critical_exponent()
    assert 1.8469 < res.value < 1.8476
    assert res.residual <= 1e-12
    # the certificate: adjacent floats, the gap positive below and not above
    lo, hi = res.bracket
    assert res.value == lo and math.nextafter(lo, 2) == hi
    assert _gamma_gap(lo) > 0 >= _gamma_gap(hi)
    # the float gap is a few ulps off and its slope is only about -0.0165,
    # so the 40-digit root lies within 4 ulps of the gap over that slope
    # (about 120 ulps of p; it is 25 ulps below lo)
    with mpmath.workdps(40):
        p0 = mpmath.findroot(lambda p: _gamma_gap(p, mpmath), 1.85)
        slope = mpmath.diff(lambda p: _gamma_gap(p, mpmath), p0)
        assert abs(p0 - lo) <= 4 * math.ulp(math.sqrt(math.pi) / 2) / abs(slope)
    # independent root via scipy
    root = scipy.optimize.brentq(
        lambda p: scipy.special.gamma((p + 1) / 2) - math.sqrt(math.pi) / 2,
        1.5, 1.95, xtol=1e-13)
    assert res.value == pytest.approx(root, abs=1e-10)
    assert res.value == pytest.approx(1.84741633608, abs=1e-9)


def test_critical_exponent_does_not_scan(monkeypatch):
    calls, gap = [], haagerup._gamma_gap

    def spy(p):
        calls.append(p)
        return gap(p)

    monkeypatch.setattr(haagerup, "_gamma_gap", spy)
    solve_critical_exponent()
    assert len(calls) <= 60


# ---------------------------------------------------------------- two weights

def test_two_weight_threshold_takes_two_exact_sums(monkeypatch):
    calls, moment = [], haagerup.sum_abs_moment

    def spy(*args, **kwargs):
        calls.append(args)
        return moment(*args, **kwargs)

    monkeypatch.setattr(haagerup, "sum_abs_moment", spy)
    assert two_weight_threshold(1).passed
    assert len(calls) == 2


def test_two_weight_bracket_signs_by_enumeration():
    # the squared gap (E|Y1 + Y2|)^2 - 2 (E|Y|)^2, enumerated with no
    # library code, is negative at the bracket's lower end, positive at its upper
    for L in range(1, 41):
        rep = two_weight_threshold(L)
        assert rep.passed and rep.margin > 0
        for end, positive in zip(rep.witness["bracket"], (False, True)):
            atoms = oracles.step_atoms(Fraction(end), L)
            n1 = oracles.enum_abs_moment([1, 1], [atoms, atoms], 1)
            ey = oracles.enum_abs_moment([1], [atoms], 1)
            gap = n1 * n1 - 2 * ey * ey
            assert gap != 0 and (gap > 0) == positive, (L, end)


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_two_weight_verdict_fails_off_the_closed_form(monkeypatch, shift):
    closed_form = haagerup.two_weight_closed_form
    monkeypatch.setattr(haagerup, "two_weight_closed_form", lambda L: closed_form(L) + shift)
    rep = two_weight_threshold(1)
    assert not rep.passed and rep.margin < 0


def test_two_weight_threshold_l1():
    rep = two_weight_threshold(1)
    assert rep.passed
    assert abs(float(rep.witness["threshold"]) - (math.sqrt(2) - 1)) < 1e-12
    assert "direction" in rep.witness["direction_note"]


def test_two_weight_threshold_l2_closed_form():
    rep = two_weight_threshold(2)
    assert rep.passed
    assert float(rep.witness["closed_form"]) == pytest.approx(
        (6 * math.sqrt(2) - 7) / 5, abs=1e-12)


# ---------------------------------------------------------------- grid readers

_BIG = st.sampled_from([Fraction(3**45), Fraction(1, 3**41), Fraction(2**63 + 1, 7)])


@st.composite
def _laws(draw):
    """Step laws, and symmetric laws on rational (int64 or object grids) or
    float values."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return make_step_law(StepLawParams(draw(st.fractions(0, 1, max_denominator=12)),
                                           draw(st.integers(1, 6))))
    n = draw(st.integers(1, 4))
    value = (st.fractions(Fraction(1, 10**6), 100, max_denominator=10**6) | _BIG
             if kind == 1 else st.floats(1e-3, 1e3))
    values = draw(st.lists(value, min_size=n, max_size=n, unique=True))
    raw = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    zero = draw(st.integers(0, 50))
    total = 2 * sum(raw) + zero
    return make_symmetric_law(Fraction(zero, total),
                              {v: Fraction(r, total) for v, r in zip(values, raw)})


@settings(max_examples=150)
@given(law=_laws(),
       weights=st.lists(st.fractions(-4, 4, max_denominator=60) | st.integers(-3, 3)
                        | st.floats(0.1, 3.0), max_size=4),
       s=st.floats(1.0, 20.0))
def test_grid_readers_equal_the_fraction_readers(law, weights, s):
    assert CharFn.from_law(law) == oracles.charfn_from_law(law)
    periodic = product_charfn_period_degree(law, weights)
    assert (None if periodic is None else periodic[0]) == \
        oracles.product_charfn_period(law, weights)
    assert power_charfn_period(law, s) == oracles.power_charfn_period(law, s)
    assert _infer_step_params(law) == oracles.infer_step_params(law)
