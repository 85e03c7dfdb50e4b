import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import oracles
from khinchin_lab import quadrature
from khinchin_lab.exactprob import (
    StepLawParams,
    convolve_weighted,
    first_abs_moment,
    make_step_law,
    make_symmetric_law,
)
from khinchin_lab.haagerup import (
    CharFn,
    charfn,
    charfn_power_integral,
    concavity_in_zero_mass,
    first_abs_moment_integral,
    haagerup_function,
    l1_l2_verdict,
    power_charfn_period,
    product_charfn_period,
    solve_critical_exponent,
    two_weight_threshold,
    verify_charfn_power_floor,
)

COIN = make_step_law(StepLawParams(Fraction(0), 1))
HALF = make_step_law(StepLawParams(Fraction(1, 2), 1))


# ---------------------------------------------------------------- charfn

def test_charfn_values():
    assert charfn(COIN, 0.0) == pytest.approx(1.0)
    for t in (0.3, 1.7, 4.0):
        assert charfn(COIN, t) == pytest.approx(math.cos(t), rel=1e-12)
        assert charfn(HALF, t) == pytest.approx(0.5 + 0.5 * math.cos(t), rel=1e-12)
    assert charfn(HALF, math.pi) == pytest.approx(0.0, abs=1e-15)


def test_charfn_from_law_filters_sign():
    cf = CharFn.from_law(make_step_law(StepLawParams(Fraction(1, 2), 3)))
    assert list(cf.frequencies) == [1.0, 2.0, 3.0]
    assert cf.zero_mass == pytest.approx(0.5)
    assert cf.lower_bound == pytest.approx(0.0)


@given(rho_num=st.integers(5, 9), t=st.floats(0.0, 50.0))
def test_charfn_floor_above_half(rho_num, t):
    law = make_step_law(StepLawParams(Fraction(rho_num, 10), 2))
    lb = 2 * rho_num / 10 - 1
    assert charfn(law, t) >= lb - 1e-12


def test_charfn_vectorized():
    ts = np.linspace(0.0, 6.0, 11)
    vals = charfn(COIN, ts)
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
    assert product_charfn_period(COIN, [1, 1]) == pytest.approx(2 * math.pi)
    assert product_charfn_period(COIN, [Fraction(1, 2), Fraction(1, 3)]) == \
        pytest.approx(12 * math.pi)
    assert product_charfn_period(COIN, [1 / math.sqrt(2), 1.0]) is None


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
    assert first_abs_moment_integral(w, law).evaluations > 500
    res = first_abs_moment_integral(w, law, max_evals=500)  # periodic
    assert res.evaluations <= 500 and not res.converged
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
    assert haagerup_function(1.0).value == pytest.approx(2 / math.pi, abs=1e-8)
    assert haagerup_function(2.0).value == pytest.approx(1 / math.sqrt(2), abs=1e-8)
    assert haagerup_function(4.0).value == pytest.approx(0.75, abs=1e-8)
    res = haagerup_function(2.0, tol=1e-12)
    assert res.converged
    assert abs(res.value - 1 / math.sqrt(2)) <= res.abs_error


def test_haagerup_function_frozen_values():
    assert haagerup_function(3.0).value == pytest.approx(0.735105193879, abs=1e-8)
    assert haagerup_function(5.0).value == pytest.approx(0.759213379645, abs=1e-8)
    assert haagerup_function(20.0).value == pytest.approx(0.7879771714, abs=1e-7)


def test_haagerup_function_monotone_below_gaussian():
    grid = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0]
    vals = [haagerup_function(s).value for s in grid]
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

def test_critical_exponent_bracket_and_residual():
    res = solve_critical_exponent()
    assert 1.8469 < res.value < 1.8476
    assert res.residual <= 1e-12
    assert res.sign_changes == 1
    # independent root via scipy
    root = scipy.optimize.brentq(
        lambda p: scipy.special.gamma((p + 1) / 2) - math.sqrt(math.pi) / 2,
        1.5, 1.95, xtol=1e-13)
    assert res.value == pytest.approx(root, abs=1e-10)
    assert res.value == pytest.approx(1.84741633608, abs=1e-9)


# ---------------------------------------------------------------- two weights

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
