import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from khinchin_lab.lemmas import (
    SLOPE_LOWER_BOUNDS,
    TANGENT_LOWER_BOUNDS,
    endpoint_argument,
    endpoint_gap,
    endpoint_gap_slope,
    plus_part_gap,
    plus_part_gap_grid,
    slope_at_breakpoint,
    slope_table,
    tangent_csv,
    tangent_values,
    two_point_gap,
    verify_two_point,
)
from lemma_checks import (
    Cone,
    check_cone_membership,
    plus_part_gap_slope,
    signed_power_chord,
    signed_power_sum,
    slope_value,
    sqrt_power_pair,
    two_point_best_constant,
    two_point_nodes,
    two_point_witness_ratio,
)

unit_fracs = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                          max_denominator=20)


# ---------------------------------------------------------------- two-point

def test_two_point_gap_hand_values():
    # worked by hand from the defining formula
    assert two_point_gap(Fraction(1, 4), Fraction(0)) == Fraction(3, 16)
    assert two_point_gap(Fraction(3, 4), Fraction(3, 4)) == Fraction(1, 24)
    assert two_point_gap(Fraction(1, 2), Fraction(0)) == Fraction(1, 4)


@given(a=unit_fracs)
def test_two_point_gap_vanishes_past_support(a):
    assert two_point_gap(a, 1 + a) == 0
    assert two_point_gap(a, 1 + a + Fraction(1, 3)) == 0


@given(a=unit_fracs)
def test_two_point_gap_piecewise_linear(a):
    # value at the midpoint of consecutive breakpoints is the exact average
    nodes = sorted({Fraction(0), a, 1 - a, Fraction(1), 1 + a})
    for g0, g1 in zip(nodes, nodes[1:]):
        mid = (g0 + g1) / 2
        want = (two_point_gap(a, g0) + two_point_gap(a, g1)) / 2
        assert two_point_gap(a, mid) == want


@given(a=unit_fracs, k=st.integers(0, 40))
def test_node_minimum_bounds_dense_grid(a, k):
    gamma = Fraction(k, 25)
    node_min = min(gap for _, gap in two_point_nodes(a).nodes)
    assert two_point_gap(a, gamma) >= node_min


def test_verify_two_point_exact():
    rep = verify_two_point(Fraction(1, 2))
    assert rep.passed
    assert rep.margin == 0.25
    assert rep.witness["gap"] == Fraction(1, 4)


def test_verify_two_point_domain():
    with pytest.raises(ValueError):
        verify_two_point(Fraction(0))
    with pytest.raises(ValueError):
        verify_two_point(Fraction(5, 4))


def test_two_point_best_constant():
    assert two_point_best_constant() == 1.0
    # the witness ratio tends to 1 from below, so no constant above 1 works
    assert two_point_witness_ratio(Fraction(99, 100)) == Fraction(100, 199)
    assert two_point_witness_ratio(Fraction(1, 2)) == Fraction(2, 3)


# ---------------------------------------------------------------- cones

@pytest.mark.parametrize("q", [2, 2.5, 3, 5, 8])
@pytest.mark.parametrize("w", [0.0, 1.0])
def test_signed_power_cones(q, w):
    grid = np.linspace(0.01, 6.0, 1200)
    odd = check_cone_membership(lambda x: signed_power_sum(q, w, x),
                                Cone.ODD_CONVEX, grid)
    even = check_cone_membership(lambda x: signed_power_chord(q, w, x),
                                 Cone.EVEN_CONVEX, grid)
    assert odd.ok, (q, w, odd)
    assert even.ok, (q, w, even)


def test_cone_check_catches_violations():
    grid = np.linspace(0.1, 3.0, 200)
    bad = check_cone_membership(np.sin, Cone.ODD_CONVEX, grid)
    assert not bad.convex_ok
    assert bad.witness is not None
    worse = check_cone_membership(np.cos, Cone.ODD_CONVEX, grid)
    assert not worse.parity_ok


def test_cone_check_validation():
    with pytest.raises(ValueError):
        check_cone_membership(np.sin, Cone.ODD_CONVEX, [1.0, 2.0])
    with pytest.raises(ValueError):
        check_cone_membership(np.sin, Cone.ODD_CONVEX, [-1.0, 1.0, 2.0])


def test_chord_limit_at_zero():
    assert signed_power_chord(3, 1.0, 0.0) == pytest.approx(6.0, abs=1e-12)
    assert signed_power_chord(2, 0.0, 0.0) == 0.0
    # continuity across the cutoff
    assert signed_power_chord(3, 1.0, 1e-9) == pytest.approx(6.0, abs=1e-6)


def test_signed_power_domain():
    with pytest.raises(ValueError):
        signed_power_sum(1.5, 1.0, 0.3)
    with pytest.raises(ValueError):
        signed_power_chord(3, -1.0, 0.3)


def test_sqrt_power_pair_monotone_convex():
    # the substitution kernel driving the squared-weight convexity claims
    for p in (3, 4, 6):
        for a in (0.5, 1.0, 1.5):
            xs = np.linspace(0.0, 9.0, 1500)
            vals = sqrt_power_pair(p, a, xs)
            slopes = np.diff(vals) / np.diff(xs)
            assert np.min(np.diff(slopes)) >= -1e-9 * max(1.0, np.max(np.abs(slopes)))
            assert np.min(np.diff(vals)) >= -1e-9 * max(1.0, np.max(np.abs(vals)))
    with pytest.raises(ValueError):
        sqrt_power_pair(2.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        sqrt_power_pair(3, 1.0, -0.5)


# ---------------------------------------------------------------- plus-part gap

def test_plus_part_gap_against_quadrature():
    L = 3
    sigma = math.sqrt((L + 1) * (2 * L + 1) / 6)
    for a in (0.5, 2.3, 7.9):
        gauss, err = oracles.gaussian_plus_part_quad(sigma, a)
        block = sum(k * k - a for k in range(1, L + 1) if k * k > a) / L
        assert plus_part_gap(L, a) == pytest.approx(gauss - block, rel=1e-9, abs=10 * err)


def test_plus_part_gap_grid_matches_scalar():
    # against the Gaussian part by direct density integration plus the
    # block part summed term by term, breakpoints k^2 included; the scalar
    # gap is the grid's one-threshold case
    for L in (2, 4, 6):
        sigma = math.sqrt((L + 1) * (2 * L + 1) / 6)
        grid = np.concatenate([np.linspace(0.0, L * L, 337),
                               [float(k * k) for k in range(L + 1)]])
        vals = plus_part_gap_grid(L, grid)
        for a, got in zip(grid.tolist(), vals.tolist()):
            gauss, err = oracles.gaussian_plus_part_quad(sigma, a)
            block = sum(k * k - a for k in range(1, L + 1) if k * k > a) / L
            assert got == pytest.approx(gauss - block, rel=1e-9, abs=10 * err)
            assert plus_part_gap(L, a) == got


def test_plus_part_gap_slope_is_derivative():
    L, b = 5, 2
    for a in (4.5, 6.0, 8.3):
        h = 1e-6
        fd = (plus_part_gap(L, a + h) - plus_part_gap(L, a - h)) / (2 * h)
        assert plus_part_gap_slope(L, a, b) == pytest.approx(fd, abs=1e-6)


def test_slope_increases_along_branch():
    L, b = 4, 1
    xs = np.linspace(1.05, 3.95, 30)
    slopes = [plus_part_gap_slope(L, x, b) for x in xs]
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_slope_branch_domain():
    with pytest.raises(ValueError):
        plus_part_gap_slope(4, 4.0, 2)  # breakpoint itself is excluded
    with pytest.raises(ValueError):
        plus_part_gap_slope(4, 9.5, 2)
    with pytest.raises(ValueError):
        slope_at_breakpoint(4, 5)


def test_breakpoint_slope_is_right_limit():
    L, b = 6, 3
    h = 1e-7
    fd = (plus_part_gap(L, b * b + h) - plus_part_gap(L, b * b)) / h
    assert slope_at_breakpoint(L, b) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------- tables

def test_slope_table_exceeds_bounds():
    table = slope_table()
    assert {(L, b) for L, b, _ in table.entries} == set(SLOPE_LOWER_BOUNDS)
    ok, worst = table.check_lower_bounds()
    assert ok
    assert worst > 0.003  # slack of the tightest cell
    # sentinel regression pins
    assert slope_value(table, 3, 1) == pytest.approx(0.023237823103, abs=1e-11)
    assert slope_value(table, 6, 4) == pytest.approx(0.0289623944976, abs=1e-11)


def test_slope_table_csv_shape():
    text = slope_table().to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "L,b,theta"
    assert len(lines) == 11
    assert lines[1].startswith("3,1,0.0232378231")


def test_tangent_values_exceed_bounds():
    vals = tangent_values()
    assert set(vals) == set(TANGENT_LOWER_BOUNDS)
    for L, v in vals.items():
        assert v > TANGENT_LOWER_BOUNDS[L], (L, v)
    assert vals[2] == pytest.approx(0.242249209636, abs=1e-9)
    assert vals[6] == pytest.approx(2.66462757091, abs=1e-9)


def test_tangent_values_against_oracle_parts():
    # v_L rebuilt from erf and direct density quadrature
    for L in (2, 4, 6):
        sigma2 = (L + 1) * (2 * L + 1) / 6
        theta = (L - (L - 1)) / L - math.erfc((L - 1) / math.sqrt(2 * sigma2))
        a = (L - 1) ** 2
        gauss, _ = oracles.gaussian_plus_part_quad(math.sqrt(sigma2), a)
        block = sum(k * k - a for k in range(1, L + 1) if k * k > a) / L
        want = theta * (2 * L - 1) + (gauss - block)
        assert tangent_values()[L] == pytest.approx(want, abs=1e-9)


def test_tangent_csv_header():
    lines = tangent_csv().strip().split("\n")
    assert lines[0] == "L,v"
    assert len(lines) == 6


# ---------------------------------------------------------------- endpoint

def test_endpoint_argument_exact():
    assert endpoint_argument(7) == Fraction(49, 20)
    assert endpoint_argument(1) == Fraction(1, 1)
    vals = [endpoint_argument(L) for L in range(1, 40)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 3


def test_endpoint_gap_matches_closed_form():
    # the closed forms against a 30-digit quadrature of the defining integrals
    for t in (0.3, 1.0, 2.45, 4.0, *(endpoint_argument(L) for L in (7, 9, 40))):
        with mpmath.workdps(30):
            tm = mpmath.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else mpmath.mpf(t)
            scale, root = mpmath.sqrt(2 / mpmath.pi), mpmath.sqrt(tm)
            gap = scale * mpmath.quad(lambda x: (tm - x * x) * mpmath.exp(-x * x / 2),
                                      [0, root]) - 2 * tm / 3
            slope = scale * mpmath.quad(lambda x: mpmath.exp(-x * x / 2), [0, root]) - 2 / 3
        assert endpoint_gap(t) == pytest.approx(float(gap), rel=0, abs=1e-15)
        assert endpoint_gap_slope(t) == pytest.approx(float(slope), rel=0, abs=1e-15)


def test_endpoint_gap_at_zero():
    assert endpoint_gap(0) == 0.0
    assert endpoint_gap_slope(0) == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_endpoint_checkpoints():
    t0 = 49.0 / 20.0
    assert endpoint_gap_slope(t0) > 0.2
    assert endpoint_gap(t0) > 0.01
