import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
from khinchin_lab.exactprob import (
    MERGE_RTOL,
    GaussianRef,
    MomentMethod,
    StepLawParams,
    SymmetricAtomLaw,
    abs_moment,
    convolve_weighted,
    first_abs_moment,
    gaussian_norm,
    law_from_json,
    law_to_json,
    make_step_law,
    make_symmetric_law,
    plus_part_second_moment,
    second_moment,
    shifted_gaussian_moment,
    sigma_of,
    weighted_sum_norm,
)

rationals = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(4),
                         max_denominator=6)
rho0s = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])


# ---------------------------------------------------------------- laws

def test_step_law_matches_oracle_atoms():
    for rho0, L in [(Fraction(0), 1), (Fraction(1, 2), 2), (Fraction(3, 4), 4)]:
        law = make_step_law(StepLawParams(rho0, L))
        assert dict(law.atoms) == dict(oracles.step_atoms(rho0, L))


def test_step_law_moments_closed_forms():
    # E|Y| = (1-rho0)(L+1)/2 and E Y^2 = (1-rho0)(L+1)(2L+1)/6, exact.
    for rho0, L in [(Fraction(0), 3), (Fraction(1, 2), 1), (Fraction(2, 3), 5)]:
        law = make_step_law(StepLawParams(rho0, L))
        assert first_abs_moment(law) == (1 - rho0) * (L + 1) / 2
        assert second_moment(law) == (1 - rho0) * Fraction((L + 1) * (2 * L + 1), 6)


def test_sigma_at_zero_mass_zero():
    law = make_step_law(StepLawParams(Fraction(0), 4))
    assert sigma_of(law) == pytest.approx(math.sqrt(5 * 9 / 6), abs=1e-14)


def test_degenerate_law_allowed():
    law = make_step_law(StepLawParams(Fraction(1), 3))
    assert law.atoms == ((Fraction(0), Fraction(1)),)
    assert first_abs_moment(law) == 0


def test_law_validation():
    with pytest.raises(ValueError):
        SymmetricAtomLaw(((Fraction(1), Fraction(1)),))  # not symmetric
    with pytest.raises(ValueError):
        SymmetricAtomLaw(((Fraction(1), Fraction(1, 2)),
                          (Fraction(-1), Fraction(1, 4)),
                          (Fraction(0), Fraction(1, 4))))  # mismatched pair
    with pytest.raises(ValueError):
        make_symmetric_law(0.5, {1: Fraction(1, 4)})  # float zero mass
    with pytest.raises(ValueError):
        make_symmetric_law(Fraction(1, 2), {-1: Fraction(1, 4)})
    with pytest.raises(ValueError):
        StepLawParams(Fraction(1, 2), 0)


def test_json_round_trip_rational():
    law = make_step_law(StepLawParams(Fraction(1, 3), 2))
    back = law_from_json(law_to_json(law))
    assert back.atoms == law.atoms


def test_json_round_trip_float_values():
    law = make_symmetric_law(Fraction(1, 2), {0.75: Fraction(1, 4)})
    back = law_from_json(law.to_json())
    assert back.atoms == law.atoms  # repr round-trips floats bit-exactly


def test_json_round_trip_sum_law():
    s = convolve_weighted([make_step_law(StepLawParams(Fraction(1, 2), 1))] * 2,
                          [Fraction(1, 3), Fraction(2, 3)])
    back = law_from_json(s.to_json())
    assert back.atoms == s.atoms


# ---------------------------------------------------------------- convolution

def test_convolution_matches_enumeration_exactly():
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    weights = [Fraction(1), Fraction(1, 3), Fraction(2, 3)]
    s = convolve_weighted([law] * 3, weights)
    expected = oracles.enum_distribution(weights, [oracles.step_atoms(Fraction(1, 2), 2)] * 3)
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


@given(rho0=rho0s, L=st.integers(1, 3),
       weights=st.lists(rationals, min_size=1, max_size=4))
def test_convolution_distribution_property(rho0, L, weights):
    atoms = oracles.step_atoms(rho0, L)
    s = convolve_weighted([make_step_law(StepLawParams(rho0, L))] * len(weights), weights)
    expected = oracles.enum_distribution(weights, [atoms] * len(weights))
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


@given(rho0=rho0s, L=st.integers(1, 3),
       weights=st.lists(rationals, min_size=1, max_size=4),
       p=st.sampled_from([1, 2, 3, 4]))
def test_exact_moment_matches_enumeration(rho0, L, weights, p):
    law = make_step_law(StepLawParams(rho0, L))
    s = convolve_weighted([law] * len(weights), weights)
    m = abs_moment(s, p)
    assert m.method is MomentMethod.EXACT_RATIONAL
    assert m.exact == oracles.enum_abs_moment(weights, [oracles.step_atoms(rho0, L)] * len(weights), p)


def test_mass_conservation_exact():
    law = make_step_law(StepLawParams(Fraction(1, 3), 3))
    s = convolve_weighted([law] * 4, [Fraction(1, 7), 2, Fraction(3, 5), 1])
    assert sum(m for _, m in s.atoms) == 1


def test_float_weight_convolution_against_enumeration():
    law = make_step_law(StepLawParams(Fraction(0), 2))
    weights = [0.3, 1.7]
    s = convolve_weighted([law, law], weights)
    assert sum(m for _, m in s.atoms) == 1
    got = abs_moment(s, 3).value
    want = oracles.enum_abs_moment_float(weights, [oracles.step_atoms(0, 2)] * 2, 3)
    assert got == pytest.approx(want, rel=1e-12)


def test_float_mode_agrees_with_exact_mode():
    law = make_step_law(StepLawParams(Fraction(1, 4), 2))
    s = convolve_weighted([law] * 3, [Fraction(2, 3), Fraction(1, 6), 1])
    for p in (2, 4):
        ex = abs_moment(s, p, mode="exact")
        fl = abs_moment(s, p, mode="float")
        assert fl.value == pytest.approx(ex.value, rel=1e-12)
        assert fl.abs_error > 0


def test_big_mass_denominators_fall_back_to_objects():
    # mass denominator product 2^82 overflows int64 grid accumulation
    tiny = Fraction(1, 2 ** 41)
    law = make_symmetric_law(1 - 2 * tiny, {1: tiny})
    s = convolve_weighted([law, law], [1, 1])
    expected = oracles.enum_distribution([1, 1], [list(law.atoms)] * 2)
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


@given(rho0=rho0s, L=st.integers(1, 3),
       weights=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4))
@example(rho0=Fraction(1, 2), L=1, weights=[0.1, 0.2, 0.3])
def test_float_convolution_matches_loop_reference(rho0, L, weights):
    law = make_step_law(StepLawParams(rho0, L))
    s = convolve_weighted([law] * len(weights), weights)
    want = oracles.float_merge_distribution(weights, [law.atoms] * len(weights), MERGE_RTOL)
    assert s.atoms == tuple(want)


def test_float_weights_match_rational_weights_atom_for_atom():
    # 0.1 + 0.2 - 0.3 = 5.6e-17 in floats merges onto the exact sum's 0
    law = make_step_law(StepLawParams(Fraction(1, 2), 1))
    fl = convolve_weighted([law] * 3, [0.1, 0.2, 0.3])
    ex = convolve_weighted([law] * 3, [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)])
    assert len(fl) == len(ex)
    assert fl.masses == ex.masses
    assert np.allclose(fl.values_float(), ex.values_float(), rtol=0, atol=1e-15)
    assert 0.0 in fl.values and fl.zero_mass == ex.zero_mass


def test_float_merge_guards_each_merged_step():
    # 3^8 = 6561 atom combinations merge onto 17 values; the guard checks
    # each step's outer product (at most 15 * 3), not the full product
    law = make_step_law(StepLawParams(Fraction(1, 3), 1))
    assert len(law) ** 8 == 6561
    s = convolve_weighted([law] * 8, [1.0] * 8, max_atoms=100)
    assert s.values == tuple(float(v) for v in range(-8, 9))
    with pytest.raises(ValueError, match="guard"):
        convolve_weighted([law] * 8, [1.0] * 8, max_atoms=10)


def test_big_mass_denominators_in_float_convolution():
    # mass denominator product 2^82 takes Python-int numerators
    tiny = Fraction(1, 2 ** 41)
    law = make_symmetric_law(1 - 2 * tiny, {1: tiny})
    fl = convolve_weighted([law, law], [1.0, 1.0])
    ex = convolve_weighted([law, law], [1, 1])
    assert sum(fl.masses) == 1
    assert fl.masses == ex.masses
    assert fl.values == tuple(float(v) for v in ex.values)


def test_support_guard():
    law = make_step_law(StepLawParams(Fraction(0), 4))
    with pytest.raises(ValueError, match="guard"):
        convolve_weighted([law] * 3, [1, 1, 1], max_atoms=10)
    with pytest.raises(ValueError):
        convolve_weighted([law] * 3, [1.0, 1.0, 1.0], max_atoms=10)


def test_wide_sparse_grid_merges_without_dense_allocation():
    # the dense grid would span ~6e10 cells for 27 atoms
    law = make_step_law(StepLawParams(Fraction(1, 2), 1))
    weights = [Fraction(1, 100003), Fraction(1, 100019), Fraction(1, 100043)]
    s = convolve_weighted([law] * 3, weights)
    expected = oracles.enum_distribution(weights, [oracles.step_atoms(Fraction(1, 2), 1)] * 3)
    assert len(s.atoms) == 27
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


def test_sparse_merge_matches_dense_grid():
    # width 623 > max_atoms 100 >= support 27 takes the sparse merge
    law = make_step_law(StepLawParams(Fraction(1, 2), 1))
    weights = [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)]
    sparse = convolve_weighted([law] * 3, weights, max_atoms=100)
    dense = convolve_weighted([law] * 3, weights)
    assert sparse.atoms == dense.atoms
    assert abs_moment(sparse, 3).exact == abs_moment(dense, 3).exact


def test_mismatched_lengths_rejected():
    law = make_step_law(StepLawParams(Fraction(0), 1))
    with pytest.raises(ValueError):
        convolve_weighted([law], [1, 2])
    with pytest.raises(ValueError):
        convolve_weighted([], [])


# ---------------------------------------------------------------- norms

@given(weights=st.lists(rationals, min_size=1, max_size=3),
       flips=st.lists(st.booleans(), min_size=3, max_size=3))
def test_norm_invariant_under_sign_flips(weights, flips):
    law = make_step_law(StepLawParams(Fraction(1, 4), 1))
    signed = [w if not f else -w for w, f in zip(weights, flips)]
    base = weighted_sum_norm(weights, law, 3)
    flip = weighted_sum_norm(signed, law, 3)
    assert flip.exact == base.exact


@given(weights=st.lists(rationals, min_size=1, max_size=3),
       c=st.sampled_from([Fraction(1, 2), 2, Fraction(5, 3)]))
def test_norm_scaling(weights, c):
    law = make_step_law(StepLawParams(Fraction(0), 2))
    base = weighted_sum_norm(weights, law, 3)
    scaled = weighted_sum_norm([c * w for w in weights], law, 3)
    assert scaled.value == pytest.approx(float(c) * base.value, rel=1e-12)


def test_norm_monotone_in_p():
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    weights = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    norms = [weighted_sum_norm(weights, law, p).value for p in (1, 1.5, 2, 3, 4.5, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_two_signs_first_moment():
    # E|(X1 + X2)| = 3/4 for the three-point law with zero mass 1/2
    law = make_step_law(StepLawParams(Fraction(1, 2), 1))
    m = weighted_sum_norm([1, 1], law, 1)
    assert m.exact == Fraction(3, 4)


def test_p_below_one_rejected():
    law = make_step_law(StepLawParams(Fraction(0), 1))
    with pytest.raises(ValueError):
        abs_moment(law, 0.5)
    with pytest.raises(ValueError):
        abs_moment(convolve_weighted([law], [0.5]), 3, mode="exact")


# ---------------------------------------------------------------- gaussian

def test_gaussian_norm_closed_values():
    assert gaussian_norm(2) == pytest.approx(1.0, abs=1e-15)
    assert gaussian_norm(4) == pytest.approx(3 ** 0.25, rel=1e-14)
    assert gaussian_norm(1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
    assert gaussian_norm(3, sigma=2.0) == pytest.approx(2 * gaussian_norm(3), rel=1e-14)


@pytest.mark.parametrize("p", [1, 2, 2.5, 3, 4, 7])
def test_gaussian_norm_against_quadrature(p):
    want, err = oracles.gaussian_abs_moment_quad(p)
    assert gaussian_norm(p) ** p == pytest.approx(want, rel=1e-10, abs=10 * err)


def test_shifted_gaussian_moment_values():
    assert shifted_gaussian_moment(0.0, 1.0, 2) == pytest.approx(1.0, rel=1e-11)
    assert shifted_gaussian_moment(0.0, 1.0, 3) == pytest.approx(
        2 * math.sqrt(2) / math.sqrt(math.pi), rel=1e-11)
    assert shifted_gaussian_moment(1e6, 1.0, 2) == pytest.approx(1e12 + 1.0, rel=1e-11)


def test_shifted_gaussian_moment_against_quad():
    a, sigma, p = 0.7, 1.3, 2.5

    def f(x):
        return abs(a + x) ** p * math.exp(-0.5 * (x / sigma) ** 2)

    want, _ = quad(f, -16 * sigma, 16 * sigma, epsabs=1e-13, epsrel=1e-13, limit=400)
    want /= sigma * math.sqrt(2 * math.pi)
    assert shifted_gaussian_moment(a, sigma, p) == pytest.approx(want, rel=1e-10)


def test_plus_part_second_moment_discrete():
    law = make_step_law(StepLawParams(Fraction(0), 2))
    assert plus_part_second_moment(law, 0) == Fraction(5, 2)
    assert plus_part_second_moment(law, 1) == Fraction(3, 2)
    assert plus_part_second_moment(law, Fraction(9, 2)) == 0
    with pytest.raises(ValueError):
        plus_part_second_moment(law, -1)


def test_plus_part_second_moment_gaussian():
    ref = GaussianRef(1.3)
    assert plus_part_second_moment(ref, 0.0) == pytest.approx(1.3 ** 2, rel=1e-12)
    for a in (0.3, 1.0, 2.7):
        want, err = oracles.gaussian_plus_part_quad(1.3, a)
        assert plus_part_second_moment(ref, a) == pytest.approx(want, rel=1e-10, abs=10 * err)
