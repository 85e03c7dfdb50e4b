import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from khinchin_lab import exactprob
from khinchin_lab.exactprob import (
    MERGE_RTOL,
    MomentMethod,
    StepLawParams,
    SymmetricAtomLaw,
    abs_moment,
    convolve_weighted,
    first_abs_moment,
    gaussian_norm,
    make_step_law,
    make_symmetric_law,
    moment_root,
    ratio_root,
    second_moment,
    sum_abs_moment,
    sum_even_moment,
    weighted_sum_norm,
)
from khinchin_lab.lemmas import _gaussian_plus_part
from khinchin_lab.schur import equal_weight_ratio_sequence

rationals = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(4),
                         max_denominator=6)
signed_rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
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


@given(rho0=st.fractions(0, 1, max_denominator=12), L=st.integers(1, 8))
@example(rho0=Fraction(0), L=1)
@example(rho0=Fraction(1), L=3)
@example(rho0=Fraction(1, 3**45), L=3)  # numerators past int64
def test_step_law_grid_matches_its_atom_table(rho0, L):
    law = make_step_law(StepLawParams(rho0, L))
    ref = SymmetricAtomLaw([(v, m) for v, m in oracles.step_atoms(rho0, L) if m])
    assert law.atoms == ref.atoms
    assert (law._den, law._scale) == (ref._den, ref._scale)
    assert law._values.tolist() == ref._values.tolist()
    assert law._nums.tolist() == ref._nums.tolist()
    assert law._values.dtype == ref._values.dtype and law._nums.dtype == ref._nums.dtype


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


# ---------------------------------------------------------------- convolution

def test_convolution_matches_enumeration_exactly():
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    weights = [Fraction(1), Fraction(1, 3), Fraction(2, 3)]
    s = convolve_weighted([law] * 3, weights)
    expected = oracles.enum_distribution(weights, [oracles.step_atoms(Fraction(1, 2), 2)] * 3)
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


@given(rho0=rho0s, L=st.integers(1, 3),
       weights=st.lists(signed_rationals, min_size=1, max_size=4))
@example(rho0=Fraction(1, 2), L=2, weights=[Fraction(-1), Fraction(0), Fraction(1, 2)])
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
    # the exact moment against a float sum over the same atoms
    law = make_step_law(StepLawParams(Fraction(1, 4), 2))
    s = convolve_weighted([law] * 3, [Fraction(2, 3), Fraction(1, 6), 1])
    vals, masses = s.values_float(), s.masses_float()
    for p in (2, 4):
        ex = abs_moment(s, p)
        assert ex.method is MomentMethod.EXACT_RATIONAL
        assert float(np.dot(masses, np.abs(vals) ** p)) == pytest.approx(ex.value, rel=1e-12)


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


@given(rho0=rho0s, L=st.integers(1, 2),
       weights=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=3))
@example(rho0=Fraction(1, 2), L=1, weights=[0.1, 0.2, 0.3])
def test_merge_shift_bounds_every_atom_move(rho0, L, weights):
    law = make_step_law(StepLawParams(rho0, L))
    s = convolve_weighted([law] * len(weights), weights)
    values = [Fraction(v) for v in s.values]
    shift = Fraction(s.merge_shift)
    for exact in oracles.enum_distribution(weights, [list(law.atoms)] * len(weights)):
        assert min(abs(v - exact) for v in values) <= shift
    assert convolve_weighted([law] * 2, [1, Fraction(1, 3)]).merge_shift == 0.0


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


def test_sparse_merge_matches_enumeration():
    # every step's span exceeds its outer size (3, 9, 27 atoms), so each
    # step sort-merges
    law = make_step_law(StepLawParams(Fraction(1, 2), 1))
    weights = [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)]
    atoms = [oracles.step_atoms(Fraction(1, 2), 1)] * 3
    s = convolve_weighted([law] * 3, weights, max_atoms=100)
    expected = oracles.enum_distribution(weights, atoms)
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}
    assert abs_moment(s, 3).exact == oracles.enum_abs_moment(weights, atoms, 3)


def test_guard_checks_each_step_not_the_whole_width():
    # the whole sum spans 233 grid cells over 4^4 = 256 atom combinations,
    # but the largest step sort-merges 36 values by 4 atoms, 144 entries
    law = make_step_law(StepLawParams(Fraction(0), 2))
    weights = [1, 1, Fraction(6, 5), Fraction(2, 3)]
    s = convolve_weighted([law] * 4, weights, max_atoms=200)
    expected = oracles.enum_distribution(weights, [oracles.step_atoms(0, 2)] * 4)
    assert len(s) == 88
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}
    assert len(convolve_weighted([law] * 4, weights, max_atoms=144)) == 88
    with pytest.raises(ValueError, match="144 atoms exceeds the guard"):
        convolve_weighted([law] * 4, weights, max_atoms=143)


def test_dense_step_answers_at_the_default_guard():
    # the second step's outer size is 10001^2 = 1e8, its span only 20001
    law = make_step_law(StepLawParams(Fraction(1, 2), 5000))
    s = convolve_weighted([law] * 2, [1, 1])
    assert len(s) == 20_001
    assert sum(s.masses) == 1
    assert s.zero_mass == Fraction(1, 4) + 5000 * Fraction(1, 20_000) ** 2 * 2
    with pytest.raises(ValueError, match="20001 atoms exceeds the guard"):
        convolve_weighted([law] * 2, [1, 1], max_atoms=20_000)


def test_dense_steps_allocate_their_span_not_the_outer_product():
    # outer products of 3001 * 3001 and 6001 * 3001 atoms would take
    # hundreds of MiB; the dense grids span 6001 and 9001 cells
    law = make_step_law(StepLawParams(Fraction(1, 2), 1500))
    tracemalloc.start()
    try:
        s = convolve_weighted([law] * 3, [1, 1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 9001
    assert peak < 16 * 2**20


@pytest.mark.parametrize("weights", [[7, 1], [1, 7], [7, 0, 1], [0, -7, 1]])
def test_dense_step_loops_over_either_side(weights):
    # [7, 1]: the second step spreads its 7-cell kernel and loops over the
    # first step's 7 atoms (49 cell adds), not over its 43-cell span 7 times;
    # a zero weight puts every kernel atom on one cell
    law = make_step_law(StepLawParams(Fraction(1, 2), 3))
    s = convolve_weighted([law] * len(weights), weights)
    atoms = oracles.step_atoms(Fraction(1, 2), 3)
    expected = oracles.enum_distribution(weights, [atoms] * len(weights))
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


def test_dense_step_order_gives_the_same_grid():
    law = make_step_law(StepLawParams(Fraction(1, 2), 300))
    a = convolve_weighted([law] * 2, [601, 1])
    b = convolve_weighted([law] * 2, [1, 601])
    assert len(a) == 361_201
    assert np.array_equal(a._values, b._values) and np.array_equal(a._nums, b._nums)


def test_offsets_from_integer_grids_match_fraction_products():
    # a summed law keeps an unreduced grid (values -2, 0, 2 over scale 2)
    half = convolve_weighted([make_step_law(StepLawParams(Fraction(1, 3), 1))] * 2,
                             [Fraction(1, 2), Fraction(1, 2)])
    laws = [half, make_step_law(StepLawParams(Fraction(1), 1)),
            make_symmetric_law(Fraction(1, 5), {Fraction(3, 7): Fraction(2, 5)}),
            make_step_law(StepLawParams(Fraction(1, 4), 2))]
    weights = [Fraction(-4, 9), 5, Fraction(14, 3), Fraction(0)]
    s = convolve_weighted(laws, weights)
    prods = [Fraction(w) * v for law, w in zip(laws, weights) for v in law.values]
    assert s._scale == math.lcm(*(x.denominator for x in prods))
    expected = oracles.enum_distribution(weights, [list(law.atoms) for law in laws])
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


def test_dense_step_keeps_object_values_past_int64():
    # the zero weight's step goes dense on a one-cell span; its values must
    # stay Python ints for the next step's offsets near 1.2e19
    law = make_step_law(StepLawParams(Fraction(1, 2), 4))
    weights = [0, Fraction(3073975003197261181, 23)]
    s = convolve_weighted([law] * 2, weights)
    expected = oracles.enum_distribution(weights, [oracles.step_atoms(Fraction(1, 2), 4)] * 2)
    assert s._values.dtype == object
    assert dict(s.atoms) == {v: m for v, m in expected.items() if m > 0}


def test_mismatched_lengths_rejected():
    law = make_step_law(StepLawParams(Fraction(0), 1))
    with pytest.raises(ValueError):
        convolve_weighted([law], [1, 2])
    with pytest.raises(ValueError):
        convolve_weighted([], [])


# ---------------------------------------------------------------- exact moments

def _grid_law(pos_values, pos_nums, zero_num=0):
    """Symmetric grid law on +-pos_values (and 0 when zero_num > 0)."""
    mid = [0] if zero_num else []
    values = [-v for v in reversed(pos_values)] + mid + list(pos_values)
    nums = list(reversed(pos_nums)) + ([zero_num] if zero_num else []) + list(pos_nums)
    den = sum(nums)
    return SymmetricAtomLaw._from_grid(exactprob._int_array(values), exactprob._int_array(nums),
                                       den, 1)


def _loop_power_sum(law, k):
    """E|X|^k from the atom table, one Fraction at a time."""
    return sum(m * abs(v) ** k for v, m in law.atoms)


# The power sum is one loop over Python ints for every grid; the tests below
# check it against the atom table where a fixed-width int64 dot product or
# power would overflow.

@given(pairs=st.dictionaries(st.integers(1, exactprob._INT64_SAFE - 1), st.integers(1, 2**56),
                             min_size=1, max_size=40))
def test_limb_dot_is_the_exact_integer_dot(pairs):
    # at k = 1 the power sum is the dot product of two int64 columns whose
    # products pass 2^63; numerators up to 2^56 keep the total mass, at
    # most 80 * 2^56, inside int64
    pos = sorted(pairs)
    law = _grid_law(pos, [pairs[v] for v in pos])
    assert law._values.dtype == law._nums.dtype == np.int64
    assert exactprob._power_sum(law, 1) == 2 * sum(v * n for v, n in pairs.items())


@given(values=st.sets(st.integers(1, 2**21 - 1), min_size=1, max_size=150),
       num_bits=st.integers(1, 54), k=st.integers(1, 4), zero=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_limbs_equal_the_loop_on_random_int64_grids(values, num_bits, k, zero, seed):
    # numerators below 2^54 keep the total mass, 2^54 * 301, inside int64
    rng = np.random.default_rng(seed)
    pos = sorted(values)
    nums = [int(x) for x in rng.integers(1, 2**num_bits, len(pos), endpoint=True)]
    law = _grid_law(pos, nums, int(rng.integers(1, 2**num_bits)) if zero else 0)
    assert law._values.dtype == law._nums.dtype == np.int64
    assert exactprob._exact_power_sum(law, k) == _loop_power_sum(law, k)


@pytest.mark.parametrize("top, k_below", [(2**21 - 1, 3), (2**21, 2), (3_037_000_499, 2),
                                          (3_037_000_500, 1), (2**62 - 1, 1)])
def test_limbs_up_to_the_last_power_below_2_63(top, k_below):
    # top^k_below < 2^63 <= top^(k_below + 1): the power sum gives the atom
    # table's moment on both sides of 2^63, also past 64 unsigned bits
    assert top**k_below < 2**63 <= top ** (k_below + 1)
    pos = list(range(1, 64)) + [top]
    law = _grid_law(pos, [2**40 + 3 * j for j in range(len(pos))], 7)
    assert law._values.dtype == np.int64
    for k in (k_below, k_below + 1, k_below + 2):
        assert exactprob._exact_power_sum(law, k) == _loop_power_sum(law, k)


def test_object_grids_and_one_atom_laws_take_the_loop():
    wide = _grid_law([j * 2**60 for j in range(1, 100)], list(range(1, 100)))
    heavy = _grid_law(list(range(1, 100)), [2**62 + j for j in range(1, 100)])
    assert wide._values.dtype == object and heavy._nums.dtype == object
    for law in (wide, heavy):
        for k in (1, 2, 3):
            assert exactprob._exact_power_sum(law, k) == _loop_power_sum(law, k)
    point = make_step_law(StepLawParams(Fraction(1), 2))
    assert len(point) == 1 and all(abs_moment(point, k).exact == 0 for k in (1, 2, 3))
    single = _grid_law([5], [1])
    assert exactprob._exact_power_sum(single, 3) == 125


def test_limbs_on_a_large_sum_law():
    law = make_step_law(StepLawParams(Fraction(1, 2), 4))
    s = convolve_weighted([law] * 5, [Fraction(2, 9), Fraction(2, 7), Fraction(7, 8),
                                      Fraction(2, 11), Fraction(4, 5)])
    assert len(s) == 59049 and s._values.dtype == np.int64
    half = slice(len(s) // 2, None)
    values, nums = s._values[half].tolist(), s._nums[half].tolist()
    for k in (1, 2, 3, 4):
        # the same sum as a Python loop over the atoms in integers, 0 included
        want = Fraction(2 * sum(n * v**k for v, n in zip(values, nums)), s._den * s._scale**k)
        assert exactprob._exact_power_sum(s, k) == want


mixed_laws = st.lists(st.tuples(rho0s, st.integers(1, 2), signed_rationals),
                      min_size=1, max_size=4)


@given(summands=mixed_laws, k=st.sampled_from([2, 4, 6]))
@example(summands=[(Fraction(0), 2, Fraction(0)), (Fraction(1, 2), 1, Fraction(-3, 2)),
                   (Fraction(3, 4), 2, Fraction(5, 6))], k=6)
def test_even_moment_recursion_equals_convolution(summands, k):
    laws = [make_step_law(StepLawParams(rho0, L)) for rho0, L, _ in summands]
    weights = [w for _, _, w in summands]
    got = sum_even_moment(laws, weights, k)
    assert isinstance(got, Fraction)
    assert got == abs_moment(convolve_weighted(laws, weights), k).exact
    atoms = [oracles.step_atoms(rho0, L) for rho0, L, _ in summands]
    assert got == oracles.enum_abs_moment(weights, atoms, k)


def test_even_moments_of_float_sums_and_bad_orders():
    law = make_step_law(StepLawParams(Fraction(1, 3), 2))
    weights = [0.3, 1.7, -0.45]
    for k in (2, 4):
        got = sum_even_moment([law] * 3, weights, k)
        want = oracles.enum_abs_moment_float(weights, [oracles.step_atoms(Fraction(1, 3), 2)] * 3, k)
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-13)
    assert sum_even_moment([law], [Fraction(1, 2)], 0) == 1
    for k in (3, -2):
        with pytest.raises(ValueError):
            sum_even_moment([law], [1], k)
    with pytest.raises(ValueError):
        sum_even_moment([law, law], [1], 2)


def test_norms_past_the_support_guard_split_the_sum():
    # nine summands of 8 atoms on coprime scales: the whole sum's last
    # convolution step would hold 8^8 = 16 777 216 entries, past SUPPORT_GUARD
    law = make_step_law(StepLawParams(Fraction(0), 4))
    weights = [Fraction(1, q) for q in (101, 103, 107, 109, 113, 127, 131, 137, 139)]
    m2 = sum(w * w for w in weights) * second_moment(law)
    m4y = abs_moment(law, 4).exact
    # E S^4 = sum w^4 E Y^4 + 3 ((sum w^2 E Y^2)^2 - sum w^4 (E Y^2)^2)
    m4 = sum(w**4 for w in weights) * (m4y - 3 * second_moment(law) ** 2) + 3 * m2 * m2
    norm = weighted_sum_norm(weights, law, 4)
    assert norm.method is MomentMethod.EXACT_RATIONAL and norm.exact == m4
    assert sum_abs_moment([law] * 9, weights, 4).exact == m4
    # odd p: halves of 8^4 and 8^5 atoms, each under the guard
    norms = [weighted_sum_norm(weights, law, p) for p in (2, 3, 4)]
    assert all(n.method is MomentMethod.EXACT_RATIONAL for n in norms)
    assert norms[0].value <= norms[1].value <= norms[2].value  # Lyapunov
    # sixteen summands: each half's last step would hold 8^8 entries
    weights += [Fraction(1, q) for q in (149, 151, 157, 163, 167, 173, 179)]
    with pytest.raises(ValueError, match="exceeds the guard"):
        weighted_sum_norm(weights, law, 3)


split_summand = st.tuples(
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(1, 3**40)]),
    st.integers(1, 3),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
                     Fraction(5, 6)]))


@given(summands=st.lists(split_summand, min_size=1, max_size=5), p=st.sampled_from([1, 3, 5]))
@example(summands=[(Fraction(1, 3**40), 2, Fraction(1, 2)), (Fraction(0), 3, Fraction(1, 2)),
                   (Fraction(1, 2), 1, Fraction(0)), (Fraction(1), 1, Fraction(-2, 3))], p=5)
def test_odd_moment_split_equals_the_convolved_law(summands, p):
    # zero, negative and repeated weights, mixed step laws, and a zero mass
    # of 1/3^40, whose mass numerators are Python ints (object dtype)
    laws = [make_step_law(StepLawParams(rho0, L)) for rho0, L, _ in summands]
    weights = [w for _, _, w in summands]
    want = abs_moment(convolve_weighted(laws, weights), p).exact
    assert sum_abs_moment(laws, weights, p).exact == want
    for k in range(1, len(laws)):
        x = convolve_weighted(laws[:k], weights[:k])
        y = convolve_weighted(laws[k:], weights[k:])
        assert exactprob._moment_of_pair(x, y, p) == want
        assert exactprob._moment_of_pair(y, x, p) == want


@pytest.mark.parametrize("block", [1, 2, 5])
def test_odd_moment_split_across_blocks(monkeypatch, block):
    # blocks of a few atoms cut the merged order inside runs of a and of c
    monkeypatch.setattr(exactprob, "_SPLIT_BLOCK", block)
    law = make_step_law(StepLawParams(Fraction(1, 3), 3))
    weights = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2)]
    for p in (1, 3, 5):
        want = abs_moment(convolve_weighted([law] * 4, weights), p).exact
        for k in (1, 2, 3):
            x = convolve_weighted([law] * k, weights[:k])
            y = convolve_weighted([law] * (4 - k), weights[k:])
            assert exactprob._moment_of_pair(x, y, p) == want


def test_odd_moment_split_on_object_values():
    # values past 2^62 on the common scale are searched and summed as Python ints
    law = make_step_law(StepLawParams(Fraction(1, 2), 2))
    x = convolve_weighted([law] * 2, [2**61, 3])
    y = convolve_weighted([law], [Fraction(1, 5)])
    assert x._values.dtype == object
    want = abs_moment(convolve_weighted([law] * 3, [2**61, 3, Fraction(1, 5)]), 3).exact
    assert exactprob._moment_of_pair(x, y, 3) == want


def _fraction_even_moments(laws, weights, k):
    """[E S^0, ..., E S^k] of each prefix sum by the recursion in Fractions."""
    moments = [Fraction(1)] + [Fraction(0)] * (k // 2)
    for law, w in zip(laws, weights):
        xm = [Fraction(1)] + [abs_moment(law, j).exact for j in range(2, k + 1, 2)]
        wx = [Fraction(w) ** (2 * j) * x for j, x in enumerate(xm)]
        moments = [sum(math.comb(2 * i, 2 * j) * moments[i - j] * wx[j] for j in range(i + 1))
                   for i in range(len(moments))]
        yield moments


@given(summands=st.lists(split_summand, min_size=1, max_size=3), k=st.sampled_from([2, 4, 6]))
def test_integer_even_recursion_equals_the_fraction_route(summands, k):
    laws = [make_step_law(StepLawParams(rho0, L)) for rho0, L, _ in summands]
    weights = [w for _, _, w in summands]
    got = list(exactprob._even_moment_prefixes(laws, weights, k))
    want = list(_fraction_even_moments(laws, weights, k))
    assert [[Fraction(num, den) for num, den in row] for row in got] == want
    atoms = [oracles.step_atoms(rho0, L) for rho0, L, _ in summands]
    assert Fraction(*got[-1][-1]) == oracles.enum_abs_moment(weights, atoms, k)


@given(summands=st.lists(split_summand, min_size=2, max_size=4),
       p=st.sampled_from([2, 4, 6, 30, 32, 34, 40, 64]))
def test_even_moment_of_pair_equals_the_recursion(summands, p):
    # p on both sides of _RECURSION_MAX_P, so sum_abs_moment takes each route
    laws = [make_step_law(StepLawParams(rho0, L)) for rho0, L, _ in summands]
    weights = [w for _, _, w in summands]
    want = sum_even_moment(laws, weights, p)
    assert sum_abs_moment(laws, weights, p).exact == want
    for k in range(1, len(laws)):
        x = convolve_weighted(laws[:k], weights[:k])
        y = convolve_weighted(laws[k:], weights[k:])
        assert exactprob._moment_of_pair(x, y, p) == want
        assert exactprob._moment_of_pair(y, x, p) == want


def test_high_even_moments_skip_the_recursion_unless_the_halves_are_too_large(monkeypatch):
    calls = []
    real = exactprob._even_moment_prefixes

    def spy(laws, weights, k):
        calls.append(k)
        return real(laws, weights, k)

    monkeypatch.setattr(exactprob, "_even_moment_prefixes", spy)
    law = make_step_law(StepLawParams(Fraction(0), 1))
    weights = [Fraction(1, 100)] * 3
    m = sum_abs_moment([law] * 3, weights, 2000)
    assert calls == [] and m.exact == abs_moment(convolve_weighted([law] * 3, weights), 2000).exact
    assert sum_abs_moment([law], [Fraction(1, 3)], 2000).exact == abs_moment(law, 2000).exact / 3**2000
    assert calls == []
    # sixteen summands of 8 atoms: each half has 8^8 atom tuples, past
    # SUPPORT_GUARD, so p = 34 keeps the recursion, which needs no guard
    wide = make_step_law(StepLawParams(Fraction(0), 4))
    weights = [Fraction(1, q) for q in (101, 103, 107, 109, 113, 127, 131, 137,
                                        139, 149, 151, 157, 163, 167, 173, 179)]
    assert sum_abs_moment([wide] * 16, weights, 34).exact == sum_even_moment([wide] * 16, weights, 34)
    assert calls == [34, 34]


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


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_non_finite_p_rejected(p):
    law = make_step_law(StepLawParams(Fraction(0), 1))
    for moment in (lambda: abs_moment(law, p), lambda: sum_abs_moment([law] * 2, [1, 1], p),
                   lambda: weighted_sum_norm([Fraction(1, 2)], law, p),
                   lambda: equal_weight_ratio_sequence(law, p, 2)):
        with pytest.raises(ValueError, match="finite"):
            moment()


@pytest.mark.parametrize("p", [3, 4, 3.5, 40])
def test_ratio_sequence_of_the_zero_law_is_refused(p):
    # every route (pair kernel, recursion, float prefix laws, pair kernel past
    # the recursion) meets E S_n^2 = 0 and names it, rather than dividing by it
    zero = make_symmetric_law(1, {})
    with pytest.raises(ValueError, match="law is degenerate at zero"):
        equal_weight_ratio_sequence(zero, p, 3)


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


def test_plus_part_second_moment_gaussian():
    # the closed form behind the dominance gap, E (G^2 - a)_+ at sigma = 1.3
    s2 = 1.3 ** 2
    assert _gaussian_plus_part(s2, 0.0) == pytest.approx(s2, rel=1e-12)
    for a in (0.3, 1.0, 2.7):
        want, err = oracles.gaussian_plus_part_quad(1.3, a)
        assert _gaussian_plus_part(s2, a) == pytest.approx(want, rel=1e-10, abs=10 * err)


# ---------------------------------------------------------------- roots past the float range

EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(num=st.integers(1, 10**700), den=st.integers(1, 10**700), p=st.integers(1, 1200))
@example(num=1, den=10**400, p=2)  # num / den underflows to 0
@example(num=3**1000 + 3, den=4, p=1000)
def test_ratio_root_matches_mpmath(num, den, p):
    with mpmath.workdps(50):
        ref = mpmath.root(mpmath.mpf(num) / den, p)
        if not mpmath.mpf(2) ** -1000 <= ref <= mpmath.mpf(2) ** 1000:
            return  # outside the normal float range even as a root
        _assert_within_one_ulp(ratio_root(num, den, p), ref)


def _assert_within_one_ulp(got: float, ref) -> None:
    """got lies within one ulp of the mpmath value ref (taken at 50 digits):
    the floor of a root of at least 64 bits, rounded to 53, is off by at
    most half an ulp plus 2^-10 of one."""
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(got) - ref) <= math.ulp(got)


@settings(max_examples=200, deadline=None)
@given(num=st.integers(1, 10**300), den=st.integers(1, 10**300), p=st.integers(1, 50))
@example(num=10**300, den=3, p=50)
def test_ratio_root_in_the_float_range_is_within_one_ulp(num, den, p):
    # quotients in the normal float range: the root comes from integers
    # alone, with no rounding of q = num / den or of 1/p
    with mpmath.workdps(50):
        q = mpmath.mpf(num) / den
        if not mpmath.mpf(2) ** -1022 <= q <= mpmath.mpf(2) ** 1023:
            return
        _assert_within_one_ulp(ratio_root(num, den, p), mpmath.root(q, p))


def test_ratio_root_of_an_exact_cube():
    # the quotient 10^300 has the integer cube root 10^100, so the floor
    # is exact and one rounding gives the double nearest 10^100; a float
    # route through q^(1/3) is off by dozens of ulps here
    assert ratio_root(10**700, 10**400, 3) == 1e100
    assert ratio_root(0, 7, 3) == 0.0


def test_moment_past_the_float_range_keeps_its_root():
    coin = make_step_law(StepLawParams(Fraction(0), 1))
    m = sum_abs_moment([coin] * 3, [1, 1, 1], 1000)
    assert m.value == math.inf and m.exact == Fraction(3 + 3**1000, 4)
    with mpmath.workdps(50):
        ref = float(mpmath.root((3 + mpmath.mpf(3) ** 1000) / 4, 1000))
    assert moment_root(m, 1000) == pytest.approx(ref, rel=2 * EPS)
    norm = weighted_sum_norm([1, 1, 1], coin, 1000)
    assert (norm.value, norm.exact) == (moment_root(m, 1000), m.exact)
    # inside the float range the root is as close as past it
    small = sum_abs_moment([coin] * 3, [1, 1, 1], 5)
    with mpmath.workdps(50):
        _assert_within_one_ulp(moment_root(small, 5), mpmath.root(
            mpmath.mpf(small.exact.numerator) / small.exact.denominator, 5))
