import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from khinchin_lab import schur
from khinchin_lab.exactprob import (
    StepLawParams,
    abs_moment,
    convolve_weighted,
    gaussian_norm,
    make_step_law,
    moment_root,
    second_moment,
)
from khinchin_lab.schur import (
    MajorizationPair,
    comparison_threshold_by_L,
    comparison_zero_mass_limit,
    equal_weight_ratio_sequence,
    majorization_report,
    majorization_sample_test,
    make_symmetric_three_point,
    ostrowski_check,
    schur_objective,
    schur_zero_mass_threshold,
    verify_gaussian_comparison,
)
from lemma_checks import two_point_schur_check
from khinchin_lab.schur import _draw_numerators, _draw_pair, _schur_objectives

COIN = make_symmetric_three_point(0)
POINT_MASS = make_step_law(StepLawParams(Fraction(1), 1))  # W identically 0


# ---------------------------------------------------------------- objective

def test_objective_coin_values():
    # equal split: (e1 + e2)/sqrt(2) lands on {-sqrt2, 0, sqrt2}
    assert schur_objective([Fraction(1, 2), Fraction(1, 2)], COIN, 3) == \
        pytest.approx(math.sqrt(2), rel=1e-12)
    # all mass on one coordinate: |e1|^p = 1
    assert schur_objective([1, 0, 0], COIN, 5) == pytest.approx(1.0, rel=1e-12)


@given(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=Fraction(3),
                             max_denominator=9), min_size=2, max_size=4),
       st.sampled_from([3, 4]))
def test_objective_permutation_invariant(a, p):
    law = make_symmetric_three_point(Fraction(1, 4))
    base = schur_objective(a, law, p)
    assert schur_objective(list(reversed(a)), law, p) == pytest.approx(base, rel=1e-9)


def test_objective_validation():
    with pytest.raises(ValueError):
        schur_objective([], COIN, 3)
    with pytest.raises(ValueError):
        schur_objective([-0.1, 1.1], COIN, 3)
    with pytest.raises(ValueError):
        schur_objective([1, 1], COIN, 0.5)
    with pytest.raises(ValueError):
        _schur_objectives([0.5, 0.5], COIN, 3)


def _convolution_objective(a, law, p):
    """Phi(a) by the merged law of the weighted sum, the reference route."""
    weights = [math.sqrt(float(x)) for x in a]
    return abs_moment(convolve_weighted([law] * len(a), weights), p).value


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 5).flatmap(lambda n: st.lists(
           st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n), min_size=1, max_size=3)),
       rho0=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]),
       L=st.integers(1, 2), p=st.sampled_from([3, 3.5, 4]))
def test_pattern_kernel_matches_enumeration(rows, rho0, L, p):
    law = make_step_law(StepLawParams(rho0, L))
    got = _schur_objectives(rows, law, p)
    for row, phi in zip(rows, got.tolist()):
        want = oracles.enum_abs_moment_float([math.sqrt(x) for x in row],
                                             [oracles.step_atoms(rho0, L)] * len(row), p)
        assert phi == pytest.approx(want, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("block", [None, 1, 16, 100])
def test_pattern_kernel_rows_independent_of_their_batch(monkeypatch, block):
    # tiny blocks split rows and patterns (head x tail) into many pieces;
    # every row must still give the bits of its own one-row call, for the
    # values and for the partials
    if block is not None:
        monkeypatch.setattr(schur, "_PATTERN_BLOCK", block)
    law = make_step_law(StepLawParams(Fraction(1, 4), 1))
    atoms = oracles.step_atoms(Fraction(1, 4), 1)
    rng = random.Random(11)
    rows = [[rng.uniform(0.01, 1.0) for _ in range(5)] for _ in range(9)]
    order = list(range(9))
    rng.shuffle(order)
    for partials in (False, True):
        def kernel(batch):
            return _schur_objectives(batch, law, 3.5, partials=partials).tolist()

        alone = [kernel([row])[0] for row in rows]
        assert kernel(rows) == alone
        assert kernel([rows[i] for i in order]) == [alone[i] for i in order]
        assert kernel(rows[2:5]) == alone[2:5]
        for row, got in zip(rows, alone):
            if partials:
                want = oracles.enum_schur_gradient(row, atoms, 3.5)
                assert got == pytest.approx(want, rel=1e-12)
            else:
                want = oracles.enum_abs_moment_float([math.sqrt(x) for x in row],
                                                     [atoms] * 5, 3.5)
                assert got == schur_objective(row, law, 3.5)
                assert got == pytest.approx(want, rel=1e-13)


def test_pattern_kernel_blocks_large_pattern_sets():
    # 3^11 patterns exceed one block, so each row spans several pattern blocks
    law = make_symmetric_three_point(Fraction(1, 3))
    rows = [[1 / 11] * 11, [k / 66 for k in range(1, 12)]]
    got = _schur_objectives(rows, law, 3).tolist()
    assert got == [schur_objective(row, law, 3) for row in rows]
    for row, phi in zip(rows, got):
        assert phi == pytest.approx(_convolution_objective(row, law, 3), rel=1e-12)


def test_objective_past_the_support_guard_takes_the_convolution():
    # 41^5 atom patterns exceed SUPPORT_GUARD; equal weights merge to 201 sums
    law = make_step_law(StepLawParams(Fraction(1, 4), 20))
    a = [Fraction(1, 5)] * 5
    assert schur_objective(a, law, 3) == _convolution_objective(a, law, 3)


def test_objective_memory_is_bounded_by_the_block():
    # 2^22 distinct atom patterns; the kernel holds a few blocks of them at a
    # time, where the merged law of the sum takes 2^22 atoms (about 190 MiB
    # peak and 15 s under tracemalloc)
    a = [Fraction(k, 253) for k in range(1, 23)]
    tracemalloc.start()
    try:
        phi = schur_objective(a, COIN, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi == pytest.approx(1.5718647939983463, rel=1e-12)  # the convolution route's value
    assert peak < 16 * 2**20


# ---------------------------------------------------------------- ostrowski

def test_ostrowski_passes_in_proved_regime():
    rep = ostrowski_check([0.3, 0.7], COIN, 3)
    assert rep.passed and rep.margin > 0
    rep = ostrowski_check([0.2, 0.3, 0.5], make_symmetric_three_point(Fraction(1, 2)), 4)
    assert rep.passed


def test_ostrowski_fails_above_threshold():
    law = make_symmetric_three_point(Fraction(3, 5))
    rep = ostrowski_check([1e-3, 1 - 1e-3], law, 3)
    assert not rep.passed
    assert rep.margin == pytest.approx(-0.108796, abs=5e-4)
    assert list(rep.witness["pair"]) == [0, 1]


@settings(max_examples=60, deadline=None)
@given(a=st.integers(2, 5).flatmap(lambda n: st.lists(st.floats(0.01, 2.0), min_size=n,
                                                      max_size=n)),
       rho0=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(3, 5)]),
       L=st.integers(1, 2), p=st.sampled_from([3, 3.5, 4, 5]))
def test_ostrowski_partials_match_enumeration(a, rho0, L, p):
    rep = ostrowski_check(a, make_step_law(StepLawParams(rho0, L)), p)
    want = oracles.enum_schur_gradient(a, oracles.step_atoms(rho0, L), p)
    assert rep.witness["partials"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rho0, L", [(Fraction(1, 3), 1), (Fraction(0), 3)])
def test_ostrowski_partials_at_p4_closed_form(rho0, L):
    # Phi = sum_i a_i^2 E Y^4 + 3 sum_(i != j) a_i a_j (E Y^2)^2 at p = 4
    a = [0.2, 0.3, 0.5, 0.15]
    m2, m4 = (float(sum(m * v**k for v, m in oracles.step_atoms(rho0, L))) for k in (2, 4))
    rep = ostrowski_check(a, make_step_law(StepLawParams(rho0, L)), 4)
    want = [2 * x * m4 + 6 * (sum(a) - x) * m2 * m2 for x in a]
    assert rep.witness["partials"] == pytest.approx(want, rel=1e-12)


def test_partials_past_the_support_guard_match_the_patterns(monkeypatch):
    # with the guard below 3^4 the rows take one merged law per coordinate
    law = make_step_law(StepLawParams(Fraction(1, 4), 1))
    rows = [[0.1, 0.25, 0.3, 0.7], [0.2, 0.2, 0.5, 0.5]]
    patterns = _schur_objectives(rows, law, 3.5, partials=True)
    calls = []
    monkeypatch.setattr(schur, "SUPPORT_GUARD", 3**4 - 1)
    monkeypatch.setattr(schur, "convolve_weighted",
                        lambda *args: calls.append(args) or convolve_weighted(*args))
    merged = _schur_objectives(rows, law, 3.5, partials=True)
    assert len(calls) == 8 and all(len(laws) == 3 for laws, _ in calls)
    np.testing.assert_allclose(merged, patterns, rtol=1e-12)


def test_ostrowski_step_validation():
    with pytest.raises(ValueError):
        ostrowski_check([0.5], COIN, 3)
    with pytest.raises(ValueError):
        ostrowski_check([0.0, 1.0], COIN, 3)


# ---------------------------------------------------------------- two-point form

def test_two_point_exact_example():
    rep = two_point_schur_check(Fraction(1), Fraction(2), Fraction(1, 2), POINT_MASS, 3)
    assert rep.passed
    assert rep.witness["margin_exact"] == Fraction(3, 2)


def test_two_point_threshold_behaviour():
    skew = (Fraction(1, 100), Fraction(1))
    ok = two_point_schur_check(*skew, Fraction(1, 2), POINT_MASS, 3)
    bad = two_point_schur_check(*skew, Fraction(3, 5), POINT_MASS, 3)
    assert ok.passed and not bad.passed
    assert bad.witness["margin_exact"] < 0


def test_two_point_agrees_with_ostrowski_sign():
    # same geometry, independent numeric route
    law = make_symmetric_three_point(Fraction(3, 5))
    o = ostrowski_check([1e-4, 1.0], law, 3)
    t = two_point_schur_check(Fraction(1, 100), Fraction(1), Fraction(3, 5),
                              POINT_MASS, 3)
    assert o.passed == t.passed == False  # noqa: E712


def test_two_point_rejects_zero_mass_zero():
    with pytest.raises(ValueError):
        two_point_schur_check(Fraction(1), Fraction(2), Fraction(0), POINT_MASS, 3)
    with pytest.raises(ValueError):
        two_point_schur_check(Fraction(0), Fraction(2), Fraction(1, 2), POINT_MASS, 3)


def test_two_point_conditioning_law():
    # conditioning on a genuine remainder shifts phi but keeps the verdict
    w = make_step_law(StepLawParams(Fraction(1, 2), 2))
    rep = two_point_schur_check(Fraction(1), Fraction(2), Fraction(1, 2), w, 3)
    assert rep.passed
    assert isinstance(rep.witness["margin_exact"], Fraction)


# ---------------------------------------------------------------- sampling

def test_majorization_pair_validation():
    MajorizationPair((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        MajorizationPair((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)))
    with pytest.raises(ValueError):
        MajorizationPair((Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(TypeError):
        MajorizationPair((0.75, 0.25), (0.5, 0.5))
    with pytest.raises(ValueError, match=r"prefix sum 1 violates majorization: 1/2 < 3/4"):
        MajorizationPair((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)))
    with pytest.raises(ValueError, match=r"totals differ: 4/3 != 1"):
        MajorizationPair((1, Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        MajorizationPair((Fraction(3, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    pair = MajorizationPair((1, Fraction(1, 3), 0), ("1/3", Fraction(2, 3), Fraction(1, 3)))
    assert pair.upper == (1, Fraction(1, 3), 0)
    assert all(type(x) is Fraction for x in pair.upper + pair.lower)


def _fraction_pair(rng, n):
    """The pair drawn in Fraction arithmetic: weights k_i / total with k_i in
    [1, 50], then coordinates i and j averaged with weight lam."""
    nums = [rng.randint(1, 50) for _ in range(n)]
    a = tuple(Fraction(k, sum(nums)) for k in nums)
    i, j = rng.sample(range(n), 2)
    lam = Fraction(rng.randint(1, 99), 100)
    b = list(a)
    b[i] = (1 - lam) * a[i] + lam * a[j]
    b[j] = lam * a[i] + (1 - lam) * a[j]
    return a, tuple(b)


@pytest.mark.parametrize("seed", [1, 7, 1729, 20190601])
def test_sampling_matches_per_trial_convolution(seed):
    # the pre-batch loop: one Fraction pair and two convolution objectives per trial
    law = make_symmetric_three_point(Fraction(1, 3))
    master = random.Random(seed)
    worst, witness = math.inf, None
    for ts in [master.randrange(2**63) for _ in range(40)]:
        a, b = _fraction_pair(random.Random(ts), 4)
        phi_u = _convolution_objective(a, law, 3.5)
        phi_l = _convolution_objective(b, law, 3.5)
        margin = (phi_l - phi_u) / max(1.0, phi_u, phi_l)
        if margin < worst:
            worst, witness = margin, MajorizationPair(a, b)
    v = majorization_sample_test(4, law, 3.5, trials=40, seed=seed)
    assert v.witness_pair == witness
    assert abs(v.worst_margin - worst) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 7])
def test_integer_draw_matches_fraction_draw(n):
    master = random.Random(n)
    for ts in [master.randrange(2**63) for _ in range(300)]:
        a, b = _fraction_pair(random.Random(ts), n)
        upper, lower, den = _draw_numerators(ts, n)
        assert [u / den for u in upper] == [float(x) for x in a]
        assert [l / den for l in lower] == [float(x) for x in b]
        assert _draw_pair(ts, n) == MajorizationPair(a, b)


def test_sampling_deterministic():
    v1 = majorization_sample_test(3, COIN, 3, trials=40, seed=1729)
    v2 = majorization_sample_test(3, COIN, 3, trials=40, seed=1729)
    assert v1.worst_margin == v2.worst_margin
    assert v1.passed


@pytest.mark.parametrize("rho0", [Fraction(0), Fraction(1, 4), Fraction(1, 2)])
def test_sampling_passes_in_proved_regime(rho0):
    law = make_symmetric_three_point(rho0)
    v = majorization_sample_test(4, law, 3, trials=60, seed=7)
    assert v.passed, v.worst_margin


def test_report_exploratory_flag():
    inside = majorization_report(3, make_symmetric_three_point(Fraction(1, 4)),
                                 3, trials=10, seed=3)
    assert inside.params["exploratory"] is False
    outside = majorization_report(3, make_step_law(StepLawParams(Fraction(1, 4), 2)),
                                  3, trials=10, seed=3)
    assert outside.params["exploratory"] is True
    low_p = majorization_report(3, make_symmetric_three_point(Fraction(1, 4)),
                                2.5, trials=10, seed=3)
    assert low_p.params["exploratory"] is True


# ---------------------------------------------------------------- comparison

def test_gaussian_comparison_two_coins():
    rep = verify_gaussian_comparison([1, 1], [COIN, COIN], 3)
    assert rep.passed
    assert rep.witness["norm_p"] == pytest.approx(4 ** (1 / 3), rel=1e-12)
    assert rep.witness["norm_2"] == pytest.approx(math.sqrt(2), rel=1e-12)


def test_gaussian_comparison_rejects_zero_mass():
    law = make_symmetric_three_point(Fraction(1, 4))
    with pytest.raises(ValueError):
        verify_gaussian_comparison([1, 1], [law, law], 3)
    with pytest.raises(ValueError):
        verify_gaussian_comparison([1, 1], [COIN, COIN], 2)


def test_ratio_sequence_frozen():
    seq = equal_weight_ratio_sequence(COIN, 3, 6)
    assert seq[0] == pytest.approx(1.0, abs=1e-12)
    assert seq[1] == pytest.approx(2 ** (1 / 6), rel=1e-12)
    want = [1.0, 1.12246204831, 1.13012494324, 1.14471424255, 1.147086737,
            1.15252905017]
    assert seq == pytest.approx(want, abs=1e-9)
    assert all(x < gaussian_norm(3) for x in seq)


@pytest.mark.parametrize("p", [1, 3, 4, 5, 6])
def test_ratio_sequence_matches_the_convolved_sums(p):
    # E S_n^2 = n E X^2, and E S_n^p at even p, come from the summands, and
    # at odd p from the split of S_ceil(n/2) and S_floor(n/2); the ratios
    # equal those of the convolved laws' exact moments to the last bit, and
    # each root is within one ulp of a 40-digit mpmath root
    law = make_step_law(StepLawParams(Fraction(1, 3), 3))
    want = []
    for n in range(1, 8):
        s = convolve_weighted([law] * n, [1] * n)
        m = abs_moment(s, p)
        root = moment_root(m, p)
        with mpmath.workdps(40):
            ref = mpmath.root(mpmath.mpf(m.exact.numerator) / m.exact.denominator, p)
            assert abs(mpmath.mpf(root) - ref) <= math.ulp(root)
        want.append(root / math.sqrt(float(second_moment(s))))
    assert equal_weight_ratio_sequence(law, p, 7) == want


def test_comparison_at_even_p_does_not_convolve(monkeypatch):
    law = make_step_law(StepLawParams(Fraction(0), 4))
    weights = [Fraction(1, q) for q in (101, 103, 107, 109, 113, 127, 131, 137, 139)]
    monkeypatch.setattr(schur, "convolve_weighted", None)
    monkeypatch.setattr("khinchin_lab.exactprob.convolve_weighted", None)
    rep = verify_gaussian_comparison(weights, [law] * 9, 4)
    assert rep.passed and rep.params["moment_method"] == "exact-rational"
    assert rep.witness["norm_2"] == math.sqrt(float(sum(w * w for w in weights) * 5 * 9 / 6))
    with pytest.raises(TypeError):
        verify_gaussian_comparison(weights, [law] * 9, 3)


# ---------------------------------------------------------------- thresholds

def test_schur_threshold_exact():
    assert schur_zero_mass_threshold() == Fraction(1, 2)


#: pi to 35 decimals, and 10^-35 above it: a rational enclosure of pi
_PI_LO = Fraction(314159265358979323846264338327950288, 10**35)
_PI_HI = _PI_LO + Fraction(1, 10**35)


@pytest.mark.parametrize("L", [*range(1, 51), 100])
def test_comparison_threshold_closed_form(L):
    # the one-coordinate comparison E|Y|^3 <= ||G||_3^3 (E Y^2)^(3/2), with
    # ||G||_3^3 = 2 sqrt(2/pi), squared: pi (E|Y|^3)^2 <= 8 (E Y^2)^3.  In
    # exact moments of the step law it holds at a rational zero mass just
    # below the threshold and fails just above it
    rho_l = comparison_threshold_by_L(L)
    for rho, holds in ((Fraction(rho_l) - Fraction(1, 10**12), True),
                       (Fraction(rho_l) + Fraction(1, 10**12), False)):
        atoms = make_step_law(StepLawParams(rho, L)).atoms
        m2 = sum(m * v**2 for v, m in atoms)
        m3 = sum(m * abs(v)**3 for v, m in atoms)
        if holds:
            assert _PI_HI * m3**2 < 8 * m2**3
        else:
            assert _PI_LO * m3**2 > 8 * m2**3


def test_comparison_threshold_l1():
    assert comparison_threshold_by_L(1) == pytest.approx(1 - math.pi / 8, abs=1e-11)


def test_comparison_limit():
    assert comparison_zero_mass_limit() == pytest.approx(
        1 - 27 * math.pi / 128, abs=1e-12)
    with pytest.raises(ArithmeticError):
        comparison_zero_mass_limit((10, 20), tol=1e-9)
