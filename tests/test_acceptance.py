"""Acceptance battery: one test per shipped guarantee, one printed line each.

Each test prints a single PASS/FAIL line (visible with -s or through the
capsys.disabled block) and then asserts, so a red run still shows which
guarantee broke.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np

from khinchin_lab.exactprob import (
    StepLawParams,
    convolve_weighted,
    first_abs_moment,
    gaussian_norm,
    make_step_law,
)
from khinchin_lab.haagerup import (
    first_abs_moment_integral,
    haagerup_function,
    l1_l2_verdict,
    solve_critical_exponent,
    two_weight_threshold,
)
from khinchin_lab.lemmas import (
    Cone,
    SLOPE_LOWER_BOUNDS,
    TANGENT_LOWER_BOUNDS,
    check_cone_membership,
    endpoint_gap,
    endpoint_gap_slope,
    signed_power_chord,
    signed_power_sum,
    slope_table,
    sqrt_power_pair,
    tangent_values,
    verify_two_point,
)
from khinchin_lab.schur import (
    comparison_threshold_by_L,
    comparison_zero_mass_limit,
    equal_weight_ratio_sequence,
    majorization_sample_test,
    make_symmetric_three_point,
    ostrowski_check,
    verify_gaussian_comparison,
)

SEED = 1729


def _line(capsys, ok: bool, msg: str) -> None:
    with capsys.disabled():
        print(("PASS: " if ok else "FAIL: ") + msg)
    assert ok, msg


def test_criterion_01_slope_table(capsys):
    t0 = time.perf_counter()
    table = slope_table()
    elapsed = time.perf_counter() - t0
    bad = [(L, b) for L, b, th in table.entries if th - SLOPE_LOWER_BOUNDS[(L, b)] < 0]
    spot = (table.value(3, 1) >= 0.02 and table.value(5, 2) >= 0.05
            and table.value(6, 4) >= 0.02)
    ok = not bad and spot and elapsed < 5.0
    _line(capsys, ok,
          f"criterion 1: all 10 breakpoint slopes exceed their printed bounds "
          f"({elapsed:.2f}s)")


def test_criterion_02_tangent_values(capsys):
    vals = tangent_values()
    bad = [L for L, v in vals.items() if v <= TANGENT_LOWER_BOUNDS[L]]
    _line(capsys, not bad,
          "criterion 2: last-branch tangents clear 0.2/0.7/1.2/1.9/2.6")


def test_criterion_03_endpoint_checkpoints(capsys):
    t0 = 49.0 / 20.0
    slope = endpoint_gap_slope(t0)
    gap = endpoint_gap(t0)
    ok = slope > 0.2 and gap > 0.01
    _line(capsys, ok,
          f"criterion 3: endpoint slope {slope:.6f} > 0.2 and gap {gap:.6f} > 0.01")


def test_criterion_04_haagerup_function(capsys):
    at2 = haagerup_function(2.0).value
    grid = np.linspace(1.0, 20.0, 20)
    vals = [haagerup_function(float(s)).value for s in grid]
    monotone = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    ok = abs(at2 - 1 / math.sqrt(2)) <= 1e-6 and monotone
    _line(capsys, ok,
          f"criterion 4: F(2) = {at2:.9f} matches 1/sqrt(2) and F is "
          "nondecreasing on the 20-point grid")


def test_criterion_05_integral_vs_enumeration(capsys):
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(1, 6)
        L = rng.randint(1, 4)
        rho = rng.choice([Fraction(0), Fraction(1, 2), Fraction(3, 4)])
        w = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
        law = make_step_law(StepLawParams(rho, L))
        integral = first_abs_moment_integral(w, law, tol=1e-7)
        enum = first_abs_moment(convolve_weighted([law] * n, w))
        worst = max(worst, abs(integral.value - float(enum)))
    _line(capsys, worst <= 1e-6,
          f"criterion 5: integral route matches exact enumeration on 50 "
          f"instances (worst |diff| = {worst:.3e})")


def test_criterion_06_gaussian_comparison(capsys):
    rng = random.Random(SEED)
    worst = math.inf
    for _ in range(200):
        n = rng.randint(2, 6)
        L = rng.randint(1, 4)
        p = rng.choice([3, 3.5, 4, 5])
        w = [Fraction(rng.randint(1, 16), 16) for _ in range(n)]
        law = make_step_law(StepLawParams(Fraction(0), L))
        rep = verify_gaussian_comparison(w, [law] * n, p)
        worst = min(worst, rep.margin)
    seq = equal_weight_ratio_sequence(make_symmetric_three_point(0), 3, 6)
    increasing = all(a < b for a, b in zip(seq, seq[1:]))
    limit = gaussian_norm(3)
    # the commonly quoted 5-digit decimal for the p = 3 constant rounds the
    # true (2 sqrt(2/pi))^(1/3) = 1.1685744..., so compare loosely
    approach = increasing and all(x < limit for x in seq) \
        and abs(limit - 1.16869) < 2e-4
    ok = worst >= -1e-9 and approach
    _line(capsys, ok,
          f"criterion 6: p-norm never beats the gaussian bound on 200 "
          f"instances (worst margin {worst:.3e}) and equal-weight ratios "
          f"climb toward {limit:.5f}")


def test_criterion_07_majorization_and_ostrowski(capsys):
    all_pass = True
    for rho in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        for p in (3, 4):
            v = majorization_sample_test(4, make_symmetric_three_point(rho), p,
                                         trials=500, seed=SEED)
            all_pass = all_pass and v.passed
    boundary = ostrowski_check([1e-3, 1 - 1e-3],
                               make_symmetric_three_point(Fraction(3, 5)), 3)
    ok = all_pass and not boundary.passed and boundary.margin < 0
    _line(capsys, ok,
          f"criterion 7: 6x500 seeded majorization trials pass and the "
          f"pairwise criterion fails past the 1/2 threshold "
          f"(margin {boundary.margin:.4f})")


def test_criterion_08_l1_l2_floor(capsys):
    rng = random.Random(SEED)
    worst = math.inf
    for _ in range(200):
        n = rng.randint(2, 6)
        L = rng.randint(1, 4)
        rho = Fraction(rng.randint(8, 15), 16)
        w = [Fraction(rng.randint(1, 16), 16) for _ in range(n)]
        law = make_step_law(StepLawParams(rho, L))
        rep = l1_l2_verdict(law, w)
        worst = min(worst, rep.margin)
    single = l1_l2_verdict(make_step_law(StepLawParams(Fraction(1, 2), 3)),
                           [Fraction(1), Fraction(0), Fraction(0)])
    eq_gap = abs(single.witness["first_abs"] - single.witness["c1_times_l2"])
    ok = worst >= -1e-9 and single.witness["squared_gap"] == 0 and eq_gap <= 1e-12
    _line(capsys, ok,
          f"criterion 8: l1 >= c1 l2 on 200 instances (worst margin "
          f"{worst:.3e}) with exact equality at a single weight")


def test_criterion_09_necessity_constants(capsys):
    limit = comparison_zero_mass_limit()
    target = 1 - 27 * math.pi / 128
    sweep_gap = abs(comparison_threshold_by_L(10_000) - limit)
    tw = two_weight_threshold(1)
    thr_err = abs(float(tw.witness["threshold"]) - (math.sqrt(2) - 1))
    noted = "direction" in tw.witness["direction_note"]
    ok = (abs(limit - target) <= 1e-12 and sweep_gap <= 1e-4
          and tw.passed and thr_err <= 1e-12 and noted)
    _line(capsys, ok,
          f"criterion 9: zero-mass limit 1 - 27pi/128 reached within "
          f"{sweep_gap:.2e} by L = 10^4; two-weight threshold sqrt(2)-1 "
          f"within {thr_err:.1e} with the direction discrepancy recorded")


def test_criterion_10_critical_exponent(capsys):
    res = solve_critical_exponent()
    residual = abs(math.gamma((res.value + 1) / 2) - math.sqrt(math.pi) / 2)
    ok = 1.8469 < res.value < 1.8476 and residual <= 1e-12
    _line(capsys, ok,
          f"criterion 10: root {res.value:.10f} in (1.8469, 1.8476), "
          f"gamma residual {residual:.2e}")


def test_criterion_11_lemma_suites(capsys):
    grid_ok = True
    for k in range(1, 100):
        rep = verify_two_point(Fraction(k, 100))
        grid_ok = grid_ok and rep.passed and rep.witness["gap"] >= 0

    cone_violations = 0
    xs = np.linspace(0.01, 6.0, 1200)
    for q in (2, 2.5, 3, 5, 8):
        for w in (0.0, 1.0):
            odd = check_cone_membership(lambda x: signed_power_sum(q, w, x),
                                        Cone.ODD_CONVEX, xs, tol=1e-9)
            even = check_cone_membership(lambda x: signed_power_chord(q, w, x),
                                         Cone.EVEN_CONVEX, xs, tol=1e-9)
            cone_violations += (not odd.ok) + (not even.ok)

    pair_violations = 0
    ts = np.linspace(0.0, 9.0, 1200)
    for p in (3, 4, 6):
        for a in (0.5, 1.0, 2.0):
            vals = sqrt_power_pair(p, a, ts)
            slopes = np.diff(vals) / np.diff(ts)
            scale = max(1.0, float(np.max(np.abs(slopes))))
            if np.min(np.diff(slopes)) < -1e-9 * scale:
                pair_violations += 1
            if np.min(np.diff(vals)) < -1e-9 * max(1.0, float(np.max(np.abs(vals)))):
                pair_violations += 1

    ok = grid_ok and cone_violations == 0 and pair_violations == 0
    _line(capsys, ok,
          "criterion 11: exact node minima nonnegative on the 99-point grid; "
          "cone and convexity certificates report zero violations at 1e-9")
