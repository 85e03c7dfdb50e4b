import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from khinchin_lab.cli import CliInputError, RunConfig, build_config, main, parse_weights
from khinchin_lab.exactprob import (
    SUPPORT_GUARD,
    StepLawParams,
    abs_moment,
    convolve_weighted,
    make_step_law,
    sum_abs_moment,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing

def test_parse_weights_mixed():
    ws = parse_weights("1/2,3,0.25")
    assert ws == [Fraction(1, 2), Fraction(3), 0.25]
    assert isinstance(ws[0], Fraction) and isinstance(ws[1], Fraction)
    assert isinstance(ws[2], float)


def test_parse_weights_errors():
    with pytest.raises(CliInputError, match="entry 2"):
        parse_weights("1/2,,1")
    with pytest.raises(CliInputError, match="entry 1"):
        parse_weights("1/0")
    with pytest.raises(CliInputError):
        parse_weights("")
    with pytest.raises(CliInputError):
        parse_weights("inf,1")


# ---------------------------------------------------------------- table1

def test_table1_default_csv(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "L,b,theta"
    assert len(lines) == 11


def test_table1_tangents(capsys):
    code, out, _ = run_cli(capsys, "table1", "--tangents")
    assert code == 0
    assert out.startswith("L,v\n")


def test_table1_json_rows(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 10
    assert all(r["exceeds"] for r in rows)
    assert {"L", "b", "theta", "lower_bound", "exceeds"} <= set(rows[0])


# ---------------------------------------------------------------- constants

def test_constants_with_ratio_sequence(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "3", "--L", "1", "--n", "6")
    obj = json.loads(out)
    assert code == 0
    assert len(obj["ratio_sequence"]) == 6
    assert obj["ratio_sequence"][1] == pytest.approx(2 ** (1 / 6), rel=1e-10)
    assert obj["gaussian_norm"] == pytest.approx((2 * math.sqrt(2 / math.pi)) ** (1 / 3))
    assert obj["schur_zero_mass_threshold"] == "1/2"


def _coin_sum_norm(n: int, p: int) -> float:
    """||X_1 + ... + X_n||_p for the +-1 coin, from the binomial law, in 60 digits."""
    with mpmath.workdps(60):
        moment = sum(math.comb(n, k) * mpmath.mpf(abs(n - 2 * k)) ** p for k in range(n + 1))
        return float(mpmath.root(moment / 2**n, p))


@pytest.mark.parametrize("p", [1000, 999])
def test_norms_past_the_float_range(capsys, p):
    # E|X_1 + X_2 + X_3|^p = (3 + 3^p)/4 for the coin: past the float range
    # at these p, while its p-th root is about 3
    code, out, _ = run_cli(capsys, "constants", "--p", str(p), "--L", "1", "--n", "8")
    assert code == 0
    ratios = json.loads(out)["ratio_sequence"]
    with mpmath.workdps(60):
        closed = float(mpmath.root((3 + mpmath.mpf(3) ** p) / 4, p))
    assert _coin_sum_norm(3, p) == pytest.approx(closed, rel=1e-15)
    assert ratios == pytest.approx([_coin_sum_norm(n, p) / math.sqrt(n) for n in range(1, 9)],
                                   rel=1e-11)
    code, out, _ = run_cli(capsys, "verify", "--claim", "comparison", "--rho0", "0", "--L", "1",
                           "--p", str(p), "--weights", "1,1,1")
    rep = json.loads(out)
    assert code == 0 and rep["pass"]
    assert rep["witness"]["norm_p"] == pytest.approx(closed, rel=1e-11)
    assert rep["params"]["moment_method"] == "exact-rational"


def test_constants_without_n(capsys):
    code, out, _ = run_cli(capsys, "constants")
    obj = json.loads(out)
    assert code == 0 and "ratio_sequence" not in obj


def test_constants_csv(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n", "2", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0 and lines[0] == "name,value"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert "ratio_sequence_1" in names and "ratio_sequence_2" in names


# ---------------------------------------------------------------- verify

def test_verify_two_point(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "two-point", "--a", "1/2")
    obj = json.loads(out)
    assert code == 0 and err == ""
    assert obj["claim"] == "two-point-inequality" and obj["pass"] is True


def test_verify_ostrowski_failure_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "ostrowski",
                             "--rho0", "3/5", "--weights", "0.001,0.999")
    obj = json.loads(out)
    assert code == 1
    assert obj["pass"] is False
    assert "failed claims:" in err


def test_verify_ostrowski_readme_partials_match_enumeration(capsys):
    _, out, _ = run_cli(capsys, "verify", "--claim", "ostrowski",
                        "--rho0", "3/5", "--weights", "0.001,0.999")
    want = oracles.enum_schur_gradient([0.001, 0.999], oracles.step_atoms(Fraction(3, 5), 1), 3)
    assert json.loads(out)["witness"]["partials"] == [float(f"{x:.12g}") for x in want]


def test_verify_ostrowski_past_the_support_guard(capsys):
    # 3^15 atom patterns exceed SUPPORT_GUARD; the partials take merged laws
    code, out, err = run_cli(capsys, "verify", "--claim", "ostrowski", "--rho0", "1/4",
                             "--L", "1", "--weights", ",".join(["0.1"] * 14 + ["0.2"]))
    assert code == 0, err
    assert json.loads(out)["pass"] is True


def test_verify_all_battery(capsys):
    code, out, err = run_cli(capsys, "verify", "--rho0", "1/2", "--trials", "25")
    reports = json.loads(out)
    assert code == 0, err
    claims = {r["claim"] for r in reports}
    assert "two-point-inequality" in claims
    assert "schur-concavity-sampled" in claims
    assert "l1-l2-comparison" in claims
    assert all(r["pass"] for r in reports)


def test_verify_power_floor_fails_on_unconverged_integrals(capsys):
    # tol 1e-15 is out of reach within 5000 evaluations per integral
    code, out, err = run_cli(capsys, "verify", "--claim", "power-floor",
                             "--rho0", "1/2", "--L", "2", "--tol", "1e-15",
                             "--budget", "5000")
    obj = json.loads(out)
    assert code == 1
    assert "charfn-power-floor" in err
    assert obj["pass"] is False
    assert not all(row["converged"] for row in obj["witness"]["rows"])
    assert all(row["abs_error"] > 0 for row in obj["witness"]["rows"])


def test_budget_below_one_panel_exits_2(capsys):
    # a Gauss-Kronrod route cannot run under 15 evaluations: the sweep's
    # periodic family and the by-parts tail of float weights refuse the
    # budget, while the exact periodic sum of rational weights takes 1 node
    for argv in (["sweep", "--rho0", "1/2", "--L", "1", "--s-min", "1", "--s-max", "4",
                  "--n", "4", "--budget", "10"],
                 ["haagerup", "--weights", "0.5", "--rho0", "1/2", "--L", "1", "--budget", "10"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: ") and "15-point panel" in err
        # the message speaks of the option's budget, not the library's keyword
        assert "budget" in err and "max_evals" not in err
    code, out, err = run_cli(capsys, "haagerup", "--weights", "1", "--rho0", "1/2", "--L", "1",
                             "--budget", "10")
    report = json.loads(out)
    assert (code, err) == (0, "") and report["pass"] is True
    assert report["witness"]["tail"] is None


def test_verify_comparison_needs_no_zero_mass(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "comparison", "--rho0", "1/2")
    assert code == 2 and "error:" in err


def test_verify_comparison_past_the_support_guard_splits_the_sum(capsys):
    # the whole sum's last convolution step would hold 8^8 entries; E S^4
    # comes from the summands, and E|S|^3 from halves of 8^4 and 8^5 atoms
    weights = "1/101,1/103,1/107,1/109,1/113,1/127,1/131,1/137,1/139"
    argv = ("verify", "--claim", "comparison", "--rho0", "0", "--L", "4", "--weights", weights)
    norms = {}
    for p in ("3", "4"):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--p", p)
        assert code == 0 and time.perf_counter() - t0 < 1.0, err
        witness = json.loads(out)["witness"]
        norms[2], norms[int(p)] = witness["norm_2"], witness["norm_p"]
    assert 0 < norms[2] <= norms[3] <= norms[4]  # Lyapunov
    # sixteen summands: each half's last step would hold 8^8 entries
    weights += ",1/149,1/151,1/157,1/163,1/167,1/173,1/179"
    code, out, err = run_cli(capsys, "verify", "--claim", "comparison", "--rho0", "0",
                             "--L", "4", "--weights", weights, "--p", "3")
    assert code == 2 and out == "" and "exceeds the guard" in err


def test_verify_comparison_at_p5_equals_the_convolved_moment(capsys):
    # odd p >= 5 builds no 59 049-atom sum grid, whose v^5 passes 2^63
    weights = [Fraction(2, 9), Fraction(2, 7), Fraction(7, 8), Fraction(2, 11), Fraction(4, 5)]
    code, out, err = run_cli(capsys, "verify", "--claim", "comparison", "--rho0", "0",
                             "--L", "4", "--p", "5", "--weights", ",".join(map(str, weights)))
    assert code == 0, err
    law = make_step_law(StepLawParams(Fraction(0), 4))
    s = convolve_weighted([law] * 5, weights)
    assert len(s) == 8**5 and s._values.dtype == np.int64
    want = abs_moment(s, 5)
    assert sum_abs_moment([law] * 5, weights, 5).exact == want.exact
    # the report prints 12 significant digits
    assert json.loads(out)["witness"]["norm_p"] == pytest.approx(want.value ** (1 / 5), rel=1e-11)


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "two-point", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0].startswith("claim,")
    assert lines[1].startswith("two-point-inequality,")


# ---------------------------------------------------------------- haagerup

def test_haagerup_dual_route(capsys):
    code, out, _ = run_cli(capsys, "haagerup", "--weights", "1,1/3,2/3",
                           "--rho0", "1/2", "--L", "2")
    obj = json.loads(out)
    assert code == 0
    assert obj["claim"] == "abs-moment-dual-route"
    assert obj["witness"]["enumeration"] == "209/192"
    assert obj["witness"]["converged"] is True
    assert obj["witness"]["tail"] is None  # periodic route
    assert obj["pass"] is True


def test_haagerup_witness_shows_the_by_parts_tail(capsys, monkeypatch):
    # the sum law the enumeration builds also gives M and K: no second convolution
    from khinchin_lab import haagerup

    def second_convolution(*args, **kwargs):
        raise AssertionError("the sum law was built twice")

    monkeypatch.setattr(haagerup, "convolve_weighted", second_convolution)
    code, out, err = run_cli(capsys, "haagerup", "--weights", "1,1.4142135623730951",
                             "--rho0", "1/2", "--L", "1", "--tol", "1e-6")
    tail = json.loads(out)["witness"]["tail"]
    assert code == 0, err
    # S = X1 + sqrt(2) X2: P(S = 0) = 1/4, E[1/|S|; S != 0] = 1/4 + 1/(4 sqrt 2) + sqrt(2)/4
    assert tail["M"] == 0.25
    assert tail["K"] == pytest.approx(0.25 + 3.0 / (4.0 * math.sqrt(2.0)), rel=1e-11)
    assert tail["T"] == pytest.approx(math.sqrt(2.0 * tail["K"] / (0.2 * math.pi * 1e-6)),
                                      rel=1e-11)


def test_haagerup_witness_shows_unconverged_integral(capsys):
    # the exact periodic sum takes 34 nodes, but its rounding bound, near
    # 1e-13, is above tol 1e-15
    code, out, err = run_cli(capsys, "haagerup", "--weights", "1,1/3,2/7",
                             "--rho0", "1/2", "--L", "2", "--tol", "1e-15",
                             "--budget", "5000")
    obj = json.loads(out)
    assert code == 1, err
    assert obj["pass"] is False
    assert obj["witness"]["converged"] is False


def test_haagerup_wide_weights_past_seed_cap(capsys):
    # a period too long for periodic seed panels takes the aperiodic route
    code, out, err = run_cli(capsys, "haagerup", "--weights", "1/100003,1/100019,1/100043",
                             "--rho0", "1/2", "--L", "1")
    assert code == 0, err
    assert json.loads(out)["pass"] is True


def test_haagerup_past_support_guard_goes_by_parts(capsys):
    # 3^15 atom tuples exceed SUPPORT_GUARD, but the sum law the enumeration
    # builds has 31 atoms, and its M and K cut the tail
    assert 3 ** 15 > SUPPORT_GUARD
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "haagerup", "--weights", ",".join(["0.5"] * 15),
                             "--rho0", "1/2", "--L", "1", "--tol", "1e-8")
    elapsed = time.perf_counter() - start
    obj = json.loads(out)
    assert code == 0, err
    assert obj["witness"]["tail"] is not None
    assert elapsed < 1.0


# ---------------------------------------------------------------- necessity

def test_necessity_battery(capsys):
    code, out, err = run_cli(capsys, "necessity", "--L", "1")
    reports = json.loads(out)
    assert code == 0, err
    claims = [r["claim"] for r in reports]
    assert claims == ["schur-zero-mass-threshold", "comparison-zero-mass-limit",
                      "two-weight-zero-mass-threshold", "critical-exponent"]
    assert all(r["pass"] for r in reports)


def test_necessity_prints_the_bracket_widths(capsys):
    # at 12 printed digits each bracket's ends read as one number
    _, out, _ = run_cli(capsys, "necessity", "--L", "1")
    widths = {r["claim"]: r["witness"].get("width") for r in json.loads(out)}
    assert widths["two-weight-zero-mass-threshold"] == 2e-13
    assert widths["critical-exponent"] == 2.22044604925e-16


# ---------------------------------------------------------------- sweep

def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--s-min", "1", "--s-max", "2",
                           "--n", "3", "--tol", "1e-6", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "s,F_value,err"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0
    assert float(last[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-5)


def test_sweep_point_mass_is_zero(capsys):
    code, out, err = run_cli(capsys, "sweep", "--rho0", "1", "--n", "3")
    rows = json.loads(out)
    assert code == 0, err
    assert [(row["F_value"], row["err"]) for row in rows] == [(0.0, 0.0)] * 3


def test_sweep_argument_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--s-min", "3", "--s-max", "2")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "sweep", "--n", "1")
    assert code == 2


# ---------------------------------------------------------------- io and exit codes

def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--claim", "two-point",
                           "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["claim"] == "two-point-inequality"


def test_out_unwritable(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "two-point",
                           "--out", "/nonexistent_dir_xyz/r.json")
    assert code == 2 and "error:" in err


def test_bad_inputs_exit_two(capsys):
    assert run_cli(capsys, "verify", "--L", "0")[0] == 2
    assert run_cli(capsys, "verify", "--rho0", "3/2")[0] == 2
    assert run_cli(capsys, "verify", "--weights", "1,oops")[0] == 2
    assert run_cli(capsys, "verify", "--claim", "two-point", "--a", "7/4")[0] == 2


@pytest.mark.parametrize("argv, message", [
    # a NaN tol used to fail the verdicts (exit 1) or hit a float-to-int
    # conversion; an infinite one certified nothing and still passed
    (["verify", "--claim", "concavity", "--L", "1", "--tol", "nan"],
     "tol must be positive and finite"),
    (["sweep", "--rho0", "1/2", "--L", "1", "--s-min", "1", "--s-max", "3", "--n", "3",
      "--tol", "nan"], "tol must be positive and finite"),
    (["haagerup", "--weights", "1.5,0.3", "--tol", "nan"], "tol must be positive and finite"),
    (["verify", "--claim", "power-floor", "--rho0", "1/2", "--L", "2", "--tol", "inf"],
     "tol must be positive and finite"),
    (["verify", "--claim", "concavity", "--L", "1", "--tol", "inf"],
     "tol must be positive and finite"),
    (["verify", "--claim", "concavity", "--L", "1", "--tol", "0"],
     "tol must be positive and finite"),
    (["sweep", "--rho0", "1/2", "--s-min", "nan", "--s-max", "3", "--n", "3"],
     "s-min must be finite"),
    (["sweep", "--rho0", "1/2", "--s-min", "1", "--s-max", "inf", "--n", "3"],
     "s-max must be finite"),
    # E X^2 = 0: the ratio sequence names the law instead of dividing by zero
    (["constants", "--rho0", "1", "--n", "3"], "law is degenerate at zero"),
])
def test_refused_inputs_exit_two_with_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------- determinism

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_subprocess(args):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "khinchin_lab.cli", *args],
                          capture_output=True, env=env)


def test_byte_identical_across_runs():
    args = ["verify", "--claim", "schur", "--rho0", "1/4", "--trials", "20"]
    one = _run_subprocess(args)
    two = _run_subprocess(args)
    again = _run_subprocess(args)
    assert one.returncode == two.returncode == again.returncode == 0
    assert one.stdout == two.stdout == again.stdout


def test_repeated_main_calls_match_fresh_processes(capsys):
    # one process, one set of option tables: no value may carry over from call to call
    runs = [
        ["constants", "--rho0", "1/3", "--L", "2", "--n", "3"],
        ["constants", "--format", "csv"],
        ["verify", "--claim", "two-point", "--a", "1/3", "--format", "csv"],
        ["verify", "--claim", "two-point"],
        ["sweep", "--rho0", "1/2", "--n", "3", "--s-max", "3", "--tol", "1e-6"],
        ["verify", "--L", "0"],
    ]
    for args in runs:
        code, out, err = run_cli(capsys, *args)
        fresh = _run_subprocess(args)
        assert code == fresh.returncode, args
        assert out.encode() == fresh.stdout, args
        assert err.encode() == fresh.stderr, args


def test_no_subcommand_exits_two():
    res = _run_subprocess([])
    assert res.returncode == 2


# ---------------------------------------------------------------- argv parsing

@pytest.mark.parametrize("argv", [
    ["verify", "--L", "x"],
    ["verify", "--L"],
    ["verify", "--rho0", "-1/2"],
    ["verify", "--format", "xml"],
    ["verify", "--claim", "bogus"],
    ["verify", "--t", "1"],
    ["verify", "--bogus"],
    ["verify", "5"],
    ["table1", "--tangents=yes"],
    ["sweep", "--s-min", "x"],
    ["bogus"],
    ["--bogus", "verify"],
    [],
])
def test_malformed_argv_returns_two_in_process(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"],
                                  ["sweep", "--L", "2", "--he"], ["table1", "-hh"]])
def test_help_lists_every_subcommand_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    for name, sub in oracles.argparse_parser()._subparsers._group_actions[0].choices.items():
        assert f"\n{name}:" in out
        for action in sub._actions:
            for option in action.option_strings:
                assert option in out, (name, option)


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "two-point"],
    ["haagerup", "--weights", "1,1/3", "--rho0", "1/2", "--tol", "1e-6"],
    ["constants"],
    ["sweep", "--rho0", "1/2", "--n", "3", "--s-max", "3", "--tol", "1e-6"],
    ["table1", "--tangents", "--format", "json"],
])
def test_main_leaves_no_garbage_cycles(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    assert call() == 0  # first call: imports and caches
    gc.collect()
    gc.disable()
    try:
        assert call() == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _weight_texts():
    rational = st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 12))
    floats = st.sampled_from(["0.5", "1.4142135623730951", "0.3", "-2.25", "1e-3", "0.0"])
    return st.lists(rational | floats | st.sampled_from(["1", "-1", "0", "2/53"]),
                    min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(weights=_weight_texts(),
       rho0=st.sampled_from(["0", "1/3", "1/2", "3/4", "0.25"]),
       L=st.integers(1, 3),
       tol=st.sampled_from(["1e-4", "1e-8", "1e-10", "1e-12", "1e-15"]),
       budget=st.sampled_from([None, "1", "15", "40", "1000", "100000"]))
def test_haagerup_runs_are_bounded(weights, rho0, L, tol, budget):
    if budget is None and tol in ("1e-12", "1e-15"):
        budget = "100000"  # an aperiodic tail this tight takes seconds uncapped
    argv = ["haagerup", "--weights", ",".join(weights), "--rho0", rho0, "--L", str(L),
            "--tol", tol] + ([] if budget is None else ["--budget", budget])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # any exception fails the property: no traceback
    out, err = out.getvalue(), err.getvalue()
    if code == 2:  # input or guard: a message and no report
        assert out == "" and err.startswith("error: "), argv
        return
    report = json.loads(out)
    if code == 1:  # only a verdict that failed
        assert report["pass"] is False and err == "failed claims: abs-moment-dual-route\n"
        return
    assert code == 0 and report["pass"] is True and err == "", argv
    w = report["witness"]
    enum = float(Fraction(w["enumeration"]))
    # printed to 12 significant digits, each float is off by up to 5e-12 relative
    slack = 5e-12 * (abs(w["integral"]) + abs(enum))
    assert abs(w["integral"] - enum) <= w["integral_err"] * (1 + 1e-11) + slack, argv


_OPTIONS = ["--rho0", "--L", "--p", "--weights", "--n", "--trials", "--seed", "--tol",
            "--format", "--out", "--budget", "--tangents", "--claim", "--a", "--s-min",
            "--s-max"]
# unique and shared prefixes and unknown spellings; help and its look-alikes
_SPELLINGS = ["--rh", "--we", "--tr", "--se", "--to", "--fo", "--bu", "--ta", "--cl",
              "--s-mi", "--s-m", "--s", "--t", "--b", "--l", "--N", "--bogus", "-x", "-L"]
_HELP_LIKE = ["--h", "--help", "-h", "-hh", "-hx", "--help=1", "-h=h", "--"]
_VALUES = ["0", "1", "3", "-1", "-3", " 2", "+4", "10", "2" * 25, "x", "", "-", "1.5",
           "-0.5", ".5", "-.5", "3.", "-3.", "1e-6", "-1e-8", "nan", "inf", "1/2", "-1/2",
           "3/2", "1/0", "1,1/3", "0.5,2", "-1,2", "1,,2", "json", "csv", "JSON", "all",
           "two-point", "schur", "ostrowski", "bogus", "a b", "-a b", "--L"]


# values each option accepts, negative and abbreviated forms among them
_GOOD = {"--rho0": ["0", "1/2", "1/3", "1"], "--L": ["1", "2", " 3", "+2"],
         "--p": ["3", "4", "3.5", "-.5", "-3"], "--weights": ["1,1/3", "0.5,2", "1"],
         "--n": ["2", "5", "-2"], "--trials": ["5", "0"], "--seed": ["7", "-1"],
         "--tol": ["1e-6", "0.001", "nan"], "--format": ["json", "csv"],
         "--out": ["-", "r.json"], "--budget": ["100"], "--claim": ["schur", "l1l2"],
         "--a": ["1/3", "2/3"], "--s-min": ["1", "-1", "2.5"], "--s-max": ["3", "-.5"]}


@st.composite
def _argvs(draw):
    head = draw(st.sampled_from(["constants", "table1", "verify", "haagerup", "necessity",
                                 "sweep"] * 4 + ["bogus", "--bogus", "-1", "--help"]))
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 7))
        if kind <= 3:
            option = draw(st.sampled_from(_OPTIONS))
            if option not in _GOOD:  # --tangents
                tokens.append(option)
                continue
            value = draw(st.sampled_from(_GOOD[option]))
            tokens += [option + "=" + value] if kind == 0 else [option, value]
        elif kind == 4:
            tokens += [draw(st.sampled_from(_OPTIONS)), draw(st.sampled_from(_VALUES))]
        elif kind == 5:
            tokens.append(draw(st.sampled_from(_OPTIONS + _SPELLINGS))
                          + "=" + draw(st.sampled_from(_VALUES)))
        elif kind == 6:
            tokens.append(draw(st.sampled_from(_SPELLINGS + _HELP_LIKE)))
        else:
            tokens.append(draw(st.sampled_from(_VALUES)))
    return [head, *tokens]


@settings(max_examples=600)
@given(argv=_argvs())
def test_table_parser_matches_the_argparse_front_end(argv):
    want = oracles.argparse_config(argv)
    try:
        got = build_config(argv)
    except CliInputError:
        got = "reject"
    if got is None:
        got = "help"
    assert repr(got) == repr(want), argv


@pytest.mark.parametrize("argv", [
    ["verify", "--claim=schur", "--tr", "5", "--rho0", "x", "--rho0", "1/4", "--L=2"],
    ["sweep", "--s-min", "-1", "--s-max=3", "--n", "-2", "--p", "-.5"],
    ["table1", "--tangents", "--form", "json", "--out", "-"],
    ["haagerup", "--weights", "1,1/3", "--tol", "1e-3"],
])
def test_table_parser_on_accepted_argvs(argv):
    want = oracles.argparse_config(argv)
    assert isinstance(want, RunConfig)
    assert repr(build_config(argv)) == repr(want)
