import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from khinchin_lab.cli import CliInputError, main, parse_weights
from khinchin_lab.exactprob import SUPPORT_GUARD


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


def test_verify_comparison_needs_no_zero_mass(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "comparison", "--rho0", "1/2")
    assert code == 2 and "error:" in err


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
    # tol 1e-15 is out of reach within 5000 evaluations
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
    # one process, one parser: no value may carry over from call to call
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
