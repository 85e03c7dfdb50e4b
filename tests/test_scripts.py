import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env)


def test_reproduce_tables_writes_three_csv_files(tmp_path):
    res = _run_script("reproduce_tables.py", "--out-dir", str(tmp_path),
                      "--sweep-points", "3", "--tol", "1e-6")
    assert res.returncode == 0, res.stderr
    headers = {"slopes.csv": "L,b,theta", "tangents.csv": "L,v",
               "power_integral_sweep.csv": "s,F_value,err"}
    assert sorted(os.listdir(tmp_path)) == sorted(headers)
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1, name
    assert len((tmp_path / "power_integral_sweep.csv").read_text().splitlines()) == 4


def test_verification_suite_writes_passing_reports(tmp_path):
    out = tmp_path / "suite.json"
    res = _run_script("run_verification_suite.py", "--trials", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    reports = json.loads(out.read_text())
    assert reports and all(r["pass"] for r in reports)
    assert {"claim", "params", "pass", "margin", "witness"} <= set(reports[0])
