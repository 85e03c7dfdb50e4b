#!/usr/bin/env python3
"""Run the full verdict battery across a grid of law parameters.

Runs the khinchin-lab CLI's `verify` claims for a few representative laws,
plus `necessity`, and writes every report as one JSON array, to stdout or
--out.  Exits with the largest exit status of the calls: 1 if any verdict
failed.
"""
import argparse
import contextlib
import io
import json
import sys

from khinchin_lab import cli
from khinchin_lab.reports import to_json


def battery(trials: int, seed: int) -> list[list[str]]:
    """The CLI calls of the battery, one argv each."""
    runs = [["verify", "--claim", "two-point"]]
    runs += [["verify", "--claim", "dominance", "--L", str(L)] for L in (1, 2, 5, 7, 9)]
    runs += [["verify", "--claim", "schur", "--n", "4", "--rho0", rho0, "--p", p,
              "--trials", str(trials), "--seed", str(seed)]
             for rho0, p in (("0", "3"), ("1/4", "3"), ("1/2", "4"))]
    runs.append(["verify", "--claim", "comparison", "--rho0", "0", "--L", "2",
                 "--weights", "1,1/2,1/4"])
    for rho0 in ("1/2", "3/4"):
        runs.append(["verify", "--claim", "l1l2", "--rho0", rho0, "--L", "2",
                     "--weights", "1,1/3"])
        runs.append(["verify", "--claim", "power-floor", "--rho0", rho0, "--L", "2"])
    runs.append(["verify", "--claim", "concavity", "--L", "1"])
    runs.append(["necessity", "--L", "1"])
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    reports, codes = [], []
    for run in battery(args.trials, args.seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(cli.main(run))
        if out.getvalue():
            obj = json.loads(out.getvalue())
            reports += obj if isinstance(obj, list) else [obj]
    payload = to_json(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"{len(reports)} reports, exit status {max(codes)}", file=sys.stderr)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
