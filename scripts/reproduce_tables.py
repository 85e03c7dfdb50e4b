#!/usr/bin/env python3
"""Regenerate the reference tables: breakpoint slopes, tangent values,
and a power-integral sweep of the +-1 coin law. Writes three CSV files
into --out-dir through the khinchin-lab CLI."""
import argparse
import os
import sys

from khinchin_lab import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="tables")
    ap.add_argument("--sweep-points", type=int, default=20)
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    runs = {
        "slopes.csv": ["table1"],
        "tangents.csv": ["table1", "--tangents"],
        "power_integral_sweep.csv": ["sweep", "--rho0", "0", "--L", "1", "--format", "csv",
                                     "--n", str(args.sweep_points), "--tol", repr(args.tol)],
    }
    codes = []
    for name, argv_ in runs.items():
        path = os.path.join(args.out_dir, name)
        code = cli.main([*argv_, "--out", path])
        if code != 2:  # 2: bad input or unwritable path, nothing written
            print(f"wrote {path}", file=sys.stderr)
        codes.append(code)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
