#!/usr/bin/env python3
"""End-to-end benchmark of the khinchin-lab CLI.

    python3 perfbench/run.py --workload rational --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each operation is one `khinchin-lab`
invocation, issued in-process through `khinchin_lab.cli.main(argv)` with
standard output captured, closed-loop from one caller.  After warm-up the
whole operation list is run in rounds, each round in a fresh seeded order,
for about `--seconds` (at least MIN_ROUNDS rounds); an operation's time
is its second-slowest round (see `op_ms`).  Outputs are checked against the
independent oracles once the timing is over.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`; with `--trace 1` the per-layer metrics of MIN_ROUNDS traced
rounds, per round, and the tracing overhead).  The traced run also writes
its spans to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import oracles
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH, "out")

#: fewest timed rounds per run, however long a round takes
MIN_ROUNDS = 3
#: fresh interpreters timed for setup_s and the import metrics
COLD_STARTS = 7


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _cold_start(args: list[str]) -> tuple[float, str]:
    """Wall time of one fresh interpreter, and its standard error."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=60, check=True)
    return time.perf_counter() - t0, proc.stderr


def setup_seconds() -> float:
    """Time for a fresh interpreter to import khinchin_lab.cli: the median
    of COLD_STARTS starts."""
    _cold_start(["-c", "import khinchin_lab.cli"])  # byte-compiles on a fresh checkout
    return statistics.median(_cold_start(["-c", "import khinchin_lab.cli"])[0]
                             for _ in range(COLD_STARTS))


def import_metrics() -> dict:
    """import.package_ms by wall time, import.scipy_ms by -X importtime."""
    package = [_cold_start(["-c", "import khinchin_lab"])[0] * 1e3 for _ in range(COLD_STARTS)]
    scipy = []
    for _ in range(COLD_STARTS):
        _, err = _cold_start(["-X", "importtime", "-c", "import khinchin_lab"])
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.special":
                scipy.append(int(parts[1]) / 1e3)
    if len(scipy) != COLD_STARTS:
        raise RuntimeError("scipy.special missing from -X importtime output")
    return {"import.package_ms": (statistics.median(package), "ms"),
            "import.scipy_ms": (statistics.median(scipy), "ms")}


def run_op(main, op) -> tuple[int, int, str]:
    """(exit status, nanoseconds, standard output) of one CLI invocation."""
    out = io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(op.argv))
    return rc, time.perf_counter_ns() - t0, out.getvalue()


def run_round(main, ops, order, results, times) -> None:
    """One pass over every operation in the given order.  Every round's
    outputs must repeat the first round's byte for byte."""
    for i in order:
        rc, ns, out = run_op(main, ops[i])
        if results[i] is None:
            results[i] = (rc, out)
        elif results[i] != (rc, out):
            raise RuntimeError(f"output changed between rounds: {' '.join(ops[i].argv)}")
        times[i].append(ns)


def shuffled(rng, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def warm_up(main, ops) -> None:
    """One operation of each kind, untimed."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(main, op)


def check_all(ops, results) -> int:
    """Check every output against the oracles; return the failed count."""
    oracles.self_test()
    return sum(workloads.check(op, rc, out) for op, (rc, out) in zip(ops, results))


def measure(main, ops, seed: int, seconds: float) -> dict:
    """Timed rounds for about `seconds`; end-to-end metrics."""
    results = [None] * len(ops)
    times = [[] for _ in ops]
    rng = random.Random(f"order:{seed}")
    rounds = 0
    t0 = time.perf_counter()
    # stop before a round that would end past `seconds` by more than half a round
    while rounds < MIN_ROUNDS or (time.perf_counter() - t0) * (1 + 0.5 / rounds) < seconds:
        run_round(main, ops, shuffled(rng, len(ops)), results, times)
        rounds += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{rounds} rounds", file=sys.stderr)
    per_op_ms = [op_ms(ts) for ts in times]
    return {
        "rounds": rounds,
        "results": results,
        "metrics": {
            "solve_s": (sum(per_op_ms) / 1e3, "s"),
            "verdict_p50_ms": (statistics.median(per_op_ms), "ms"),
            "verdict_p90_ms": (statistics.quantiles(per_op_ms, n=10)[8], "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        },
    }


def op_ms(ns: list[int]) -> float:
    """An operation's figure: its second-slowest round.

    On the reference machine each CPU is shared with other tenants: code
    runs at one of two speeds about 1.9x apart, switching within a
    millisecond, and over minutes the machine as a whole drifts by up to
    40%.  The slow speed is a ceiling nearly every operation meets in some
    round, so a figure near the top of an operation's rounds follows the
    drift least; the slowest round itself also catches single stalls of a
    few milliseconds, which on short operations are as large as the
    operation.  The second-slowest round keeps the ceiling and drops one
    stall (README, "Steadiness and bounds").
    """
    return sorted(ns)[-2] / 1e6


def measure_traced(main, ops, workload: str, seed: int) -> dict:
    """MIN_ROUNDS untraced rounds, then MIN_ROUNDS traced rounds; per-layer
    metrics per round, and the overhead as the difference of the two sides'
    sums of per-operation figures (`op_ms`)."""
    import spans

    results = [None] * len(ops)
    rng = random.Random(f"order:{seed}")
    plain = [[] for _ in ops]
    for _ in range(MIN_ROUNDS):
        run_round(main, ops, shuffled(rng, len(ops)), results, plain)
    tracer = spans.Tracer()
    tracer.install()
    import khinchin_lab.cli as cli  # main is wrapped now
    traced = [[] for _ in ops]
    for _ in range(MIN_ROUNDS):
        run_round(cli.main, ops, shuffled(rng, len(ops)), results, traced)
    metrics = tracer.metrics(rounds=MIN_ROUNDS)
    overhead = sum(map(op_ms, traced)) - sum(map(op_ms, plain))
    metrics["trace.overhead_ms"] = (overhead, "ms")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl"))
    return {"rounds": 2 * MIN_ROUNDS, "results": results, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "khinchin_lab", "cli.py")):
        print(f"error: no khinchin_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from khinchin_lab import cli

    ops = workloads.make_ops(args.workload, args.seed)
    warm_up(cli.main, ops)
    if args.trace:
        run = measure_traced(cli.main, ops, args.workload, args.seed)
        metrics = {**import_metrics(), **run["metrics"]}
    else:
        setup_s = setup_seconds()
        run = measure(cli.main, ops, args.seed, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **run["metrics"]}
    try:
        failed_per_round = check_all(ops, run["results"])
        correct = True
    except workloads.CheckError as exc:
        print(f"incorrect output: {exc}", file=sys.stderr)
        failed_per_round, correct = 0, False
    print(json.dumps({
        "correct": correct,
        "attempted": run["rounds"] * len(ops),
        "failed": run["rounds"] * failed_per_round,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
