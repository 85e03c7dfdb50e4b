"""The two workloads: seeded operation lists and their correctness checks.

An operation is one `khinchin-lab` argv.  `make_ops(name, seed)` draws the
same list for the same seed; every draw fills a fixed slot (a fixed number
of operations of each shape, with the seed choosing the parameters that
barely move the cost), so the cost profile of a workload changes little
from seed to seed.  `check(op, rc, out)` compares one operation's output with
the independent values of `oracles` and returns whether it failed; any
output that is wrong raises CheckError.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles as orc

WORKLOADS = ("rational", "float")

# Irrational weights for the aperiodic tail: no ratio of two of them is
# rational, so the characteristic-function product has no period.
_IRRATIONAL = (
    math.sqrt(2.0), math.sqrt(3.0) / 2.0, math.pi / 5.0, math.sqrt(5.0) - 1.0,
    math.e / 3.0, math.sqrt(7.0) / 3.0, math.log(3.0), 1.0 / math.sqrt(3.0),
    (math.sqrt(5.0) - 1.0) / 2.0, math.pi / 4.0, math.sqrt(11.0) / 4.0, math.e / 5.0,
    math.sqrt(6.0) / 7.0, 2.0 ** (1.0 / 3.0) / 4.0, math.log(2.0) / 2.0, math.sqrt(10.0) / 9.0,
)

# Inputs on which the tail integrator's Taylor zone (t0 fixed at 1e-3, the
# whole |d| t0^3 term charged as error) sets an error floor above the
# requested tol, so `haagerup` exits 1 although its value is right.  They do
# not depend on the seed, so every run fails the same share of operations.
_TAYLOR_FLOOR_CASES = (
    ("6,1/2,7/3", Fraction(0), 3, 1e-8),
    ("1,1/3,2/7", Fraction(1, 2), 2, 1e-10),
    ("5,3/2,1", Fraction(0), 3, 1e-8),
    ("7/2,3,1/2", Fraction(1, 4), 3, 1e-8),
)


class CheckError(AssertionError):
    """An operation's output disagrees with an independent value."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str
    meta: dict = field(default_factory=dict, compare=False, hash=False)
    expect_fail: bool = False


def _frac_text(ws) -> str:
    return ",".join(str(w) for w in ws)


def _float_text(ws) -> str:
    return ",".join(repr(w) for w in ws)


def _rational_weights(rng, denoms) -> list[Fraction]:
    """The unit weight plus one k/d in [1/2, 1) with k prime to d per denominator.

    With the unit frequency present the period is 2 pi lcm(denoms), and the
    weight sum, which sets the panel density, stays within a factor 1.3.
    """
    ws = [Fraction(1)]
    for d in denoms:
        ws.append(Fraction(rng.choice([k for k in range((d + 1) // 2, d) if math.gcd(k, d) == 1]), d))
    rng.shuffle(ws)
    return ws


def _dual_op(ws, rho0, L, tol, kind, expect_fail=False) -> Op:
    argv = ("haagerup", "--weights", _frac_text(ws) if kind == "dual-rational" else _float_text(ws),
            "--rho0", str(rho0), "--L", str(L), "--tol", repr(tol))
    return Op(argv, kind, {"weights": tuple(ws), "rho0": rho0, "L": L, "tol": tol}, expect_fail)


# Operations are drawn in slots whose shape fixes their cost (the period
# through the denominators, the panel density through n and L); the seed
# picks the numerators, the zero mass and the tolerance.  Slot costs cluster
# around the median and the 90th percentile, so neither lands in a gap.
# (count, denominators of the non-unit weights, L), cheapest first
_PERIODIC_SLOTS = (
    (2, (2,), 1), (2, (3,), 1), (2, (2,), 2), (2, (5,), 1), (2, (3,), 2),
    (6, (2, 3), 1), (5, (5,), 3), (6, (2, 5), 1), (6, (3, 4), 1), (6, (2, 3), 2), (6, (3, 5), 1),
    (4, (3, 4), 2), (4, (2, 5), 2), (3, (3, 5), 2), (3, (2, 5), 3), (2, (3, 4), 3),
    (6, (2, 3, 5), 1), (3, (4, 5), 3), (3, (3, 5), 3),
    (3, (2, 3, 5), 2), (2, (3, 4, 5), 1),
)
_RHOS = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
_HALF_UP = (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))


def _periodic_tail(rng) -> list[Op]:
    ops = []
    for count, denoms, L in _PERIODIC_SLOTS:
        for _ in range(count):
            for _ in range(1000):
                ws = _rational_weights(rng, denoms)
                rho0, tol = rng.choice(_RHOS), rng.choice((1e-6, 1e-7, 1e-8))
                # keep the seeded share clear of the Taylor-zone floor (see
                # _TAYLOR_FLOOR_CASES): the predicted floor stays below tol/10
                if orc.taylor_floor_dual(ws, rho0, L) <= 0.1 * tol:
                    break
            else:
                raise RuntimeError(f"no draw for slot {denoms}, L = {L} clears the Taylor floor")
            ops.append(_dual_op(ws, rho0, L, tol, "dual-rational"))
    # `sweep` is the only command here that runs the CLI's thread pool, so its
    # time also follows how busy the second CPU is, and doubles when it is:
    # a few tables, of a cost above the median cluster, keep that from moving
    # the percentiles
    L, k = 3, 10
    for _ in range(8):
        # zero mass >= 1/2 makes the characteristic function nonnegative,
        # so F(1) = E|Y| and F(s) at integer s is E|S_s|/sqrt(s)
        rho0, tol = rng.choice(_HALF_UP), rng.choice((1e-6, 1e-7, 1e-8))
        if max(orc.taylor_floor_power(rho0, L, s) for s in range(1, k + 1)) > 0.1 * tol:
            raise RuntimeError(f"sweep L = {L}, s <= {k} reaches the Taylor floor")
        argv = ("sweep", "--rho0", str(rho0), "--L", str(L), "--s-min", "1",
                "--s-max", str(k), "--n", str(k), "--tol", repr(tol))
        ops.append(Op(argv, "sweep", {"rho0": rho0, "L": L, "k": k, "tol": tol}))
    for text, rho0, L, tol in _TAYLOR_FLOOR_CASES:
        ws = [Fraction(x) for x in text.split(",")]
        ops.append(_dual_op(ws, rho0, L, tol, "dual-rational", expect_fail=True))
    return ops


# (count, n, L, weight sum, tail cut T): the doubling blocks stop at the
# first T = 12 * 2^k with (2/pi)/T <= 0.9 tol max(1, E|S|), and the panel
# count grows like n * L * (weight sum) * T.  The median falls in the second
# slot group and the 90th percentile in the last.
_APERIODIC_SLOTS = (
    (40, 2, 1, 0.7, 1536),
    (15, 2, 1, 1.5, 1536), (15, 3, 1, 1.05, 1536),
    (10, 2, 2, 1.0, 1536),
    (10, 4, 1, 1.6, 1536), (10, 3, 1, 2.1, 1536),
)


def _aperiodic_tail(rng) -> list[Op]:
    ops = []
    rhos = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    for count, n, L, total, cut in _APERIODIC_SLOTS:
        for _ in range(count):
            for _ in range(1000):
                ws = rng.sample(_IRRATIONAL, n)
                if abs(sum(ws) - total) <= 0.05 * total:
                    break
            else:
                raise RuntimeError(f"no {n} weights sum to about {total}")
            rho0 = rng.choice(rhos)
            e_abs = orc.enum_abs_moment_float(tuple(ws), rho0, L, 1.0)
            # tol puts the required cut at 0.6 T, clear of both neighbouring steps
            tol = 2.0 / (math.pi * 0.9 * max(1.0, e_abs) * 0.6 * cut)
            ops.append(_dual_op(ws, rho0, L, float(f"{tol:.2g}"), "dual-float"))
    return ops


# (count, denominators, L) for weights k/d, k prime to d: distinct coprime
# denominators leave few coincident sums, so the support is close to
# (2L + 1)^n and its cost is fixed by the slot.  Each slot cycles through
# the comparison at p = 3 and 4 and the l1/l2 verdict.  Groups as above.
_GRID_SLOTS = (
    (4, (5, 7, 9), 1), (4, (5, 7, 8, 9), 1), (4, (5, 7, 9), 2),
    (8, (7, 8, 9, 11), 2), (8, (5, 7, 8, 9), 3), (8, (5, 7, 8, 9, 11), 2),
    (6, (5, 7, 8, 9, 11), 3), (6, (7, 8, 9, 11), 4),
    (14, (5, 7, 8, 9, 11), 4),
)
def _exact_grid(rng) -> list[Op]:
    ops = []
    for count, denoms, L in _GRID_SLOTS:
        for i in range(count):
            ws = [Fraction(rng.choice([k for k in range(1, d) if math.gcd(k, d) == 1]), d)
                  for d in denoms]
            rng.shuffle(ws)
            if i % 3 == 2:
                rho0 = rng.choice(_HALF_UP)
                argv = ("verify", "--claim", "l1l2", "--rho0", str(rho0), "--L", str(L),
                        "--weights", _frac_text(ws))
                ops.append(Op(argv, "l1l2", {"weights": tuple(ws), "rho0": rho0, "L": L}))
            else:
                ops.append(_comparison(ws, L, 3 + i % 3))
    for i in range(16):
        # sparse wide grids: coprime denominators near 100, so the dense
        # width is 10^3 to 10^4 times the support
        primes = rng.sample((101, 103, 107, 109, 113), 3)
        ws = [Fraction(rng.randint(1, 2), q) for q in primes]
        ops.append(_comparison(ws, rng.randint(1, 3), 3 + i % 2))
    for i in range(8):
        # mass denominator (2L)^n above 2^62: object-dtype grid
        n, L = rng.randint(15, 18), rng.choice((8, 9, 10))
        ws = [Fraction(rng.choice((1, 2, 3))) for _ in range(n)]
        ops.append(_comparison(ws, L, 3 + i % 2))
    # (count, L range, N range) for the constants ratio sequences
    for count, Ls, Ns in ((4, (1, 3), (4, 8)), (8, (4, 7), (10, 14)), (6, (8, 10), (16, 16))):
        for i in range(count):
            rho0 = rng.choice((Fraction(0), Fraction(1, 3), Fraction(1, 2)))
            L, n_max, p = rng.randint(*Ls), rng.randint(*Ns), 3 + i % 2
            argv = ("constants", "--p", str(p), "--rho0", str(rho0), "--L", str(L), "--n", str(n_max))
            ops.append(Op(argv, "constants", {"rho0": rho0, "L": L, "n": n_max, "p": p}))
    for _ in range(4):
        L = rng.randint(2, 6)
        ops.append(Op(("verify", "--claim", "dominance", "--L", str(L)), "dominance", {"L": L}))
    for _ in range(4):
        a = Fraction(rng.randint(1, 98), 99)
        ops.append(Op(("verify", "--claim", "two-point", "--a", str(a)), "two-point", {"a": a}))
    return ops


def _comparison(ws, L: int, p: int) -> Op:
    argv = ("verify", "--claim", "comparison", "--rho0", "0", "--L", str(L), "--p", str(p),
            "--weights", _frac_text(ws))
    return Op(argv, "comparison", {"weights": tuple(ws), "rho0": Fraction(0), "L": L, "p": p})


# (count, n, trials, zero mass > 0): a trial costs two objectives over 3^n
# atoms with mass at zero, 2^n without.  Groups as for the tails.
_SCHUR_SLOTS = (
    (10, 3, 4, True), (10, 4, 5, False), (8, 3, 6, False),
    (10, 4, 6, True), (8, 5, 8, False), (8, 6, 7, False), (8, 5, 2, True),
    (10, 5, 5, True), (6, 6, 16, False), (6, 6, 2, True),
)
# (count, n) for the Ostrowski partials: 2n objectives each
_OSTROWSKI_SLOTS = ((8, 4), (8, 5))


def _float_schur(rng) -> list[Op]:
    ops = []
    positive = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))
    ps = ("3", "3.5", "4", "5")
    for count, n, trials, massive in _SCHUR_SLOTS:
        for _ in range(count):
            rho0, p = rng.choice(positive) if massive else Fraction(0), rng.choice(ps)
            argv = ("verify", "--claim", "schur", "--n", str(n), "--rho0", str(rho0), "--L", "1",
                    "--p", p, "--trials", str(trials), "--seed", str(rng.randrange(10**6)))
            ops.append(Op(argv, "schur", {"n": n, "rho0": rho0, "p": float(p)}))
    for count, n in _OSTROWSKI_SLOTS:
        for _ in range(count):
            # squared weights at least 0.04 apart, so pairwise partial
            # differences stay far above the central-difference noise; zero
            # mass below 1/2, where the criterion holds strictly
            a = sorted(rng.sample(range(1, 20), n))
            ws = [round(0.05 * k + rng.uniform(0.0, 0.01), 6) for k in a]
            rho0, p = rng.choice(positive[:3]), rng.choice(ps)
            argv = ("verify", "--claim", "ostrowski", "--rho0", str(rho0), "--L", "1", "--p", p,
                    "--weights", _float_text(ws))
            ops.append(Op(argv, "ostrowski", {"weights": tuple(ws), "rho0": rho0, "p": float(p)}))
    return ops


# Each workload joins two parts, one of each pair of ways through a layer:
# rational weights take the periodic tail and the integer grid, float
# weights the aperiodic doubling blocks and the Fraction-mass float
# convolution.  A change to one way moves its own workload only.
_PARTS = {
    "rational": (("periodic-tail", _periodic_tail), ("exact-grid", _exact_grid)),
    "float": (("aperiodic-tail", _aperiodic_tail), ("float-schur", _float_schur)),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed, in a seeded order."""
    ops = []
    for part, maker in _PARTS[workload]:
        ops += maker(random.Random(f"{part}:{seed}"))
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops


# ----------------------------------------------------------------- checks


def _expect(ok: bool, op: Op, what: str) -> None:
    if not ok:
        raise CheckError(f"{' '.join(op.argv)}: {what}")


def check(op: Op, rc: int, out: str) -> bool:
    """Check one operation's output; return True when it failed as a verdict."""
    try:
        failed = _CHECKS[op.kind](op, rc, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"{' '.join(op.argv)}: malformed output ({exc!r})") from exc
    _expect(rc == (1 if failed else 0), op, f"exit status {rc}")
    return failed


def _check_dual(op: Op, rc: int, rep: dict) -> bool:
    m = op.meta
    ws, rho0, L, tol = m["weights"], m["rho0"], m["L"], m["tol"]
    w = rep["witness"]
    integral, err = w["integral"], w["integral_err"]
    if op.kind == "dual-rational":
        exact = orc.enum_abs_moment(tuple(ws), rho0, L, 1)
        _expect(Fraction(w["enumeration"]) == exact, op, "enumeration is not E|S|")
        ref = float(exact)
    else:
        ref = orc.enum_abs_moment_float(tuple(ws), rho0, L, 1.0)
        _expect(orc.match12(w["enumeration"], ref), op, f"enumeration {w['enumeration']} != {ref}")
    _expect(abs(integral - ref) <= err + orc.report_slack(integral) + orc.report_slack(err), op,
            f"integral {integral} is not within {err} of E|S| = {ref}")
    if op.expect_fail:
        # fails today from the Taylor-zone floor; a mended Taylor zone lets it
        # pass, which moves `failed` and is no error
        if rep["pass"]:
            return False
        floor = orc.taylor_floor_dual(ws, rho0, L)
        _expect(err > tol * max(1.0, abs(integral)) and err >= 0.5 * floor, op,
                f"failure is not the Taylor-zone floor (err {err}, floor {floor})")
        return True
    _expect(rep["pass"], op, "dual route failed")
    return False


def _check_sweep(op: Op, rc: int, rows: list) -> bool:
    m = op.meta
    rho0, L, k = m["rho0"], m["L"], m["k"]
    _expect([r["s"] for r in rows] == [float(s) for s in range(1, k + 1)], op, "sweep grid")
    for r in rows:
        s = int(r["s"])
        if s == 1:
            ref = float(orc.abs_y(rho0, L))
        elif rho0 >= Fraction(1, 2) and orc.tuple_count(s, rho0, L) <= orc.ENUM_CAP:
            ref = float(orc.enum_abs_moment((1,) * s, rho0, L, 1)) / math.sqrt(s)
        else:
            continue
        f, err = r["F_value"], r["err"]
        _expect(abs(f - ref) <= err + orc.report_slack(f) + orc.report_slack(err), op,
                f"F({s}) = {f} is not within {err} of {ref}")
    return False


def _check_comparison(op: Op, rc: int, rep: dict) -> bool:
    m = op.meta
    ws, rho0, L, p = m["weights"], m["rho0"], m["L"], m["p"]
    w = rep["witness"]
    _expect(rep["pass"], op, "Gaussian comparison failed")
    _expect(orc.match12(w["norm_2"], math.sqrt(orc.sum_m2(ws, rho0, L))), op, "norm_2")
    _expect(orc.match12(w["gaussian_norm"], orc.gaussian_norm(p)), op, "gaussian_norm")
    if p == 4:
        _expect(orc.match12(w["norm_p"], float(orc.sum_m4(ws, rho0, L)) ** 0.25), op, "norm_4")
    elif orc.tuple_count(len(ws), rho0, L) <= orc.ENUM_CAP:
        ref = float(orc.enum_abs_moment(tuple(ws), rho0, L, 3)) ** (1.0 / 3.0)
        _expect(orc.match12(w["norm_p"], ref), op, "norm_3")
    return False


def _check_l1l2(op: Op, rc: int, rep: dict) -> bool:
    m = op.meta
    ws, rho0, L = m["weights"], m["rho0"], m["L"]
    w = rep["witness"]
    _expect(rep["pass"], op, "l1/l2 comparison failed")
    c1l2 = float(orc.abs_y(rho0, L)) * math.sqrt(float(sum(x * x for x in ws)))
    _expect(orc.match12(w["c1_times_l2"], c1l2), op, "c1_times_l2")
    if orc.tuple_count(len(ws), rho0, L) <= orc.ENUM_CAP:
        n1 = orc.enum_abs_moment(tuple(ws), rho0, L, 1)
        _expect(orc.match12(w["first_abs"], float(n1)), op, "first_abs")
        gap = n1 * n1 * orc.y2(rho0, L) - orc.abs_y(rho0, L) ** 2 * orc.sum_m2(ws, rho0, L)
        _expect(Fraction(w["squared_gap"]) == gap, op, "squared_gap")
    return False


def _check_constants(op: Op, rc: int, rep: dict) -> bool:
    m = op.meta
    rho0, L, n, p = m["rho0"], m["L"], m["n"], m["p"]
    _expect(Fraction(rep["first_abs_moment"]) == orc.abs_y(rho0, L), op, "first_abs_moment")
    _expect(Fraction(rep["second_moment"]) == orc.y2(rho0, L), op, "second_moment")
    _expect(orc.match12(rep["gaussian_norm"], orc.gaussian_norm(p)), op, "gaussian_norm")
    seq = rep["ratio_sequence"]
    _expect(len(seq) == n, op, "ratio sequence length")
    for k, r in enumerate(seq, start=1):
        ones = (1,) * k
        n2 = math.sqrt(float(orc.sum_m2(ones, rho0, L)))
        if p == 4:
            ref = float(orc.sum_m4(ones, rho0, L)) ** 0.25 / n2
        elif orc.tuple_count(k, rho0, L) <= orc.ENUM_CAP:
            ref = float(orc.enum_abs_moment(ones, rho0, L, 3)) ** (1.0 / 3.0) / n2
        else:
            continue
        _expect(orc.match12(r, ref), op, f"ratio {k}: {r} != {ref}")
    return False


def _check_lemma(op: Op, rc: int, rep: dict) -> bool:
    _expect(rep["pass"], op, "lemma verdict failed")
    return False


def _check_schur(op: Op, rc: int, rep: dict) -> bool:
    m = op.meta
    _expect(rep["pass"], op, "majorization verdict failed in the proved regime")
    upper = [Fraction(x) for x in rep["witness"]["upper"]]
    lower = [Fraction(x) for x in rep["witness"]["lower"]]
    _expect(sum(upper) == sum(lower) == 1 and _majorizes(upper, lower), op, "witness pair")
    phi_u = orc.schur_phi(tuple(upper), m["rho0"], 1, m["p"])
    phi_l = orc.schur_phi(tuple(lower), m["rho0"], 1, m["p"])
    margin = (phi_l - phi_u) / max(1.0, phi_u, phi_l)
    _expect(abs(rep["margin"] - margin) <= 1e-9, op, f"margin {rep['margin']} != {margin}")
    return False


def _majorizes(upper, lower) -> bool:
    pu = pl = 0
    for u, l in zip(sorted(upper, reverse=True), sorted(lower, reverse=True)):
        pu += u
        pl += l
        if pu < pl:
            return False
    return True


def _check_ostrowski(op: Op, rc: int, rep: dict) -> bool:
    m = op.meta
    _expect(rep["pass"], op, "Ostrowski criterion failed in the proved regime")
    grad = orc.schur_gradient(m["weights"], m["rho0"], 1, m["p"])
    for got, ref in zip(rep["witness"]["partials"], grad):
        _expect(abs(got - ref) <= 1e-6 * abs(ref), op, f"partial {got} != {ref}")
    return False


_CHECKS = {
    "dual-rational": _check_dual,
    "dual-float": _check_dual,
    "sweep": _check_sweep,
    "comparison": _check_comparison,
    "l1l2": _check_l1l2,
    "constants": _check_constants,
    "dominance": _check_lemma,
    "two-point": _check_lemma,
    "schur": _check_schur,
    "ostrowski": _check_ostrowski,
}
