"""Brute-force oracles the library must agree with.

Everything here enumerates outcome tuples with itertools.product and sums
in Fraction arithmetic, deliberately bypassing the library's convolution
and moment code paths.  The argparse front end and the law readers that go
through `law.values` and `law.masses` are kept as the references of the
table parser and the grid readers.
"""
import argparse
import contextlib
import io
import math
from fractions import Fraction
from itertools import product

from scipy.integrate import quad

from khinchin_lab import cli
from khinchin_lab.haagerup import CharFn, _all_rational


def step_atoms(rho0, L):
    """Atom list [(value, mass), ...] of the step law, built from scratch."""
    rho0 = Fraction(rho0)
    atoms = []
    if rho0 > 0:
        atoms.append((Fraction(0), rho0))
    side = (1 - rho0) / (2 * L)
    for j in range(1, L + 1):
        atoms.append((Fraction(j), side))
        atoms.append((Fraction(-j), side))
    return atoms


def enum_abs_moment(weights, atom_lists, p):
    """E|sum_i w_i X_i|^p over independent atom lists, exact for integer p."""
    p = int(p)
    total = Fraction(0)
    for combo in product(*atom_lists):
        s = Fraction(0)
        mass = Fraction(1)
        for w, (v, m) in zip(weights, combo):
            s += Fraction(w) * v
            mass *= m
        total += mass * abs(s) ** p
    return total


def enum_abs_moment_float(weights, atom_lists, p):
    """Float variant for non-integer p or float weights."""
    total = 0.0
    for combo in product(*atom_lists):
        s = 0.0
        mass = 1.0
        for w, (v, m) in zip(weights, combo):
            s += float(w) * float(v)
            mass *= float(m)
        total += mass * abs(s) ** float(p)
    return total


def enum_schur_gradient(a, atoms, p):
    """Partials dPhi/da_i = p / (2 sqrt(a_i)) E[X_i sgn(S) |S|^(p-1)] of
    Phi(a) = E|S|^p, S = sum_i sqrt(a_i) X_i, X_i i.i.d. over `atoms`, by
    enumerating the atom tuples in floats."""
    roots = [math.sqrt(float(x)) for x in a]
    atoms = [(float(v), float(m)) for v, m in atoms]
    terms = [[] for _ in roots]
    for combo in product(atoms, repeat=len(roots)):
        s = math.fsum(r * v for r, (v, _) in zip(roots, combo))
        mass = math.prod(m for _, m in combo)
        g = math.copysign(mass * abs(s) ** (p - 1), s) if s != 0 else 0.0
        for i, (v, _) in enumerate(combo):
            terms[i].append(g * v)
    return [p / (2 * r) * math.fsum(t) for r, t in zip(roots, terms)]


def enum_distribution(weights, atom_lists):
    """Exact value -> mass table of sum_i w_i X_i (rational inputs)."""
    table = {}
    for combo in product(*atom_lists):
        s = Fraction(0)
        mass = Fraction(1)
        for w, (v, m) in zip(weights, combo):
            s += Fraction(w) * v
            mass *= m
        table[s] = table.get(s, Fraction(0)) + mass
    return table


def float_merge_distribution(weights, atom_lists, rtol):
    """Atom list of sum_i w_i X_i with float weights, by the library's merge
    rule written as a loop: after each summand, values (keyed as floats,
    masses as Fractions) whose consecutive gaps are at most rtol * max|value|
    merge onto the chain's middle value; the result pairs the k-th values
    from both ends as -+ half their gap with the mean of their masses."""
    table = {0.0: Fraction(1)}
    for w, atoms in zip(weights, atom_lists):
        new = {}
        for v, m in table.items():
            for u, mu in atoms:
                key = v + w * float(u)
                new[key] = new.get(key, Fraction(0)) + m * mu
        items = sorted(new.items())
        width = rtol * max(max(abs(v) for v, _ in items), 1e-300)
        chains = [[items[0]]]
        for prev, item in zip(items, items[1:]):
            if item[0] - prev[0] <= width:
                chains[-1].append(item)
            else:
                chains.append([item])
        table = {c[len(c) // 2][0]: sum(m for _, m in c) for c in chains}
    items = sorted(table.items())
    n = len(items)
    return [((items[i][0] - items[n - 1 - i][0]) / 2.0, (items[i][1] + items[n - 1 - i][1]) / 2)
            for i in range(n)]


def gaussian_abs_moment_quad(p, sigma=1.0):
    """E|G|^p by direct density integration (scipy.quad)."""
    def f(x):
        return abs(x) ** p * math.exp(-0.5 * (x / sigma) ** 2)
    val, err = quad(f, -12 * sigma, 12 * sigma, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val / (sigma * math.sqrt(2 * math.pi)), err


def gaussian_plus_part_quad(sigma, a):
    """E(G^2 - a)_+ by direct density integration."""
    r = math.sqrt(a) if a > 0 else 0.0

    def f(x):
        return (x * x - a) * math.exp(-0.5 * (x / sigma) ** 2)

    val, err = quad(f, r, r + 14 * sigma, epsabs=1e-13, epsrel=1e-13, limit=400)
    return 2.0 * val / (sigma * math.sqrt(2 * math.pi)), err


# ---------------------------------------------------------------- argparse front end

def _add_common(sp, fmt_default="json"):
    sp.add_argument("--rho0", default="0", help="zero mass, rational like 1/3")
    sp.add_argument("--L", type=int, default=1, help="block size")
    sp.add_argument("--p", default="3", help="moment order")
    sp.add_argument("--weights", default=None, help="comma list, e.g. 1/3,0.5")
    sp.add_argument("--n", type=int, default=None, help="count (weights, points, trials base)")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--format", choices=("json", "csv"), default=fmt_default)
    sp.add_argument("--out", default=None)
    sp.add_argument("--budget", type=int, default=None,
                    help="cap on integrand evaluations, and on the entries any one "
                         "convolution step may allocate")


def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khinchin-lab",
        description="verify moment-comparison inequalities for weighted sums "
                    "of symmetric discrete laws")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("constants", "table1", "verify", "haagerup", "necessity", "sweep"):
        fmt_default = "csv" if name == "table1" else "json"
        sp = subs.add_parser(name)
        _add_common(sp, fmt_default)
        if name == "table1":
            sp.add_argument("--tangents", action="store_true",
                            help="emit last-branch tangent values instead of slopes")
        if name == "verify":
            sp.add_argument("--claim", choices=cli._VERIFY_CLAIMS, default="all")
            sp.add_argument("--a", default="1/2", help="two-point weight, rational in (0,1)")
        if name == "sweep":
            sp.add_argument("--s-min", dest="s_min", type=float, default=1.0)
            sp.add_argument("--s-max", dest="s_max", type=float, default=20.0)
    return parser


_ARGPARSE = argparse_parser()


def argparse_config(argv):
    """What the argparse front end made of an argv: its RunConfig, "help"
    (exit 0) or "reject" (exit 2)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ns = _ARGPARSE.parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code == 0 else "reject"
    try:
        params = {
            "rho0": cli._parse_rational(ns.rho0, "rho0"),
            "L": ns.L,
            "p": cli._parse_p(ns.p),
            "weights": cli.parse_weights(ns.weights) if ns.weights is not None else None,
            "n": ns.n if ns.n is not None else (20 if ns.subcommand == "sweep" else 4),
            "n_given": ns.n is not None,
            "trials": ns.trials,
            "tol": ns.tol,
            "budget": ns.budget,
        }
        if ns.L < 1 or not (0 <= params["rho0"] <= 1):
            return "reject"
        if params["budget"] is not None and params["budget"] < 1:
            return "reject"
        if not (0.0 < ns.tol < math.inf):
            return "reject"
        if ns.subcommand == "table1":
            params["tangents"] = ns.tangents
        if ns.subcommand == "verify":
            params["claim"] = ns.claim
            params["a"] = cli._parse_rational(ns.a, "a")
        if ns.subcommand == "sweep":
            if not (math.isfinite(ns.s_min) and math.isfinite(ns.s_max)):
                return "reject"
            params["s_min"] = ns.s_min
            params["s_max"] = ns.s_max
    except cli.CliInputError:
        return "reject"
    return cli.RunConfig(subcommand=ns.subcommand, params=params, output_format=ns.format,
                         output_path=ns.out, seed=ns.seed)


# ---------------------------------------------------------------- law readers

def rational_frequency_gcd(freqs):
    """gcd of rational frequencies: every one is an integer multiple."""
    fracs = [Fraction(f) for f in freqs]
    den = math.lcm(*(f.denominator for f in fracs))
    return Fraction(math.gcd(*(f.numerator * (den // f.denominator) for f in fracs)), den)


def charfn_from_law(law):
    pos = [(float(v), float(m)) for v, m in zip(law.values, law.masses) if v > 0]
    return CharFn(frequencies=tuple(v for v, _ in pos),
                  pair_masses=tuple(m for _, m in pos),
                  zero_mass=float(law.zero_mass))


def product_charfn_period(law, weights):
    if not (law.is_rational and _all_rational(weights)):
        return None
    freqs = [abs(Fraction(a)) * v for a in weights for v in law.values
             if a != 0 and v > 0]
    if not freqs:
        return None
    return float(2 * math.pi / rational_frequency_gcd(freqs))


def power_charfn_period(law, s):
    if not law.is_rational:
        return None
    pos = [v for v in law.values if v > 0]
    if not pos:
        return None
    g = rational_frequency_gcd(pos)
    return 2.0 * math.pi * math.sqrt(float(s)) / float(g)


def infer_step_params(law):
    pos = [(v, m) for v, m in zip(law.values, law.masses) if v > 0]
    if [v for v, _ in pos] != list(range(1, len(pos) + 1)):
        return None
    if len({m for _, m in pos}) != 1:
        return None
    return law.zero_mass, len(pos)
