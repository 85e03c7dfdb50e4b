"""Brute-force oracles the library must agree with.

Everything here enumerates outcome tuples with itertools.product and sums
in Fraction arithmetic, deliberately bypassing the library's convolution
and moment code paths.
"""
import math
from fractions import Fraction
from itertools import product

from scipy.integrate import quad


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


def endpoint_gap_closed_form(t):
    """h(t) = (t-1) erf(sqrt(t/2)) + sqrt(2 t / pi) e^(-t/2) - 2t/3.

    Obtained from the defining integral by parts; an independent route to
    the quadrature-based evaluator.
    """
    r = math.sqrt(t)
    return ((t - 1.0) * math.erf(r / math.sqrt(2.0))
            + math.sqrt(2.0 / math.pi) * r * math.exp(-0.5 * t)
            - (2.0 / 3.0) * t)


def endpoint_slope_closed_form(t):
    """h'(t) = erf(sqrt(t/2)) - 2/3."""
    return math.erf(math.sqrt(0.5 * t)) - 2.0 / 3.0


def comparison_threshold_closed_form(L):
    """Zero-mass threshold for the one-coordinate p = 3 comparison.

    E|Y|^3 <= g3^3 (E Y^2)^(3/2) with moments linear in (1 - rho) gives
    rho* = 1 - pi m3^2 / (8 m2^3), m2 and m3 the block power means.
    """
    m2 = Fraction((L + 1) * (2 * L + 1), 6)
    m3 = Fraction(L * (L + 1) ** 2, 4)
    return 1.0 - math.pi * float(m3 * m3) / (8.0 * float(m2) ** 3)
