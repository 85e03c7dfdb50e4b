"""Independent reference values for the benchmark's correctness checks.

Nothing here imports khinchin_lab.  Moments of weighted sums come from
brute-force enumeration over atom tuples (exact integer arithmetic for
rational inputs, math.fsum for float inputs) or from closed forms of the
step law P(0) = rho0, P(+-j) = (1 - rho0) / (2L) for j = 1..L.
`self_test` checks every oracle on cases with known answers; the
benchmark runs it before any check relies on an oracle.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

#: largest number of atom tuples an enumeration may visit
ENUM_CAP = 20_000

#: Taylor zone width that khinchin_lab.quadrature fixes at 1e-3
TAYLOR_T0 = 1e-3


def step_atoms(rho0: Fraction, L: int) -> list[tuple[int, Fraction]]:
    """Atoms (value, mass) of the step law, built from its definition."""
    side = (1 - rho0) / (2 * L)
    atoms = [(j, side) for j in range(-L, L + 1) if j != 0]
    if rho0 > 0:
        atoms.append((0, rho0))
    return atoms


def tuple_count(n: int, rho0: Fraction, L: int) -> int:
    return len(step_atoms(rho0, L)) ** n


@lru_cache(maxsize=4096)
def enum_abs_moment(weights: tuple, rho0: Fraction, L: int, k: int) -> Fraction:
    """E|sum_i w_i Y_i|^k exactly, for rational weights and integer k >= 1.

    Every weight is put over one common denominator D and every mass over
    one common denominator M, so each tuple adds an integer term.
    """
    ws = [Fraction(w) for w in weights]
    D = math.lcm(*(w.denominator for w in ws))
    iw = [int(w * D) for w in ws]
    atoms = step_atoms(rho0, L)
    M = math.lcm(*(m.denominator for _, m in atoms))
    coord = [[(w * v, int(m * M)) for v, m in atoms] for w in iw]
    total = 0
    for combo in product(*coord):
        s = 0
        mass = 1
        for x, num in combo:
            s += x
            mass *= num
        total += mass * abs(s) ** k
    return Fraction(total, D**k * M ** len(ws))


def enum_abs_moment_float(weights: tuple, rho0: Fraction, L: int, p: float) -> float:
    """E|sum_i w_i Y_i|^p for float weights, each sum and the total by fsum."""
    atoms = [(float(v), float(m)) for v, m in step_atoms(rho0, L)]
    terms = []
    for combo in product(atoms, repeat=len(weights)):
        s = math.fsum(w * v for w, (v, _) in zip(weights, combo))
        mass = math.prod(m for _, m in combo)
        terms.append(mass * abs(s) ** p)
    return math.fsum(terms)


def schur_phi(a: tuple, rho0: Fraction, L: int, p: float) -> float:
    """Phi(a) = E|sum_i sqrt(a_i) Y_i|^p."""
    return enum_abs_moment_float(tuple(math.sqrt(float(x)) for x in a), rho0, L, p)


def schur_gradient(a: tuple, rho0: Fraction, L: int, p: float) -> list[float]:
    """dPhi/da_i = (p / (2 sqrt(a_i))) E[sgn(S) |S|^(p-1) Y_i], S = sum sqrt(a_j) Y_j."""
    roots = [math.sqrt(float(x)) for x in a]
    atoms = [(float(v), float(m)) for v, m in step_atoms(rho0, L)]
    terms = [[] for _ in roots]
    for combo in product(atoms, repeat=len(roots)):
        s = math.fsum(r * v for r, (v, _) in zip(roots, combo))
        mass = math.prod(m for _, m in combo)
        w = mass * math.copysign(abs(s) ** (p - 1.0), s) if s != 0 else 0.0
        for i, (v, _) in enumerate(combo):
            terms[i].append(w * v)
    return [p / (2.0 * r) * math.fsum(t) for r, t in zip(roots, terms)]


def abs_y(rho0: Fraction, L: int) -> Fraction:
    """E|Y| = (1 - rho0)(L + 1)/2."""
    return (1 - rho0) * (L + 1) / 2


def y2(rho0: Fraction, L: int) -> Fraction:
    """E Y^2 = (1 - rho0)(L + 1)(2L + 1)/6."""
    return (1 - rho0) * (L + 1) * (2 * L + 1) / 6


def y4(rho0: Fraction, L: int) -> Fraction:
    """E Y^4 = (1 - rho0)(L + 1)(2L + 1)(3L^2 + 3L - 1)/30."""
    return (1 - rho0) * (L + 1) * (2 * L + 1) * (3 * L * L + 3 * L - 1) / 30


def sum_m2(weights, rho0: Fraction, L: int):
    """E S^2 = sum a_i^2 E Y^2 (exact for rational weights)."""
    return sum(w * w for w in weights) * y2(rho0, L)


def sum_m4(weights, rho0: Fraction, L: int):
    """E S^4 = sum a_i^4 E Y^4 + 3 sum_{i != j} a_i^2 a_j^2 (E Y^2)^2."""
    sq = [w * w for w in weights]
    s2 = sum(sq)
    s4 = sum(q * q for q in sq)
    return s4 * y4(rho0, L) + 3 * (s2 * s2 - s4) * y2(rho0, L) ** 2


def taylor_floor_dual(weights, rho0: Fraction, L: int) -> float:
    """Error the tail integrator charges for its Taylor zone on E|S|.

    g(t)/t^2 = E S^2/2 - (E S^4/24) t^2 + O(t^4), and the whole quartic
    term over [0, t0] is reported as error, scaled by 2/pi.
    """
    return 2.0 / math.pi * float(sum_m4(weights, rho0, L)) / 24.0 * TAYLOR_T0**3


def taylor_floor_power(rho0: Fraction, L: int, s: float) -> float:
    """Same Taylor-zone charge for F(s): the t^2 coefficient of
    (1 - |phi(t/sqrt s)|^s)/t^2 is -(m2^2/8 (1 - 1/s) + m4/(24 s))."""
    m2, m4 = float(y2(rho0, L)), float(y4(rho0, L))
    d = m2 * m2 / 8.0 * (1.0 - 1.0 / s) + m4 / (24.0 * s)
    return 2.0 / math.pi * abs(d) * TAYLOR_T0**3


def gaussian_norm(p: float) -> float:
    """||G||_p = sqrt(2) (Gamma((p+1)/2)/sqrt(pi))^(1/p)."""
    return math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)


def report_slack(x: float) -> float:
    """Rounding of one value to the reports' 12 significant digits, plus ulps."""
    return 5e-12 * abs(x) + 8.0 * math.ulp(x)


def match12(reported: float, reference: float) -> bool:
    """Agreement at 12-digit report precision (one unit in the last digit)."""
    return abs(reported - reference) <= 1e-11 * abs(reference) + 8.0 * math.ulp(reference)


def self_test() -> None:
    """Check each oracle on cases with known answers; raise on a mismatch."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    coin = (Fraction(0), 1)
    # F(2) = E|Y1 + Y2|/sqrt(2) = 1/sqrt(2) for the coin law
    f2 = float(enum_abs_moment((1, 1), *coin, 1)) / math.sqrt(2.0)
    _expect(abs(f2 - 1.0 / math.sqrt(2.0)) <= 1e-15, "F(2) for the coin law")
    _expect(enum_abs_moment((1, 1, 1), *coin, 1) == Fraction(3, 2), "E|Y1+Y2+Y3| for the coin law")
    # |1 +- sqrt(2)| averages to sqrt(2)
    e = enum_abs_moment_float((1.0, math.sqrt(2.0)), *coin, 1.0)
    _expect(abs(e - math.sqrt(2.0)) <= 4e-16, "E|Y1 + sqrt(2) Y2| for the coin law")
    for rho0, L in ((third, 3), (Fraction(0), 2), (Fraction(3, 4), 4)):
        _expect(enum_abs_moment((1,), rho0, L, 1) == abs_y(rho0, L), "closed-form E|Y|")
        _expect(enum_abs_moment((1,), rho0, L, 2) == y2(rho0, L), "closed-form E Y^2")
        _expect(enum_abs_moment((1,), rho0, L, 4) == y4(rho0, L), "closed-form E Y^4")
        w = (Fraction(1), half, Fraction(2, 7))
        _expect(enum_abs_moment(w, rho0, L, 2) == sum_m2(w, rho0, L), "closed-form E S^2")
        _expect(enum_abs_moment(w, rho0, L, 4) == sum_m4(w, rho0, L), "closed-form E S^4")
        ef = enum_abs_moment_float(tuple(float(x) for x in w), rho0, L, 3.0)
        ex = float(enum_abs_moment(w, rho0, L, 3))
        _expect(abs(ef - ex) <= 1e-14 * ex, "float enumeration against exact enumeration")
    # p = 2: Phi(a) = sum(a) E Y^2, so every partial equals E Y^2
    grad = schur_gradient((0.2, 0.3, 0.5), third, 1, 2.0)
    _expect(all(abs(g - float(y2(third, 1))) <= 1e-14 for g in grad), "gradient at p = 2")
    # p = 4 partials against the closed form dE S^4/da_i, S^4 from sum_m4 with sqrt weights
    a = (0.2, 0.3, 0.5)
    m2, m4 = float(y2(third, 1)), float(y4(third, 1))
    grad4 = schur_gradient(a, third, 1, 4.0)
    for i, g in enumerate(grad4):
        closed = 2.0 * a[i] * m4 + 6.0 * (sum(a) - a[i]) * m2 * m2
        _expect(abs(g - closed) <= 1e-13 * closed, "gradient at p = 4")
    sq = sum(x * x for x in a)
    phi4 = sq * m4 + 3.0 * (sum(a) ** 2 - sq) * m2 * m2
    _expect(abs(schur_phi(a, third, 1, 4.0) - phi4) <= 1e-13 * phi4, "Phi at p = 4")
    _expect(abs(gaussian_norm(2.0) - 1.0) <= 1e-15 and abs(gaussian_norm(4.0) - 3 ** 0.25) <= 1e-15,
            "Gaussian norms at p = 2 and 4")
    # the Taylor charge at s = 1 is the first-moment charge of a single weight
    _expect(abs(taylor_floor_power(third, 2, 1.0) - taylor_floor_dual((1,), third, 2)) <= 1e-25,
            "Taylor charge of F(1)")


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"oracle self-test failed: {what}")
