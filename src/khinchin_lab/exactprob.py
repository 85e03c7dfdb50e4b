"""Symmetric discrete laws, exact weighted-sum convolution, and moments.

One law type, `SymmetricAtomLaw`, holds both a single law and the law of a
weighted sum.  It is given either by its atom table or, for the sums that
`convolve_weighted` builds from rational inputs, by an exact integer grid:
integer values over one value scale and integer mass numerators over one
mass denominator, which keeps the heavy convolutions in machine integers.
A grid law builds its atom table on first use.  Probability masses are
`fractions.Fraction` throughout, so convolution and integer-order absolute
moments are exact; atom values may be rational or float.  Weights are
plain sequences of int, Fraction or float.  The module also carries the
Gaussian reference quantities (norms, shifted moments, plus-part second
moments) that the comparison certificates are checked against.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy.special import erfc

from .quadrature import integrate_adaptive

__all__ = [
    "GaussianRef",
    "MomentMethod",
    "MomentValue",
    "StepLawParams",
    "SymmetricAtomLaw",
    "abs_moment",
    "convolve_weighted",
    "gaussian_norm",
    "law_from_json",
    "law_to_json",
    "make_step_law",
    "make_symmetric_law",
    "plus_part_second_moment",
    "second_moment",
    "shifted_gaussian_moment",
    "sigma_of",
    "weighted_sum_norm",
]

Scalar = Union[int, float, Fraction]

#: convolutions whose projected support exceeds this many atoms are rejected
SUPPORT_GUARD = 10_000_000

#: float atoms closer than this, relative to the largest |value|, are merged
MERGE_RTOL = 1e-12

_INT64_SAFE = 2**62


def _as_fraction(x, what: str) -> Fraction:
    if isinstance(x, float):
        raise ValueError(f"{what} must be rational (int, Fraction or 'num/den' string), got float {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cannot interpret {what} {x!r} as a rational") from exc


def _canonical_value(v) -> Scalar:
    if isinstance(v, bool):
        raise ValueError("atom values must be numbers")
    if isinstance(v, Rational):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise ValueError(f"unsupported atom value {v!r}")


def _scalar_str(v: Scalar) -> str:
    if isinstance(v, Fraction):
        return str(v)  # "num" or "num/den", both reparse exactly
    return repr(float(v))


def _parse_scalar(text: str) -> Scalar:
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    try:
        return Fraction(int(s))
    except ValueError:
        return float(s)


def _check_atoms(pairs: Iterable[tuple[Scalar, Fraction]]):
    """Validated atom table: positive rational masses summing to 1, symmetry."""
    atoms = []
    for v, m in pairs:
        mass = _as_fraction(m, "law mass")
        if mass <= 0:
            raise ValueError(f"law masses must be positive, got {mass} at value {v!r}")
        atoms.append((_canonical_value(v), mass))
    atoms.sort(key=lambda a: float(a[0]))
    values = [v for v, _ in atoms]
    if len(set(values)) != len(values):
        raise ValueError("law atom values must be distinct")
    total = sum(m for _, m in atoms)
    if total != 1:
        raise ValueError(f"law masses must sum to exactly 1, got {total}")
    table = {v: m for v, m in atoms}
    for v, m in atoms:
        if table.get(-v) != m:
            raise ValueError(f"law must be symmetric: value {v!r} has no matching mass at {-v!r}")
    return tuple(atoms)


class SymmetricAtomLaw:
    """Finite symmetric law with exact rational masses.

    Built from its atom table of (value, mass) pairs, or by `_from_int_grid`
    from an integer grid: values int_values / value_scale with masses
    mass_nums / mass_den, in increasing order of value.
    """

    __slots__ = ("_atoms", "_grid")

    def __init__(self, atoms: Iterable[tuple[Scalar, Fraction]]):
        self._atoms = _check_atoms(atoms)
        self._grid = None

    @classmethod
    def _from_int_grid(cls, int_values: list[int], mass_nums: list[int],
                       mass_den: int, value_scale: int) -> "SymmetricAtomLaw":
        if len(int_values) != len(mass_nums) or not int_values:
            raise ValueError("mismatched grid arrays")
        if sum(mass_nums) != mass_den:
            raise ValueError("grid masses must sum to exactly 1")
        if int_values != [-x for x in reversed(int_values)] or mass_nums != mass_nums[::-1]:
            raise ValueError("grid law must be symmetric")
        self = object.__new__(cls)
        self._atoms = None
        self._grid = (int_values, mass_nums, mass_den, value_scale)
        return self

    @property
    def atoms(self) -> tuple[tuple[Scalar, Fraction], ...]:
        if self._atoms is None:
            int_values, mass_nums, den, scale = self._grid
            self._atoms = tuple((Fraction(iv, scale), Fraction(num, den))
                                for iv, num in zip(int_values, mass_nums))
        return self._atoms

    @property
    def values(self) -> tuple[Scalar, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.atoms)

    def __len__(self) -> int:
        return len(self._atoms if self._grid is None else self._grid[0])

    @property
    def is_rational(self) -> bool:
        return self._grid is not None or all(isinstance(v, Rational) for v, _ in self._atoms)

    @property
    def zero_mass(self) -> Fraction:
        if self._grid is None:
            return self.mass_at(0)
        # a symmetric grid holds 0 exactly when it has an odd number of values
        _, mass_nums, den, _ = self._grid
        return Fraction(mass_nums[len(mass_nums) // 2], den) if len(mass_nums) % 2 else Fraction(0)

    def values_float(self) -> np.ndarray:
        if self._grid is not None:
            return np.array(self._grid[0], dtype=float) / float(self._grid[3])
        return np.array([float(v) for v, _ in self._atoms], dtype=float)

    def masses_float(self) -> np.ndarray:
        if self._grid is not None:
            return np.array(self._grid[1], dtype=float) / float(self._grid[2])
        return np.array([float(m) for _, m in self._atoms], dtype=float)

    def mass_at(self, v) -> Fraction:
        for value, m in self.atoms:
            if value == v:
                return m
        return Fraction(0)

    def to_json(self) -> str:
        return law_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "SymmetricAtomLaw":
        return cls(_atoms_from_json(text))


@dataclass(frozen=True)
class StepLawParams:
    """Zero mass rho0 plus a uniform symmetric block on {-L..-1, 1..L}."""

    rho0: Fraction
    L: int

    def __post_init__(self):
        object.__setattr__(self, "rho0", _as_fraction(self.rho0, "rho0"))
        if not (0 <= self.rho0 <= 1):
            raise ValueError(f"rho0 must lie in [0, 1], got {self.rho0}")
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ValueError(f"L must be an integer >= 1, got {self.L!r}")


def make_step_law(params: StepLawParams) -> SymmetricAtomLaw:
    """Law with P(0) = rho0 and P(+-j) = (1-rho0)/(2L) for j = 1..L."""
    if not isinstance(params, StepLawParams):
        raise TypeError("make_step_law takes StepLawParams")
    rho0, L = params.rho0, params.L
    atoms: list[tuple[Scalar, Fraction]] = []
    if rho0 == 1:
        return SymmetricAtomLaw(((Fraction(0), Fraction(1)),))
    side = (1 - rho0) / (2 * L)
    for j in range(1, L + 1):
        atoms.append((Fraction(-j), side))
        atoms.append((Fraction(j), side))
    if rho0 > 0:
        atoms.append((Fraction(0), rho0))
    return SymmetricAtomLaw(tuple(atoms))


def make_symmetric_law(zero_mass, positive_atoms: Mapping[Scalar, Scalar]) -> SymmetricAtomLaw:
    """Build a symmetric law from its zero mass and one-sided atom table."""
    zero = _as_fraction(zero_mass, "zero mass") if zero_mass else Fraction(0)
    atoms: list[tuple[Scalar, Fraction]] = []
    for v, m in positive_atoms.items():
        value = _canonical_value(v)
        if not (float(value) > 0):
            raise ValueError("positive_atoms keys must be strictly positive")
        mass = _as_fraction(m, "mass")
        atoms.append((value, mass))
        atoms.append((-value, mass))
    if zero > 0:
        atoms.append((Fraction(0), zero))
    return SymmetricAtomLaw(tuple(atoms))


def law_to_json(law) -> str:
    """Serialize a law as {"atoms": [{"v": ..., "m": ...}, ...]}.

    Rational fields use "num/den" strings and round-trip bit-exactly; float
    values use repr, which round-trips through Python's float parser.
    """
    payload = {
        "atoms": [{"v": _scalar_str(v), "m": str(m)} for v, m in law.atoms]
    }
    return json.dumps(payload, separators=(",", ":"))


def _atoms_from_json(text: str):
    data = json.loads(text)
    if not isinstance(data, dict) or "atoms" not in data:
        raise ValueError("law JSON must be an object with an 'atoms' array")
    pairs = []
    for entry in data["atoms"]:
        v = _parse_scalar(entry["v"])
        m = entry["m"]
        if isinstance(m, str):
            m = Fraction(m)
        else:
            m = _as_fraction(m, "mass")
        pairs.append((v, m))
    return pairs


def law_from_json(text: str) -> SymmetricAtomLaw:
    return SymmetricAtomLaw.from_json(text)


def _exact_power_sum(law: SymmetricAtomLaw, k: int) -> Fraction:
    """E |X|^k, k >= 1, as an exact rational for a law with rational
    support: by symmetry, twice the sum over the positive atoms."""
    if law._grid is not None:
        int_values, mass_nums, den, scale = law._grid
        s = sum(num * iv**k for iv, num in zip(int_values, mass_nums) if iv > 0)
        return Fraction(2 * s, den * scale**k)
    return 2 * sum((m * v**k for v, m in law.atoms if v > 0), Fraction(0))


def second_moment(law: SymmetricAtomLaw) -> Scalar:
    """E X^2, exact (Fraction) when the support is rational."""
    if law.is_rational:
        return _exact_power_sum(law, 2)
    vals = law.values_float()
    return float(np.dot(law.masses_float(), vals * vals))


def sigma_of(law) -> float:
    """sqrt(E X^2); for the uniform block law this is sqrt((L+1)(2L+1)/6)."""
    return math.sqrt(float(second_moment(law)))


def first_abs_moment(law: SymmetricAtomLaw) -> Scalar:
    """E |X|, exact when the support is rational."""
    if law.is_rational:
        return _exact_power_sum(law, 1)
    return float(np.dot(law.masses_float(), np.abs(law.values_float())))


def _projected_support(laws, cap: int) -> int:
    proj = 1
    for law in laws:
        proj *= len(law.atoms)
        if proj > cap:
            return proj
    return proj


def convolve_weighted(laws: Sequence, weights: Sequence[Scalar],
                      max_atoms: int = SUPPORT_GUARD) -> SymmetricAtomLaw:
    """Exact law of sum_i weights[i] * X_i for independent X_i ~ laws[i].

    All-rational inputs use an integer-grid convolution (exact); any float
    weight or float-valued law falls back to a float-keyed table whose
    masses stay exact rationals but whose values are merged within
    MERGE_RTOL * max|value|.  Instances whose projected support exceeds
    max_atoms (default SUPPORT_GUARD) are rejected.
    """
    laws = list(laws)
    if len(laws) != len(weights):
        raise ValueError(f"got {len(laws)} laws but {len(weights)} weights")
    if not laws:
        raise ValueError("need at least one law")
    rational = all(isinstance(w, Rational) and not isinstance(w, bool) for w in weights)
    rational = rational and all(law.is_rational for law in laws)
    if max_atoms < 1:
        raise ValueError("max_atoms must be positive")
    if rational:
        return _convolve_rational(laws, [Fraction(w) for w in weights], max_atoms)
    return _convolve_float(laws, [float(w) for w in weights], max_atoms)


def _convolve_rational(laws, weights: list[Fraction], max_atoms: int) -> SymmetricAtomLaw:
    # Scale all weighted values onto one integer grid.
    scaled: list[list[tuple[Fraction, Fraction]]] = []
    denoms: set[int] = set()
    for law, w in zip(laws, weights):
        prods = [(w * Fraction(v), m) for v, m in law.atoms]
        scaled.append(prods)
        for p, _ in prods:
            denoms.add(p.denominator)
    scale = math.lcm(*denoms) if denoms else 1

    kernels = []  # (offsets list[int], numerators list[int], mass denominator)
    mass_den = 1
    width = 1
    for prods in scaled:
        den = math.lcm(*[m.denominator for _, m in prods])
        offs = [int(p * scale) for p, _ in prods]
        nums = [int(m * den) for _, m in prods]
        kernels.append((offs, nums, den))
        mass_den *= den
        width += 2 * max(abs(o) for o in offs)
    projected = min(_projected_support(laws, max_atoms), width)
    if projected > max_atoms:
        raise ValueError(
            f"projected support of {projected} atoms exceeds the guard of {max_atoms}"
        )

    if width > max_atoms:
        # The dense grid would outgrow the guard while the support does not:
        # merge offsets in a dict, which never holds more entries than the
        # product of the atom counts that the guard checked.
        sparse = {0: 1}
        for offs, nums, _ in kernels:
            merged: dict[int, int] = {}
            for x, c in sparse.items():
                for o, num in zip(offs, nums):
                    merged[x + o] = merged.get(x + o, 0) + c * num
            sparse = merged
        int_values = sorted(x for x, c in sparse.items() if c)
        mass_nums = [sparse[x] for x in int_values]
        return SymmetricAtomLaw._from_int_grid(int_values, mass_nums, mass_den, scale)

    use_int64 = mass_den <= _INT64_SAFE
    dtype = np.int64 if use_int64 else object
    acc = np.zeros(1, dtype=dtype)
    acc[0] = 1
    for offs, nums, _ in kernels:
        halfw = max(abs(o) for o in offs)
        new_len = len(acc) + 2 * halfw
        new = np.zeros(new_len, dtype=dtype)
        for o, num in zip(offs, nums):
            idx = o + halfw
            new[idx: idx + len(acc)] += acc * num
        acc = new

    center = (len(acc) - 1) // 2
    nz = np.flatnonzero(acc)
    int_values = [int(i) - center for i in nz]
    mass_nums = [int(acc[i]) for i in nz]
    return SymmetricAtomLaw._from_int_grid(int_values, mass_nums, mass_den, scale)


def _convolve_float(laws, weights: list[float],
                    max_atoms: int = SUPPORT_GUARD) -> SymmetricAtomLaw:
    table: dict[float, Fraction] = {0.0: Fraction(1)}
    for law, w in zip(laws, weights):
        if len(table) * len(law.atoms) > max_atoms:
            raise ValueError(
                f"projected support of {len(table) * len(law.atoms)} atoms "
                f"exceeds the guard of {max_atoms}"
            )
        new: dict[float, Fraction] = {}
        for v, m in table.items():
            for u, mu in law.atoms:
                key = v + w * float(u)
                prev = new.get(key)
                new[key] = m * mu if prev is None else prev + m * mu
        table = _merge_close_atoms(new)
    # Re-symmetrize exactly: keyed on |value|, pairing +-v.
    pairs = sorted(table.items(), key=lambda kv: kv[0])
    sym: list[tuple[Scalar, Fraction]] = []
    i, j = 0, len(pairs) - 1
    while i < j:
        (vn, mn), (vp, mp) = pairs[i], pairs[j]
        mass = (mn + mp) / 2
        mag = (vp - vn) / 2.0
        sym.append((-mag, mass))
        sym.append((mag, mass))
        i += 1
        j -= 1
    if i == j:
        sym.append((0.0, pairs[i][1]))
    return SymmetricAtomLaw(sym)


def _merge_close_atoms(table: dict[float, Fraction]) -> dict[float, Fraction]:
    if len(table) <= 1:
        return table
    vmax = max(abs(v) for v in table)
    width = MERGE_RTOL * max(vmax, 1e-300)
    items = sorted(table.items())
    merged: dict[float, Fraction] = {}
    cluster_vals = [items[0][0]]
    cluster_mass = items[0][1]
    for v, m in items[1:]:
        if v - cluster_vals[-1] <= width:
            cluster_vals.append(v)
            cluster_mass += m
        else:
            rep = cluster_vals[len(cluster_vals) // 2]
            merged[rep] = merged.get(rep, Fraction(0)) + cluster_mass
            cluster_vals = [v]
            cluster_mass = m
    rep = cluster_vals[len(cluster_vals) // 2]
    merged[rep] = merged.get(rep, Fraction(0)) + cluster_mass
    return merged


class MomentMethod(str, Enum):
    EXACT_RATIONAL = "exact-rational"
    FLOAT = "float"


@dataclass(frozen=True)
class MomentValue:
    """An absolute moment with its computation mode and error bound.

    `exact` carries the full rational when method is exact; `abs_error` is 0
    in that case and a summation rounding bound otherwise.
    """

    value: float
    method: MomentMethod
    abs_error: float
    exact: Fraction | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("absolute moments are nonnegative")
        if self.method is MomentMethod.EXACT_RATIONAL and self.abs_error != 0:
            raise ValueError("exact moments carry zero abs_error")


def abs_moment(law: SymmetricAtomLaw, p, mode: str = "auto") -> MomentValue:
    """E |X|^p for a law.

    p >= 1.  Rational support with integer p gives an exact rational result
    (mode "float" forces the floating route, used for cross-checks); any
    other case is an exactly-rounded float sum with the rounding bound
    n_atoms * eps * sum(mass * |value|^p).
    """
    pf = float(p)
    if not (pf >= 1.0):
        raise ValueError(f"p must satisfy p >= 1, got {p!r}")
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    can_exact = law.is_rational and pf == int(pf)
    if mode == "exact" and not can_exact:
        raise ValueError("exact moment requires rational support and integer p")
    if can_exact and mode != "float":
        exact = _exact_power_sum(law, int(pf))
        return MomentValue(float(exact), MomentMethod.EXACT_RATIONAL, 0.0, exact)
    vals = law.values_float()
    masses = law.masses_float()
    terms = masses * np.abs(vals) ** pf
    total = math.fsum(terms.tolist())
    bound = len(terms) * np.finfo(float).eps * math.fsum(np.abs(terms).tolist())
    return MomentValue(total, MomentMethod.FLOAT, bound)


def weighted_sum_norm(weights: Sequence[Scalar], law: SymmetricAtomLaw, p) -> MomentValue:
    """p-norm (E |sum_i w_i X_i|^p)^(1/p) of an iid weighted sum.

    The method tag is inherited from the underlying moment; for the exact
    method the root is correct to double rounding and abs_error stays 0.
    """
    conv = convolve_weighted([law] * len(weights), weights)
    m = abs_moment(conv, p)
    pf = float(p)
    root = m.value ** (1.0 / pf)
    if m.method is MomentMethod.EXACT_RATIONAL:
        return MomentValue(root, m.method, 0.0, m.exact)
    err = m.abs_error * root / (pf * m.value) if m.value > 0 else m.abs_error ** (1.0 / pf)
    return MomentValue(root, m.method, err)


def gaussian_norm(p, sigma: float = 1.0) -> float:
    """p-norm of a centred Gaussian with standard deviation sigma, p > 0.

    Equals sigma * 2^(1/2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p); p = 2 gives
    sigma back.
    """
    pf = float(p)
    if not (pf > 0):
        raise ValueError(f"p must be positive, got {p!r}")
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    log_norm = 0.5 * math.log(2.0) + (math.lgamma((pf + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / pf
    return sigma * math.exp(log_norm)


def shifted_gaussian_moment(shift: float, sigma: float, p, rel_tol: float = 1e-12) -> float:
    """E |shift + G|^p for G centred Gaussian with standard deviation sigma.

    Quadrature over a truncated window whose discarded tail is certified, by
    Cauchy-Schwarz against the Gaussian tail mass, to be below rel_tol of
    the result.
    """
    pf = float(p)
    if not (pf >= 1.0):
        raise ValueError(f"p must satisfy p >= 1, got {p!r}")
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    # Standardize: E|shift + G|^p = sigma^p E|b + Z|^p with b = |shift|/sigma,
    # so the integral handed to quadrature is bounded below by ||Z||_1 = 0.79.
    b = abs(float(shift)) / sigma
    # E (b + |Z|)^(2p) <= 2^(2p-1) (b^(2p) + E|Z|^(2p)) controls the tail.
    m2p = gaussian_norm(2.0 * pf) ** (2.0 * pf)
    sq = math.sqrt(2.0 ** (2.0 * pf - 1.0) * (b ** (2.0 * pf) + m2p))
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(zs):
        return np.abs(b + zs) ** pf * np.exp(-0.5 * zs * zs) * inv_sqrt2pi

    for radius in (10.0, 12.0, 14.0, 16.0):
        bps = (-b,) if -radius < -b < radius else ()
        res = integrate_adaptive(integrand, -radius, radius, tol=rel_tol / 4.0, breakpoints=bps)
        tail = sq * math.sqrt(erfc(radius / math.sqrt(2.0)))
        if tail <= rel_tol * max(res.value, 1e-300) / 2.0:
            res.require_converged()
            return res.value * sigma**pf
    raise ArithmeticError("could not certify the truncated tail at the requested tolerance")


@dataclass(frozen=True)
class GaussianRef:
    """Centred Gaussian reference with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")


def _gaussian_plus_part(s2: float, a):
    """E (G^2 - a)_+ for G centred Gaussian with variance s2, elementwise in
    the thresholds a >= 0 (a float or an array).

    The complementary-error closed form
    s2 * 2 * (sqrt(t) pdf(sqrt(t)) + (1 - t) Q(sqrt(t))) at t = a/s2,
    where Q is the standard upper tail.
    """
    t = a / s2
    rt = np.sqrt(t)
    pdf = np.exp(-0.5 * t) / math.sqrt(2.0 * math.pi)
    upper = 0.5 * erfc(rt / math.sqrt(2.0))
    return s2 * 2.0 * (rt * pdf + (1.0 - t) * upper)


def plus_part_second_moment(source, a) -> Scalar:
    """E (X^2 - a)_+ for a discrete law (exact when rational) or GaussianRef,
    the latter by the closed form of `_gaussian_plus_part`."""
    if isinstance(a, float):
        af = a
    else:
        af = float(_as_fraction(a, "threshold a"))
    if af < 0:
        raise ValueError(f"threshold a must be nonnegative, got {a!r}")
    if isinstance(source, GaussianRef):
        return float(_gaussian_plus_part(source.sigma**2, af))
    if source.is_rational and not isinstance(a, float):
        a_ex = _as_fraction(a, "threshold a")
        total = Fraction(0)
        for v, m in source.atoms:
            gap = v * v - a_ex
            if gap > 0:
                total += m * gap
        return total
    vals = source.values_float()
    gaps = np.maximum(vals * vals - af, 0.0)
    return float(np.dot(source.masses_float(), gaps))
