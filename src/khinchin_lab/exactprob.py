"""Symmetric discrete laws, exact weighted-sum convolution, and moments.

One law type, `SymmetricAtomLaw`, holds both a single law and the law of a
weighted sum, always as one grid: values in increasing order with integer
mass numerators over one mass denominator.  Rational values are integers
over one value scale, so the exact convolutions stay in machine integers;
float or mixed values are floats.  Probability masses are exact rationals
throughout, so convolution and integer-order absolute moments of rational
laws are exact.  A sum with any float weight or float value keeps exact
masses, while values within MERGE_RTOL of the largest |value| of each other
merge onto one.  Weights are plain sequences of int, Fraction or float.
The module also carries the Gaussian reference quantities (norms, shifted
moments, plus-part second moments) that the comparison certificates are
checked against.
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

#: integers below this stay in int64, with room for one doubling
_INT64_SAFE = 2**62


def _int_array(xs: list[int]) -> np.ndarray:
    """Integers as int64 when every one is below _INT64_SAFE in size, else
    as Python ints (object dtype)."""
    return np.array(xs, dtype=np.int64 if max(map(abs, xs)) < _INT64_SAFE else object)


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
    """Finite symmetric law with exact rational masses, held as one grid.

    The grid is the values in increasing order with integer mass numerators
    over one mass denominator.  Rational values are stored as integers over
    one value scale; float or mixed values as floats, with scale None.  A
    law built from its atom table keeps that table; one built by
    `_from_grid`, as the convolutions do, builds it on first use.
    """

    __slots__ = ("_atoms", "_values", "_nums", "_den", "_scale")

    def __init__(self, atoms: Iterable[tuple[Scalar, Fraction]]):
        self._atoms = _check_atoms(atoms)
        values = [v for v, _ in self._atoms]
        self._den = math.lcm(*(m.denominator for _, m in self._atoms))
        self._nums = _int_array([m.numerator * (self._den // m.denominator)
                                 for _, m in self._atoms])
        if all(isinstance(v, Fraction) for v in values):
            self._scale = math.lcm(*(v.denominator for v in values))
            self._values = _int_array([int(v * self._scale) for v in values])
        else:
            self._scale = None
            self._values = np.array([float(v) for v in values])

    @classmethod
    def _from_grid(cls, values: np.ndarray, nums: np.ndarray, den: int,
                   scale: int | None) -> "SymmetricAtomLaw":
        if len(values) != len(nums) or not len(values):
            raise ValueError("mismatched grid arrays")
        if not np.all(values[1:] > values[:-1]):
            raise ValueError("grid values must be strictly increasing")
        if nums.sum() != den:
            raise ValueError("grid masses must sum to exactly 1")
        if not (np.array_equal(values, -values[::-1]) and np.array_equal(nums, nums[::-1])):
            raise ValueError("grid law must be symmetric")
        self = object.__new__(cls)
        self._atoms = None
        self._values, self._nums, self._den, self._scale = values, nums, den, scale
        return self

    @property
    def atoms(self) -> tuple[tuple[Scalar, Fraction], ...]:
        if self._atoms is None:
            scale = self._scale
            self._atoms = tuple(
                (v if scale is None else Fraction(v, scale), Fraction(num, self._den))
                for v, num in zip(self._values.tolist(), self._nums.tolist()))
        return self._atoms

    @property
    def values(self) -> tuple[Scalar, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.atoms)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def is_rational(self) -> bool:
        return self._scale is not None

    @property
    def zero_mass(self) -> Fraction:
        # a symmetric grid holds 0 exactly when it has an odd number of values
        n = len(self._nums)
        return Fraction(int(self._nums[n // 2]), self._den) if n % 2 else Fraction(0)

    def values_float(self) -> np.ndarray:
        return np.array(self._values, dtype=float) / float(self._scale or 1)

    def masses_float(self) -> np.ndarray:
        # int / int is correctly rounded, as float(Fraction(num, den)) is
        return np.array([num / self._den for num in self._nums.tolist()])

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
    support: by symmetry, twice the sum over the positive atoms, which
    are the upper half of the grid."""
    pos = slice((len(law) + 1) // 2, None)
    s = sum(num * iv**k for iv, num in zip(law._values[pos].tolist(), law._nums[pos].tolist()))
    return Fraction(2 * s, law._den * law._scale**k)


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


def convolve_weighted(laws: Sequence, weights: Sequence[Scalar],
                      max_atoms: int = SUPPORT_GUARD) -> SymmetricAtomLaw:
    """Exact law of sum_i weights[i] * X_i for independent X_i ~ laws[i].

    All-rational inputs use an integer-grid convolution (exact).  Any
    float weight or float-valued law gives float values with exact integer
    mass numerators: after each summand, every chain of values whose gaps
    are at most MERGE_RTOL * max|value| merges onto its middle value, and
    the result is re-symmetrized by pairing the k-th values from both ends.
    Instances whose projected support exceeds max_atoms (default
    SUPPORT_GUARD) are rejected.
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
    prods = [[w * v for v in law.values] for law, w in zip(laws, weights)]
    scale = math.lcm(*(p.denominator for ps in prods for p in ps))
    offsets = [[int(p * scale) for p in ps] for ps in prods]
    mass_den = math.prod(law._den for law in laws)
    width = 1 + 2 * sum(max(map(abs, offs)) for offs in offsets)
    projected = min(math.prod(map(len, laws)), width)
    if projected > max_atoms:
        raise ValueError(
            f"projected support of {projected} atoms exceeds the guard of {max_atoms}"
        )

    if width > max_atoms:
        # The dense grid would outgrow the guard while the support does not:
        # merge sorted offsets, never more of them than the product of the
        # atom counts that the guard checked.
        dtype = np.int64 if width < _INT64_SAFE else object
        values, nums = _merge_outer(
            [(np.array(offs, dtype=dtype), law._nums) for offs, law in zip(offsets, laws)],
            mass_den, None, max_atoms)
        return SymmetricAtomLaw._from_grid(values, nums, mass_den, scale)

    dtype = np.int64 if mass_den <= _INT64_SAFE else object
    acc = np.ones(1, dtype=dtype)
    for offs, law in zip(offsets, laws):
        halfw = max(abs(o) for o in offs)
        new = np.zeros(len(acc) + 2 * halfw, dtype=dtype)
        for o, num in zip(offs, law._nums.tolist()):
            idx = o + halfw
            new[idx: idx + len(acc)] += acc * num
        acc = new

    nz = np.flatnonzero(acc)
    return SymmetricAtomLaw._from_grid(nz - (len(acc) - 1) // 2, acc[nz], mass_den, scale)


def _convolve_float(laws, weights: list[float],
                    max_atoms: int = SUPPORT_GUARD) -> SymmetricAtomLaw:
    den = math.prod(law._den for law in laws)
    values, nums = _merge_outer(
        [(w * law.values_float(), law._nums) for law, w in zip(laws, weights)],
        den, MERGE_RTOL, max_atoms)
    # Re-symmetrize: the k-th values from both ends become -+ half their
    # gap, each carrying the mean of their masses.
    return SymmetricAtomLaw._from_grid((values - values[::-1]) / 2.0, nums + nums[::-1],
                                       2 * den, None)


def _merge_outer(kernels, den: int, rtol: float | None, max_atoms: int):
    """Sorted values and mass numerators over `den` of a sum of independent
    summands, each given as (values, mass numerators).

    Each step adds one summand by outer sums and products, sorts stably and
    adds up the numerators of equal values.  With `rtol` (float values),
    each chain of distinct values whose gaps are at most rtol * max|value|
    then merges onto its middle value.  Numerators are int64 below
    _INT64_SAFE, Python ints above.  A step whose outer product would
    exceed max_atoms is rejected.
    """
    values = np.zeros(1, dtype=kernels[0][0].dtype)
    nums = np.ones(1, dtype=np.int64 if den < _INT64_SAFE else object)
    for k_values, k_nums in kernels:
        size = len(values) * len(k_values)
        if size > max_atoms:
            raise ValueError(f"projected support of {size} atoms exceeds the guard of {max_atoms}")
        values = np.add.outer(values, k_values).ravel()
        nums = np.multiply.outer(nums, k_nums).ravel()
        order = np.argsort(values, kind="stable")
        values, nums = values[order], nums[order]
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        values, nums = values[starts], np.add.reduceat(nums, starts)
        if rtol is not None:
            width = rtol * max(np.abs(values).max(), 1e-300)
            chains = np.flatnonzero(np.concatenate(([True], np.diff(values) > width)))
            ends = np.append(chains[1:], len(values))
            values, nums = values[(chains + ends) // 2], np.add.reduceat(nums, chains)
    return values, nums


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
