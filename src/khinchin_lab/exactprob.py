"""Symmetric discrete laws, exact weighted-sum convolution, and moments.

One law type, `SymmetricAtomLaw`, holds both a single law and the law of a
weighted sum, always as one grid: values in increasing order with integer
mass numerators over one mass denominator.  Rational values are integers
over one value scale, so the exact convolutions stay in machine integers;
float or mixed values are floats.  Probability masses are exact rationals
throughout, so convolution and integer-order absolute moments of rational
laws are exact.  One kernel, `_merge_outer`, adds the summands of every
weighted sum in turn; an integer step reduces on a dense grid over its span
or by sort-merging its outer sums, whichever array is smaller, and the
support guard bounds that array before it is allocated.  A sum with any
float weight or float value keeps exact masses, while values within
MERGE_RTOL of the largest |value| of each other merge onto one.  Weights
are plain sequences of int, Fraction or float.
Exact moments of a law sum num * v^k over its integer grid in Python ints
(`_exact_power_sum`).  Integer moments of a rational weighted sum of
independent symmetric summands never build the sum law (`sum_abs_moment`).
Odd moments of the summands vanish, so E S^k at even k follows from the
summands' moments by a binomial recursion on integers (`sum_even_moment`),
with no convolution and no support guard; its cost grows like n k^2, so
above _RECURSION_MAX_P it serves only sums too large to split.  Other
integer p split the summands into two halves, convolve each half on its
own under the support guard, and combine the two half laws
(`_moment_of_pair`): at odd p by sorted prefix sums of their powers, at
even p from their moments, so neither the law of S nor its guard applies;
only each half's does.
The ratios ||S_n||_p / ||S_n||_2 of equal-weight sums for n = 1..n_max
(`equal_weight_ratio_sequence`) take the same routes, sharing the work
across n, and `gaussian_norm` is the reference they approach.  The module
is a leaf: it imports only the standard library and numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "MomentMethod",
    "MomentValue",
    "StepLawParams",
    "SymmetricAtomLaw",
    "abs_moment",
    "convolve_weighted",
    "equal_weight_ratio_sequence",
    "first_abs_moment",
    "gaussian_norm",
    "make_step_law",
    "make_symmetric_law",
    "moment_root",
    "ratio_root",
    "second_moment",
    "sum_abs_moment",
    "sum_even_moment",
    "weighted_sum_norm",
]

Scalar = Union[int, float, Fraction]

#: entries any one convolution step may allocate: the outer product of its
#: atoms, or for integer values the dense grid over its span when smaller
SUPPORT_GUARD = 10_000_000

#: float atoms closer than this, relative to the largest |value|, are merged
MERGE_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)

#: integers below this stay in int64, with room for one doubling
_INT64_SAFE = 2**62

#: largest even p at which `sum_abs_moment` takes the recursion of
#: `_even_moment_prefixes` rather than `_moment_of_pair`: about where they
#: cost the same on small halves (0.11 against 0.15 ms at p = 32 and 0.41
#: against 0.29 ms at p = 64 on two 3-atom laws, 2-core x86 machine); on
#: halves of 81 and 729 atoms that point is near p = 128
_RECURSION_MAX_P = 32

#: atoms of both laws that one block of `_moment_of_pair` holds
_SPLIT_BLOCK = 2**16

#: fixed cost of one slice add in a dense step, in int64 cell adds (a slice
#: takes about 3 us plus 1.2 ns a cell on a 2-core x86 machine)
_SLICE_CELLS = 2048


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
    `merge_shift` bounds how far rounding and merging moved any atom from
    the exact law of a float weighted sum; it is 0 for every other law.
    """

    __slots__ = ("_atoms", "_values", "_nums", "_den", "_scale", "_shift")

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
        self._shift = 0.0

    @classmethod
    def _from_grid(cls, values: np.ndarray, nums: np.ndarray, den: int,
                   scale: int | None, merge_shift: float = 0.0) -> "SymmetricAtomLaw":
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
        self._shift = merge_shift
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

    def positive_grid(self) -> tuple[list, list, int, int]:
        """(values, nums, scale, den) of the positive atoms as Python
        numbers: values over `scale` (integers, or floats over 1 for a law
        that is not rational) and mass numerators over `den`."""
        half = (len(self._values) + 1) // 2
        return (self._values[half:].tolist(), self._nums[half:].tolist(), self._scale or 1,
                self._den)

    @property
    def merge_shift(self) -> float:
        return self._shift

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
    """Law with P(0) = rho0 and P(+-j) = (1-rho0)/(2L) for j = 1..L.

    Built straight onto the integer grid -L..L: with rho0 = a/b the masses
    are (b - a) per side atom and 2La at zero over 2Lb, reduced by their
    gcd, which gives the least common mass denominator, as the atom table
    would; atoms of mass 0 are left out.  The numerators are int64 when
    their sum, the denominator, is below _INT64_SAFE."""
    if not isinstance(params, StepLawParams):
        raise TypeError("make_step_law takes StepLawParams")
    a, b, L = params.rho0.numerator, params.rho0.denominator, params.L
    g = math.gcd(b - a, 2 * L * a)
    side, den = (b - a) // g, 2 * L * b // g
    nums = np.array([side] * L + [2 * L * a // g] + [side] * L,
                    dtype=np.int64 if den < _INT64_SAFE else object)
    keep = nums != 0  # no zero atom at rho0 = 0, only the zero atom at rho0 = 1
    return SymmetricAtomLaw._from_grid(np.arange(-L, L + 1, dtype=np.int64)[keep], nums[keep],
                                       den, 1)


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


def _exact_power_sum(law: SymmetricAtomLaw, k: int) -> Fraction:
    """E |X|^k, k >= 1, as an exact rational for a law with rational
    support (see `_power_sum`)."""
    return Fraction(_power_sum(law, k), law._den * law._scale**k)


def _power_sum(law: SymmetricAtomLaw, k: int) -> int:
    """sum of num * |v|^k over the integer grid of a rational law, k >= 1:
    by symmetry, twice that sum over the positive atoms, which are the
    upper half of the grid, in a Python loop over Python ints."""
    pos = slice((len(law) + 1) // 2, None)
    return 2 * sum(num * iv**k for iv, num in zip(law._values[pos].tolist(),
                                                   law._nums[pos].tolist()))


def second_moment(law: SymmetricAtomLaw) -> Scalar:
    """E X^2, exact (Fraction) when the support is rational."""
    if law.is_rational:
        return _exact_power_sum(law, 2)
    vals = law.values_float()
    return float(np.dot(law.masses_float(), vals * vals))


def sum_even_moment(laws: Sequence[SymmetricAtomLaw], weights: Sequence[Scalar],
                    k: int) -> Scalar:
    """E S^k of S = sum_i weights[i] X_i, independent X_i ~ laws[i], for
    even k >= 0, from the summands' moments and with no convolution, so no
    support guard applies.  Exact (Fraction) when every weight and law is
    rational, a float otherwise.  See `_even_moment_prefixes`."""
    *_, last = _even_moment_prefixes(laws, weights, k)
    num, den = last[k // 2]
    return num if isinstance(num, float) else Fraction(num, den)


def _even_moment_prefixes(laws: Sequence[SymmetricAtomLaw], weights: Sequence[Scalar],
                          k: int):
    """[E S^0, E S^2, ..., E S^k] for each prefix sum S of
    sum_i weights[i] X_i in turn, k even, each moment as a pair
    (numerator, denominator): Python ints when every weight and law is
    rational, else a float over 1.

    The summands are symmetric, so their odd moments vanish and
    E (S + w X)^(2i) = sum_j C(2i, 2j) E S^(2i-2j) w^(2j) E X^(2j); each
    distinct law's E X^(2j) is taken once.  Rational inputs run this on
    integers: on the common scale C of `_common_scale`, C w X takes the
    integer values m V / g, so E (C w X)^(2j) times the law's mass
    denominator is the integer m^(2j) sum num (V / g)^(2j), and
    E (C S)^(2i) times the product D of the prefix's mass denominators is
    an integer; E S^(2i) is that integer over D C^(2i).  Other inputs run
    the same recursion on floats, with C = D = 1 and w in place of m.
    """
    if k < 0 or k % 2:
        raise ValueError(f"k must be even and nonnegative, got {k!r}")
    laws = list(laws)
    if len(laws) != len(weights) or not laws:
        raise ValueError(f"need equal, nonzero numbers of laws and weights, got "
                         f"{len(laws)} and {len(weights)}")
    exact = _exact_inputs(laws, weights)
    if exact:
        scale, mults, gcds = _common_scale(laws, weights)
    else:
        scale, mults, gcds = 1, [float(w) for w in weights], [None] * len(laws)
    cache: dict[int, list] = {}
    moments, den = [1] + [0] * (k // 2), 1
    for law, m, g in zip(laws, mults, gcds):
        xm = cache.get(id(law))
        if xm is None:
            xm = cache[id(law)] = (
                [law._den] + [_power_sum(law, j) // (g or 1) ** j for j in range(2, k + 1, 2)]
                if exact else [1.0] + [abs_moment(law, j).value for j in range(2, k + 1, 2)])
        wx = [(m**2) ** j * x for j, x in enumerate(xm)]
        moments = [sum(math.comb(2 * i, 2 * j) * moments[i - j] * wx[j] for j in range(i + 1))
                   for i in range(len(moments))]
        den *= law._den if exact else 1
        yield [(x, den * scale ** (2 * i)) for i, x in enumerate(moments)]


def first_abs_moment(law: SymmetricAtomLaw) -> Scalar:
    """E |X|, exact when the support is rational."""
    if law.is_rational:
        return _exact_power_sum(law, 1)
    return float(np.dot(law.masses_float(), np.abs(law.values_float())))


def _exact_inputs(laws, weights) -> bool:
    """Whether every weight and every law's support is rational, so that
    weighted sums stay on an integer grid."""
    return (all(isinstance(w, Rational) and not isinstance(w, bool) for w in weights)
            and all(law.is_rational for law in laws))


def _common_scale(laws: Sequence[SymmetricAtomLaw], weights: Sequence[Scalar]):
    """(scale, mults, gcds) putting every weighted summand of rational
    inputs on one integer grid: a law's values are V / s, V its integer grid
    with gcd g, and w = a / b, so the products w V / s have lowest common
    denominator d / gcd(d, a g) with d = b s; `scale` is the lcm of those,
    and on it the summand's values are V / g times the integer
    mult = a g scale / d."""
    fracs = [Fraction(w) for w in weights]
    gcds = [math.gcd(*law._values.tolist()) for law in laws]
    dens = [w.denominator * law._scale for law, w in zip(laws, fracs)]
    scale = math.lcm(*(d // math.gcd(d, w.numerator * g) for d, w, g in zip(dens, fracs, gcds)))
    mults = [w.numerator * g * scale // d for d, w, g in zip(dens, fracs, gcds)]
    return scale, mults, gcds


def convolve_weighted(laws: Sequence, weights: Sequence[Scalar],
                      max_atoms: int = SUPPORT_GUARD) -> SymmetricAtomLaw:
    """Exact law of sum_i weights[i] * X_i for independent X_i ~ laws[i].

    Each summand becomes a kernel of weighted values with the law's integer
    mass numerators, and `_merge_outer` adds the kernels in order.
    All-rational inputs give integer values on one scale, so the law is
    exact.  Any float weight or float-valued law gives float values with
    exact integer mass numerators: after each summand, every chain of values
    whose gaps are at most MERGE_RTOL * max|value| merges onto its middle
    value, and the result is re-symmetrized by pairing the k-th values from
    both ends; its `merge_shift` bounds how far that, and rounding, moved
    any atom.  A step that would allocate more than max_atoms entries
    (default SUPPORT_GUARD) is rejected before it allocates them.
    """
    laws = list(laws)
    if len(laws) != len(weights):
        raise ValueError(f"got {len(laws)} laws but {len(weights)} weights")
    if not laws:
        raise ValueError("need at least one law")
    rational = _exact_inputs(laws, weights)
    if max_atoms < 1:
        raise ValueError("max_atoms must be positive")
    den = math.prod(law._den for law in laws)
    if rational:
        scale, mults, gcds = _common_scale(laws, weights)
        grids = [law._values // g if g else law._values for law, g in zip(laws, gcds)]
        width = 1 + 2 * sum(int(v[-1]) * abs(m) for v, m in zip(grids, mults))
        if width < _INT64_SAFE:
            offsets = [v.astype(np.int64) * m for v, m in zip(grids, mults)]
        else:
            offsets = [np.array([x * m for x in v.tolist()], dtype=object)
                       for v, m in zip(grids, mults)]
        values, nums, _ = _merge_outer(list(zip(offsets, (law._nums for law in laws))),
                                       den, None, max_atoms)
        return SymmetricAtomLaw._from_grid(values, nums, den, scale)
    values, nums, shift = _merge_outer(
        [(float(w) * law.values_float(), law._nums) for law, w in zip(laws, weights)],
        den, MERGE_RTOL, max_atoms)
    # Re-symmetrize: the k-th values from both ends become -+ half their
    # gap, each carrying the mean of their masses; a value moves by half
    # its pair's asymmetry.
    shift += float(np.abs(values + values[::-1]).max()) / 2.0
    return SymmetricAtomLaw._from_grid((values - values[::-1]) / 2.0, nums + nums[::-1],
                                       2 * den, None, shift)


def _merge_outer(kernels, den: int, rtol: float | None, max_atoms: int):
    """Sorted values and mass numerators over `den` of a sum of independent
    summands, each given as (values, mass numerators), and a bound on how
    far the float steps moved any value (0.0 without `rtol`).

    Each step adds one summand and reduces its sums to distinct values
    through whichever array is smaller.  Integer values (no `rtol`) whose
    span is at most the outer size use a dense grid over that span: one
    side (the previous step or the kernel), spread over its own span, is
    added in shifted slices, one per atom of the other side, whichever side
    costs fewer cell adds, and the nonzero cells are kept.  Other steps take
    outer sums and products, sort stably and add up the numerators of equal
    values; with `rtol` (float values), each chain of distinct values whose
    gaps are at most rtol * max|value| then merges onto its middle value,
    moving each value by at most its chain's span; with the rounding of
    the step's products and sums, under 2 eps max|value|, these moves add
    up over the steps.
    Numerators are int64 below _INT64_SAFE, Python ints above.  A step whose
    array, min(outer size, span) for integers and the outer size for
    floats, would exceed max_atoms is rejected before it is allocated.
    """
    values = np.zeros(1, dtype=kernels[0][0].dtype)
    nums = np.ones(1, dtype=np.int64 if den < _INT64_SAFE else object)
    shift = 0.0
    for k_values, k_nums in kernels:
        size = len(values) * len(k_values)
        span = size + 1  # float values have no grid, so only integer steps go dense
        if rtol is None:
            lo, k_lo = values[0], k_values.min()
            span = int(values[-1] - lo + k_values.max() - k_lo) + 1
        need = min(size, span)
        if need > max_atoms:
            raise ValueError(f"projected support of {need} atoms exceeds the guard of {max_atoms}")
        if span <= size:
            # spread one side over its own span and add it in shifted
            # slices, one per atom of the other, whichever costs fewer cell
            # adds, counting _SLICE_CELLS per slice.  A kernel's values
            # repeat when its weight is 0, hence add.at.
            spread, slices = (values - lo, nums), (k_values - k_lo, k_nums)
            if len(values) * (int(k_values.max() - k_lo) + 1 + _SLICE_CELLS) < \
                    len(k_values) * (int(values[-1] - lo) + 1 + _SLICE_CELLS):
                spread, slices = slices, spread
            dense = np.zeros(int(spread[0].max()) + 1, dtype=nums.dtype)
            np.add.at(dense, spread[0].astype(np.intp), spread[1])
            grid = np.zeros(span, dtype=nums.dtype)
            for o, num in zip(*(x.tolist() for x in slices)):
                grid[o: o + len(dense)] += dense * num
            cells = np.flatnonzero(grid)
            # keep the kernels' dtype: object values must not turn int64 here
            values, nums = cells.astype(k_values.dtype) + (lo + k_lo), grid[cells]
            continue
        values = np.add.outer(values, k_values).ravel()
        nums = np.multiply.outer(nums, k_nums).ravel()
        order = np.argsort(values, kind="stable")
        values, nums = values[order], nums[order]
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        values, nums = values[starts], np.add.reduceat(nums, starts)
        if rtol is not None:
            top = max(np.abs(values).max(), 1e-300)
            chains = np.flatnonzero(np.concatenate(([True], np.diff(values) > rtol * top)))
            ends = np.append(chains[1:], len(values))
            shift += float((values[ends - 1] - values[chains]).max()) + 2.0 * _EPS * top
            values, nums = values[(chains + ends) // 2], np.add.reduceat(nums, chains)
    return values, nums, shift


class MomentMethod(str, Enum):
    EXACT_RATIONAL = "exact-rational"
    FLOAT = "float"


@dataclass(frozen=True)
class MomentValue:
    """An absolute moment with its computation mode and error bound.

    `exact` carries the full rational when method is exact; `abs_error` is 0
    in that case and a summation rounding bound otherwise.  An exact moment
    past the float range has value inf; `moment_root` still takes its root.
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


def _exact_moment(exact: Fraction) -> MomentValue:
    """An exact moment, with value inf where float(exact) would overflow."""
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    return MomentValue(value, MomentMethod.EXACT_RATIONAL, 0.0, exact)


def ratio_root(num: int, den: int, p: int) -> float:
    """(num / den)^(1/p) for integers num >= 0, den > 0 and p >= 1, from
    integers alone, so any size of num and den works: with
    r = floor((num 2^(pe) / den)^(1/p)), e the smallest shift >= 0 that
    gives r at least 64 bits, the root is r 2^-e, rounded twice (within
    one ulp).  A root past the float range raises OverflowError.
    """
    if num == 0:
        return 0.0
    e = max(64 - (num.bit_length() - den.bit_length()) // p, 0)
    n = (num << (p * e)) // den
    # Newton's iteration for the floor of the p-th root falls monotonically
    # from any start above it; the float estimate is within 1e-12 of the
    # root, so start just above it and take two or three steps
    r = int(2.0 ** (math.log2(n) / p) * (1.0 + 1e-9)) + 1
    while True:
        nxt = ((p - 1) * r + n // r ** (p - 1)) // p
        if nxt >= r:
            return math.ldexp(float(r), -e)
        r = nxt


def moment_root(m: MomentValue, p) -> float:
    """(E|S|^p)^(1/p) of a moment: the float value to the power 1/p, and for
    an exact moment `ratio_root` of its rational, which goes on past the
    float range."""
    if m.exact is None:
        return m.value ** (1.0 / float(p))
    return ratio_root(m.exact.numerator, m.exact.denominator, int(p))


def abs_moment(law: SymmetricAtomLaw, p) -> MomentValue:
    """E |X|^p for a law.

    p >= 1.  Rational support with integer p gives an exact rational result;
    any other case is an exactly-rounded float sum with the rounding bound
    n_atoms * eps * sum(mass * |value|^p).
    """
    pf = _moment_order(p)
    if law.is_rational and pf == int(pf):
        return _exact_moment(_exact_power_sum(law, int(pf)))
    vals = law.values_float()
    masses = law.masses_float()
    terms = masses * np.abs(vals) ** pf
    total = math.fsum(terms.tolist())
    bound = len(terms) * np.finfo(float).eps * math.fsum(np.abs(terms).tolist())
    return MomentValue(total, MomentMethod.FLOAT, bound)


def _moment_order(p) -> float:
    """p as a float, for a finite p >= 1."""
    pf = float(p)
    if not (1.0 <= pf < math.inf):
        raise ValueError(f"p must be finite and satisfy p >= 1, got {p!r}")
    return pf


def sum_abs_moment(laws: Sequence[SymmetricAtomLaw], weights: Sequence[Scalar],
                   p) -> MomentValue:
    """E |S|^p of S = sum_i weights[i] X_i for independent X_i ~ laws[i].

    Rational inputs at integer p never build the law of S.  At even p up
    to _RECURSION_MAX_P the moment comes from the summands
    (`sum_even_moment`), with no convolution and no support guard.  Above
    it, and at every odd p, the summands split at one point into two halves
    whose atom-count products are as close as possible; each half is
    convolved on its own, under the support guard, and `_moment_of_pair`
    combines the two half laws.  An even p whose halves have an atom-count
    product past SUPPORT_GUARD keeps the recursion instead.  Every other
    case, including a single summand past the recursion or at odd p, is
    `abs_moment` of the convolved law.
    """
    pf = _moment_order(p)
    laws, weights = list(laws), list(weights)
    if pf == int(pf) and _exact_inputs(laws, weights):
        k, halves = _split_point([len(law) for law in laws])
        if pf % 2 == 0 and (pf <= _RECURSION_MAX_P or halves > SUPPORT_GUARD):
            return _exact_moment(sum_even_moment(laws, weights, int(pf)))
        if k:
            return _exact_moment(_moment_of_pair(convolve_weighted(laws[:k], weights[:k]),
                                                 convolve_weighted(laws[k:], weights[k:]),
                                                 int(pf)))
    return abs_moment(convolve_weighted(laws, weights), p)


def equal_weight_ratio_sequence(law: SymmetricAtomLaw, p: float, n_max: int) -> list[float]:
    """Ratios ||S_n||_p / ||S_n||_2 for equal weights, n = 1..n_max.

    Under the Gaussian comparison bound these increase toward the Gaussian
    norm, approaching it as the CLT kicks in.  E S_n^2 = n E X^2, and at
    even p up to _RECURSION_MAX_P on a rational law E S_n^p too, come from
    the summands' moments.  At other integer p on a rational law the prefix
    laws S_k = S_(k-1) + X are built only up to S_ceil(n_max/2), and
    E |S_n|^p is the pair kernel on S_ceil(n/2) and S_floor(n/2)
    (`_moment_of_pair`).  Other cases build every prefix law up to S_n_max.
    Exact moments take their roots by `ratio_root`, so a moment past the
    float range still gives its norm.  A law with E X^2 = 0 raises
    ValueError.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    pf = _moment_order(p)
    exact = law.is_rational and pf == int(pf)
    recursion = exact and pf % 2 == 0 and pf <= _RECURSION_MAX_P
    prefixes = _even_moment_prefixes([law] * n_max, [1] * n_max, int(pf) if recursion else 2)
    sums = [make_symmetric_law(1, {})]  # sums[k] is S_k, from S_0 = 0
    for _ in range(0 if recursion else (n_max + 1) // 2 if exact else n_max):
        sums.append(convolve_weighted([sums[-1], law], [1, 1]))
    out = []
    for n, moments in enumerate(prefixes, start=1):
        num, den = moments[1]
        if num == 0:
            raise ValueError("law is degenerate at zero")
        if recursion:
            norm = ratio_root(*moments[-1], int(pf))
        elif exact:
            m_p = _moment_of_pair(sums[(n + 1) // 2], sums[n // 2], int(pf))
            norm = ratio_root(m_p.numerator, m_p.denominator, int(pf))
        else:
            norm = abs_moment(sums[n], p).value ** (1.0 / pf)
        out.append(norm / math.sqrt(num / den))
    return out


def _split_point(sizes: Sequence[int]) -> tuple[int, int]:
    """The k in 1..n-1 whose prefix sizes[:k] and suffix sizes[k:] have
    products as close as possible (the first such k), and the larger of
    those two products; (0, 0) for n < 2."""
    total, prefix = math.prod(sizes), [1]
    for s in sizes:
        prefix.append(prefix[-1] * s)
    return min(((k, max(prefix[k], total // prefix[k])) for k in range(1, len(sizes))),
               key=lambda split: split[1], default=(0, 0))


def _moment_of_pair(x: SymmetricAtomLaw, y: SymmetricAtomLaw, p: int) -> Fraction:
    """E |X + Y|^p for independent rational laws X and Y and integer p >= 1,
    without the law of X + Y.

    On one integer scale, let T_j and T'_j be the sums num v^j over all
    atoms of Y and of X (T_0 and T'_0 are the mass denominators).  At even
    p the odd moments vanish, so sum_{a, b} n_a n_b (a + b)^p is
    sum_{even j <= p} C(p, j) T_j T'_(p-j): (p/2 + 1) power sums of each
    law and no pass over their pairs.

    At odd p this is the meet-in-the-middle split of Horowitz and Sahni
    ("Computing partitions with applications to the knapsack problem",
    JACM 21, 1974).  Let a > 0 run over the atoms of X with numerators
    n_a, n_0 its zero numerator, and c > 0 over those of Y with numerators
    n_c.  For odd p, |t|^p = t^p - 2 t^p [t < 0]; the odd moments of Y
    vanish and Y is symmetric, so with R_i = sum_c n_c c^i,
    T_0 = den Y, T_j = 2 R_j for even j > 0, and Q_m = sum_a n_a a^m,

        sum_{a, b} n_a n_b |a + b|^p = 2 n_0 R_p
            + 2 sum_{even j < p} C(p, j) T_j Q_(p-j) + 4 K,
        K = sum_{a < c} n_a n_c (c - a)^p
          = sum_m C(p, m) (-1)^m sum_c n_c c^(p-m) Q_m(c),

    where Q_m(c) sums n_a a^m over a < c only (atoms with a + b = 0 add 0
    either way).  X + Y and Y + X have one law, so X is the law with more
    atoms, which costs fewer operations per atom here.  `np.searchsorted`
    finds how many a lie below each c; the a and c then run in their merged
    order, in blocks of at most _SPLIT_BLOCK atoms.  Each block takes one
    cumulative sum of n_a a^m along its a for each m, reads Q_m(c) off it,
    and adds the running totals of the blocks before it.  The sums run in
    Python ints (numpy object arrays), and one Fraction is built at the end.
    """
    if p % 2 == 0:
        scale = math.lcm(x._scale, y._scale)
        tx, ty = ([law._den] + [_power_sum(law, j) * (scale // law._scale) ** j
                                for j in range(2, p + 1, 2)] for law in (x, y))
        total = sum(math.comb(p, 2 * i) * ty[i] * tx[p // 2 - i] for i in range(p // 2 + 1))
        return Fraction(total, x._den * y._den * scale**p)
    if len(x) < len(y):
        x, y = y, x
    scale = math.lcm(x._scale, y._scale)
    a, na, n0 = _positive_atoms(x, scale // x._scale)
    c, nc, _ = _positive_atoms(y, scale // y._scale)
    if a.dtype != c.dtype:  # search in one dtype: Python ints if either needs them
        a, c = a.astype(object), c.astype(object)
    below = np.searchsorted(a, c)
    at = below + np.arange(len(c))  # the c's places in the merged order
    q, cross, r = [0] * (p + 1), [0] * (p + 1), [0] * (p + 1)
    for k0 in range(0, len(a) + len(c), _SPLIT_BLOCK):
        j0, j1 = np.searchsorted(at, (k0, k0 + _SPLIT_BLOCK))
        i0, i1 = k0 - j0, min(k0 + _SPLIT_BLOCK - j1, len(a))
        av, cv, at_c = a[i0:i1].astype(object), c[j0:j1].astype(object), below[j0:j1] - i0
        weighted = [nc[j0:j1].astype(object)]  # n_c c^i, i = 0..p
        for i in range(1, p + 1):
            weighted.append(weighted[-1] * cv)
            if i % 2 == 0 or i == p:
                r[i] += int(weighted[i].sum())
        terms = na[i0:i1].astype(object)  # n_a a^m
        prefix = np.empty(i1 - i0 + 1, dtype=object)
        for m in range(p + 1):
            prefix[0], prefix[1:] = q[m], terms  # on top of the blocks before
            np.cumsum(prefix, out=prefix)
            cross[m] += int(np.dot(weighted[p - m], prefix[at_c]))
            q[m] = int(prefix[-1])
            if m < p:
                terms = terms * av
    k = sum((-1) ** m * math.comb(p, m) * cross[m] for m in range(p + 1))
    # T_0 = den Y, and T_j = 2 R_j at even j > 0
    even = sum(math.comb(p, j) * (2 * r[j] if j else y._den) * q[p - j] for j in range(0, p, 2))
    return Fraction(2 * n0 * r[p] + 2 * even + 4 * k, x._den * y._den * scale**p)


def _positive_atoms(law: SymmetricAtomLaw, mult: int):
    """(values times mult, mass numerators) of a rational law's positive
    atoms, and the numerator of its zero atom.  Values stay int64 while
    they fit, as in `_int_array`."""
    n = len(law)
    values, nums = law._values[(n + 1) // 2:], law._nums[(n + 1) // 2:]
    if len(values) and values.dtype == np.int64 and int(values[-1]) * mult < _INT64_SAFE:
        values = values * mult
    else:
        values = np.array([v * mult for v in values.tolist()], dtype=object)
    return values, nums, int(law._nums[n // 2]) if n % 2 else 0


def weighted_sum_norm(weights: Sequence[Scalar], law: SymmetricAtomLaw, p) -> MomentValue:
    """p-norm (E |sum_i w_i X_i|^p)^(1/p) of an iid weighted sum.

    The method tag is inherited from the underlying moment; for the exact
    method the root is `moment_root` of the exact moment, also past the
    float range, and abs_error stays 0 (`ratio_root` bounds its rounding).
    """
    m = sum_abs_moment([law] * len(weights), weights, p)
    pf = float(p)
    root = moment_root(m, p)
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
