"""Measure models on [0,1]: Lebesgue and the middle-half Cantor measure.

The Cantor measure mu4 is the unique probability measure invariant under
the two affine maps s0(x) = x/4 and s1(x) = (x + 2)/4 with equal weights,

    integral f dmu4 = 1/2 * ( integral f(x/4) dmu4 + integral f((x+2)/4) dmu4 ).

Refining d times yields 2^d cells (images of [0,1] under length-d words in
{s0, s1}), each an interval of width 4^{-d} carrying mass 2^{-d}.  All cell
endpoints are dyadic rationals, hence exact in double precision.

Quadrature uses the left endpoint of each cell as the representative; for
mu4 every such endpoint lies in the support, and the error for Lipschitz
integrands is bounded by the cell width.

Everything that tells the two measures apart lives here: `cells` builds
the partition and `cdf` is the one CDF of each measure, evaluated on an
array in one call.  Interval masses (`measure_of_intervals`, the overlap
kernel) are differences of `cdf` values.

The module also carries the integer spectrum Lambda4 = {integers whose
base-4 digits are 0 or 1}: the exponentials e(lam * t) = exp(2*pi*i*lam*t)
indexed by Lambda4 are orthonormal in L2(mu4), which `fourier_gram`
verifies by quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CellMisalignmentError, OutOfDomainError

# cells() materializes 2^resolution intervals; beyond this the arrays no
# longer fit in desk-scale memory.
MAX_RESOLUTION = 26

_CDF_DIGIT_CAP = 64
_ORACLE_DEPTH = 10  # mu4_fourier's quadrature resolution: 2^10 cells
# per base-4 digit of the CDF walk: what it adds to acc, in units of w,
# and whether the walk goes on
_DIGIT_GAIN = np.array([0.0, 0.5, 0.5, 1.0])
_DIGIT_GOES_ON = np.array([True, False, True, False])


# the measure kinds, in the order the CLI offers them
KINDS = ("lebesgue", "cantor4")


@dataclass(frozen=True)
class MeasureModel:
    """A measure on [0,1]: kind is one of KINDS, "lebesgue" or "cantor4".

    Only this module reads `kind`; everything else partitions through
    `cells` and measures through `cdf`.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measure kind: {self.kind!r}")


def lebesgue() -> MeasureModel:
    return MeasureModel("lebesgue")


def cantor4() -> MeasureModel:
    return MeasureModel("cantor4")


@dataclass(frozen=True)
class PartitionCells:
    """Disjoint intervals [lefts[i], rights[i]] with masses summing to 1."""

    lefts: np.ndarray
    rights: np.ndarray
    masses: np.ndarray

    @property
    def reps(self) -> np.ndarray:
        """Quadrature representatives: the left endpoint of each cell."""
        return self.lefts

    def __len__(self):
        return self.lefts.size

    def inside(self, intervals) -> np.ndarray:
        """Indices of cells wholly inside the union of disjoint `intervals`.

        Raises CellMisalignmentError if any cell partially overlaps the
        union (cells must be wholly in or wholly out).
        """
        width = self.rights - self.lefts
        overlap = np.zeros(len(self))
        for a, b in intervals:  # intervals disjoint, so overlaps with the union add up
            lo = np.maximum(self.lefts, a)
            hi = np.minimum(self.rights, b)
            overlap += np.maximum(0.0, hi - lo)
        inside = overlap >= width * (1.0 - 1e-12)
        partial = ~inside & (overlap > width * 1e-12)
        if np.any(partial):
            k = int(np.argmax(partial))
            resolution = len(self).bit_length() - 1  # 2^resolution cells
            raise CellMisalignmentError(
                f"cell [{self.lefts[k]}, {self.rights[k]}] partially overlaps the set; "
                f"sets must be unions of whole cells at resolution {resolution}"
            )
        return np.flatnonzero(inside)


def cells(m: MeasureModel, resolution: int) -> PartitionCells:
    """Partition cells of `m` at the given refinement level.

    lebesgue: 2^resolution uniform dyadic cells of mass 2^-resolution.
    cantor4:  images of [0,1] under all length-`resolution` words in the
              IFS maps {x/4, (x+2)/4}, each of width 4^-resolution and
              mass 2^-resolution, in ascending order.
    """
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution {resolution} exceeds cap {MAX_RESOLUTION}")
    n = 1 << resolution
    mass = np.full(n, 0.5 ** resolution)
    if m.kind == "lebesgue":
        lefts = np.arange(n) * (0.5 ** resolution)
        rights = lefts + 0.5 ** resolution
    else:
        lefts = np.zeros(1)
        for _ in range(resolution):
            # each existing cell [l, .] spawns s0 -> l/4 and s1 -> l/4 + 1/2
            # (lefts below 1/4, then lefts at 1/2 and above: already ascending)
            lefts = np.concatenate([lefts / 4.0, lefts / 4.0 + 0.5])
        rights = lefts + 4.0 ** -resolution
    return PartitionCells(lefts=lefts, rights=rights, masses=mass)


def _unit_points(x) -> np.ndarray:
    """x as a float array; OutOfDomainError unless every x is in [0, 1]."""
    x = np.array(x, dtype=float)
    inside = (0.0 <= x) & (x <= 1.0)  # False for NaN
    if not inside.all():
        raise OutOfDomainError(f"points must satisfy 0 <= x <= 1, got {x[~inside].flat[0]}")
    return x


def cdf(m: MeasureModel, x) -> np.ndarray:
    """mu([0, x]) elementwise, as a float array of x's shape.

    Every x must lie in [0, 1]; anything else, NaN included, raises
    OutOfDomainError.  lebesgue: the identity.  cantor4: the "devil's
    staircase", nondecreasing, continuous and flat on the gaps of the
    support, by a base-4 digit walk run on the whole array:
    acc=0, w=1; per digit d: d=0 -> w/=2; d=1 -> acc+=w/2, stop;
    d=2 -> acc+=w/2, w/=2; d=3 -> acc+=w, stop; also stop when no digits
    remain.  On doubles 4x, its integer part and their difference are
    exact, so the digits are those of x itself; w is 2^-k at the k-th
    digit of every walk still running.  The walk is capped at 64 digits;
    the remaining uncertainty is then at most 2^-64.
    """
    x = _unit_points(x)
    if m.kind == "lebesgue":
        return x
    out = np.array(x == 1.0, dtype=float)  # 0.0 where the walk has no digits
    flat = out.reshape(-1)  # a view: the walk writes through it
    live = np.flatnonzero((x > 0.0) & (x < 1.0))
    frac = x.reshape(-1)[live]
    acc = np.zeros(live.size)
    w = 1.0
    for _ in range(_CDF_DIGIT_CAP):
        if not live.size:
            break
        frac *= 4.0
        d = frac.astype(np.intp)
        frac -= d
        acc += w * _DIGIT_GAIN[d]
        flat[live] = acc
        go = _DIGIT_GOES_ON[d] & (frac != 0.0)
        live, frac, acc = live[go], frac[go], acc[go]
        w *= 0.5
    return out


def measure_of_intervals(m: MeasureModel, intervals) -> float:
    """Measure of a finite union of disjoint intervals [(a,b), ...].

    Each interval is clipped to [0, 1].  Both models are non-atomic, so
    mu([a,b]) = cdf(b) - cdf(a).  An interval with a > b or a NaN endpoint
    raises ValueError.
    """
    ends = np.array(intervals, dtype=float).reshape(-1, 2)
    ordered = ends[:, 0] <= ends[:, 1]  # False for NaN
    if not np.all(ordered):
        a, b = ends[~ordered][0]
        raise ValueError(f"interval [{a}, {b}] is not an interval a <= b")
    total = 0.0
    for fa, fb in cdf(m, np.clip(ends, 0.0, 1.0)).tolist():
        total += fb - fa
    return total


@dataclass(frozen=True)
class SpectrumSet:
    """Ascending nonnegative integers whose base-4 digits are all 0 or 1."""

    values: np.ndarray = field()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", vals)
        for v in vals:
            if not is_lambda4(int(v)):
                raise ValueError(f"{v} is not in Lambda4 (base-4 digits must be 0/1)")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("spectrum values must be strictly ascending")

    def __len__(self):
        return self.values.size

    def __iter__(self):
        return iter(int(v) for v in self.values)


def is_lambda4(n: int) -> bool:
    """Digit test: True iff every base-4 digit of n is 0 or 1."""
    if n < 0:
        return False
    while n:
        if n % 4 > 1:
            return False
        n //= 4
    return True


def lambda4(limit: int) -> SpectrumSet:
    """All spectrum elements < limit, ascending.

    Enumeration counts k = 0, 1, 2, ... in binary and reinterprets the
    bits of k as base-4 digits; the map is a strictly increasing bijection
    onto the spectrum, so ascending order comes for free.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out = []
    k = 0
    while True:
        lam, bits, place = 0, k, 1
        while bits:
            if bits & 1:
                lam += place
            bits >>= 1
            place *= 4
        if lam >= limit:
            break
        out.append(lam)
        k += 1
    return SpectrumSet(np.array(out, dtype=np.int64))


def generating_function(s: complex, trunc: int):
    """Partial product and partial sum of F(s) = sum over the spectrum of s^lam.

    Returns (product_value, sum_value, gap_bound) where

      product_value = prod_{n<trunc} (1 + s^(4^n)),
      sum_value     = sum of s^lam over spectrum elements lam < 4^trunc,
      gap_bound     >= |F(s) - product_value|.

    The two partial evaluations are equal in exact arithmetic (expanding
    the product enumerates exactly the digit subsets below 4^trunc).  The
    gap bound uses F(s) = product * F(s^(4^trunc)) and
    |F(u) - 1| <= |u|/(1-|u|).

    Cost of the sum is 2^trunc terms.
    """
    s = complex(s)
    if not abs(s) < 1.0:
        raise OutOfDomainError(f"generating_function requires |s| < 1, got |s|={abs(s)}")
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    prod = 1.0 + 0.0j
    for n in range(trunc):
        prod *= 1.0 + s ** (4 ** n)
    total = 0.0 + 0.0j
    for lam in lambda4(4 ** trunc):
        total += s ** lam
    q = abs(s) ** (4 ** trunc)  # < 1 as |s| < 1; underflows to 0 for large trunc
    gap = abs(prod) * q / (1.0 - q)
    return prod, total, gap


@dataclass(frozen=True)
class Mu4Fourier:
    """Both readings of the mu4 Fourier transform at one frequency.

    `product_value` is the truncated product (1/2)^N * prod(1 + e^{i pi t / 4^k}),
    k = 1..N, exactly as displayed in the source's transform formula.
    `quadrature_value` is the direct quadrature of e^{2 pi i t x} dmu4(x).
    The two use different frequency conventions and genuinely disagree at
    generic t; the pair is reported as-is rather than reconciled.
    """

    product_value: complex
    quadrature_value: complex

    @property
    def difference(self) -> float:
        return abs(self.product_value - self.quadrature_value)


def mu4_fourier(t: float, trunc: int) -> Mu4Fourier:
    """Truncated transform product at t, plus the quadrature oracle.

    The oracle is `integrate` at resolution 10 (`_ORACLE_DEPTH`), over the
    2^10 cells of mu4.  A NaN or infinite t raises OutOfDomainError.
    """
    if not math.isfinite(t):
        raise OutOfDomainError(f"frequency t must be finite, got {t}")
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    prod = 1.0 + 0.0j
    for k in range(1, trunc + 1):
        prod *= 0.5 * (1.0 + cmath.exp(1j * math.pi * t / 4 ** k))
    quad = integrate(cantor4(), lambda x: np.exp(2j * np.pi * t * x), _ORACLE_DEPTH)
    return Mu4Fourier(product_value=prod, quadrature_value=complex(quad))


def integrate(m: MeasureModel, f, resolution: int):
    """Left-endpoint quadrature: sum of mass_i * f(rep_i) over the cells.

    `f` is called once with the vector of representatives, so it must be
    vectorized (a constant it returns broadcasts).  Summation is numpy's
    fixed pairwise reduction, so results are deterministic.
    """
    c = cells(m, resolution)
    return np.sum(c.masses * f(c.reps))


def fourier_gram(lams, resolution: int, allow_any: bool = False):
    """Gram matrix of the exponentials e(lam*t) in L2(mu4), by quadrature.

    Entries (i,j) = <e(lams[i] t), e(lams[j] t)> with the conjugation on
    the first slot, i.e. quadrature of e((lams[j]-lams[i]) t) dmu4.  For
    spectrum frequencies this approaches the identity as the resolution
    grows.  Off-spectrum frequencies are rejected unless allow_any=True
    (useful to demonstrate the failure of orthogonality off the spectrum).

    Diagonal entries are the total mass, exactly 1.0.  Returns a
    GramMatrix in the order of lams.
    """
    from .kernels import GramMatrix

    lams = np.asarray(list(lams), dtype=np.int64)
    if not allow_any:
        for v in lams:
            if not is_lambda4(int(v)):
                raise OutOfDomainError(
                    f"frequency {v} is not in the spectrum; pass allow_any=True to force"
                )
    c = cells(cantor4(), resolution)
    phases = np.exp(2j * np.pi * np.outer(lams.astype(float), c.reps))
    g = (phases.conj() * c.masses) @ phases.T
    # exact Hermitian mirror; diagonal = total mass (exactly 1 for dyadic masses)
    g = np.triu(g, 1)
    g = g + g.conj().T
    np.fill_diagonal(g, complex(np.sum(c.masses)))
    return GramMatrix(entries=g)
