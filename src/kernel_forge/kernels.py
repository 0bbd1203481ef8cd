"""Kernel families, point sets, and Gram-matrix assembly.

Families
--------
==================  =========================  =====================================
family              domain                     K(x, y)
==================  =========================  =====================================
brownian-min        reals >= 0                 min(x, y)
brownian-line       all reals                  min(|x|,|y|) if x*y >= 0, else 0
green-1d            open interval (0, 1)       min(x, y) - x*y
shannon             all reals                  sinc(pi (x - y))
szego               open unit disk             1 / (1 - conj(z) w)
cantor-product(N)   open unit disk             prod_{n<N} (1 + (conj(z) w)^(4^n))
drury-arveson(k)    open unit ball of C^k      1 / (1 - sum_j conj(z_j) w_j)
overlap(mu)         finite unions of intervals mu(A intersect B)
==================  =========================  =====================================

Each family is one `Family` record in `FAMILY_TABLE`: the sample-set
tags it accepts (its own domain first), a validator that turns a point
list into an array (one row per point), and one elementwise formula
k(X, Y) over broadcast point arrays.  `gram`, `cross_gram` and
`kernel_diagonal` all evaluate that formula, so a matrix of any size
(one value is the 1 x 1 `cross_gram(spec, [x], [y])`) costs one
vectorized call rather than one Python call per entry.  Each validator's
domain test is True inside the domain, so NaN and +-inf points raise
OutOfDomainError; `gpsim`'s factorization pairs check their grids with
the validator of the family they factor.

The overlap family knows its measure only through `measures.cdf`: each
interval carries the CDF at its two ends, and mu(I intersect J) is a
difference of those values.

Inner products are conjugate-linear in the FIRST argument throughout the
package; every family above satisfies eval(x, y) == conj(eval(y, x)).

The cantor-product family truncates an absolutely convergent infinite
product at N factors; the neglected tail satisfies
|log tail| <= sum_{n>=N} |conj(z)w|^(4^n) <= 2 |conj(z)w|^(4^N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ChainError,
    DomainMismatchError,
    DuplicatePointError,
    OutOfDomainError,
)
from .measures import MeasureModel, cdf

# smallest positive-power magnitude worth multiplying in; below this the
# factor is 1 to double precision
_LOG_TINY = math.log(5e-324)
_PSD_TOL = 1e-8  # validate_psd's eigenvalue floor, in units of matrix_scale


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint closed finite intervals [a_i, b_i], ascending."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for a, b in ivs:
            if not -math.inf < a <= b < math.inf:  # also False for NaN
                raise ValueError(f"interval [{a}, {b}] is not a finite interval a <= b")
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if b1 >= a2:
                raise ValueError("intervals must be pairwise disjoint and ascending")


# ---------------------------------------------------------------------------
# point validators: (spec, point list) -> array with one row per point.
# A point of the wrong shape raises DomainMismatchError, one outside the
# family's domain OutOfDomainError; a list with several bad points reports
# its first shape error before any range error.


def _real_scalar(p, family):
    arr = np.asarray(p)
    if arr.ndim != 0 or np.iscomplexobj(arr) and arr.imag != 0:
        raise DomainMismatchError(f"{family} expects real scalar points, got {p!r}")
    return float(arr.real if np.iscomplexobj(arr) else arr)


def _complex_scalar(p, family):
    arr = np.asarray(p)
    if arr.ndim != 0:
        raise DomainMismatchError(f"{family} expects complex scalar points, got {p!r}")
    return complex(arr)


def _scalars(points, kinds: str, dtype, check_one) -> np.ndarray:
    """1-d array of scalar points.

    A list of plain numbers (numpy dtype kind in `kinds`) converts in one
    call; anything else goes point by point through `check_one`, which
    raises for the first point of the wrong shape.
    """
    try:
        arr = np.asarray(points)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in kinds:
        arr = np.array([check_one(p) for p in points], dtype=dtype)
    return arr.astype(dtype)


def _inside(spec, points, inside, domain: str) -> np.ndarray:
    """points, or OutOfDomainError at the first point where `inside` is False."""
    if not inside.all():
        raise OutOfDomainError(f"{spec.family} requires {domain}, got {points[inside.argmin()]}")
    return points


def _real_line(spec, points) -> np.ndarray:
    x = _scalars(points, "biuf", float, lambda p: _real_scalar(p, spec.family))
    return _inside(spec, x, np.isfinite(x), "finite points")


def _half_line(spec, points) -> np.ndarray:
    x = _real_line(spec, points)
    return _inside(spec, x, x >= 0.0, "x, y >= 0")


def _open_unit_interval(spec, points) -> np.ndarray:
    x = _real_line(spec, points)
    return _inside(spec, x, (0.0 < x) & (x < 1.0), "points strictly inside (0, 1)")


def _disk(spec, points) -> np.ndarray:
    z = _scalars(points, "biufc", complex, lambda p: _complex_scalar(p, spec.family))
    return _inside(spec, z, np.abs(z) < 1.0, "|z| < 1")


def _ball(spec, points) -> np.ndarray:
    vecs = [np.asarray(p, dtype=complex) for p in points]
    if any(v.shape != (spec.dim,) for v in vecs):
        raise DomainMismatchError(
            f"drury-arveson({spec.dim}) expects complex vectors of length {spec.dim}"
        )
    z = np.array(vecs, dtype=complex).reshape(len(vecs), spec.dim)
    return _inside(spec, z, np.sum(np.abs(z) ** 2, axis=1) < 1.0, "sum |z_j|^2 < 1")


def _interval_sets(spec, points) -> np.ndarray:
    """Rows of (a, b, F(a), F(b)) per interval, F the measure's CDF with
    its argument clipped into [0, 1], from one `cdf` call for all ends.

    Sets with fewer intervals than the widest are padded with (inf, -inf,
    F(1), F(0)), an interval that meets nothing.
    """
    if not all(isinstance(p, IntervalSet) for p in points):
        raise DomainMismatchError("overlap expects IntervalSet points")
    counts = np.array([len(p.intervals) for p in points], dtype=np.intp)
    ends = np.full((len(points), max(counts, default=0), 2), (np.inf, -np.inf))
    # a boolean mask fills in row-major order: set by set, interval by interval
    flat = np.reshape([iv for p in points for iv in p.intervals], (-1, 2))
    ends[np.arange(ends.shape[1]) < counts[:, None]] = flat
    return np.concatenate((ends, cdf(spec.measure, np.clip(ends, 0.0, 1.0))), axis=-1)


# ---------------------------------------------------------------------------
# formulas: k(spec, X, Y) elementwise over broadcast arrays of validated
# points (vector-valued points keep their coordinates in the last axis)


def _min(spec, x, y):
    return np.minimum(x, y)


def _min_same_sign(spec, x, y):
    return np.where(x * y >= 0, np.minimum(np.abs(x), np.abs(y)), 0.0)


def _green(spec, x, y):
    return np.minimum(x, y) - x * y


def _sinc(spec, x, y):
    d = x - y
    # exact at integer offsets so that integer Grams are exactly the identity;
    # those offsets divide by 1 instead of 0 and the quotient is discarded
    whole = d == np.floor(d)
    safe = np.where(whole, 1.0, d)
    ratio = np.sin(np.pi * safe) / (np.pi * safe)
    return np.where(whole, np.where(d == 0.0, 1.0, 0.0), ratio)


def _szego(spec, z, w):
    return 1.0 / (1.0 - np.conj(z) * w)


def _truncated_product(spec, z, w):
    u = np.conj(z) * w
    with np.errstate(divide="ignore"):  # u = 0 gives -inf: only the factor 1
        log_mag = np.log(np.abs(u))
    prod = np.ones_like(u)
    power = u  # u^(4^n)
    for n in range(spec.trunc):
        # factors below 5e-324 in magnitude are 1 to double precision
        live = 4.0 ** n * log_mag >= _LOG_TINY
        if not np.any(live):
            break
        prod = np.where(live, prod * (1.0 + power), prod)
        power = power * power
        power = power * power
    return prod


def _drury_arveson(spec, z, w):
    # <z, w> as a stack of 1 x k by k x 1 products: matmul hands each to the
    # BLAS dot routine, which fuses its multiply-adds and so rounds exactly
    # as np.vdot does.  Summing the rounded elementwise products instead can
    # be an ulp off, and 1 / (1 - <z, w>) magnifies that near the sphere.
    dot = np.matmul(np.conj(z)[..., None, :], w[..., :, None])[..., 0, 0]
    return 1.0 / (1.0 - dot)


def _overlap(spec, x, y):
    # the intervals within a set are disjoint, so mu(A intersect B) sums
    # mu(I intersect J) over interval pairs, in the order A's, then B's;
    # for a monotone F, F(max(a, c)) = max(F(a), F(c)) and likewise for min
    total = 0.0
    for i in range(x.shape[-2]):
        a, b, fa, fb = np.moveaxis(x[..., i, :], -1, 0)
        for j in range(y.shape[-2]):
            c, d, fc, fd = np.moveaxis(y[..., j, :], -1, 0)
            meet = np.maximum(a, c) < np.minimum(b, d)
            total = total + np.where(meet, np.minimum(fb, fd) - np.maximum(fa, fc), 0.0)
    return total


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one kernel family.

    tags: SampleSet domain tags the family accepts, the family's own point
        domain first; "{dim}" is filled in from the spec.
    points: validator, (spec, point list) -> array with one row per point.
    formula: k(spec, X, Y) elementwise over broadcast point arrays.
    is_complex: whether kernel values are complex.
    param: the KernelSpec field the family needs, if any.
    """

    tags: tuple
    points: Callable
    formula: Callable
    is_complex: bool = False
    param: Optional[str] = None


FAMILY_TABLE = {
    "brownian-min": Family(("real-line", "unit-interval"), _half_line, _min),
    "brownian-line": Family(("real-line",), _real_line, _min_same_sign),
    "szego": Family(("complex-disk",), _disk, _szego, is_complex=True),
    "cantor-product": Family(
        ("complex-disk",), _disk, _truncated_product, is_complex=True, param="trunc"
    ),
    "shannon": Family(("real-line",), _real_line, _sinc),
    "drury-arveson": Family(
        ("complex-vector({dim})",), _ball, _drury_arveson, is_complex=True, param="dim"
    ),
    "overlap": Family(("interval-set",), _interval_sets, _overlap, param="measure"),
    "green-1d": Family(("unit-interval", "real-line"), _open_unit_interval, _green),
}

FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its parameters.

    trunc: number of product factors (cantor-product only), >= 1.
    dim: ambient complex dimension (drury-arveson only), >= 1.
    measure: the MeasureModel backing the overlap kernel.
    """

    family: str
    trunc: Optional[int] = None
    dim: Optional[int] = None
    measure: Optional[MeasureModel] = None

    def __post_init__(self):
        if self.family not in FAMILY_TABLE:
            raise ValueError(f"unknown kernel family: {self.family!r}")
        param = FAMILY_TABLE[self.family].param
        if param == "measure":
            if self.measure is None:
                raise ValueError(f"{self.family} needs a MeasureModel")
        elif param is not None:
            value = getattr(self, param)
            if value is None or value < 1:
                raise ValueError(f"{self.family} needs {param} >= 1")

    @property
    def is_complex(self) -> bool:
        return FAMILY_TABLE[self.family].is_complex


def brownian_min() -> KernelSpec:
    return KernelSpec("brownian-min")


def brownian_line() -> KernelSpec:
    return KernelSpec("brownian-line")


def szego() -> KernelSpec:
    return KernelSpec("szego")


def cantor_product(trunc: int = 8) -> KernelSpec:
    return KernelSpec("cantor-product", trunc=trunc)


def shannon() -> KernelSpec:
    return KernelSpec("shannon")


def overlap(measure: MeasureModel) -> KernelSpec:
    return KernelSpec("overlap", measure=measure)


@dataclass(frozen=True)
class SampleSet:
    """Ordered distinct points, optionally with a nested chain of levels.

    chain, when given, is a list of point lists F1 c F2 c ... with strict
    nesting; the union of the chain equals `points`.  `chain_keys` holds
    the `point_key` of every chain point, level by level, as computed for
    that check; it takes no part in equality.
    """

    points: list
    domain: Optional[str] = None
    chain: Optional[list] = None
    chain_keys: Optional[list] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = list(self.points)
        object.__setattr__(self, "points", pts)
        keys = [point_key(p) for p in pts]
        if len(set(keys)) != len(keys):
            raise DuplicatePointError("sample set contains duplicate points")
        if self.chain is not None:
            levels = [list(level) for level in self.chain]
            object.__setattr__(self, "chain", levels)
            chain_keys = [[point_key(p) for p in level] for level in levels]
            object.__setattr__(self, "chain_keys", chain_keys)
            prev = set()
            for level_keys in chain_keys:
                cur = set(level_keys)
                if len(cur) != len(level_keys):
                    raise DuplicatePointError("chain level contains duplicate points")
                if not prev < cur:
                    raise ChainError("chain levels must be strictly nested")
                prev = cur
            if prev != set(keys):
                raise ChainError("union of chain levels must equal the point set")

    def __len__(self):
        return len(self.points)


def point_key(p):
    """Hashable exact-equality key for a point of any supported shape."""
    if isinstance(p, IntervalSet):
        return ("iset", p.intervals)
    arr = np.asarray(p)
    if arr.ndim == 0:
        return complex(arr)
    return ("vec", tuple(complex(v) for v in arr.ravel()))


def as_sample_set(points) -> SampleSet:
    if isinstance(points, SampleSet):
        return points
    return SampleSet(points=list(points))


@dataclass(frozen=True)
class GramMatrix:
    """n x n Hermitian kernel matrix over n distinct points.

    entries is float64 for real families and complex128 otherwise.  The
    family formula is evaluated once over the n x n broadcast of the
    points; the strict lower triangle is then overwritten with the
    conjugate of the strict upper one and the diagonal of a complex family
    with its real part, so Hermitian symmetry is bitwise exact.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_tag(spec: KernelSpec, tag: Optional[str]):
    if tag is None:
        return
    accepted = [t.format(dim=spec.dim) for t in FAMILY_TABLE[spec.family].tags]
    if tag not in accepted:
        raise DomainMismatchError(
            f"points tagged {tag!r} cannot feed the {spec.family} kernel"
        )


def _evaluate(spec: KernelSpec, x, y, shape) -> np.ndarray:
    """The family formula on broadcast point arrays, as a float64 or
    complex128 array of the given shape."""
    fam = FAMILY_TABLE[spec.family]
    out = np.empty(shape, dtype=complex if fam.is_complex else float)
    out[...] = fam.formula(spec, x, y)
    return out


def _points(spec: KernelSpec, points) -> np.ndarray:
    return FAMILY_TABLE[spec.family].points(spec, list(points))


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix K_F over a finite point set F.

    The formula runs once on the n x n broadcast; entry (j, i) with i < j
    is then replaced by the conjugate of (i, j), so the matrix is
    Hermitian bitwise.  Diagonal entries of complex families are real by
    the formulas; any residual rounding in their imaginary parts is
    dropped.
    """
    ss = as_sample_set(points)  # rejects duplicate points; carries the domain tag
    return GramMatrix(entries=_gram_array(spec, ss.points, ss.domain))


def _gram_array(spec: KernelSpec, points, tag: Optional[str]) -> np.ndarray:
    """`gram`'s entries on a point list whose points are known distinct."""
    _check_tag(spec, tag)
    n = len(points)
    x = _points(spec, points)
    g = _evaluate(spec, x[:, None], x[None, :], (n, n))
    lower = np.tril_indices(n, -1)
    g[lower] = g.T[lower].conj()
    if spec.is_complex:
        g[np.diag_indices(n)] = g.diagonal().real
    return g


def cross_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Rectangular kernel matrix K(rows_i, cols_j); no symmetry assumed."""
    x, y = _points(spec, rows), _points(spec, cols)
    return _evaluate(spec, x[:, None], y[None, :], (len(x), len(y)))


def kernel_diagonal(spec: KernelSpec, points) -> np.ndarray:
    """K(x, x) for every point, in one call; real, since K(x, x) = ||k_x||^2."""
    x = _points(spec, points)
    return _evaluate(spec, x, x, (len(x),)).real


def validate_psd(g):
    """(is_psd, min_eigenvalue) for a Hermitian matrix or GramMatrix.

    Verdict: min eigenvalue >= -1e-8 * max|G_ii| (`_PSD_TOL`), a
    threshold relative to the matrix (`factorize.matrix_scale`), so c * G
    gets the verdict of G for every c > 0.  The eigenvalue comes from
    LAPACK's `eigvalsh` through `factorize.eig_range`, which applies the
    checks of every factorization route: a non-square, NaN/infinite or
    non-Hermitian input raises ValueError.  A 0 x 0 matrix is vacuously
    PSD with sentinel +inf.
    """
    from . import factorize

    min_eig, _ = factorize.eig_range(g)
    arr = g.entries if isinstance(g, GramMatrix) else np.asarray(g)
    return bool(min_eig >= -_PSD_TOL * factorize.matrix_scale(arr)), min_eig
