"""Sampling and frame theory on kernel spaces.

A sample set S has the Parseval property when the normalized kernel
sections at S resolve every norm: K(x, x) = sum_s |K(x, s)|^2.  The
checks here are finite and honest about it — truncated sums come with
analytic tail bounds where the kernel admits one (Shannon), and frame
bounds are eigenvalue ranges of the Gram matrix on a capped window, so
they certify the span of the truncated system only.

The sawtooth construction goes the other way: given proposed sample
points it builds a nonzero finite-energy function of the min-kernel
space vanishing at every point, witnessing that the points cannot be a
determining set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import OutOfDomainError, SingularMatrixError
from .factorize import _energy, _increments, _nonnegative, eig_range, matrix_scale
from .kernels import KernelSpec, as_sample_set, cross_gram, gram, kernel_diagonal

__all__ = [
    "FrameReport",
    "SawtoothWitness",
    "parseval_check",
    "frame_bounds",
    "frame_reconstruct",
    "sawtooth_witness",
]

WINDOW_CAP = 50  # parseval_check's frame-bound window; its a and b depend on the size
_BOUND_TOL = 0.01  # parseval_check's frame bounds must lie this close to 1
_LATTICES = ("integers", "positive-integers")  # the names parseval_check takes for S


def _lattice_points(s, truncation: int):
    """Resolve a sample-set argument: explicit points or a lattice name."""
    if isinstance(s, str):
        if s == "integers":
            return [float(n) for n in range(-truncation, truncation + 1)]
        if s == "positive-integers":
            return [float(n) for n in range(1, truncation + 1)]
        raise ValueError(f"unknown lattice {s!r}; use {' or '.join(map(repr, _LATTICES))}")
    return list(as_sample_set(s).points)


@dataclass(frozen=True, eq=False)
class FrameReport:
    """Parseval evidence for a truncated sample system.

    a and b bound the Gram spectrum on a capped window of S (the frame
    bounds on the span of that window); parseval_deficit is the largest
    |K(x,x) - sum_s |K(x,s)|^2| over the test points.  When an analytic
    tail bound exists the deficit verdict is rigorous despite truncation.
    """

    a: float
    b: float
    parseval_deficit: float
    deficits: list
    test_points: list
    tail_bound: Optional[float]
    verdict: str


def parseval_check(
    spec: KernelSpec,
    s,
    test_points,
    truncation: int,
    tol: float = 1e-4,
) -> FrameReport:
    """Check K(x,x) = sum over S of |K(x,s)|^2 at the test points.

    `s` may be explicit points, or "integers" / "positive-integers" for
    lattices truncated to |n| <= truncation.  The verdict is "parseval"
    when the worst deficit is within tol and the window frame bounds are
    both within 0.01 (`_BOUND_TOL`) of 1; otherwise "not-parseval".  For
    the Shannon kernel the reported tail bound 2 / (pi^2 (N - |x|)) makes
    the truncated verdict rigorous.  `tol` must be finite and >= 0.
    """
    _nonnegative(tol=tol)
    pts = _lattice_points(s, truncation)
    tests = list(test_points)
    sections = cross_gram(spec, tests, pts)  # tests x |S|
    sums = np.sum(np.abs(sections) ** 2, axis=1)
    diags = kernel_diagonal(spec, tests)
    deficits = np.abs(diags - sums)
    deficit = float(np.max(deficits)) if len(tests) else 0.0

    tail = None
    if spec.family == "shannon":
        margins = [truncation - abs(float(x)) for x in tests]
        if margins and min(margins) > 0:
            tail = max(2.0 / (math.pi ** 2 * m) for m in margins)

    window = pts if len(pts) <= WINDOW_CAP else pts[: WINDOW_CAP]
    if isinstance(s, str) and s == "integers" and len(pts) > WINDOW_CAP:
        half = WINDOW_CAP // 2
        window = [float(n) for n in range(-half, half + 1)]
    a, b = frame_bounds(spec, window)

    ok = deficit <= tol and abs(a - 1.0) <= _BOUND_TOL and abs(b - 1.0) <= _BOUND_TOL
    return FrameReport(
        a=a,
        b=b,
        parseval_deficit=deficit,
        deficits=[float(d) for d in deficits],
        test_points=tests,
        tail_bound=tail,
        verdict="parseval" if ok else "not-parseval",
    )


def frame_bounds(spec: KernelSpec, s) -> tuple:
    """Eigenvalue range (a, b) of the Gram matrix on a finite sample set.

    On the span of the kernel sections at S the sampling-ratio
    sum |f(s)|^2 / ||f||^2 lies exactly in [lambda_min, lambda_max] of
    K_S; the bounds come from LAPACK's `eigvalsh` (`factorize.eig_range`).
    The Gram counts as numerically singular, and SingularMatrixError is
    raised, when lambda_min <= 1e-12 * matrix_scale(K_S), a threshold
    relative to the Gram, so the verdict does not depend on its scale.
    """
    g = gram(spec, s)
    if g.n == 0:
        raise ValueError("frame bounds need at least one sample point")
    a, b = eig_range(g.entries)
    if a <= 1e-12 * matrix_scale(g.entries):
        raise SingularMatrixError(
            f"Gram matrix is numerically singular (eigenvalue range [{a:.3e}, {b:.3e}])"
        )
    return a, b


def frame_reconstruct(spec: KernelSpec, s, f_samples, eval_points) -> np.ndarray:
    """Reconstruct f from samples: sum_s (K_S^{-1} f_S)(s) K(t, s).

    Exact for f in the span of the kernel sections at S.  Deliberately
    solves the Gram system with a direct dense solver — an independent
    route from the inverse-Gram path used by the projection code, so the
    two can be cross-checked.  The result is linear in the samples, so
    complex samples on a real kernel give a complex result.
    """
    sample = as_sample_set(s)
    g = gram(spec, sample)
    f = np.asarray(f_samples)
    f = f.astype(np.result_type(f, g.entries), copy=False)
    if f.shape != (g.n,):
        raise ValueError(f"expected {g.n} samples, got shape {f.shape}")
    try:
        xi = np.linalg.solve(g.entries, f)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Gram system is singular: {exc}") from exc
    return cross_gram(spec, list(eval_points), sample.points) @ xi


@dataclass(frozen=True, eq=False)
class SawtoothWitness:
    """Piecewise-linear function vanishing at every knot, nonzero between.

    On each interval [x_n, x_{n+1}] the graph is a triangle with slope
    c_n up to the midpoint and -c_n down, so the apex value is
    c_n (x_{n+1} - x_n) / 2 and the energy contribution is c_n^2 dx_n.
    The object is callable: it IS the evaluation function (zero outside
    the knot range, defined for finite t).  By the reproducing property,
    inner products against kernel sections at the knots equal the knot
    values — exactly zero.
    """

    knots: np.ndarray
    slopes: np.ndarray
    norm_sq: float
    breakpoints: np.ndarray
    heights: np.ndarray

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        inside = np.isfinite(arr)
        if not inside.all():
            raise OutOfDomainError(f"witness domain is finite t, got {arr[~inside][0]}")
        out = np.interp(arr, self.breakpoints, self.heights, left=0.0, right=0.0)
        return float(out) if arr.ndim == 0 else out

    def knot_inner_products(self) -> np.ndarray:
        """<f, K(., x_n)> = f(x_n) for every knot, via reproduction."""
        return self(self.knots)


def sawtooth_witness(knots, slope_rule: Union[str, list] = "harmonic") -> SawtoothWitness:
    """Build a nonzero finite-energy function vanishing on the knots.

    slope_rule "harmonic" takes c_n = 1 / (n sqrt(dx_n)), so each
    interval contributes exactly 1/n^2 of energy and the truncated
    norm_sq is the partial sum of sum 1/n^2; an explicit sequence of
    finite slopes (one per interval) may be given instead.  Every gap
    between knots must be finite and > 0 (`factorize._increments`), so a
    NaN or infinite knot, or two knots whose gap overflows, raises
    NotIncreasingError; a NaN or infinite slope raises ValueError, as does
    an energy beyond the float range; one within it is returned finite.
    The existence of such a witness for every discrete knot set shows the
    knots cannot determine functions of the min-kernel space.
    """
    xs = np.array([float(x) for x in knots])
    if len(xs) < 2:
        raise ValueError("need at least two knots")
    dx = _increments(xs, "x_1 < x_2 < ...")
    if isinstance(slope_rule, str):
        if slope_rule != "harmonic":
            raise ValueError(f"unknown slope rule {slope_rule!r}")
        ns = np.arange(1, len(dx) + 1, dtype=float)
        slopes = 1.0 / (ns * np.sqrt(dx))
    else:
        slopes = np.array([float(c) for c in slope_rule])
        if slopes.shape != dx.shape:
            raise ValueError(f"need {len(dx)} slopes, got {len(slopes)}")
        finite = np.isfinite(slopes)
        if not finite.all():
            raise ValueError(f"slopes must be finite, got {slopes[finite.argmin()]}")
    mids = xs[:-1] + 0.5 * dx
    apexes = slopes * dx / 2.0
    breakpoints = np.empty(2 * len(xs) - 1)
    breakpoints[0::2] = xs
    breakpoints[1::2] = mids
    heights = np.zeros_like(breakpoints)
    heights[1::2] = apexes
    return SawtoothWitness(
        knots=xs,
        slopes=slopes,
        norm_sq=_energy(lambda: slopes ** 2 * dx, lambda: np.abs(slopes) * np.sqrt(dx)),
        breakpoints=breakpoints,
        heights=heights,
    )
