"""Finite-sample RKHS operations.

Everything here reduces to Gram-matrix algebra on a finite sample set:
orthogonal projection onto the span of kernel sections, squared norms
computed along nested chains of sample sets (nondecreasing, with the sup
as the norm estimate), a finite-level Dirac-membership test, the inverse
Gram as a discrete Laplacian and its induced graph, spline extension by
interpolation, and the closed-form minimal-norm interpolant of the
Brownian min-kernel (piecewise linear, anchored at f(0) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChainError, NotIncreasingError, OutOfDomainError
from .factorize import inverse_gram
from .kernels import (
    KernelSpec,
    SampleSet,
    as_sample_set,
    cross_gram,
    gram,
    point_key,
)

__all__ = [
    "NormChainReport",
    "DeltaMembershipReport",
    "InducedGraph",
    "PiecewiseLinearSpline",
    "project",
    "rkhs_norm_sq",
    "delta_membership",
    "laplacian_apply",
    "induced_graph",
    "extend_spline",
    "min_norm_interpolant",
]

MEMBERSHIP_CAP = 1e6
MEMBERSHIP_GROWTH = 1.5


def _coefficients(spec: KernelSpec, sample: SampleSet, h_values) -> np.ndarray:
    """Solve K_F xi = h|_F through the pinned inverse-Gram route."""
    h = np.asarray(h_values, dtype=complex if spec.is_complex else float)
    if h.shape != (len(sample),):
        raise ValueError(
            f"expected {len(sample)} sample values, got shape {h.shape}"
        )
    return inverse_gram(gram(spec, sample)) @ h


def project(spec: KernelSpec, sample, h_values, eval_points) -> np.ndarray:
    """Orthogonal projection onto span{K(., y) : y in F}, evaluated pointwise.

    With xi = K_F^{-1} h|_F the projection is (P_F h)(t) = sum_y xi_y K(t, y);
    it reproduces h exactly on F and is the minimal-norm interpolant of the
    sampled values elsewhere.
    """
    sample = as_sample_set(sample)
    xi = _coefficients(spec, sample, h_values)
    return cross_gram(spec, list(eval_points), sample.points) @ xi


@dataclass(frozen=True, eq=False)
class NormChainReport:
    """Squared-norm estimates along a nested chain; sup is the estimate."""

    sequence: np.ndarray
    sup: float


def _chain_levels(sample: SampleSet):
    if sample.chain is None:
        raise ChainError("this operation needs a SampleSet with a chain")
    return sample.chain


def _check_chain_consistency(levels, values):
    """Sampled values must agree wherever chain levels overlap."""
    for k in range(len(levels) - 1):
        seen = {point_key(p): values[k][i] for i, p in enumerate(levels[k])}
        for i, p in enumerate(levels[k + 1]):
            key = point_key(p)
            if key in seen and not np.isclose(
                seen[key], values[k + 1][i], rtol=1e-12, atol=0.0
            ):
                raise ValueError(
                    f"sample values disagree across chain levels at point {p}"
                )


def rkhs_norm_sq(spec: KernelSpec, sample, h_values_per_level) -> NormChainReport:
    """Squared RKHS norm estimated along a nested chain of sample sets.

    Level F contributes <h_F, K_F^{-1} h_F>; the sequence is nondecreasing
    as the chain grows and its final value is returned as the sup.
    """
    sample = as_sample_set(sample)
    levels = _chain_levels(sample)
    values = [np.asarray(v) for v in h_values_per_level]
    if len(values) != len(levels):
        raise ValueError(
            f"chain has {len(levels)} levels but {len(values)} value vectors given"
        )
    _check_chain_consistency(levels, values)
    seq = []
    for level, vals in zip(levels, values):
        level_set = SampleSet(points=level, domain=sample.domain)
        xi = _coefficients(spec, level_set, vals)
        energy = np.vdot(np.asarray(vals, dtype=xi.dtype), xi)
        seq.append(float(energy.real))
    seq = np.array(seq)
    return NormChainReport(sequence=seq, sup=float(seq[-1]) if len(seq) else 0.0)


@dataclass(frozen=True, eq=False)
class DeltaMembershipReport:
    """Finite-level evidence for whether a Dirac mass lies in the RKHS.

    `sequence` holds (K_F^{-1})_{xx} along the chain — nondecreasing, with
    sup equal to the squared norm of the Dirac mass when it is a member.
    The verdict is a reported heuristic, never a proof: "member" when the
    last two levels have stabilised, "diverging" past the cap or on
    sustained growth, "inconclusive" otherwise.
    """

    sequence: np.ndarray
    sup: float
    verdict: str


def delta_membership(
    spec: KernelSpec,
    x,
    sample,
    cap: float = MEMBERSHIP_CAP,
    growth: float = MEMBERSHIP_GROWTH,
    rtol: float = 1e-6,
) -> DeltaMembershipReport:
    """Track (K_F^{-1})_{xx} along a chain containing x.

    The diagonal entry of the inverse Gram at x is the squared norm of the
    projection of the Dirac mass onto the span of the level, so a bounded
    sequence certifies membership with ||delta_x||^2 = sup.
    """
    sample = as_sample_set(sample)
    levels = _chain_levels(sample)
    key = point_key(x)
    seq = []
    for level in levels:
        keys = [point_key(p) for p in level]
        if key not in keys:
            raise ChainError(f"chain level {level} does not contain the point {x}")
        idx = keys.index(key)
        level_set = SampleSet(points=level, domain=sample.domain)
        inv = inverse_gram(gram(spec, level_set))
        seq.append(float(inv[idx, idx].real))
    seq = np.array(seq)
    sup = float(seq.max())
    if seq[-1] > cap or (len(seq) >= 2 and seq[-1] > growth * seq[-2]):
        verdict = "diverging"
    elif len(seq) >= 2 and abs(seq[-1] - seq[-2]) < rtol * max(1.0, abs(seq[-1])):
        verdict = "member"
    else:
        verdict = "inconclusive"
    return DeltaMembershipReport(sequence=seq, sup=sup, verdict=verdict)


def laplacian_apply(spec: KernelSpec, sample, h_values) -> np.ndarray:
    """Discrete Laplacian: (Delta h)(x) = (K_S^{-1} h|_S)(x) for x in S.

    On an integer window of the Brownian line kernel this is the standard
    second-difference operator at interior points.
    """
    sample = as_sample_set(sample)
    return _coefficients(spec, sample, h_values)


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """Graph induced by the inverse Gram: weights D = K_S^{-1}.

    Edges are the off-diagonal pairs with |D_xy| above the threshold,
    stored as index pairs (i, j) with i < j into `vertices.points`.
    """

    vertices: SampleSet
    weights: np.ndarray
    edges: list
    threshold: float

    def edge_points(self):
        pts = self.vertices.points
        return [(pts[i], pts[j]) for i, j in self.edges]


def induced_graph(
    spec: KernelSpec, sample, threshold: Optional[float] = None
) -> InducedGraph:
    """Build the graph whose weight matrix is the inverse Gram on S.

    The default threshold 1e-8 * max|D| stands in for the exact-zero edge
    test, which is numerically meaningless.
    """
    sample = as_sample_set(sample)
    weights = inverse_gram(gram(spec, sample))
    if threshold is None:
        threshold = 1e-8 * float(np.max(np.abs(weights))) if weights.size else 0.0
    rows, cols = np.nonzero(np.triu(np.abs(weights) > threshold, 1))  # row-major
    edges = list(zip(rows.tolist(), cols.tolist()))
    return InducedGraph(
        vertices=sample, weights=weights, edges=edges, threshold=float(threshold)
    )


def extend_spline(spec: KernelSpec, sample, h_values, eval_points) -> np.ndarray:
    """Canonical isometric extension of sampled values off the sample set.

    This is projection with F = S: interpolate h|_S in the span of the
    kernel sections and evaluate anywhere.  Restriction back to S
    reproduces the data; the tail outside the hull of S follows the
    kernel (for the Brownian families this produces tent functions).
    """
    return project(spec, sample, h_values, eval_points)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearSpline:
    """Piecewise-linear interpolant anchored at (0, 0), constant after the
    last knot (zero-derivative tail).  Defined for t >= 0."""

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise OutOfDomainError("interpolant domain is t >= 0")
        out = np.interp(arr, self.knots_x, self.knots_y)
        return float(out) if arr.ndim == 0 else out


def min_norm_interpolant(data):
    """Minimal-norm interpolant of (x_j, y_j) data for the min kernel.

    Returns (f, norm_sq): f is piecewise linear through (0,0) and the data
    in increasing-x order, constant after the last knot, and
    norm_sq = sum (y_{j+1} - y_j)^2 / (x_{j+1} - x_j) with (x_0,y_0)=(0,0).
    Among all interpolants of the data in the min-kernel space this energy
    is minimal: straight segments minimise the Dirichlet integral.
    """
    pairs = [(float(x), float(y)) for x, y in data]
    if not pairs:
        raise ValueError("need at least one data point")
    prev = 0.0
    for x, _ in pairs:
        if x <= prev:
            raise NotIncreasingError(
                f"abscissae must satisfy 0 < x_1 < x_2 < ..., got {x} after {prev}"
            )
        prev = x
    xs = np.array([0.0] + [x for x, _ in pairs])
    ys = np.array([0.0] + [y for _, y in pairs])
    norm_sq = float(np.sum(np.diff(ys) ** 2 / np.diff(xs)))
    return PiecewiseLinearSpline(knots_x=xs, knots_y=ys), norm_sq
