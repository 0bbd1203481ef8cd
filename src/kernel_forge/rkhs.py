"""Finite-sample RKHS operations.

Everything here reduces to Gram-matrix algebra on a finite sample set:
orthogonal projection onto the span of kernel sections, a finite-level
Dirac-membership test along a nested chain of sample sets, the inverse
Gram as a discrete Laplacian and its induced graph, spline extension by
interpolation, and the closed-form minimal-norm interpolant of the
Brownian min-kernel (piecewise linear, anchored at f(0) = 0).

The chain question is answered from one Gram and one Cholesky factor.
The chain's points are ordered by first appearance, except x, which goes
last; strict nesting then makes every level less x a leading block of
the Gram, and the leading block of L factors it.  The last row of L
holds L'^-1 k_x for all of them at once, and (K_F^-1)_xx is the
reciprocal of the Schur complement K_xx - sum_{i < |F|-1} |L[x, i]|^2,
the squared distance from k_x to the span of the level's other sections.
Complex families factor their complex Gram the same way, with
L @ L^H = G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ChainError, OutOfDomainError
from .factorize import (
    _energy, _increments_from_zero, _nonnegative, invertible_cholesky, inverse_gram, solve_gram,
)
from .kernels import KernelSpec, SampleSet, as_sample_set, cross_gram, gram

__all__ = [
    "DeltaMembershipReport",
    "InducedGraph",
    "PiecewiseLinearSpline",
    "project",
    "delta_membership",
    "laplacian_apply",
    "induced_graph",
    "min_norm_interpolant",
]

MEMBERSHIP_CAP = 1e6
MEMBERSHIP_GROWTH = 1.5


def project(spec: KernelSpec, sample, h_values, eval_points) -> np.ndarray:
    """Orthogonal projection onto span{K(., y) : y in F}, evaluated pointwise.

    With xi = K_F^{-1} h|_F the projection is (P_F h)(t) = sum_y xi_y K(t, y);
    it reproduces h exactly on F and is the minimal-norm interpolant of the
    sampled values elsewhere.
    """
    sample = as_sample_set(sample)
    xi = laplacian_apply(spec, sample, h_values)
    return cross_gram(spec, list(eval_points), sample.points) @ xi


def _leading_order(sample: SampleSet, last):
    """Positions in the last level, in the order one factor serves a chain.

    Points come in order of first appearance, except `last`, which comes
    at the end; strict nesting then makes every level, less `last`, a
    leading block of that order.  Returns the positions and the size of
    each level.  A level without `last` raises ChainError.  The levels'
    keys are the sample's own `chain_keys`.
    """
    levels = sample.chain
    if not levels:
        raise ChainError("this operation needs a SampleSet with a nonempty chain")
    target = kernels.point_key(last)
    first = {}
    for level, keys in zip(levels, sample.chain_keys):
        if target not in keys:
            raise ChainError(f"chain level {level} does not contain the point {last}")
        first.update(dict.fromkeys(keys))  # a key already seen keeps its place
    first[target] = first.pop(target)
    where = {key: i for i, key in enumerate(sample.chain_keys[-1])}
    order = np.array([where[key] for key in first], dtype=np.intp)
    return order, np.array([len(level) for level in levels], dtype=np.intp)


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

    One Gram and one Cholesky factor serve every level: x goes last and
    the other points follow their first appearance, so each level less x
    is a leading block.  Level F then reads
    (K_F^{-1})_{xx} = 1 / (K_xx - sum_{i < |F|-1} |L[x, i]|^2), the
    reciprocal squared distance from k_x to the span of the level's other
    sections.  A level without x raises ChainError, a singular Gram
    SingularMatrixError; `cap`, `growth` and `rtol` must be finite, >= 0.
    """
    _nonnegative(cap=cap, growth=growth, rtol=rtol)
    sample = as_sample_set(sample)
    order, sizes = _leading_order(sample, last=x)
    g = kernels._gram_array(spec, [sample.chain[-1][i] for i in order], sample.domain)
    lower = invertible_cholesky(g).L
    n = len(g) - 1  # x's row
    partial = np.concatenate(([0.0], np.cumsum(np.abs(lower[n, :n]) ** 2)))
    seq = 1.0 / (g[n, n].real - partial[sizes - 1])
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
    second-difference operator at interior points.  `project` solves
    K_S xi = h|_S through it, with `factorize.solve_gram`: W.T @ (W @ h)
    from the Cholesky factor, never the inverse itself.  The result is
    linear in h, so complex values on a real kernel give a complex result.
    """
    sample = as_sample_set(sample)
    h = np.asarray(h_values)
    h = h.astype(np.result_type(h, complex if spec.is_complex else float), copy=False)
    if h.shape != (len(sample),):
        raise ValueError(f"expected {len(sample)} sample values, got shape {h.shape}")
    return solve_gram(gram(spec, sample), h)


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """Graph induced by the inverse Gram: weights D = K_S^{-1}.

    Edges are the off-diagonal pairs with |D_xy| above the threshold,
    stored as index pairs (i, j) with i < j into the sample's points.
    """

    weights: np.ndarray
    edges: list
    threshold: float


def induced_graph(
    spec: KernelSpec, sample, threshold: Optional[float] = None
) -> InducedGraph:
    """Build the graph whose weight matrix is the inverse Gram on S.

    The default threshold 1e-8 * max|D| stands in for the exact-zero edge
    test, which is numerically meaningless; a given one must be finite and
    >= 0.
    """
    _nonnegative(threshold=threshold)
    weights = inverse_gram(gram(spec, sample))
    if threshold is None:
        threshold = 1e-8 * float(np.max(np.abs(weights))) if weights.size else 0.0
    rows, cols = np.nonzero(np.triu(np.abs(weights) > threshold, 1))  # row-major
    edges = list(zip(rows.tolist(), cols.tolist()))
    return InducedGraph(weights=weights, edges=edges, threshold=float(threshold))


@dataclass(frozen=True, eq=False)
class PiecewiseLinearSpline:
    """Piecewise-linear interpolant anchored at (0, 0), constant after the
    last knot (zero-derivative tail).  Defined for finite t >= 0."""

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        inside = (0.0 <= arr) & (arr < np.inf)  # False for NaN
        if not inside.all():
            raise OutOfDomainError(f"interpolant domain is finite t >= 0, got {arr[~inside][0]}")
        out = np.interp(arr, self.knots_x, self.knots_y)
        return float(out) if arr.ndim == 0 else out


def min_norm_interpolant(data):
    """Minimal-norm interpolant of (x_j, y_j) data for the min kernel.

    Returns (f, norm_sq): f is piecewise linear through (0,0) and the data
    in increasing-x order, constant after the last knot, and
    norm_sq = sum (y_{j+1} - y_j)^2 / (x_{j+1} - x_j) with (x_0,y_0)=(0,0).
    Among all interpolants of the data in the min-kernel space this energy
    is minimal: straight segments minimise the Dirichlet integral.  A NaN
    or infinite y raises ValueError, as does an energy beyond the float
    range; one within it is returned finite (`factorize._energy`).
    """
    pairs = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in data]
    if len(pairs) == 1:
        raise ValueError("need at least one data point")
    xs, ys = np.array(pairs).T
    finite = np.isfinite(ys)
    if not finite.all():
        raise ValueError(f"interpolant data needs finite y, got {ys[finite.argmin()]}")
    dx = _increments_from_zero(xs[1:])
    # roots from halved y differences, which cannot overflow
    norm_sq = _energy(lambda: np.diff(ys) ** 2 / dx, lambda: 2 * np.diff(ys / 2) / np.sqrt(dx))
    return PiecewiseLinearSpline(knots_x=xs, knots_y=ys), norm_sq
