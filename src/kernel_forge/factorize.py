"""Gram-matrix factorizations: Cholesky, inversion, and spectra.

Cholesky factors come from numpy's LAPACK (never scipy's, see
`_lr_factor`) and a relative pivot test; the first-hitting-time Gram
matrices of the Brownian family admit a closed-form factor built from
increment square roots, and the generic routine must reproduce it.
Spectra come from two independent routes that the test suite
cross-checks against each other: a shifted alternating Cholesky
iteration (factor B - sI, transpose-swap, add sI back, repeat, until the
matrix is numerically diagonal; every block of size 2 or more takes the
same shifted LAPACK step) and Jacobi rotation sweeps in Brent-Luk
round-robin order, where each round rotates up to n/2 disjoint pairs at
once and reseats the matrix for the next round by flat gathers.  Neither
uses a LAPACK eigensolver.

PSD and frame-bound verdicts need only the two extreme eigenvalues, and
`eig_range` takes them from numpy's LAPACK `eigvalsh`: a backward-stable
solver is accurate to a few ulps of the matrix scale, far inside the
relative thresholds those verdicts apply.

Complex Hermitian matrices are taken as they are, n x n: `cholesky`
returns the complex lower factor with L @ L^H = G, the inverse and the
solve follow from it, and the eigen routes iterate on G itself (the LR
step A^H A, and Jacobi's Hermitian rotation).

Every tolerance is relative to the matrix it judges: pivots and eigenvalue
floors are measured in units of `matrix_scale` (the largest |G_ii|), and
the Jacobi stop in units of the Frobenius norm.  Scaling a matrix by
c > 0 therefore never changes a verdict.  The eigen routes iterate on a
matrix outside [2^-256, 2^256) scaled by a power of four (`_unit`), so
their stop norms neither overflow nor underflow, and for every power of
four c that keeps c * G exact they return c times the spectrum of G,
with the same iterations, bit for bit.  A tolerance, ridge or step
budget must be finite and >= 0; anything else, NaN included, raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIncreasingError, NotPositiveDefiniteError, SingularMatrixError
from .kernels import GramMatrix, SampleSet

__all__ = [
    "CholeskyFactor",
    "SpectralResult",
    "cholesky",
    "brownian_cholesky_closed_form",
    "invertible_cholesky",
    "inverse_gram",
    "solve_gram",
    "alt_cholesky_eigs",
    "jacobi_eigs",
    "matrix_scale",
]

_EIG_FLOOR = 1e-10  # negative eigenvalues above -floor*scale are rounding noise
_MAX_JACOBI_SWEEPS = 60
_EPS = float(np.finfo(float).eps)


def matrix_scale(arr: np.ndarray) -> float:
    """Largest |A_ii|: the unit of every relative tolerance in the package.

    It scales linearly with the matrix, so a threshold tol * matrix_scale(A)
    gives A and c * A the same verdict; for a PSD matrix it bounds every
    entry, since |A_ij| <= sqrt(A_ii A_jj).  0 for an empty matrix.
    """
    return float(np.abs(np.diagonal(arr)).max()) if arr.size else 0.0


def _as_matrix(g) -> np.ndarray:
    """Coerce a GramMatrix or array-like to a fresh square 2-D ndarray.

    A NaN or infinite entry raises ValueError: no factorization or spectrum
    of such a matrix means anything, and every routine in this module
    takes its input through here.
    """
    arr = np.array(g.entries if isinstance(g, GramMatrix) else g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix has a NaN or infinite entry")
    if np.iscomplexobj(arr) and not np.any(arr.imag):
        arr = arr.real.copy()
    return arr.astype(complex if np.iscomplexobj(arr) else float)


def _check_hermitian(arr: np.ndarray) -> None:
    if arr.size == 0:
        return
    dev = float(np.abs(arr - arr.conj().T).max())
    if dev > 1e-8 * float(np.abs(arr).max()):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular n x n factor with L @ L^H = G + ridge*I.

    L is complex, with a real positive diagonal, when G is.
    """

    L: np.ndarray
    ridge_used: float = 0.0

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def reconstruct(self) -> np.ndarray:
        return self.L @ self.L.conj().T


def cholesky(g, ridge: float = 0.0, tol: float = 1e-12) -> CholeskyFactor:
    """Cholesky factor of a Hermitian PSD matrix (plus optional ridge).

    Real or complex input goes to numpy's `potrf` (lower triangle) as it
    is.  The first pivot diag(L).real**2 below ``tol * matrix_scale(G)``
    (G before the ridge), or one LAPACK cannot take, raises
    NotPositiveDefiniteError, so the verdict does not depend on the scale
    of G; a positive `ridge` is added to the diagonal before factoring
    (and reported in the result).
    """
    _nonnegative(ridge=ridge, tol=tol)
    arr = _as_matrix(g)
    _check_hermitian(arr)
    threshold = tol * matrix_scale(arr)
    if ridge:
        arr = arr + ridge * np.eye(arr.shape[0])
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"a Cholesky pivot is not positive: {exc}") from exc
    pivots = lower.diagonal().real ** 2
    low = np.flatnonzero(~(pivots >= threshold))
    if low.size:
        j = low[0]
        raise NotPositiveDefiniteError(
            f"Cholesky pivot {pivots[j]:.6e} at index {j} is below tolerance {threshold:.1e}"
        )
    return CholeskyFactor(L=lower, ridge_used=float(ridge))


def brownian_cholesky_closed_form(points) -> CholeskyFactor:
    """Closed-form Cholesky factor for the Brownian min-kernel Gram.

    For 0 < x_1 < ... < x_N the Gram G_ij = min(x_i, x_j) factors as
    L[n, m] = sqrt(x_m - x_{m-1}) for m <= n (with x_0 = 0), a lower
    triangle of constant columns.  det G is then the product of the
    increments.
    """
    if isinstance(points, SampleSet):
        points = points.points
    roots = np.sqrt(_increments_from_zero(points))
    return CholeskyFactor(L=np.tril(np.tile(roots, (len(roots), 1))))


def _nonnegative(**values) -> None:
    """ValueError unless 0 <= value < inf for each value given (None is a
    default still to be chosen): the domain of every tolerance, ridge,
    threshold, cap and step budget, as an inside-test, so NaN fails it."""
    for name, value in values.items():
        if value is not None and not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _increments_from_zero(xs) -> np.ndarray:
    """x_k - x_{k-1} for abscissae x_1..x_N and x_0 = 0; NotIncreasingError
    unless every increment is > 0 (NaN is not)."""
    x = np.concatenate(([0.0], np.asarray(xs, dtype=float)))
    dx = np.diff(x)
    increasing = dx > 0.0
    if not increasing.all():
        k = increasing.argmin()  # the first False
        raise NotIncreasingError(f"need 0 < x_1 < x_2 < ..., got {x[k + 1]} after {x[k]}")
    return dx


def invertible_cholesky(g) -> CholeskyFactor:
    """`cholesky` of a Gram matrix that must be invertible.

    The factor of `inverse_gram` and `solve_gram`, and of the one-factor
    chain questions in `rkhs`.  Raises SingularMatrixError when the matrix
    is not safely invertible: a Cholesky pivot falls below
    1e-12 * matrix_scale(G).
    """
    try:
        return cholesky(g, ridge=0.0, tol=1e-12)
    except NotPositiveDefiniteError as exc:
        raise SingularMatrixError(f"matrix is singular or indefinite: {exc}") from exc


def inverse_gram(g) -> np.ndarray:
    """Inverse of a positive-definite Gram matrix from its Cholesky factor.

    G^-1 = W^H @ W with W = L^-1, numpy only, for real and complex G
    alike.  Raises SingularMatrixError as `invertible_cholesky` does.
    """
    factor = invertible_cholesky(g)
    # inv(L), not inv(L^H): on a Brownian Gram it keeps most zeros of the
    # tridiagonal inverse exact (78% at n = 300, inv(L^H) none), so the
    # written inverse is shorter and faster to format.  `factor` stays
    # bound until the product is formed: freeing L before it raised the
    # peak RSS of a CLI `inv` at n = 300 by about one n x n block.
    w = np.linalg.inv(factor.L)
    return w.conj().T @ w


def solve_gram(g, h) -> np.ndarray:
    """G^-1 h for a positive-definite Gram matrix, without forming G^-1.

    W^H @ (W @ h) with W = L^-1, the factors of `inverse_gram` applied to
    one vector.  Raises SingularMatrixError as `invertible_cholesky`
    does.
    """
    w = np.linalg.inv(invertible_cholesky(g).L)
    return w.conj().T @ (w @ np.asarray(h))


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Eigenvalues in descending order plus iteration bookkeeping."""

    eigenvalues: np.ndarray
    iterations: int
    converged: bool


def _finish_spectrum(values, iterations, converged, scale):
    vals = np.sort(np.asarray(values, dtype=float))[::-1]
    floor = _EIG_FLOOR * scale
    vals = np.where((vals < 0.0) & (vals > -floor), 0.0, vals)
    return SpectralResult(
        eigenvalues=vals, iterations=int(iterations), converged=bool(converged)
    )


def _diagonal(block: np.ndarray) -> np.ndarray:
    """The diagonal of a square `block` as a writable strided view.

    `block` is C- or F-contiguous (every iterate here is one), so its
    diagonal sits every m + 1 entries of memory in either layout: reading
    and writing it costs no fancy indexing, and the layout, which decides
    the summation order of `off.sum(axis=1)`, is kept.
    """
    return block.ravel("K")[:: block.shape[0] + 1]


def _unit(arr: np.ndarray) -> float:
    """The factor both eigen routes scale their input by: 1.0 when max|A_ij|
    lies in [2^-256, 2^256), else the power of four that brings it into
    [1/4, 1) (or as near as 4^511 brings a subnormal matrix).

    Scaling by a power of four is exact, and so is every step of either
    route on the scaled matrix, square roots included, while the iteration
    stays in the normal range, as it does inside that band.  So for every
    power of four c that keeps c * A exact, a route returns c times the
    spectrum of A, with the same `iterations` and `converged`.  Outside the
    band, the squares summed unscaled for Jacobi's stop norms would
    overflow to inf (entries of 1e154) or underflow to 0 (1e-162), either
    way passing the stop test before the first sweep, and the LR couplings
    near its stop, tol * trace, would leave the normal range with the
    trace.
    """
    exponent = math.frexp(float(np.abs(arr).max()))[1] if arr.size else 0
    if -256 < exponent <= 256:
        return 1.0
    return math.ldexp(1.0, -max(2 * ((exponent + 1) // 2), -1022))


def _gershgorin_shift(block: np.ndarray, off: np.ndarray) -> float:
    """A shift below lambda_min(block): the Gershgorin bound, backed off.

    Every LR step takes one, whatever the block's size (2 or more).
    `off` is |block| with a zero diagonal.  The bound min_i(B_ii - R_i) is
    lowered by m * eps * max_i(B_ii + R_i), which covers the rounding in
    the row sums; a bound at or below 0 gives no shift.
    """
    diagonal = _diagonal(block).real
    radii = off.sum(axis=1)
    bound = float((diagonal - radii).min())
    reach = float((diagonal + radii).max())
    return max(bound - block.shape[0] * _EPS * reach, 0.0)


def _lr_factor(block: np.ndarray, shift: float):
    """(A, s) with A @ A^H = block - s*I, for one shifted LR step.

    A shift whose factorization fails falls back to s = 0; if the unshifted
    factorization fails too, the block is not positive definite.  It is
    numpy's `potrf`, as in `cholesky`, but without its checks; every
    LAPACK call here is numpy's: scipy's LAPACK brings its own BLAS thread
    pool, and two pools taking turns stalled each other (10x slower at
    n = 200 on two cores).
    """
    if shift > 0.0:
        shifted = block.copy()
        _diagonal(shifted)[:] -= shift
        try:
            return np.linalg.cholesky(shifted), shift
        except np.linalg.LinAlgError:
            pass
    try:
        return np.linalg.cholesky(block), 0.0
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"iterate of size {block.shape[0]} is not positive definite"
        ) from exc


def _components(coupled: np.ndarray) -> np.ndarray:
    """Component labels of a coupling pattern: the smallest index of each
    index's component.

    Min-label propagation with pointer jumping over closed neighbourhoods
    (an index and its neighbours): every index starts at the first index
    of its neighbourhood (one argmax per row), then repeatedly takes the
    smallest label in its neighbourhood and the label of that label.
    Labels start at or below their index, only fall and always name a
    member of the index's component, so they settle constant on each
    component, at its smallest index.  A component whose smallest index
    neighbours all its other members, the common case, settles at the
    start, and one pass confirms it.
    """
    closed = coupled | coupled.T
    _diagonal(closed)[:] = True
    labels = closed.argmax(axis=1)
    while True:
        settled = np.where(closed, labels, labels.size).min(axis=1)
        settled = settled[settled]
        if (settled == labels).all():
            return labels
        labels = settled


def alt_cholesky_eigs(g, max_iter: int = 500, tol: float = 1e-12) -> SpectralResult:
    """Spectrum of a positive-definite matrix by shifted alternating Cholesky.

    Iterate B_0 = G, B_{k+1} = A_k^H @ A_k + s_k I where
    B_k - s_k I = A_k @ A_k^H is the Cholesky factorization (Rutishauser's
    LR iteration with shifts); the iterates share G's spectrum and converge
    to the diagonal eigenvalue matrix.  Iteration stops when the
    off-diagonal infinity norm drops below ``tol * trace(G)``, relative at
    every scale (`_unit`); a trace <= 0, which no positive-definite matrix
    has, gives no stop, and the matrix is rejected as below.

    Every block of size 2 or more takes the same step.  Its shift s_k is
    the block's Gershgorin lower bound on lambda_min, lowered by a
    rounding margin and clipped at 0.  If the shifted factorization fails
    anyway, the step retries with s_k = 0, and if that fails too the
    iterate, hence G, is not positive definite and NotPositiveDefiniteError
    is raised: the pivot rule is LAPACK's (a pivot must be > 0), the one
    `cholesky` applies, so a singular 2 x 2 input is rejected as a singular
    3 x 3 one is.  The finished diagonal must pass it too, so an input that
    no step factors (1 x 1, or diag(-1, 2)) is checked.  The shift turns
    the convergence ratio lambda_j / lambda_i of a coupling into
    (lambda_j - s) / (lambda_i - s), so the bottom of the spectrum splits
    off within a few steps.

    Couplings already below 1% of the stop threshold (divided by n) are
    treated as converged zeros, which splits the matrix into independent
    diagonal blocks (the connected components of the couplings above that
    threshold, tested every 8 steps and whenever an index is isolated);
    the perturbation this introduces is two orders of magnitude below the
    stop tolerance.  Blocks iterate separately, and `iterations` reports
    the deepest chain.  Convergence for eigenvalue clusters is linear with
    ratio equal to the shifted eigenvalue ratio, so tight clusters may
    need far more than the default budget; non-convergence returns
    ``converged=False`` with the current diagonal.

    Complex Hermitian input iterates as it is, n x n, and an iterate's
    diagonal is read by its real part (on real input every conjugation is
    exact).  `iterations` counts LR steps along the deepest chain: 14 on
    the 4 x 4 Szego Gram of the CLI golden tests.
    """
    _nonnegative(max_iter=max_iter, tol=tol)
    arr = _as_matrix(g)
    _check_hermitian(arr)
    n = arr.shape[0]
    scale = matrix_scale(arr)
    unit = _unit(arr)
    arr = arr * unit  # in arr's layout, which sets the order of each row sum
    # no positive-definite matrix has a trace <= 0: it gets no stop, and
    # its first factor or the pivot rule rejects it
    stop = tol * max(float(np.trace(arr).real), 0.0)
    deflate = 0.01 * stop / max(n, 1)
    # a 1 x 1 input is finished as it is; the pivot rule below still applies
    finished: list[float] = list(np.diag(arr).real) if n <= 1 else []
    # (block, depth, local): a block split off as a component is connected,
    # so its first split test waits a full period
    pending = [(arr, 0, 0)] if n > 1 else []
    deepest = 0
    converged = True
    while pending:
        block, depth, local = pending.pop()
        m = block.shape[0]
        while True:
            off = np.abs(block)
            _diagonal(off)[:] = 0.0
            # each row's largest coupling: below the stop everywhere, the
            # block is finished; at or below `deflate` somewhere, an index is
            # isolated
            row_max = off.max(axis=1)
            if row_max.max() < stop:
                finished.extend(_diagonal(block).real)
                deepest = max(deepest, depth)
                break
            if depth >= max_iter:
                finished.extend(_diagonal(block).real)
                deepest = max(deepest, depth)
                converged = False
                break
            # the shift decouples the bottom of the spectrum within a step
            # or two, so an isolated index is split off at once instead of
            # riding along to the next periodic test
            if local % 8 == 0 or row_max.min() <= deflate:
                labels = _components(off > deflate)
                roots = np.flatnonzero(labels == np.arange(m))
                if roots.size > 1:
                    deepest = max(deepest, depth)  # singletons finish here
                    for root in roots:
                        comp = np.flatnonzero(labels == root)
                        if comp.size == 1:
                            finished.append(float(block[comp[0], comp[0]].real))
                        else:
                            pending.append((block[comp[:, None], comp], depth, 1))
                    break
            lower, shift = _lr_factor(block, _gershgorin_shift(block, off))
            block = lower.conj().T @ lower
            if shift:
                _diagonal(block)[:] += shift
            depth += 1
            local += 1
    if not all(value > 0.0 for value in finished):  # the pivot rule; NaN fails it
        raise NotPositiveDefiniteError("finished diagonal has a pivot <= 0")
    return _finish_spectrum(np.divide(finished, unit), deepest, converged, scale)


def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Brent-Luk round-robin schedule for the pairs of range(n), as seatings.

    The n indices, padded with a dummy index n when n is odd, sit in
    m = n + n % 2 slots; in every round slot 2k pairs with slot 2k + 1, so
    a round holds m / 2 disjoint pairs, and pairs with the dummy are
    skipped.  Returns (order, step): `order[k]` is the index in slot k in
    the first round, and each next round reseats by `step` (slot k then
    holds what slot step[k] held).  This is the circle method: index 0
    keeps its seat and the others move one seat along, so after m - 1
    rounds, one sweep, every unordered pair has met exactly once and the
    seating is `order` again.  `jacobi_eigs` reseats rows and columns by
    flat gathers built from `step` once per call.
    """
    m = n + n % 2
    h = m // 2
    # seats 0..m-1 round a table: seat j faces seat m-1-j; slot 2k holds
    # seat k and slot 2k + 1 the seat facing it
    seat = np.empty(m, dtype=np.intp)
    seat[0::2] = np.arange(h)
    seat[1::2] = np.arange(m - 1, h - 1, -1)
    slot_of_seat = np.argsort(seat)
    previous = np.concatenate(([0, m - 1], np.arange(1, m - 1)))
    return seat, slot_of_seat[previous[seat]]


def _turn_real(a, app, apq, aqq, rot, seats):
    """One round's rotations of a real symmetric `a`, then its reseating.

    `a` belongs to the sweep loop, which replaces it by the result, so its
    columns turn in place.  `seats` holds the flat gathers of `jacobi_eigs`.
    """
    # tan(2 phi) = 2 a_pq / (a_qq - a_pp) with |phi| <= pi/4; a skipped
    # pair gets phi = 0, so c = 1 and s = 0
    diff = aqq - app
    twice = np.arctan2(apq * np.copysign(rot, diff), 0.5 * np.abs(diff))
    # a column pair read as a_p + i a_q turns by c + i s: a_p <- c a_p - s a_q
    # and a_q <- s a_p + c a_q.  Turning the columns of a, then those of its
    # transpose, gives J' a J; the next round's reseating rides along
    turn = np.exp(0.5j * twice)
    transposed, reseated = seats
    pairs = a.view(complex)
    pairs *= turn
    a = a.take(transposed)
    pairs = a.view(complex)
    pairs *= turn
    return a.take(reseated)


def _turn_hermitian(a, app, apq, aqq, rot, seats):
    """One round's rotations of a complex Hermitian `a`, then its reseating.

    The rotation of Forsythe and Henrici (Trans. AMS 94, 1960): with
    tan(2 phi) = 2 |a_pq| / (a_qq - a_pp) and sigma = sin(phi) a_pq / |a_pq|,
    a_p <- c a_p - conj(sigma) a_q and a_q <- sigma a_p + c a_q zero the
    coupling a_pq.  The same column step on the conjugate transpose turns
    the rows, giving J^H a J.
    """
    diff = (aqq - app).real
    mag = np.abs(apq)
    phi = 0.5 * np.arctan2(mag * np.copysign(rot, diff), 0.5 * np.abs(diff))
    c = np.cos(phi)
    sigma = np.sin(phi) * np.divide(apq, mag, out=np.zeros_like(apq), where=rot)

    def columns(x):
        x_p, x_q = x[:, 0::2], x[:, 1::2]
        out = np.empty_like(x)
        out[:, 0::2] = c * x_p - sigma.conj() * x_q
        out[:, 1::2] = sigma * x_p + c * x_q
        return out

    transposed, reseated = seats
    a = columns(a).take(transposed)
    np.conjugate(a, out=a)
    return columns(a).take(reseated)


def jacobi_eigs(g, tol: float = 1e-12) -> SpectralResult:
    """Spectrum of a Hermitian matrix by round-robin Jacobi sweeps.

    A sweep visits every off-diagonal pair once, in the Brent-Luk
    round-robin order (`_round_robin`): each round holds up to n/2
    disjoint pairs, so their rotations commute and apply together as one
    column update and one row update, with every angle computed at once.
    The row update turns the columns of the transpose, and each update
    ends in one contiguous flat gather that also reseats the matrix for
    the next round; a round with nothing to turn only reseats, in one
    gather.  Sweeps repeat until the off-diagonal Frobenius norm falls to
    ``tol * ||G||_F`` (relative, and invariant under the rotations); both
    norms are taken of the matrix as `_unit` scales it, so their squares
    neither overflow nor underflow.  The first five sweeps skip couplings
    below off/n; every sweep skips those below rounding noise,
    1e-15 * (|a_pp| + |a_qq|).  `converged` reports whether the threshold
    was actually reached: a threshold below rounding noise terminates once
    a full sweep performs no rotations.  No LAPACK eigensolver is involved,
    so this serves as the independent reference oracle for
    `alt_cholesky_eigs`.

    Real input takes real rotations, and complex Hermitian input the
    complex rotation of Forsythe and Henrici on the n x n matrix as it is
    (`_turn_hermitian`).  `iterations` counts sweeps: 7 on the 4 x 4 Szego
    Gram of the CLI golden tests, where its real 8 x 8 embedding takes 8.
    """
    _nonnegative(tol=tol)
    arr = _as_matrix(g)
    _check_hermitian(arr)
    n = arr.shape[0]
    scale = matrix_scale(arr)
    if n <= 1:
        return _finish_spectrum(np.diag(arr).real, 0, True, scale)
    turn = _turn_hermitian if np.iscomplexobj(arr) else _turn_real
    unit = _unit(arr)
    arr = arr * unit  # in arr's layout, which sets the order of the sum below
    # conj() of a real array is the array itself
    stop = tol * float(np.sqrt(np.sum((arr * arr.conj()).real)))
    # an odd size gains a zero row and column: its couplings are 0, so it
    # is never rotated and stays exactly zero
    m = n + n % 2
    stride = 2 * m + 2  # from a_pp of one pair to a_pp of the next
    order, step = _round_robin(n)
    # each round's reseating as flat gathers from the m x m array: the
    # transpose with its rows reseated (t[k, j] = a[j, step[k]]), the
    # columns reseated (c[i, k] = a[i, step[k]]), and both at once
    rows = np.arange(0, m * m, m)
    seats = (step[:, None] + rows, rows[:, None] + step)
    both = (m * step)[:, None] + step
    a = np.pad(arr, (0, m - n)).take(order, 0).take(order, 1)

    def off_frobenius():
        off = a - np.diag(np.diag(a))
        return float(np.sqrt(np.sum((off * off.conj()).real)))

    sweeps = 0
    while sweeps < _MAX_JACOBI_SWEEPS:
        current = off_frobenius()
        if current <= stop:
            break
        # threshold strategy: early sweeps skip small couplings, later
        # sweeps rotate everything above rounding noise
        gate = current / n if sweeps < 5 else 0.0
        rotated = False
        for _ in range(m - 1):
            # slot 2k holds p and slot 2k + 1 holds q
            flat = a.ravel()
            app, apq, aqq = flat[::stride], flat[1::stride], flat[m + 1 :: stride]
            noise = 1e-15 * (np.abs(app) + np.abs(aqq))
            rot = np.abs(apq) > (np.maximum(gate, noise) if gate else noise)
            if np.count_nonzero(rot):
                rotated = True
                a = turn(a, app, apq, aqq, rot, seats)
            else:
                a = a.take(both)  # the next round's seating
        sweeps += 1
        if not rotated:
            break
    values = np.diag(a).real[order < n] / unit
    return _finish_spectrum(values, sweeps, off_frobenius() <= stop, scale)


def eig_range(g) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix, from LAPACK.

    The verdicts of `kernels.validate_psd` and `sampling.frame_bounds`
    need only these two eigenvalues, so they come from one call to numpy's
    `eigvalsh`, with real or complex input as it is.  It is numpy's, not
    scipy's: scipy's LAPACK brings its own BLAS thread pool (see
    `_lr_factor`).  LAPACK reads one triangle only, so the input passes
    the same finiteness and Hermitian checks as every route here, and the
    `_finish_spectrum` floor reads rounding-noise negatives as 0.0.  A
    0 x 0 matrix has the empty range (+inf, -inf).
    """
    arr = _as_matrix(g)
    _check_hermitian(arr)
    if arr.size == 0:
        return math.inf, -math.inf
    vals = np.linalg.eigvalsh(arr)
    vals = _finish_spectrum(vals, 0, True, matrix_scale(arr)).eigenvalues
    return float(vals[-1]), float(vals[0])
