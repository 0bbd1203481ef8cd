"""Gram-matrix factorizations: Cholesky, inversion, and spectra.

The Cholesky core is a hand-rolled right-looking column sweep; the
first-hitting-time Gram matrices of the Brownian family admit a
closed-form factor built from increment square roots, and the generic
routine must reproduce it.  Spectra come from two independent routes
that the test suite cross-checks against each other: a shifted
alternating Cholesky iteration (factor B - sI, transpose-swap, add sI
back, repeat, until the matrix is numerically diagonal) and Jacobi
rotation sweeps in Brent-Luk round-robin order, where each round rotates
up to n/2 disjoint pairs at once.

Complex Hermitian matrices are handled throughout by the real block
embedding [[Re, -Im], [Im, Re]], which is symmetric, positive definite
exactly when the original is, and carries each eigenvalue twice.

Every tolerance is relative to the matrix it judges: pivots and eigenvalue
floors are measured in units of `matrix_scale` (the largest |G_ii|), and
the Jacobi stop in units of the Frobenius norm.  Scaling a matrix by
c > 0 therefore never changes a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotIncreasingError, NotPositiveDefiniteError, SingularMatrixError
from .kernels import GramMatrix, SampleSet

__all__ = [
    "CholeskyFactor",
    "SpectralResult",
    "real_embedding",
    "cholesky",
    "brownian_cholesky_closed_form",
    "inverse_gram",
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
    return float(np.max(np.abs(np.diagonal(arr)))) if arr.size else 0.0


def _as_matrix(g) -> np.ndarray:
    """Coerce a GramMatrix or array-like to a fresh square 2-D ndarray.

    A NaN or infinite entry raises ValueError: no factorization or spectrum
    of such a matrix means anything, and every routine in this module
    takes its input through here.
    """
    arr = np.array(g.entries if isinstance(g, GramMatrix) else g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has a NaN or infinite entry")
    if np.iscomplexobj(arr) and not np.any(arr.imag):
        arr = arr.real.copy()
    return arr.astype(complex if np.iscomplexobj(arr) else float)


def _check_hermitian(arr: np.ndarray) -> None:
    if arr.size == 0:
        return
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > 1e-8 * float(np.max(np.abs(arr))):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


def real_embedding(arr: np.ndarray) -> np.ndarray:
    """Real symmetric 2n x 2n block embedding [[Re, -Im], [Im, Re]].

    The embedding is an algebra homomorphism (products and inverses pass
    through) and its spectrum is that of the complex matrix with every
    eigenvalue repeated twice.
    """
    re, im = arr.real, arr.imag
    return np.block([[re, -im], [im, re]])


def _chol_lower(a: np.ndarray, tol: float) -> np.ndarray:
    """Right-looking Cholesky column sweep on a real symmetric matrix.

    Raises NotPositiveDefiniteError as soon as a pivot falls below the
    absolute threshold ``tol`` or is not positive (NaN pivots fail too).
    """
    n = a.shape[0]
    work = np.array(a, dtype=float)
    lower = np.zeros_like(work)
    for j in range(n):
        pivot = work[j, j]
        if not (pivot >= tol and pivot > 0.0):
            raise NotPositiveDefiniteError(
                f"Cholesky pivot {pivot:.6e} at index {j} is below tolerance {tol:.1e}"
            )
        root = math.sqrt(pivot)
        lower[j, j] = root
        if j + 1 < n:
            col = work[j + 1 :, j] / root
            lower[j + 1 :, j] = col
            work[j + 1 :, j + 1 :] -= np.outer(col, col)
    return lower


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular factor with L @ L.T = G + ridge*I.

    For complex Hermitian input `L` factors the real block embedding, so
    it is 2n x 2n; `reconstruct()` then returns the embedded matrix.
    """

    L: np.ndarray
    ridge_used: float = 0.0

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def reconstruct(self) -> np.ndarray:
        return self.L @ self.L.T


def cholesky(g, ridge: float = 0.0, tol: float = 1e-12) -> CholeskyFactor:
    """Cholesky factor of a Hermitian PSD matrix (plus optional ridge).

    Complex input is factored through its real block embedding.  A pivot
    below ``tol * matrix_scale(G)`` (G before the ridge) raises
    NotPositiveDefiniteError, so the verdict does not depend on the scale
    of G; a positive `ridge` is added to the diagonal before factoring
    (and reported in the result).
    """
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    arr = _as_matrix(g)
    _check_hermitian(arr)
    threshold = tol * matrix_scale(arr)
    if np.iscomplexobj(arr):
        arr = real_embedding(arr)
    if ridge:
        arr = arr + ridge * np.eye(arr.shape[0])
    return CholeskyFactor(L=_chol_lower(arr, threshold), ridge_used=float(ridge))


def brownian_cholesky_closed_form(points) -> CholeskyFactor:
    """Closed-form Cholesky factor for the Brownian min-kernel Gram.

    For 0 < x_1 < ... < x_N the Gram G_ij = min(x_i, x_j) factors as
    L[n, m] = sqrt(x_m - x_{m-1}) for m <= n (with x_0 = 0), a lower
    triangle of constant columns.  det G is then the product of the
    increments.
    """
    if isinstance(points, SampleSet):
        xs = [float(p) for p in points.points]
    else:
        xs = [float(p) for p in points]
    if not xs:
        return CholeskyFactor(L=np.zeros((0, 0)))
    prev = 0.0
    for x in xs:
        if x <= prev:
            raise NotIncreasingError(
                f"points must be strictly increasing and positive, got {x} after {prev}"
            )
        prev = x
    roots = np.sqrt(np.diff(np.concatenate(([0.0], xs))))
    return CholeskyFactor(L=np.tril(np.tile(roots, (len(xs), 1))))


def inverse_gram(g) -> np.ndarray:
    """Inverse of a positive-definite Gram matrix via Cholesky solves.

    Complex matrices invert through the real embedding (the embedding of
    the inverse is the inverse of the embedding).  Raises
    SingularMatrixError when the matrix is not safely invertible: a
    Cholesky pivot falls below 1e-12 * matrix_scale(G).
    """
    arr = _as_matrix(g)
    was_complex = np.iscomplexobj(arr)
    n = arr.shape[0]
    if n == 0:
        return arr.copy()
    try:
        factor = cholesky(arr, ridge=0.0, tol=1e-12)
    except NotPositiveDefiniteError as exc:
        raise SingularMatrixError(f"matrix is singular or indefinite: {exc}") from exc
    eye = np.eye(factor.n)
    half = scipy.linalg.solve_triangular(factor.L, eye, lower=True, check_finite=False)
    inv = scipy.linalg.solve_triangular(
        factor.L.T, half, lower=False, check_finite=False
    )
    if was_complex:
        return inv[:n, :n] + 1j * inv[n:, :n]
    return inv


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Eigenvalues in descending order plus iteration bookkeeping."""

    eigenvalues: np.ndarray
    iterations: int
    converged: bool


def _finish_spectrum(values, iterations, converged, scale, deduplicate):
    vals = np.sort(np.asarray(values, dtype=float))[::-1]
    if deduplicate:
        # embedded spectra carry each eigenvalue twice; average the pairs
        vals = 0.5 * (vals[0::2] + vals[1::2])
    floor = _EIG_FLOOR * scale
    vals = np.where((vals < 0.0) & (vals > -floor), 0.0, vals)
    return SpectralResult(
        eigenvalues=vals, iterations=int(iterations), converged=bool(converged)
    )


def _lr_step_2x2(a, b, d, stop, start, max_iter):
    """Scalar alternating-Cholesky iteration on [[a, b], [b, d]].

    Tiny trailing blocks dominate late convergence, so this path avoids
    per-call array overhead entirely.
    """
    it = start
    while abs(b) >= stop and it < max_iter:
        if not a > 0.0:
            raise NotPositiveDefiniteError(f"2x2 iterate has nonpositive pivot {a:.6e}")
        shifted = d - b * b / a
        if shifted < 0.0:
            raise NotPositiveDefiniteError(
                f"2x2 iterate has nonpositive pivot {shifted:.6e}"
            )
        a, b, d = a + b * b / a, b * math.sqrt(shifted / a), shifted
        it += 1
    return (a, d), it, abs(b) < stop


def _gershgorin_shift(block: np.ndarray, off: np.ndarray) -> float:
    """A shift below lambda_min(block): the Gershgorin bound, backed off.

    `off` is |block| with a zero diagonal.  The bound min_i(B_ii - R_i) is
    lowered by m * eps * max_i(B_ii + R_i), which covers the rounding in
    the row sums; a bound at or below 0 gives no shift.
    """
    diagonal = np.diagonal(block)
    radii = off.sum(axis=1)
    bound = float(np.min(diagonal - radii))
    reach = float(np.max(diagonal + radii))
    return max(bound - block.shape[0] * _EPS * reach, 0.0)


def _lr_factor(block: np.ndarray, diag, shift: float):
    """(A, s) with A @ A.T = block - s*I, for one shifted LR step.

    A shift whose factorization fails falls back to s = 0; if the unshifted
    factorization fails too, the block is not positive definite.  The
    inner factorization is a plain primitive; the public `cholesky` op
    keeps the hand-rolled sweep.  It is numpy's, like the product that
    follows it: scipy's LAPACK brings its own BLAS thread pool, and two
    pools taking turns stalled each other (10x slower at n = 200 on two
    cores).
    """
    if shift > 0.0:
        shifted = block.copy()
        shifted[diag] -= shift
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
    """Component labels of a coupling pattern, one label per index.

    Min-label propagation with pointer jumping: every index takes the
    smallest label among its own and its neighbours', then the label of
    that label.  Labels only fall and always name a member of the index's
    component, so they settle with each component labelled by one of its
    members, which labels itself.
    """
    coupled = coupled | coupled.T
    labels = np.arange(coupled.shape[0])
    while True:
        settled = np.minimum(labels, np.where(coupled, labels, labels.size).min(axis=1))
        settled = settled[settled]
        if np.array_equal(settled, labels):
            return labels
        labels = settled


def alt_cholesky_eigs(g, max_iter: int = 500, tol: float = 1e-12) -> SpectralResult:
    """Spectrum of a positive-definite matrix by shifted alternating Cholesky.

    Iterate B_0 = G, B_{k+1} = A_k.T @ A_k + s_k I where
    B_k - s_k I = A_k @ A_k.T is the Cholesky factorization (Rutishauser's
    LR iteration with shifts); the iterates share G's spectrum and converge
    to the diagonal eigenvalue matrix.  Iteration stops when the
    off-diagonal infinity norm drops below ``tol * trace(G)``.

    The shift s_k of a block of size 3 or more is its Gershgorin lower
    bound on lambda_min, lowered by a rounding margin and clipped at 0.
    If the shifted factorization fails anyway, the step retries with
    s_k = 0, and if that fails too the iterate, hence G, is not positive
    definite and NotPositiveDefiniteError is raised.  The shift turns the
    convergence ratio lambda_j / lambda_i of a coupling into
    (lambda_j - s) / (lambda_i - s), so the bottom of the spectrum splits
    off within a few steps.  2 x 2 blocks iterate unshifted on scalars.

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

    Complex Hermitian input goes through the real block embedding and
    the doubled spectrum is de-duplicated afterwards.
    """
    arr = _as_matrix(g)
    _check_hermitian(arr)
    dedup = np.iscomplexobj(arr)
    if dedup:
        arr = real_embedding(arr)
    n = arr.shape[0]
    scale = matrix_scale(arr)
    if n == 0:
        return _finish_spectrum([], 0, True, scale, False)
    trace = float(np.trace(arr))
    stop = tol * max(trace, 1e-300)
    deflate = 0.01 * stop / n
    finished: list[float] = []
    # (block, depth, local): a block split off as a component is connected,
    # so its first split test waits a full period
    pending = [(arr, 0, 0)]
    deepest = 0
    converged = True
    while pending:
        block, depth, local = pending.pop()
        m = block.shape[0]
        if m == 1:
            finished.append(float(block[0, 0]))
            deepest = max(deepest, depth)
            continue
        if m == 2:
            pair, depth, ok = _lr_step_2x2(
                block[0, 0], block[0, 1], block[1, 1], stop, depth, max_iter
            )
            finished.extend(pair)
            deepest = max(deepest, depth)
            converged &= ok
            continue
        diag = np.diag_indices(m)
        while True:
            off = np.abs(block)
            off[diag] = 0.0
            if off.max() < stop:
                finished.extend(np.diag(block))
                deepest = max(deepest, depth)
                break
            if depth >= max_iter:
                finished.extend(np.diag(block))
                deepest = max(deepest, depth)
                converged = False
                break
            coupled = off > deflate
            # the shift decouples the bottom of the spectrum within a step
            # or two, so an isolated index is split off at once instead of
            # riding along to the next periodic test
            if local % 8 == 0 or not coupled.any(axis=1).all():
                labels = _components(coupled)
                roots = np.flatnonzero(labels == np.arange(m))
                if roots.size > 1:
                    for root in roots:
                        comp = np.flatnonzero(labels == root)
                        if comp.size == 1:
                            finished.append(float(block[comp[0], comp[0]]))
                        else:
                            pending.append((block[np.ix_(comp, comp)], depth, 1))
                    break
            lower, shift = _lr_factor(block, diag, _gershgorin_shift(block, off))
            block = lower.T @ lower
            if shift:
                block[diag] += shift
            depth += 1
            local += 1
    return _finish_spectrum(finished, deepest, converged, scale, dedup)


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
    seating is `order` again.
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


def jacobi_eigs(g, tol: float = 1e-12) -> SpectralResult:
    """Spectrum of a Hermitian matrix by round-robin Jacobi sweeps.

    A sweep visits every off-diagonal pair once, in the Brent-Luk
    round-robin order (`_round_robin`): each round holds up to n/2
    disjoint pairs, so their rotations commute and apply together as one
    column update and one row update, with every angle computed at once.
    Sweeps repeat until the off-diagonal Frobenius norm falls to
    ``tol * ||G||_F`` (relative, and invariant under the rotations).  The
    first five sweeps skip couplings below off/n; every sweep skips those
    below rounding noise, 1e-15 * (|a_pp| + |a_qq|).  `converged` reports
    whether the threshold was actually reached: a threshold below rounding
    noise terminates once a full sweep performs no rotations.  No LAPACK
    eigensolver is involved, so this serves as the independent reference
    oracle for `alt_cholesky_eigs` and for PSD validation.
    """
    arr = _as_matrix(g)
    _check_hermitian(arr)
    dedup = np.iscomplexobj(arr)
    if dedup:
        arr = real_embedding(arr)
    n = arr.shape[0]
    scale = matrix_scale(arr)
    if n <= 1:
        return _finish_spectrum(np.diag(arr), 0, True, scale, dedup)
    stop = tol * float(np.sqrt(np.sum(arr * arr)))
    # an odd size gains a zero row and column: its couplings are 0, so it
    # is never rotated and stays exactly zero
    m = n + n % 2
    stride = 2 * m + 2  # from a_pp of one pair to a_pp of the next
    order, step = _round_robin(n)
    a = np.pad(arr, (0, m - n)).take(order, 0).take(order, 1)

    def off_frobenius():
        off = a - np.diag(np.diag(a))
        return float(np.sqrt(np.sum(off * off)))

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
            flat = a.reshape(-1)
            app, apq, aqq = flat[::stride], flat[1::stride], flat[m + 1 :: stride]
            rot = np.abs(apq) > np.maximum(gate, 1e-15 * (np.abs(app) + np.abs(aqq)))
            if rot.any():
                rotated = True
                # tan(2 phi) = 2 a_pq / (a_qq - a_pp) with |phi| <= pi/4; a
                # skipped pair gets phi = 0, so c = 1 and s = 0
                diff = aqq - app
                twice = np.arctan2(apq * np.copysign(rot, diff), 0.5 * np.abs(diff))
                # a column pair read as a_p + i a_q turns by c + i s:
                # a_p <- c a_p - s a_q and a_q <- s a_p + c a_q.  Turning the
                # columns of a, then those of its transpose, gives J' a J;
                # the row gather of the next round's seating rides along
                turn = np.exp(0.5j * twice)
                a = (a.view(complex) * turn).view(float).T.take(step, 0)
                a = (a.view(complex) * turn).view(float).take(step, 1)
            else:
                a = a.take(step, 0).take(step, 1)  # the next round's seating
        sweeps += 1
        if not rotated:
            break
    values = np.diag(a)[order < n]
    return _finish_spectrum(values, sweeps, off_frobenius() <= stop, scale, dedup)
