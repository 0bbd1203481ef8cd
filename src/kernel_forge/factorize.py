"""Gram-matrix factorizations: Cholesky, inversion, and spectra.

The Cholesky core is a hand-rolled right-looking column sweep; the
first-hitting-time Gram matrices of the Brownian family admit a
closed-form factor built from increment square roots, and the generic
routine must reproduce it.  Spectra come from two independent routes
that the test suite cross-checks against each other: an alternating
Cholesky iteration (factor, transpose-swap, repeat, until the matrix is
numerically diagonal) and a classical cyclic Jacobi sweep.

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


def matrix_scale(arr: np.ndarray) -> float:
    """Largest |A_ii|: the unit of every relative tolerance in the package.

    It scales linearly with the matrix, so a threshold tol * matrix_scale(A)
    gives A and c * A the same verdict; for a PSD matrix it bounds every
    entry, since |A_ij| <= sqrt(A_ii A_jj).  0 for an empty matrix.
    """
    return float(np.max(np.abs(np.diagonal(arr)))) if arr.size else 0.0


def _as_matrix(g) -> np.ndarray:
    """Coerce a GramMatrix or array-like to a fresh square 2-D ndarray."""
    arr = np.array(g.entries if isinstance(g, GramMatrix) else g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
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


def _split_components(mask: np.ndarray):
    """Connected components of a symmetric boolean coupling pattern."""
    m = mask.shape[0]
    unseen = set(range(m))
    comps = []
    while unseen:
        stack = [unseen.pop()]
        comp = set(stack)
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(mask[i]):
                if j in unseen:
                    unseen.remove(j)
                    comp.add(int(j))
                    stack.append(int(j))
        comps.append(sorted(comp))
    return comps


def alt_cholesky_eigs(g, max_iter: int = 500, tol: float = 1e-12) -> SpectralResult:
    """Spectrum of a positive-definite matrix by alternating Cholesky.

    Iterate B_0 = G, B_{k+1} = A_k.T @ A_k where B_k = A_k @ A_k.T is the
    Cholesky factorization; the iterates share G's spectrum and converge
    to the diagonal eigenvalue matrix.  Iteration stops when the
    off-diagonal infinity norm drops below ``tol * trace(G)``.

    Couplings already below 1% of the stop threshold (divided by n) are
    treated as converged zeros, which splits the matrix into independent
    diagonal blocks; the perturbation this introduces is two orders of
    magnitude below the stop tolerance.  Blocks iterate separately, and
    `iterations` reports the deepest chain.  Convergence for eigenvalue
    clusters is linear with ratio equal to the eigenvalue ratio, so tight
    clusters may need far more than the default budget; non-convergence
    returns ``converged=False`` with the current diagonal.

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
    pending = [(arr, 0)]
    deepest = 0
    converged = True
    while pending:
        block, depth = pending.pop()
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
        local = 0
        while True:
            off = np.abs(block)
            np.fill_diagonal(off, 0.0)
            if off.max() < stop:
                finished.extend(np.diag(block))
                deepest = max(deepest, depth)
                break
            if depth >= max_iter:
                finished.extend(np.diag(block))
                deepest = max(deepest, depth)
                converged = False
                break
            if local % 8 == 0:
                comps = _split_components(off > deflate)
                if len(comps) > 1:
                    for comp in comps:
                        if len(comp) == 1:
                            finished.append(float(block[comp[0], comp[0]]))
                        else:
                            pending.append((block[np.ix_(comp, comp)], depth))
                    break
            try:
                # inner factorization is a plain primitive; the public
                # `cholesky` op keeps the hand-rolled sweep
                lower = np.linalg.cholesky(block)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(
                    f"iterate of size {block.shape[0]} is not positive definite"
                ) from exc
            block = lower.T @ lower
            depth += 1
            local += 1
    return _finish_spectrum(finished, deepest, converged, scale, dedup)


def jacobi_eigs(g, tol: float = 1e-12) -> SpectralResult:
    """Spectrum of a Hermitian matrix by classical cyclic Jacobi sweeps.

    Rotations zero one off-diagonal pair at a time; sweeps repeat until
    the off-diagonal Frobenius norm falls to ``tol * ||G||_F`` (relative,
    and invariant under the rotations).  `converged` reports whether that
    threshold was actually reached: a threshold below rounding noise
    terminates once a full sweep performs no rotations.  Serves as the
    independent reference oracle for `alt_cholesky_eigs` and for PSD
    validation.
    """
    arr = _as_matrix(g)
    _check_hermitian(arr)
    dedup = np.iscomplexobj(arr)
    if dedup:
        arr = real_embedding(arr)
    a = np.array(arr, dtype=float)
    n = a.shape[0]
    scale = matrix_scale(a)
    if n <= 1:
        return _finish_spectrum(np.diag(a), 0, True, scale, dedup)
    stop = tol * float(np.sqrt(np.sum(a * a)))

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
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                noise = 1e-15 * (abs(a[p, p]) + abs(a[q, q]))
                if abs(apq) <= max(gate, noise):
                    continue
                rotated = True
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
        sweeps += 1
        if not rotated:
            break
    return _finish_spectrum(np.diag(a), sweeps, off_frobenius() <= stop, scale, dedup)
