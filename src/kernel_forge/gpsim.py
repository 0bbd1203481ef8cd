"""Monte Carlo synthesis of Gaussian processes from kernel factorizations.

Two synthesis routes produce path ensembles whose covariance is a target
kernel: exact finite-dimensional sampling through a Cholesky factor, and
discretized stochastic-integral sums k_x(s_i) * W_i against independent
Wiener increments over a measure partition.  The duality check compares
both halves of the factorization identity K(x, y) = integral of
conj(k_x) k_y dmu — deterministic quadrature on one side, empirical
covariance on the other.

Brownian motion over a base measure mu is `ito_synthesize(pair_ex1(mu),
...)`: W([0, x]) sums the increments of the cells whose left end is <= x
(the quadrature's left-endpoint rule), so at x = 0, as at every dyadic x,
it carries the cell that starts at x.  The grid passes the brownian-min
check (finite, >= 0); for x > 1 the path is W([0, 1]).  Increments are
drawn a tile at a time and never stored, so no paths x cells cap applies.

Randomness policy (pinned for bit-exact reproducibility): path p of a
run with master seed s draws from a Philox counter-based generator keyed
by (s, p).  Raw 64-bit words map to open-interval uniforms via
u = ((word >> 11) + 0.5) * 2^-53, and to normals via the inverse CDF
(scipy.special.ndtri).  Draws depend only on (seed, path, position), so
results are identical across chunk sizes, worker counts, and platforms.

Increments and frame coefficients stay real; complex-valued processes
arise only through complex feature functions, except for direct sampling
of a complex Gram matrix, which widens its complex Cholesky factor L into
the n x 2n factor M = [L, -iL] / sqrt(2): M M^H = G, and M M^T = 0, so
the samples are circular.

`RngSeedPolicy.normal_block` is the one draw engine.  It fills its
(paths, count) output in place, in row chunks of about 64k normals, so
each chunk's word buffer stays in cache: one Philox generator per chunk
is rekeyed per path, and the shift, the offset, the scale and ndtri all
write into the output.  A block of at least 2^20 normals runs its chunks
on a thread pool (Philox, the ufuncs and ndtri release the GIL) with
min(cap, usable cores, chunks) workers, the cap coming from the CLI's
--threads / KERNEL_FORGE_THREADS; smaller blocks run the same chunk
function inline.  Chunks write disjoint rows, so neither the chunking nor
the worker count can change a bit of the output.  The synthesizers draw
and mix one fixed tile of 2048 paths at a time, aligned to path 0 (BLAS
rounds a product's rows by its shape); a complex mixer is applied as two
real products, so the draws are never upcast to complex.

The Ito sum draws many normals per path and mixes them into a few grid
points, so its draws, not its products, take the time.  `ito_synthesize`
(and `duality_check` around it, with its quadrature product) therefore
holds numpy's OpenBLAS to one thread while it runs, and restores the
previous count on exit.  After a multi-threaded product an OpenBLAS
worker busy-waits for about 0.1 s and holds a core that the Philox/ndtri
workers need; on two cores that cost the pool about half its speed.  So
while the draws are made and mixed, the draw pool is the only thread
pool and --threads / KERNEL_FORGE_THREADS bound it.  Direct sampling of
a Gram matrix keeps BLAS threads: its mixer is as wide as its draws, and
there the threaded product gains more than the spin costs the pool.
Frame synthesis keeps them too; it draws one normal per frame function,
rarely enough to reach the pool.  The OpenBLAS is the one numpy loaded,
found with ctypes on first use (scipy's own copy is not on this path);
with another BLAS (MKL, Accelerate) the hold does nothing.  Output bytes
are the same with and without it; the tests compare both.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .errors import NotPositiveDefiniteError, OutOfDomainError
from .factorize import _nonnegative, cholesky
from .kernels import GramMatrix, KernelSpec, _points, gram
from .measures import MeasureModel, _values_at, cells, measure_of_intervals

__all__ = [
    "FactorizationPair",
    "PathEnsemble",
    "RngSeedPolicy",
    "DualityReport",
    "QuadraticVariationReport",
    "pair_ex1",
    "pair_ex2",
    "pair_ex3",
    "custom_pair",
    "sample_gaussian_vector",
    "ito_synthesize",
    "frame_synthesize",
    "empirical_covariance",
    "duality_check",
    "quadratic_variation",
    "transform_adjoint",
]

_PATH_TILE = 2048  # paths per draw and product; fixed, so rounding is too

_TWO_NEG53 = 2.0 ** -53
_CHUNK_NORMALS = 1 << 16  # per chunk: the 512 KiB word buffer stays in cache
_PARALLEL_MIN_NORMALS = 1 << 20  # smaller blocks fill their chunks inline
_worker_cap: Optional[int] = None  # the CLI's --threads; None means usable cores


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _worker_count(n_chunks: int) -> int:
    """Workers for a block of n_chunks chunks; starts no thread."""
    cores = _usable_cores()
    return max(1, min(_worker_cap or cores, cores, n_chunks))


@contextmanager
def _capped_workers(cap: Optional[int]):
    """Cap the draw engine's workers inside the `with` body (the CLI's --threads)."""
    global _worker_cap
    previous, _worker_cap = _worker_cap, cap
    try:
        yield
    finally:
        _worker_cap = previous


@functools.cache
def _blas_controls():
    """(set, get) thread counts of numpy's OpenBLAS; None for another BLAS."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        # dlsym on numpy's core module searches the libraries it loaded,
        # so this finds numpy's OpenBLAS and never scipy's
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                set_n = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get_n = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            set_n.argtypes, set_n.restype = [ctypes.c_int], None
            get_n.argtypes, get_n.restype = [], ctypes.c_int
            return set_n, get_n
    return None


_blas_lock = threading.Lock()
_blas_holders = 0  # `with _one_blas_thread()` bodies running, in any thread
_blas_saved = 0  # numpy's BLAS thread count before the first of them


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the `with` body.

    Re-entrant and thread-safe: the first body to enter saves the count,
    the last to leave restores it, also when a body raises.
    """
    global _blas_holders, _blas_saved
    controls = _blas_controls()
    if controls is None:
        yield
        return
    set_n, get_n = controls
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = get_n()
            set_n(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_n(_blas_saved)


@dataclass(frozen=True)
class RngSeedPolicy:
    """Counter-based substream derivation: path p uses Philox key (seed, p).

    Substreams are statistically independent, and a path's draws are a
    pure function of (master_seed, path, position) — no sequential state
    crosses path boundaries.
    """

    master_seed: int

    def __post_init__(self):
        s = int(self.master_seed)
        if not 0 <= s < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", s)

    def raw(self, path: int, count: int) -> np.ndarray:
        key = np.array([self.master_seed, path], dtype=np.uint64)
        return np.random.Philox(key=key).random_raw(count)

    def uniforms(self, path: int, count: int) -> np.ndarray:
        # (word >> 11) keeps 53 bits; +0.5 centers in (0, 1), so the
        # inverse CDF never sees 0 or 1
        return ((self.raw(path, count) >> np.uint64(11)) + 0.5) * _TWO_NEG53

    def normals(self, path: int, count: int) -> np.ndarray:
        return ndtri(self.uniforms(path, count))

    def normal_block(self, first_path: int, n_paths: int, count: int) -> np.ndarray:
        """(n_paths, count) standard normals, row k from path first_path + k.

        Bit-identical to stacking `normals(path, count)`; filled in place,
        chunk by chunk, on a worker pool when the block is large.
        """
        out = np.empty((n_paths, count))
        per_chunk = max(1, _CHUNK_NORMALS // max(count, 1))
        starts = range(0, n_paths, per_chunk)

        def fill(start):
            self._fill_chunk(first_path + start, out[start : start + per_chunk])

        workers = _worker_count(len(starts)) if out.size >= _PARALLEL_MIN_NORMALS else 1
        if workers > 1:
            with ThreadPoolExecutor(workers) as pool:
                for _ in pool.map(fill, starts):
                    pass
        else:
            for start in starts:
                fill(start)
        return out

    def _fill_chunk(self, first_path: int, rows: np.ndarray) -> None:
        """Write the normals of paths first_path, first_path + 1, ... into rows."""
        count = rows.shape[1]
        words = np.empty(rows.shape, dtype=np.uint64)
        # rekeying one generator to counter 0 with an empty 4-word buffer
        # is the state of a freshly keyed Philox, without its construction
        key = [self.master_seed, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        bitgen = np.random.Philox(0)
        for k in range(rows.shape[0]):
            key[1] = first_path + k
            bitgen.state = state
            words[k] = bitgen.random_raw(count)
        words >>= np.uint64(11)
        np.add(words, 0.5, out=rows)
        rows *= _TWO_NEG53
        ndtri(rows, out=rows)


def _mix_paths(policy: RngSeedPolicy, n_paths: int, mixer: np.ndarray) -> np.ndarray:
    """(n_paths, cols) rows z @ mixer, with z drawn one path tile at a time.

    BLAS rounds a row of a product differently for different row counts,
    so each product is one fixed tile of _PATH_TILE paths aligned to path
    0, drawn by one normal_block call.  A complex mixer is applied as two
    real products, out.real = z @ re and out.imag = z @ im; `z @ mixer`
    would copy z to complex and run a complex gemm, at twice the memory
    and several times the time.
    """
    draws = mixer.shape[0]
    out = np.empty((n_paths, mixer.shape[1]), dtype=mixer.dtype)
    if np.iscomplexobj(mixer):
        parts = (
            (out.real, np.ascontiguousarray(mixer.real)),
            (out.imag, np.ascontiguousarray(mixer.imag)),
        )
    else:
        parts = ((out, mixer),)
    for start in range(0, n_paths, _PATH_TILE):
        z = policy.normal_block(start, min(_PATH_TILE, n_paths - start), draws)
        for dest, m in parts:
            dest[start : start + len(z)] = z @ m
    return out


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """P sample paths over a fixed evaluation grid.

    Deterministic for fixed (seed, resolution, grid, P) regardless of
    chunk size, worker count or execution order.  `ridge_used` is the
    ridge that `sample_gaussian_vector` added to a singular covariance,
    else 0.0.
    """

    grid: list
    paths: np.ndarray
    seed: int
    partition_resolution: Optional[int] = None
    ridge_used: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


# ---------------------------------------------------------------------------
# factorization pairs: feature functions + the measure they integrate against

# built-in pair kind -> the kernel family it factors, whose points its grid takes
_PAIR_FAMILIES = {"indicator": "brownian-min", "szego": "szego",
                  "cantor-product": "cantor-product"}


@dataclass(frozen=True)
class FactorizationPair:
    """Feature family k_x plus the measure mu of a kernel factorization.

    The built-in families realize the three canonical factorizations:
    indicator functions against Lebesgue measure (min kernel), the Szego
    features t -> 1/(1 - z e(-t)) against Lebesgue on the circle, and the
    truncated quartic products t -> prod (1 + z^{4^n} e(-4^n t)) against
    the Cantor measure.  A custom pair supplies feature(x, s_array)
    directly.
    """

    kind: str
    measure: MeasureModel
    trunc: int = 0
    feature: Optional[Callable] = None
    complex_valued: bool = False

    def __post_init__(self):
        if self.kind not in (*_PAIR_FAMILIES, "custom"):
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.kind == "custom" and self.feature is None:
            raise ValueError("custom pairs need a feature callable")
        if self.kind == "cantor-product" and self.trunc < 1:
            raise ValueError("cantor-product pairs need trunc >= 1")
        if self.kind in ("szego", "cantor-product"):
            object.__setattr__(self, "complex_valued", True)

    def feature_matrix(self, grid, reps: np.ndarray) -> np.ndarray:
        """(grid, cells) matrix of k_x(s) for x in grid, s in reps.

        The built-in kinds check the grid with the point validator of the
        kernel they factor and broadcast one grid x cells evaluation; the
        cell factors e(-4^n t) are computed once, and z^{4^n} stays a
        Python complex power per grid point.  A custom pair fills one row
        per feature(x, reps), of shape (cells,), real unless complex_valued.
        """
        grid = list(grid)
        if self.kind == "custom":
            out = np.empty((len(grid), len(reps)), complex if self.complex_valued else float)
            for row, x in zip(out, grid):
                vals = np.asarray(self.feature(x, reps))
                if vals.shape != row.shape:
                    raise ValueError(
                        f"feature({x!r}, reps) returned shape {vals.shape}, "
                        f"expected {row.shape}"
                    )
                if np.iscomplexobj(vals) and not self.complex_valued:
                    raise ValueError(
                        f"feature({x!r}, reps) is complex: the pair needs "
                        "complex_valued=True"
                    )
                row[...] = vals
            return out
        xs = _points(KernelSpec(_PAIR_FAMILIES[self.kind], trunc=self.trunc), grid)
        if self.kind == "indicator":
            return (reps <= xs[:, None]).astype(float)
        if self.kind == "szego":
            return 1.0 / (1.0 - xs[:, None] * np.exp(-2j * np.pi * reps))
        out = np.ones((len(grid), len(reps)), dtype=complex)
        for n in range(self.trunc):
            p = 4 ** n
            powers = np.array([z ** p for z in xs.tolist()])[:, None]
            out *= 1.0 + powers * np.exp(-2j * np.pi * p * reps)
        return out


def pair_ex1(measure: Optional[MeasureModel] = None) -> FactorizationPair:
    """Indicator features chi_[0,x]; Lebesgue by default (min kernel)."""
    return FactorizationPair(
        kind="indicator", measure=measure or MeasureModel("lebesgue")
    )


def pair_ex2(measure: Optional[MeasureModel] = None) -> FactorizationPair:
    """Szego features on the circle; covariance 1/(1 - conj(z) w)."""
    return FactorizationPair(kind="szego", measure=measure or MeasureModel("lebesgue"))


def pair_ex3(trunc: int = 8, measure: Optional[MeasureModel] = None) -> FactorizationPair:
    """Quartic product features against the Cantor measure."""
    return FactorizationPair(
        kind="cantor-product",
        measure=measure or MeasureModel("cantor4"),
        trunc=trunc,
    )


def custom_pair(
    feature: Callable, measure: MeasureModel, complex_valued: bool = False
) -> FactorizationPair:
    return FactorizationPair(
        kind="custom", measure=measure, feature=feature, complex_valued=complex_valued
    )


# ---------------------------------------------------------------------------
# sampling operations


def _gram_entries(g):
    if isinstance(g, GramMatrix):
        return np.array(g.entries), list(g.points.points)
    arr = np.array(g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr, list(range(arr.shape[0]))


def _sampling_factor(arr: np.ndarray, ridge: float) -> np.ndarray:
    """M with M @ M.conj().T = G: L itself if G is real, else n x 2n
    [L, -iL] / sqrt(2), whose zero M @ M.T makes the samples circular."""
    lower = cholesky(arr, ridge=ridge).L
    if not np.iscomplexobj(arr):
        return lower
    return np.hstack((lower, -1j * lower)) / math.sqrt(2.0)


def sample_gaussian_vector(g, n_paths: int, seed: int = 0) -> PathEnsemble:
    """Exact Gaussian sampling with covariance G: each path is L @ Z.

    L is the Cholesky factor (with an automatic ridge of 1e-12 * trace
    retried once if the bare factorization fails, and reported as the
    ensemble's `ridge_used`); Z is a vector of iid
    standard normals from the path's substream.  Complex G samples
    conj(M) @ Z with M = [L, -iL] / sqrt(2), which gives
    E(conj(V_i) V_j) = G_ij and E(V_i V_j) = 0.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    arr, grid = _gram_entries(g)
    policy = RngSeedPolicy(seed)
    n = arr.shape[0]
    if n == 0 or not np.any(arr):
        zeros = np.zeros((n_paths, n), dtype=complex if np.iscomplexobj(arr) else float)
        return PathEnsemble(grid=grid, paths=zeros, seed=policy.master_seed)
    ridge = 0.0
    try:
        factor = _sampling_factor(arr, ridge)
    except NotPositiveDefiniteError:
        ridge = 1e-12 * float(np.trace(arr).real)
        factor = _sampling_factor(arr, ridge)
    mixer = factor.conj().T  # (draws, n); real case: plain transpose
    out = _mix_paths(policy, n_paths, mixer)
    return PathEnsemble(
        grid=grid, paths=out, seed=policy.master_seed, ridge_used=ridge
    )


def ito_synthesize(
    pair: FactorizationPair,
    resolution: int,
    x_grid,
    n_paths: int,
    seed: int = 0,
) -> PathEnsemble:
    """Discretized stochastic integral V_x = sum_i k_x(s_i) W_{A_i}.

    s_i are the left-endpoint cell representatives; increments are
    drawn one path tile at a time so only the P x |grid| result materializes.
    """
    part = cells(pair.measure, resolution)
    grid = list(x_grid)
    phi = pair.feature_matrix(grid, part.reps)
    return _ito_ensemble(phi, part.masses, grid, resolution, n_paths, seed)


def _ito_ensemble(phi, masses, grid, resolution, n_paths, seed) -> PathEnsemble:
    """The Ito sum's paths from its grid x cells feature matrix phi."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    policy = RngSeedPolicy(seed)
    mixer = (phi * np.sqrt(masses)).T  # cells x grid: z @ mixer = sum k(s_i) sqrt(m_i) z_i
    with _one_blas_thread():  # no BLAS thread may spin while the draws run
        out = _mix_paths(policy, n_paths, mixer)
    return PathEnsemble(
        grid=grid, paths=out, seed=policy.master_seed, partition_resolution=resolution
    )


def frame_synthesize(g_functions, x_grid, n_paths: int, seed: int = 0) -> PathEnsemble:
    """V_x = sum_n g_n(x) zeta_n with iid standard normal zeta.

    The empirical covariance converges to sum_n conj(g_n(x)) g_n(y) in
    the conjugate-first convention used throughout.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    grid = list(x_grid)
    fns = list(g_functions)
    cols = np.array([[fn(x) for fn in fns] for x in grid])  # grid x N
    # a g_n that returns a one-element array adds a trailing axis, and an
    # empty grid gives shape (0,)
    cols = cols.reshape(len(grid), len(fns))
    policy = RngSeedPolicy(seed)
    out = _mix_paths(policy, n_paths, cols.T)
    return PathEnsemble(grid=grid, paths=out, seed=policy.master_seed)


def empirical_covariance(e: PathEnsemble) -> np.ndarray:
    """C(x, y) = (1/P) sum_p conj(V_x^p) V_y^p — no mean centering.

    The upper triangle is computed once and mirrored with conjugation, so
    the result is Hermitian exactly.
    """
    if e.n_paths < 2:
        raise ValueError("need at least two paths for an empirical covariance")
    v = e.paths
    c = v.conj().T @ v / e.n_paths
    upper = np.triu(c)
    out = upper + np.triu(c, 1).conj().T
    if np.iscomplexobj(out):
        out[np.diag_indices_from(out)] = out.diagonal().real
    return out


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Both halves of the factorization identity on a grid.

    quad_error: max |quadrature of conj(k_x) k_y - K(x, y)| (deterministic).
    mc_error:   max |empirical covariance - K| (stochastic).
    Tolerances ride along; `passed` requires both halves.
    """

    pair_kind: str
    kernel_family: str
    grid: list
    resolution: int
    n_paths: int
    seed: int
    quad_error: float
    quad_tol: float
    mc_error: float
    mc_tol: float

    @property
    def quad_pass(self) -> bool:
        return self.quad_error <= self.quad_tol

    @property
    def mc_pass(self) -> bool:
        return self.mc_error <= self.mc_tol

    @property
    def passed(self) -> bool:
        return self.quad_pass and self.mc_pass


def duality_check(
    pair: FactorizationPair,
    spec: KernelSpec,
    grid,
    resolution: int,
    n_paths: int,
    seed: int = 0,
    quad_tol: Optional[float] = None,
    mc_tol: Optional[float] = None,
) -> DualityReport:
    """Check that the pair factors the kernel, twice over.

    Deterministic half: left-endpoint quadrature of conj(k_x) k_y against
    the pair's measure, compared entrywise to the Gram matrix (default
    tolerance 2^-resolution).  Stochastic half: empirical covariance of
    the `ito_synthesize` ensemble against the Gram matrix (default
    tolerance 5 max|K| / sqrt(P), five standard errors); a given
    tolerance must be finite and >= 0.  Both halves read one partition
    and one feature matrix.
    """
    _nonnegative(quad_tol=quad_tol, mc_tol=mc_tol)
    grid = list(grid)
    target = gram(spec, grid).entries
    part = cells(pair.measure, resolution)
    phi = pair.feature_matrix(grid, part.reps)
    with _one_blas_thread():  # no BLAS thread may spin while the draws run
        quad = (phi.conj() * part.masses) @ phi.T
        ensemble = _ito_ensemble(phi, part.masses, grid, resolution, n_paths, seed)
        emp = empirical_covariance(ensemble)
    quad_error = float(np.max(np.abs(quad - target))) if len(grid) else 0.0
    mc_error = float(np.max(np.abs(emp - target))) if len(grid) else 0.0

    max_k = float(np.max(np.abs(target))) if len(grid) else 1.0
    return DualityReport(
        pair_kind=pair.kind,
        kernel_family=spec.family,
        grid=grid,
        resolution=resolution,
        n_paths=n_paths,
        seed=ensemble.seed,
        quad_error=quad_error,
        quad_tol=float(quad_tol) if quad_tol is not None else 2.0 ** (-resolution),
        mc_error=mc_error,
        mc_tol=float(mc_tol) if mc_tol is not None else 5.0 * max_k / math.sqrt(n_paths),
    )


@dataclass(frozen=True, eq=False)
class QuadraticVariationReport:
    """Per-resolution quadratic variation of Wiener increments over A.

    Each row reports the empirical mean of Q = sum W_{A_i}^2 (targets
    mu(A)), the empirical E|mu(A) - Q|^2 and its expectation
    2 sum m_i^2 (the chi-square fluctuation, halving per dyadic
    refinement).
    """

    interval: tuple
    mu: float
    resolutions: list
    mean_q: list
    e_sq: list
    expected_e_sq: list
    n_cells: list
    n_paths: int
    seed: int


def quadratic_variation(
    m: MeasureModel, interval, resolutions, n_paths: int, seed: int = 0
) -> QuadraticVariationReport:
    """Sum of squared increments over the cells inside A, per resolution.

    A must be a union of cells at every listed resolution; per path the
    statistic Q concentrates on mu(A) as cells shrink.  Each 2048-path
    tile is drawn once, at the finest cell count: a path's first c
    normals are the normals of a c-cell draw, so every coarser resolution
    reads a prefix of the same tile.  The sums run one tile at a time, and
    their order sets the last digits of mean_q and e_sq.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    a, b = (float(interval[0]), float(interval[1]))
    if not 0.0 <= a < b <= 1.0:
        raise OutOfDomainError("interval must satisfy 0 <= a < b <= 1")
    mu = measure_of_intervals(m, [(a, b)])
    policy = RngSeedPolicy(seed)
    resolutions = [int(r) for r in resolutions]
    indices, roots, expected = [], [], []
    for r in resolutions:
        part = cells(m, r)
        idx = part.inside([(a, b)])
        mass = part.masses[idx]
        indices.append(idx)
        roots.append(np.sqrt(mass))
        expected.append(float(2.0 * np.sum(mass ** 2)))
    total = [0.0] * len(resolutions)
    total_sq = [0.0] * len(resolutions)
    width = max((1 << r for r in resolutions), default=0)
    for start in range(0, n_paths, _PATH_TILE) if resolutions else ():
        rows = min(_PATH_TILE, n_paths - start)
        tile = policy.normal_block(start, rows, width)
        for k, (idx, root) in enumerate(zip(indices, roots)):
            q = np.sum((tile[:, idx] * root) ** 2, axis=1)
            total[k] += float(np.sum(q))
            total_sq[k] += float(np.sum((mu - q) ** 2))
    return QuadraticVariationReport(
        interval=(a, b),
        mu=mu,
        resolutions=resolutions,
        mean_q=[t / n_paths for t in total],
        e_sq=[t / n_paths for t in total_sq],
        expected_e_sq=expected,
        n_cells=[int(len(idx)) for idx in indices],
        n_paths=n_paths,
        seed=policy.master_seed,
    )


def transform_adjoint(pair: FactorizationPair, f, x_grid, resolution: int) -> np.ndarray:
    """Adjoint transform by quadrature: (T* f)(x) = integral f conj(k_x) dmu."""
    part = cells(pair.measure, resolution)
    phi = pair.feature_matrix(list(x_grid), part.reps)
    return (phi.conj() * part.masses) @ _values_at(f, part.reps)
