"""Monte Carlo synthesis of Gaussian processes from kernel factorizations.

A factorization pair (feature functions k_x and a measure mu) is turned
into paths by the discretized stochastic-integral sum
V_x = sum_i k_x(s_i) W_i against independent Wiener increments over a
measure partition.  The duality check compares both halves of the
factorization identity K(x, y) = integral of conj(k_x) k_y dmu —
deterministic quadrature on one side, empirical covariance on the other.

Brownian motion over a base measure mu is `ito_synthesize(pair_ex1(mu),
...)`: W([0, x]) sums the increments of the cells whose left end is <= x
(the quadrature's left-endpoint rule), so at x = 0, as at every dyadic x,
it carries the cell that starts at x.  The grid passes the brownian-min
check (finite, >= 0); for x > 1 the path is W([0, 1]).  Increments are
drawn a block at a time and never stored, so no paths x cells cap applies.

Randomness policy (pinned for bit-exact reproducibility): path p of a
run with master seed s draws from a Philox counter-based generator keyed
by (s, p).  Raw 64-bit words map to open-interval uniforms via
u = ((word >> 11) + 0.5) * 2^-53, and to normals via the inverse CDF
(scipy.special.ndtri, imported on the first draw, so a run that never
draws never loads scipy).  Draws depend only on (seed, path, position),
and a mixed path only on (seed, path, mixer): results are identical
across path counts, worker counts and BLAS thread counts.

Increments stay real; complex-valued processes arise only through
complex feature functions (the Szego and Cantor-product pairs).

One block runner, `_run_blocks`, runs every draw job: on a thread pool
of min(cap, usable cores, blocks) workers for a job of at least 2^20
normals (Philox, the ufuncs, ndtri and BLAS release the GIL), the cap
coming from the CLI's --threads / KERNEL_FORGE_THREADS; smaller jobs run
the same blocks inline.  The runner imports ndtri in its own thread
before a pool starts, so no two workers import scipy at once.
`_fill_chunk` draws a block's rows in place: one Philox generator is
rekeyed per path, and the shift, the offset, the scale and ndtri all
write into the rows.  Every block writes only its own rows, so neither
the blocking nor the worker count can change a bit.

Every draw is one `_fill_chunk` block on `_run_blocks`: the paths are
cut into blocks of B = _block_rows(draws) paths (about 2^17 normals, at
most 2048 paths) aligned to path 0, and the worker that owns a block
draws it into a cache-sized buffer and writes only its paths' results.
`_mix_paths` writes its rows of z @ mixer; the last block is zero-padded
to B rows, so every product has one shape, and BLAS, which rounds a
product's rows by its shape, rounds a path the same way in every run.
A complex mixer is one real product with its float view, whose columns
interleave [re | im]; the draws are never upcast.  `quadratic_variation`
writes each path's Q per resolution.  `RngSeedPolicy.normal_block`, one
`_fill_chunk` into a fresh array, is the tests' oracle; no synthesizer
calls it.

One BLAS rule: every Monte Carlo product (the Ito sum's mix) runs under
`_one_blas_thread`, which holds numpy's OpenBLAS to one thread and
restores the previous count on exit; `duality_check` holds it around its
quadrature product and empirical covariance too.  After a multi-threaded
product an OpenBLAS worker busy-waits for about 0.1 s and holds a core
that the draw workers need; on two cores that cost the pool about half
its speed.  So the draw pool is the only thread pool, and --threads /
KERNEL_FORGE_THREADS bound it: a wide mixer's products run in parallel
as the pool's blocks.  The OpenBLAS is the one numpy loaded, found with
ctypes on first use (scipy's own copy is not on this path); with another
BLAS (MKL, Accelerate) the hold does nothing.  Output bytes are the same
with and without it; the tests compare both.
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

from .errors import OutOfDomainError
from .factorize import _nonnegative
from .kernels import KernelSpec, _points, gram
from .measures import MeasureModel, cells, measure_of_intervals

__all__ = [
    "FactorizationPair",
    "PathEnsemble",
    "RngSeedPolicy",
    "DualityReport",
    "QuadraticVariationReport",
    "pair_ex1",
    "pair_ex2",
    "pair_ex3",
    "ito_synthesize",
    "empirical_covariance",
    "duality_check",
    "quadratic_variation",
]

_PATH_TILE = 2048  # at most this many paths per block; qvar sums Q this many at a time

_TWO_NEG53 = 2.0 ** -53
_BLOCK_NORMALS = 1 << 17  # per block; sets a mixed product's shape, so its rounding
_PARALLEL_MIN_NORMALS = 1 << 20  # smaller jobs run their blocks inline
_worker_cap: Optional[int] = None  # the CLI's --threads; None means usable cores


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _worker_count(n_blocks: int) -> int:
    """Workers for a job of n_blocks blocks; starts no thread."""
    cores = _usable_cores()
    return max(1, min(_worker_cap or cores, cores, n_blocks))


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
def _ndtri():
    """scipy.special.ndtri, imported on the first call: only a draw needs scipy."""
    from scipy.special import ndtri

    return ndtri


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

    def normal_block(self, first_path: int, n_paths: int, count: int) -> np.ndarray:
        """(n_paths, count) standard normals, row k from path first_path + k.

        One `_fill_chunk` into a fresh array, in this thread.  The Ito sum
        and the quadratic variation draw on `_run_blocks`' workers
        instead; this is their tests' reference.
        """
        out = np.empty((n_paths, count))
        self._fill_chunk(first_path, out)
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
        # (word >> 11) keeps 53 bits; +0.5 centers in (0, 1), so the
        # inverse CDF never sees 0 or 1
        words >>= np.uint64(11)
        np.add(words, 0.5, out=rows)
        rows *= _TWO_NEG53
        _ndtri()(rows, out=rows)


def _run_blocks(work: Callable[[int], None], n_blocks: int, normals: int) -> None:
    """work(0), ..., work(n_blocks - 1): on the draw pool for a job of at
    least _PARALLEL_MIN_NORMALS normals, else inline in this thread."""
    workers = _worker_count(n_blocks) if normals >= _PARALLEL_MIN_NORMALS else 1
    if workers == 1:
        for block in range(n_blocks):
            work(block)
        return
    _ndtri()  # import scipy here, not in two workers at once
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(work, range(n_blocks)):
            pass


def _block_rows(draws: int) -> int:
    """Paths per block, a pure function of the draw count: about
    _BLOCK_NORMALS normals, and at most _PATH_TILE short paths."""
    return max(1, min(_PATH_TILE, _BLOCK_NORMALS // max(draws, 1)))


def _mix_block(policy: RngSeedPolicy, first_path: int, mixer: np.ndarray, dest) -> None:
    """Write rows first_path, ... of z @ mixer into dest (at most B rows).

    z is one block of B paths, drawn into a buffer that is zero past
    dest's rows, so the product has the same shape in every block.
    """
    z = np.empty((_block_rows(mixer.shape[0]), mixer.shape[0]))
    n = len(dest)
    policy._fill_chunk(first_path, z[:n])
    z[n:] = 0.0
    dest[...] = (z @ mixer)[:n]


def _mix_paths(policy: RngSeedPolicy, n_paths: int, mixer: np.ndarray) -> np.ndarray:
    """(n_paths, cols) rows z @ mixer, drawn and mixed one block at a time.

    Block b holds paths bB, ..., bB + B - 1, B = _block_rows(draws); the
    worker that draws a block multiplies it and writes only its rows of
    the output, so no paths x draws array is ever made, and a path's
    value depends on (seed, path, mixer) alone.  A complex mixer is one
    real product: its float view interleaves [re | im] column by column,
    as the float view of a complex output row does.
    """
    mixer = np.asarray(mixer, dtype=np.result_type(mixer.dtype, np.float64))
    draws, cols = mixer.shape
    out = np.empty((n_paths, cols), dtype=mixer.dtype)
    if np.iscomplexobj(mixer):
        mixer, dest = np.ascontiguousarray(mixer).view(np.float64), out.view(np.float64)
    else:
        dest = out
    rows = _block_rows(draws)

    def mix(block):
        start = block * rows
        _mix_block(policy, start, mixer, dest[start : start + rows])

    with _one_blas_thread():  # also on the workers: no BLAS thread may spin
        _run_blocks(mix, -(-n_paths // rows), n_paths * draws)
    return out


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """P sample paths over a fixed evaluation grid.

    Path p depends on the seed, p and the synthesizer's other inputs
    alone: not on P, the worker count or the execution order.
    """

    grid: list
    paths: np.ndarray
    seed: int
    partition_resolution: int

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
    the Cantor measure.
    """

    kind: str
    measure: MeasureModel
    trunc: int = 0

    def __post_init__(self):
        if self.kind not in _PAIR_FAMILIES:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.kind == "cantor-product" and self.trunc < 1:
            raise ValueError("cantor-product pairs need trunc >= 1")

    def feature_matrix(self, grid, reps: np.ndarray) -> np.ndarray:
        """(grid, cells) matrix of k_x(s) for x in grid, s in reps.

        The grid is checked with the point validator of the kernel the
        pair factors, and one grid x cells evaluation is broadcast; the
        cell factors e(-4^n t) are computed once, and z^{4^n} stays a
        Python complex power per grid point.
        """
        grid = list(grid)
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


# ---------------------------------------------------------------------------
# sampling operations


def ito_synthesize(
    pair: FactorizationPair,
    resolution: int,
    x_grid,
    n_paths: int,
    seed: int = 0,
) -> PathEnsemble:
    """Discretized stochastic integral V_x = sum_i k_x(s_i) W_{A_i}.

    s_i are the left-endpoint cell representatives; increments are
    drawn and mixed one path block at a time, so only the P x |grid|
    result materializes.
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
    out = _mix_paths(policy, n_paths, mixer)
    return PathEnsemble(
        grid=grid, paths=out, seed=policy.master_seed, partition_resolution=resolution
    )


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
    the Ito ensemble against the Gram matrix (default tolerance
    5 max|K| / sqrt(P), five standard errors); a given tolerance must be
    finite and >= 0.  Both halves read one partition and one feature
    matrix: the ensemble is mixed by `_ito_ensemble` from that matrix,
    not by a second `ito_synthesize` call, and equals its paths bit for
    bit.
    """
    _nonnegative(quad_tol=quad_tol, mc_tol=mc_tol)
    grid = list(grid)
    target = gram(spec, grid).entries
    part = cells(pair.measure, resolution)
    phi = pair.feature_matrix(grid, part.reps)
    with _one_blas_thread():  # the Monte Carlo half's rule, for all three products
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
    statistic Q concentrates on mu(A) as cells shrink.  The `_run_blocks`
    worker that owns a block of B = _block_rows(2^rmax) paths draws it
    once, at the finest cell count (a path's first c normals are those of
    a c-cell draw, so every resolution reads a prefix of the same rows),
    and writes its paths' Q, each summed over the cells left to right.
    The caller sums Q 2048 paths at a time, and that order sets the last
    digits of mean_q and e_sq: neither B nor the worker count moves a bit.
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
    width = max((1 << r for r in resolutions), default=0)
    q = np.empty((len(resolutions), n_paths))
    rows = _block_rows(width)

    def square(block):
        start = block * rows
        dest = q[:, start : start + rows]
        n = dest.shape[1]
        # numpy sums the rows of a gathered (column-major) block left to
        # right, but a lone row pairwise: a lone path gets a zero row
        z = np.zeros((max(n, 2), width))
        policy._fill_chunk(start, z[:n])
        for out, idx, root in zip(dest, indices, roots):
            scaled = z[:, idx]  # in place from here: no more block-sized buffers
            scaled *= root
            out[...] = np.sum(np.square(scaled, out=scaled), axis=1)[:n]

    _run_blocks(square, -(-n_paths // rows), n_paths * width)
    total = [0.0] * len(resolutions)
    total_sq = [0.0] * len(resolutions)
    for start in range(0, n_paths, _PATH_TILE):
        for k, row in enumerate(q[:, start : start + _PATH_TILE]):
            total[k] += float(np.sum(row))
            total_sq[k] += float(np.sum((mu - row) ** 2))
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

