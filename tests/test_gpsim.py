"""Deterministic Gaussian simulation and the factorization/duality checks.

Monte Carlo assertions use CLT-sized tolerances (5 sigma over sqrt(paths));
each is pinned to a fixed seed so a failure is a real regression, not noise.
"""

import hashlib
import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import child_env
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge import gpsim
from kernel_forge.gpsim import RngSeedPolicy


# ---------------------------------------------------------------------------
# RNG policy


# the per-path draw that `_fill_chunk` replaced, kept as its oracle: a
# Philox generator keyed by (seed, path), its raw words as open-interval
# uniforms, and their normals through the inverse CDF


def raw(policy, path, count):
    key = np.array([policy.master_seed, path], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(count)


def uniforms(policy, path, count):
    # (word >> 11) keeps 53 bits; +0.5 centers in (0, 1), so the
    # inverse CDF never sees 0 or 1
    return ((raw(policy, path, count) >> np.uint64(11)) + 0.5) * 2.0 ** -53


def normals(policy, path, count):
    return gpsim._ndtri()(uniforms(policy, path, count))


def test_rng_is_deterministic_per_path():
    pol = RngSeedPolicy(123)
    a = normals(pol, path=7, count=64)
    b = normals(pol, path=7, count=64)
    np.testing.assert_array_equal(a, b)
    c = normals(pol, path=8, count=64)
    assert not np.array_equal(a, c)


def test_rng_uniforms_in_open_interval():
    u = uniforms(RngSeedPolicy(0), path=0, count=4096)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_rng_block_matches_per_path():
    # counts off Philox's 4-word buffer catch a reused generator whose
    # buffer position was not reset between paths
    pol = RngSeedPolicy(99)
    for count in (1, 3, 5, 16, 4095):
        block = pol.normal_block(first_path=5, n_paths=3, count=count)
        for k in range(3):
            np.testing.assert_array_equal(block[k], normals(pol, path=5 + k, count=count))


# sha256 of normal_block's bytes: the draws are pinned bit for bit, across a
# seed >= 2^63, counts off the 4-word Philox buffer, a row of 70001 normals,
# and a block of 2^20 and more normals
GOLDEN_BLOCKS = [
    ((0, 0, 3, 16), "11b191dfe459ef08f70b78fd55062787f84c9882f2b99280c13c2ffb2eb3c2fe"),
    ((99, 5, 7, 5), "04a856396e0ee3e5864c7a39f818a4f6aec27310af802676c2ac9d4fdb02767a"),
    ((2**63 + 12345, 1000, 4, 4095),
     "c81a8292ddf49911a3f5b6c2048ce9127f7afb182375ddb4e7a85ff628ccc99f"),
    ((2**64 - 1, 2**40, 2, 1), "ff1d53fd9b8480ecd34f2f78be56c7ea44aad073c42149b2d41e0fe78ef6b4a4"),
    ((3, 0, 2, 70001), "73117c56c5068d291c183ea9d3a9c96adc588db177070de31b3a4aff9efb96a7"),
    ((7, 3, 300, 4096), "1096be5102c9ad50c68a390c25edddeb44a1e2a03d3482ce62acd541df42038f"),
]


@pytest.mark.parametrize("case,digest", GOLDEN_BLOCKS)
def test_rng_block_golden(case, digest):
    seed, first_path, n_paths, count = case
    block = RngSeedPolicy(seed).normal_block(first_path, n_paths, count)
    assert block.shape == (n_paths, count) and block.dtype == np.float64
    assert block.flags.c_contiguous
    assert hashlib.sha256(block.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 2, 9])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_rng_block_independent_of_workers_and_chunks(monkeypatch, workers, chunk):
    # the block runner fills rows of about `chunk` normals per block with
    # `_fill_chunk`; a threshold of 1 sends every block through the pool,
    # with up to 9 workers whatever the host has, switching threads as
    # often as it can: every split on every worker count gives the same bits
    pol = RngSeedPolicy(2**63 + 3)
    ref = pol.normal_block(4, 37, 33)
    rows = max(1, chunk // 33)
    out = np.empty_like(ref)

    def fill(block):
        start = block * rows
        pol._fill_chunk(4 + start, out[start : start + rows])

    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with gpsim._capped_workers(workers):
            for _ in range(5):
                out[...] = np.nan
                gpsim._run_blocks(fill, -(-37 // rows), out.size)
                np.testing.assert_array_equal(out, ref)
    finally:
        sys.setswitchinterval(interval)


def test_rng_block_runs_on_the_pool(monkeypatch):
    # the quadratic variation draws its blocks on the pool: 8 paths of 64
    # normals, one path per block once _BLOCK_NORMALS is 64
    sizes = []

    class Recording(gpsim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(gpsim, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 4)
    args = (kf.lebesgue(), (0.0, 0.5), [6, 2], 8)
    ref = gpsim.quadratic_variation(*args, seed=5)  # under the threshold: inline
    assert sizes == []
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    monkeypatch.setattr(gpsim, "_BLOCK_NORMALS", 64)
    with gpsim._capped_workers(3):
        rep = gpsim.quadratic_variation(*args, seed=5)
    assert sizes == [3]
    assert (rep.mean_q, rep.e_sq) == (ref.mean_q, ref.e_sq)


_FIRST_DRAW = """
import sys
import kernel_forge as kf
from kernel_forge import gpsim

pools = []

class Recording(gpsim.ThreadPoolExecutor):
    def __init__(self, max_workers):
        pools.append((max_workers, "scipy.special" in sys.modules))
        super().__init__(max_workers)

assert "scipy.special" not in sys.modules
gpsim.ThreadPoolExecutor = Recording
gpsim._usable_cores = lambda: 2
with gpsim._capped_workers(2):
    rep = gpsim.quadratic_variation(kf.lebesgue(), (0.0, 1.0), [12, 3], 256, seed=11)
print(repr(rep.mean_q + rep.e_sq))
print(pools)
"""


def test_a_first_draw_on_the_pool_matches_a_warm_one():
    # 256 paths of 2^12 normals, 2^20 in all, start the pool in a fresh
    # interpreter, whose first draw imports ndtri: before the workers
    # start, and to the same bits
    proc = subprocess.run([sys.executable, "-c", _FIRST_DRAW], capture_output=True,
                          env=child_env(), timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    warm = gpsim.quadratic_variation(kf.lebesgue(), (0.0, 1.0), [12, 3], 256, seed=11)
    assert proc.stdout.splitlines() == [repr(warm.mean_q + warm.e_sq), "[(2, True)]"]


def test_worker_count_is_capped_without_starting_threads(monkeypatch):
    threads = threading.active_count()
    cores = gpsim._usable_cores()
    with gpsim._capped_workers(100_000):
        assert gpsim._worker_count(10**9) == cores
        assert gpsim._worker_count(1) == 1
    with gpsim._capped_workers(1):
        assert gpsim._worker_count(10**9) == 1
    assert gpsim._worker_count(10**9) == cores  # no cap: usable cores
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 3)
    with gpsim._capped_workers(2):
        assert gpsim._worker_count(64) == 2
    assert gpsim._worker_count(64) == 3
    assert threading.active_count() == threads


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        RngSeedPolicy(-1)
    with pytest.raises(ValueError):
        RngSeedPolicy(2**64)


# ---------------------------------------------------------------------------
# Brownian paths over a base measure: the Ito sum of chi_[0, x]


def _cumulative_reference(m, resolution, x_grid, n_paths, seed):
    """W([0, x]) summed from one stored block of increments,
    (z sqrt(m)) @ (lefts <= x): the route the Ito sum replaced, which
    agreed with it for x in (0, 1] and forced W(0) = 0."""
    part = kf.cells(m, resolution)
    increments = RngSeedPolicy(seed).normal_block(0, n_paths, len(part.masses))
    increments *= np.sqrt(part.masses)
    mask = (part.lefts[:, None] <= np.asarray(x_grid, dtype=float)).astype(float)
    return increments @ mask


@pytest.mark.parametrize("measure", ["lebesgue", "cantor4"])
@pytest.mark.parametrize("resolution", [1, 3, 6, 9])
@pytest.mark.parametrize("n_paths", [1, 7, 2048, 2049, 5000])
def test_brownian_paths_match_the_cumulative_increment_sums(measure, resolution, n_paths):
    # only the summation order differs: z @ (mask sqrt(m)) per tile against
    # (z sqrt(m)) @ mask, so the two agree to a few ulps of max |V|
    m = kf.MeasureModel(measure)
    grid = np.sort(1.0 - np.random.default_rng(resolution).random(6))  # in (0, 1]
    grid[-1] = 1.0
    got = gpsim.ito_synthesize(gpsim.pair_ex1(m), resolution, grid, n_paths, seed=3).paths
    want = _cumulative_reference(m, resolution, grid, n_paths, seed=3)
    assert got.shape == want.shape == (n_paths, 6)
    ulp = np.finfo(float).eps * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=8 * ulp)


@pytest.mark.parametrize("measure", ["lebesgue", "cantor4"])
def test_brownian_paths_equal_the_cumulative_sums_at_the_demo_sizes(measure):
    m = kf.MeasureModel(measure)
    grid = [0.25, 0.5, 1.0]
    got = gpsim.ito_synthesize(gpsim.pair_ex1(m), 6, grid, 20_000, seed=7).paths
    assert got.tobytes() == _cumulative_reference(m, 6, grid, 20_000, seed=7).tobytes()


def test_brownian_path_at_zero_and_beyond_one():
    # x = 0 carries the cell that starts there, as every dyadic x does,
    # and past 1 the path is W([0, 1])
    pair = gpsim.pair_ex1(kf.lebesgue())
    v = gpsim.ito_synthesize(pair, 3, [0.0, 1.0, 1.5], n_paths=10, seed=5).paths
    want = _cumulative_reference(kf.lebesgue(), 3, [0.0, 1.0], 10, seed=5)
    np.testing.assert_allclose(v[:, :2], want, rtol=0, atol=1e-15)
    assert np.all(v[:, 0] != 0.0)
    assert v[:, 1].tobytes() == v[:, 2].tobytes()


def test_cumulative_path_on_an_empty_grid():
    ens = gpsim.ito_synthesize(gpsim.pair_ex1(kf.cantor4()), 3, [], n_paths=7, seed=0)
    assert ens.paths.shape == (7, 0) and ens.paths.dtype == float


def test_cumulative_path_rejects_a_nan_point():
    with pytest.raises(kf.OutOfDomainError):
        gpsim.ito_synthesize(gpsim.pair_ex1(kf.lebesgue()), 3, [0.5, float("nan")], n_paths=2)


def test_cantor_staircase_path_variance():
    # mass accumulates only on the fractal support
    pair = gpsim.pair_ex1(kf.cantor4())
    ens = gpsim.ito_synthesize(pair, 6, [0.25, 0.5, 1.0], n_paths=50_000, seed=9)
    var = np.var(ens.paths, axis=0)
    np.testing.assert_allclose(var, [0.5, 0.5, 1.0], rtol=0.05)


@pytest.mark.parametrize("n_paths", [0, -5])
def test_wiener_routines_need_a_path(n_paths):
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        gpsim.ito_synthesize(gpsim.pair_ex1(kf.lebesgue()), 3, [0.5], n_paths=n_paths)
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        gpsim.quadratic_variation(kf.lebesgue(), (0.0, 1.0), [2], n_paths=n_paths)


# ---------------------------------------------------------------------------
# Ito synthesis


def test_ito_constant_feature_gives_total_mass():
    # chi_[0, x] is identically 1 on [0, 1] for x >= 1, so it integrates
    # the whole field: V_x = W([0,1]) for every such x
    pair = gpsim.pair_ex1(kf.lebesgue())
    ens = gpsim.ito_synthesize(pair, 5, [1.0, 1.75], n_paths=30_000, seed=4)
    np.testing.assert_allclose(ens.paths[:, 0], ens.paths[:, 1], atol=1e-12)
    assert float(np.var(ens.paths[:, 0])) == pytest.approx(1.0, rel=0.05)


def test_ito_cantor_product_second_moment():
    z = 0.4
    expected = 1.0
    for n in range(8):
        expected *= 1.0 + (z * z) ** (4**n)
    pair = gpsim.pair_ex3(trunc=8)
    ens = gpsim.ito_synthesize(pair, 10, [z + 0.0j], n_paths=100_000, seed=11)
    emp = gpsim.empirical_covariance(ens)[0, 0].real
    assert emp == pytest.approx(expected, rel=0.03)


def test_ito_deterministic_across_block_sizes(monkeypatch):
    # a threshold of 1 sends every block through the pool
    pair = gpsim.pair_ex1()
    grid = [0.25, 0.5, 1.0]
    a = gpsim.ito_synthesize(pair, 6, grid, n_paths=300, seed=8).paths
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    b = gpsim.ito_synthesize(pair, 6, grid, n_paths=300, seed=8).paths
    np.testing.assert_array_equal(a, b)


def test_ito_complex_deterministic_across_block_sizes(monkeypatch):
    pair = gpsim.pair_ex3(trunc=4)
    grid = [0.2, 0.1 + 0.3j, -0.4j]
    a = gpsim.ito_synthesize(pair, 6, grid, n_paths=300, seed=8).paths
    assert a.dtype == complex
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    b = gpsim.ito_synthesize(pair, 6, grid, n_paths=300, seed=8).paths
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("example", ["ex1", "ex3"])
@pytest.mark.parametrize("resolution", [6, 12])
def test_a_path_is_the_same_in_every_run(monkeypatch, example, resolution):
    # path p is a pure function of (seed, p, mixer): neither the path
    # count, the workers nor the BLAS hold moves a bit
    pair, _, grid = DUALITY_EXAMPLES[example]
    rows = gpsim._block_rows(1 << resolution)
    counts = (1, 27, rows - 1, rows, rows + 1, 3 * rows + 5)

    def paths(n_paths):
        return gpsim.ito_synthesize(pair(), resolution, grid, n_paths, seed=2**63 + 9).paths

    ref = paths(max(counts))
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 4)
    for hold in (True, False):
        if not hold:  # the products take numpy's own BLAS threads
            monkeypatch.setattr(gpsim, "_blas_controls", lambda: None)
        for workers in (1, 2, 4):
            with gpsim._capped_workers(workers):
                for n_paths in counts:
                    got = paths(n_paths)
                    assert got.tobytes() == ref[:n_paths].tobytes(), (
                        hold, workers, n_paths)


def _block_oracle(policy, n_paths, mixer):
    """normal_block(start, n, K), zero-padded to B rows, times the mixer
    (a complex one as its [re | im] float view), block by block."""
    draws = mixer.shape[0]
    rows = gpsim._block_rows(draws)
    real = np.ascontiguousarray(mixer).view(float) if np.iscomplexobj(mixer) else mixer
    out = np.empty((n_paths, real.shape[1]))
    for start in range(0, n_paths, rows):
        n = min(rows, n_paths - start)
        z = np.zeros((rows, draws))
        z[:n] = policy.normal_block(start, n, draws)
        out[start : start + n] = (z @ real)[:n]
    return out.view(complex) if np.iscomplexobj(mixer) else out


_rng = np.random.default_rng(1)
MIXERS = {
    "real-F-ordered": _rng.normal(size=(5, 40)).T,
    "complex": _rng.normal(size=(256, 6)) + 1j * _rng.normal(size=(256, 6)),
    "4096-draws": _rng.normal(size=(4096, 9)),
    "one-draw": _rng.normal(size=(1, 3)),
}


@pytest.mark.parametrize("name", sorted(MIXERS))
def test_mix_paths_is_the_zero_padded_block_product(monkeypatch, name):
    mixer = MIXERS[name]
    pol = RngSeedPolicy(3)
    rows = gpsim._block_rows(mixer.shape[0])
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)  # blocks on the pool
    for n_paths in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 3} - {0}):
        out = gpsim._mix_paths(pol, n_paths, mixer)
        assert out.dtype == mixer.dtype and out.shape == (n_paths, mixer.shape[1])
        assert out.tobytes() == _block_oracle(pol, n_paths, mixer).tobytes(), n_paths


def test_mix_real_mixer_is_plain_product():
    # one whole block has no padding: its mix is the plain product
    pol = RngSeedPolicy(17)
    mixer = np.random.default_rng(1).normal(size=(40, 5)).T.copy().T  # F-ordered
    rows = gpsim._block_rows(40)
    out = gpsim._mix_paths(pol, rows, mixer)
    assert out.tobytes() == (pol.normal_block(0, rows, 40) @ mixer).tobytes()


def test_mix_integer_and_single_mixers_give_double_paths():
    # an int or float32 output would truncate or round the mixed normals
    pol = RngSeedPolicy(4)
    exact = gpsim._mix_paths(pol, 9, np.array([[1.0, 2.0], [3.0, -1.0]]))
    for mixer in (np.array([[1, 2], [3, -1]]), np.array([[1, 2], [3, -1]], np.float32)):
        out = gpsim._mix_paths(pol, 9, mixer)
        assert out.dtype == np.float64 and out.tobytes() == exact.tobytes()
    single = np.array([[1 + 2j], [0.5j]], np.complex64)
    assert gpsim._mix_paths(pol, 9, single).dtype == np.complex128


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.integers(1, 600),
    cols=st.integers(0, 7),
    n_paths=st.integers(1, 700),
    complex_mixer=st.booleans(),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e150]),
)
def test_mix_is_within_rounding_of_the_dense_product(
    seed, draws, cols, n_paths, complex_mixer, scale
):
    # each value is one dot product, summed in another order than the
    # dense product's: 4 eps (|z| @ |mixer|) bounds the gap
    rng = np.random.default_rng(seed)
    mixer = scale * rng.normal(size=(draws, cols))
    if complex_mixer:
        mixer = mixer + 1j * scale * rng.normal(size=(draws, cols))
    pol = RngSeedPolicy(seed)
    out = gpsim._mix_paths(pol, n_paths, mixer)
    z = pol.normal_block(0, n_paths, draws)
    bound = 4 * np.finfo(float).eps * (np.abs(z) @ np.abs(mixer))
    assert out.shape == (n_paths, cols) and out.dtype == mixer.dtype
    assert np.all(np.abs(out - z @ mixer) <= bound)


def test_mixing_holds_no_paths_by_cells_tile(monkeypatch):
    # numpy reports its buffers to tracemalloc; each of two workers holds
    # one block and its words, where one 2048 x 4096 tile took 64 MiB
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 2)
    grid = [k / 8 for k in range(9)]
    tracemalloc.start()
    try:
        ens = gpsim.ito_synthesize(gpsim.pair_ex1(), 12, grid, 4096, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ens.paths.nbytes < 8 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mix_complex_mixer_within_rounding_of_complex_product(seed):
    # the mix's real product rounds differently from a complex gemm, but
    # each part is one real dot product: 4 eps (|z| @ |mixer|) bounds the gap
    rng = np.random.default_rng(seed)
    mixer = rng.normal(size=(256, 6)) + 1j * rng.normal(size=(256, 6))
    pol = RngSeedPolicy(seed)
    out = gpsim._mix_paths(pol, 50, mixer)
    z = pol.normal_block(0, 50, 256)
    bound = 4 * np.finfo(float).eps * (np.abs(z) @ np.abs(mixer))
    assert np.all(np.abs(out - z @ mixer) <= bound)


def _feature_row(self, x, reps: np.ndarray) -> np.ndarray:
    """Evaluate k_x at every partition representative.

    The scalar per-point reference that `FactorizationPair.feature_matrix`
    replaced, kept verbatim as the oracle for its bytes.
    """
    if self.kind == "indicator":
        return (reps <= float(x)).astype(float)
    if self.kind == "szego":
        return 1.0 / (1.0 - complex(x) * np.exp(-2j * np.pi * reps))
    if self.kind == "cantor-product":
        z = complex(x)
        out = np.ones(len(reps), dtype=complex)
        for n in range(self.trunc):
            p = 4 ** n
            out *= 1.0 + (z ** p) * np.exp(-2j * np.pi * p * reps)
        return out


@pytest.mark.parametrize(
    "pair,grid",
    [
        (gpsim.pair_ex1(), [0.0, 0.3, 1 / 3, 0.5, 1.0]),
        (gpsim.pair_ex1(), [0.25]),
        (gpsim.pair_ex2(), [0.0, 0.5, -0.3 + 0.4j, 0.9j, 0.999]),
        (gpsim.pair_ex3(), [0.0, 0.2, 0.1 + 0.3j, -0.7j, 0.95]),
        (gpsim.pair_ex3(trunc=1), [0.5j, 0.3]),
        (gpsim.pair_ex1(kf.cantor4()), [0.0, 0.25, 1 / 3, 2.5]),
        (gpsim.pair_ex2(), []),
        (gpsim.pair_ex1(), []),
        (gpsim.pair_ex3(trunc=3), []),
        (gpsim.pair_ex1(kf.cantor4()), []),
        (gpsim.pair_ex2(kf.cantor4()), [0.5j, -0.25, 0.0]),
        (gpsim.pair_ex3(trunc=1), []),
    ],
)
@pytest.mark.parametrize("resolution", [3, 8, 12])
def test_feature_matrix_matches_feature_rows(pair, grid, resolution):
    reps = kf.cells(pair.measure, resolution).reps
    rows = np.array([_feature_row(pair, x, reps) for x in grid])
    if not grid:  # np.array([]) is (0,) float64; the matrix keeps its columns
        rows = np.empty((0, len(reps)), float if pair.kind == "indicator" else complex)
    mat = pair.feature_matrix(grid, reps)
    assert mat.dtype == rows.dtype and mat.shape == rows.shape
    assert mat.tobytes() == rows.tobytes()


def test_empty_grid_runs_through_duality_and_ito():
    rep = gpsim.duality_check(gpsim.pair_ex1(), kf.brownian_min(), [], 3, 10)
    assert rep.quad_error == 0.0 and rep.mc_error == 0.0 and rep.passed
    ens = gpsim.ito_synthesize(gpsim.pair_ex2(), 3, [], 10)
    assert ens.paths.shape == (10, 0) and ens.paths.dtype == complex


@pytest.mark.parametrize(
    "pair, grid",
    [
        (gpsim.pair_ex1(), [0.5, math.nan]),
        (gpsim.pair_ex1(), [0.5, math.inf]),
        (gpsim.pair_ex1(), [-0.25]),
        (gpsim.pair_ex2(), [1.5]),
        (gpsim.pair_ex2(), [0.5, 1j]),
        (gpsim.pair_ex3(trunc=3), [complex(math.nan, 0.0)]),
    ],
    ids=["ex1-nan", "ex1-inf", "ex1-negative", "ex2-outside", "ex2-circle", "ex3-nan"],
)
def test_pair_grids_take_their_kernel_domain(pair, grid):
    # a pair and the kernel it factors take the same points
    with pytest.raises(kf.OutOfDomainError):
        gpsim.ito_synthesize(pair, 3, grid, 4)


# ---------------------------------------------------------------------------
# empirical covariance


def test_empirical_covariance_zero():
    ens = gpsim.PathEnsemble(grid=[0.1, 0.2], paths=np.zeros((10, 2)), seed=0,
                             partition_resolution=0)
    np.testing.assert_array_equal(gpsim.empirical_covariance(ens), np.zeros((2, 2)))


def test_empirical_covariance_hermitian_exactly():
    rng = np.random.default_rng(0)
    paths = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    ens = gpsim.PathEnsemble(grid=[0.1, 0.2, 0.3], paths=paths, seed=0,
                             partition_resolution=0)
    c = gpsim.empirical_covariance(ens)
    assert np.array_equal(c, c.conj().T)


def test_empirical_covariance_needs_two_paths():
    ens = gpsim.PathEnsemble(grid=[0.0], paths=np.zeros((1, 1)), seed=0,
                             partition_resolution=0)
    with pytest.raises(ValueError):
        gpsim.empirical_covariance(ens)


# ---------------------------------------------------------------------------
# duality checks


def test_duality_ex2_quadrature_is_spectrally_exact():
    rep = gpsim.duality_check(
        gpsim.pair_ex2(),
        kf.szego(),
        [0.1 + 0.1j, -0.3j, 0.2],
        resolution=8,
        n_paths=20_000,
        seed=5,
    )
    assert rep.quad_error < 1e-12
    assert rep.quad_pass and rep.mc_pass and rep.passed


def test_duality_mismatched_pair_fails_loudly():
    # indicator features against the singular measure: the quadrature
    # produces the staircase CDF, not min(x, y)
    pair = gpsim.pair_ex1(measure=kf.cantor4())
    rep = gpsim.duality_check(
        pair,
        kf.brownian_min(),
        [0.25, 0.5],
        resolution=8,
        n_paths=2000,
        seed=1,
    )
    assert not rep.quad_pass
    assert rep.quad_error >= 0.2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("option", ["quad_tol", "mc_tol"])
def test_duality_tolerances_outside_their_domain_raise(option, bad):
    with pytest.raises(ValueError, match=f"{option} must be finite and >= 0"):
        gpsim.duality_check(gpsim.pair_ex1(), kf.brownian_min(), [0.5], 3, 4, **{option: bad})


def test_duality_report_fields_round():
    rep = gpsim.duality_check(
        gpsim.pair_ex1(), kf.brownian_min(), [0.5], resolution=6, n_paths=4000, seed=2
    )
    assert rep.resolution == 6 and rep.n_paths == 4000 and rep.seed == 2
    assert rep.quad_tol == pytest.approx(2.0**-6)


# ---------------------------------------------------------------------------
# one BLAS thread on the Monte Carlo path

# (pair, kernel, grid) per example; resolution 10 with 3000 paths sends the
# first 2048-path tile's 2^21 normals through the draw pool
DUALITY_EXAMPLES = {
    "ex1": (gpsim.pair_ex1, kf.brownian_min, [0.25, 0.5, 1.0]),
    "ex2": (gpsim.pair_ex2, kf.szego, [0.1 + 0.1j, -0.3j, 0.2]),
    "ex3": (gpsim.pair_ex3, kf.cantor_product, [0.2, 0.1 + 0.3j, -0.4j]),
}


def _duality(example):
    pair, spec, grid = DUALITY_EXAMPLES[example]
    return gpsim.duality_check(pair(), spec(), grid, resolution=10, n_paths=3000, seed=3)


@pytest.mark.parametrize("example", sorted(DUALITY_EXAMPLES))
def test_duality_bytes_equal_with_and_without_blas_cap(monkeypatch, blas_threads, example):
    # the bypassed run takes its products on two BLAS threads
    capped = _duality(example)
    monkeypatch.setattr(gpsim, "_blas_controls", lambda: None)  # not found
    bypassed = _duality(example)
    assert (capped.quad_error, capped.mc_error, capped.mc_tol) == (
        bypassed.quad_error, bypassed.mc_error, bypassed.mc_tol)


def _monte_carlo_call(caller):
    """One call of each Monte Carlo route, at 2^20 normals or more."""
    if caller == "duality_check":
        _duality("ex1")
    elif caller == "ito_synthesize":  # simulate calls it outside duality_check
        gpsim.ito_synthesize(gpsim.pair_ex1(), 10, [0.25, 0.5, 1.0], 3000, seed=3)
    else:  # a complex mixer, mixed as its float view
        gpsim.ito_synthesize(gpsim.pair_ex2(), 10, [0.1 + 0.1j, -0.3j, 0.2], 3000, seed=3)


@pytest.mark.parametrize("caller", ["duality_check", "ito_synthesize", "ito_synthesize_complex"])
def test_pooled_draws_and_mixing_see_one_blas_thread(monkeypatch, blas_threads, caller):
    # every block is drawn and multiplied by one worker, at one BLAS thread
    get_n = blas_threads
    blocks, fills = [], []
    inside = threading.local()
    fill = gpsim.RngSeedPolicy._fill_chunk
    mix_block = gpsim._mix_block

    def recording_fill(self, first_path, rows):
        fills.append((getattr(inside, "block", None), first_path, get_n()))
        fill(self, first_path, rows)

    def recording_mix_block(policy, first_path, mixer, dest):
        blocks.append((threading.current_thread() is threading.main_thread(), get_n()))
        inside.block = first_path  # the product runs below, in this thread
        try:
            mix_block(policy, first_path, mixer, dest)
        finally:
            del inside.block

    monkeypatch.setattr(gpsim.RngSeedPolicy, "_fill_chunk", recording_fill)
    monkeypatch.setattr(gpsim, "_mix_block", recording_mix_block)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 2)
    _monte_carlo_call(caller)
    assert len(blocks) > 1 and {count for _, count in blocks} == {1}
    assert not all(main for main, _ in blocks)  # the pool mixed some blocks
    assert fills and all(block == first and count == 1 for block, first, count in fills)
    assert get_n() == 2


def test_blas_cap_shared_by_interleaved_threads(blas_threads):
    # A enters, B enters, A leaves, B leaves: B must still see one thread
    # after A has left, and the count must come back once B leaves
    get_n = blas_threads
    both_inside, a_left = threading.Barrier(2, timeout=10), threading.Event()
    seen = []

    def a():
        with gpsim._one_blas_thread():
            both_inside.wait()
        a_left.set()

    def b():
        with gpsim._one_blas_thread():
            both_inside.wait()
            assert a_left.wait(timeout=10)
            seen.append(get_n())

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] and get_n() == 2


def test_blas_cap_under_many_threads(blas_threads):
    # more threads than cores, switching often: a lost update of the holder
    # count would let one body see two threads or leave the count at one
    get_n = blas_threads
    seen = []

    def hold():
        for _ in range(200):
            with gpsim._one_blas_thread():
                seen.append(get_n())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 1600 and set(seen) == {1} and get_n() == 2


def test_blas_cap_restored_after_return_error_and_nesting(monkeypatch, blas_threads):
    get_n = blas_threads
    with gpsim._one_blas_thread():
        assert get_n() == 1
        with gpsim._one_blas_thread():
            assert get_n() == 1
        assert get_n() == 1
    assert get_n() == 2
    with pytest.raises(RuntimeError):
        with gpsim._one_blas_thread():
            raise RuntimeError("inside the body")
    assert get_n() == 2
    # duality_check enters the cap, and its Ito half enters it again inside
    entered = []
    synthesize = gpsim._ito_ensemble

    def recording(*args):
        entered.append(get_n())
        return synthesize(*args)

    monkeypatch.setattr(gpsim, "_ito_ensemble", recording)
    _duality("ex2")
    assert entered == [1] and get_n() == 2


@pytest.mark.parametrize("example", sorted(DUALITY_EXAMPLES))
def test_duality_check_builds_one_partition_and_one_feature_matrix(monkeypatch, example):
    built = []
    partition, features = kf.cells, gpsim.FactorizationPair.feature_matrix

    def counted_cells(m, resolution):
        built.append("cells")
        return partition(m, resolution)

    def counted_features(self, grid, reps):
        built.append("feature_matrix")
        return features(self, grid, reps)

    for module in (gpsim, sys.modules["kernel_forge.measures"]):
        monkeypatch.setattr(module, "cells", counted_cells)
    monkeypatch.setattr(gpsim.FactorizationPair, "feature_matrix", counted_features)
    _duality(example)
    assert sorted(built) == ["cells", "feature_matrix"]


@pytest.mark.parametrize("example", sorted(DUALITY_EXAMPLES))
def test_duality_monte_carlo_half_is_the_ito_ensemble(example):
    pair, spec, grid = DUALITY_EXAMPLES[example]
    rep = _duality(example)
    ens = gpsim.ito_synthesize(pair(), 10, grid, 3000, seed=3)
    emp = gpsim.empirical_covariance(ens)
    assert rep.mc_error == float(np.max(np.abs(emp - kf.gram(spec(), grid).entries)))
    assert rep.seed == ens.seed


def test_blas_cap_without_openblas_is_a_no_op(monkeypatch):
    controls = gpsim._blas_controls()
    monkeypatch.setattr(gpsim, "_blas_controls", lambda: None)
    before = controls[1]() if controls else None
    with gpsim._one_blas_thread():
        assert (controls[1]() if controls else None) == before
    with pytest.raises(KeyError):
        with gpsim._one_blas_thread():
            raise KeyError("propagates")


def test_blas_lookup_without_thread_controls_finds_nothing(monkeypatch):
    def missing(path):
        raise OSError(path)

    lookup = gpsim._blas_controls.__wrapped__  # uncached
    # a library without the thread controls, or none at all, is "not found"
    monkeypatch.setattr(gpsim.ctypes, "CDLL", lambda path: object())
    assert lookup() is None
    monkeypatch.setattr(gpsim.ctypes, "CDLL", missing)
    assert lookup() is None


def test_blas_lookup_starts_no_thread():
    threads = threading.active_count()
    gpsim._blas_controls.__wrapped__()  # the lookup itself, uncached
    with gpsim._one_blas_thread():
        pass
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# quadratic variation


def test_qvar_single_cell_variance():
    rep = gpsim.quadratic_variation(
        kf.lebesgue(), (0.0, 0.25), resolutions=[2], n_paths=150_000, seed=3
    )
    mass = 0.25
    # E|mu(A) - Q|^2 = 2 sum m_i^2 over the single cell
    assert rep.e_sq[0] == pytest.approx(2.0 * mass**2, rel=0.05)
    assert rep.mu == pytest.approx(mass)


def test_qvar_halves_per_refinement():
    rep = gpsim.quadratic_variation(
        kf.lebesgue(), (0.0, 1.0), resolutions=[4, 5, 6], n_paths=50_000, seed=10
    )
    for a, b in zip(rep.e_sq, rep.e_sq[1:]):
        assert b == pytest.approx(0.5 * a, rel=0.2)


def per_resolution_qvar(m, interval, resolutions, n_paths, seed):
    """Quadratic variation drawing one tile per resolution at its own cell
    count: the loop that `quadratic_variation` replaced, kept as its oracle."""
    a, b = interval
    mu = kf.measure_of_intervals(m, [(a, b)])
    policy = RngSeedPolicy(seed)
    mean_q, e_sq = [], []
    for r in resolutions:
        part = kf.cells(m, r)
        idx = part.inside([(a, b)])
        roots = np.sqrt(part.masses[idx])
        total = 0.0
        total_sq = 0.0
        for start in range(0, n_paths, 2048):
            rows = min(2048, n_paths - start)
            z = policy.normal_block(start, rows, len(part.masses))[:, idx]
            q = np.sum((z * roots) ** 2, axis=1)
            total += float(np.sum(q))
            total_sq += float(np.sum((mu - q) ** 2))
        mean_q.append(total / n_paths)
        e_sq.append(total_sq / n_paths)
    return mean_q, e_sq


@pytest.mark.parametrize("m,interval,resolutions", [
    (kf.lebesgue(), (0.25, 0.75), [4, 2, 7, 3]),
    (kf.cantor4(), (0.0, 0.25), [1, 5, 3]),
    (kf.cantor4(), (0.5, 1.0), [6]),
], ids=["lebesgue", "cantor4-left", "cantor4-right"])
def test_qvar_one_tile_equals_a_tile_per_resolution(m, interval, resolutions):
    n_paths = 4100  # two full tiles and a remainder
    rep = gpsim.quadratic_variation(m, interval, resolutions, n_paths=n_paths, seed=9)
    mean_q, e_sq = per_resolution_qvar(m, interval, resolutions, n_paths, 9)
    assert rep.mean_q == mean_q
    assert rep.e_sq == e_sq
    for r, expected in zip(resolutions, rep.expected_e_sq):
        idx = kf.cells(m, r).inside([interval])
        assert expected == float(2.0 * np.sum(kf.cells(m, r).masses[idx] ** 2))


@pytest.mark.parametrize("m,interval,resolutions", [
    (kf.lebesgue(), (0.0, 1.0), [3, 8, 5]),  # B = 512 paths of 256 normals
    (kf.cantor4(), (0.5, 0.75), [4, 2]),  # B = 2048 paths of 16 normals
], ids=["lebesgue", "cantor4"])
def test_qvar_is_the_same_bits_on_every_worker_count(monkeypatch, m, interval, resolutions):
    # each worker writes its block's Q; the caller sums them in 2048-path
    # slices, so neither the path blocks nor the worker count moves a bit
    rows = gpsim._block_rows(1 << max(resolutions))
    counts = sorted({1, 2, rows - 1, rows, rows + 1, 2047, 2048, 2049, 3 * rows + 5})

    def qvar(n_paths):
        rep = gpsim.quadratic_variation(m, interval, resolutions, n_paths, seed=2**63 + 7)
        return rep.mean_q + rep.e_sq

    refs = {n: qvar(n) for n in counts}
    pools = []

    class Recording(gpsim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(gpsim, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 4)
    for workers in (1, 2, 4):
        with gpsim._capped_workers(workers):
            for n_paths in counts:
                assert qvar(n_paths) == refs[n_paths], (workers, n_paths)
    assert set(pools) == {2, 4}
    # the oracle sums a lone path in its last tile pairwise, so it is
    # compared at a count whose last tile holds several paths
    mean_q, e_sq = per_resolution_qvar(m, interval, resolutions, max(counts), 2**63 + 7)
    assert refs[max(counts)] == mean_q + e_sq


@pytest.mark.parametrize("n_paths", [1, 129])
def test_qvar_sums_a_lone_path_left_to_right(n_paths):
    # 129 paths leave one in the last block of 128: it is summed as the
    # others are, not pairwise as numpy sums a one-row array
    resolutions = [4, 10]
    rep = gpsim.quadratic_variation(kf.lebesgue(), (0.0, 1.0), resolutions, n_paths, seed=6)
    z = RngSeedPolicy(6).normal_block(0, n_paths, 1 << 10)
    expected = []
    for r in resolutions:
        squares = (z[:, : 1 << r] * 2.0 ** (-r / 2)) ** 2
        expected.append(float(np.sum(np.cumsum(squares, axis=1)[:, -1])) / n_paths)
    assert gpsim._block_rows(1 << 10) == 128
    assert rep.mean_q == expected


def test_qvar_holds_no_path_tile(monkeypatch):
    # numpy reports its buffers to tracemalloc: criterion 08's resolutions
    # at 20k paths hold two workers' blocks and the resolutions x paths Q,
    # where one 2048 x 1024 tile of normals took 16 MiB
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 2)
    tracemalloc.start()
    try:
        gpsim.quadratic_variation(kf.lebesgue(), (0.0, 1.0), list(range(4, 11)), 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_qvar_builds_each_partition_once(monkeypatch):
    built = []
    original = kf.cells

    def counted(m, resolution):
        built.append(resolution)
        return original(m, resolution)

    for module in (gpsim, sys.modules["kernel_forge.measures"]):
        monkeypatch.setattr(module, "cells", counted)
    resolutions = list(range(4, 11))
    gpsim.quadratic_variation(kf.cantor4(), (0.0, 0.25), resolutions, n_paths=10)
    assert built == resolutions


def test_qvar_with_no_resolutions_is_empty():
    rep = gpsim.quadratic_variation(kf.lebesgue(), (0.0, 1.0), [], n_paths=10)
    assert rep.mean_q == rep.e_sq == rep.expected_e_sq == rep.n_cells == []


def test_normal_block_columns_are_prefixes():
    policy = RngSeedPolicy(4)
    wide = policy.normal_block(3, 300, 1024)
    for count in (1, 16, 33, 512):
        assert wide[:, :count].tobytes() == policy.normal_block(3, 300, count).tobytes()


def test_qvar_rejects_misaligned_interval():
    with pytest.raises(kf.CellMisalignmentError):
        gpsim.quadratic_variation(
            kf.lebesgue(), (0.0, 0.3), resolutions=[2], n_paths=100, seed=0
        )


def test_qvar_validates_interval():
    with pytest.raises(kf.OutOfDomainError):
        gpsim.quadratic_variation(
            kf.lebesgue(), (0.5, 0.25), resolutions=[2], n_paths=100, seed=0
        )

