"""Deterministic Gaussian simulation and the factorization/duality checks.

Monte Carlo assertions use CLT-sized tolerances (5 sigma over sqrt(paths));
each is pinned to a fixed seed so a failure is a real regression, not noise.
"""

import numpy as np
import pytest

import kernel_forge as kf
from kernel_forge import gpsim
from kernel_forge.gpsim import RngSeedPolicy, custom_pair


# ---------------------------------------------------------------------------
# RNG policy


def test_rng_is_deterministic_per_path():
    pol = RngSeedPolicy(123)
    a = pol.normals(path=7, count=64)
    b = pol.normals(path=7, count=64)
    np.testing.assert_array_equal(a, b)
    c = pol.normals(path=8, count=64)
    assert not np.array_equal(a, c)


def test_rng_uniforms_in_open_interval():
    u = RngSeedPolicy(0).uniforms(path=0, count=4096)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_rng_block_matches_per_path():
    pol = RngSeedPolicy(99)
    block = pol.normal_block(first_path=5, n_paths=3, count=16)
    for k in range(3):
        np.testing.assert_array_equal(block[k], pol.normals(path=5 + k, count=16))


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        RngSeedPolicy(-1)
    with pytest.raises(ValueError):
        RngSeedPolicy(2**64)


# ---------------------------------------------------------------------------
# Gaussian vectors


def test_gaussian_vector_scaling():
    ens = gpsim.sample_gaussian_vector(np.array([[4.0]]), n_paths=20000, seed=1)
    var = float(np.var(ens.paths))
    assert var == pytest.approx(4.0, rel=0.05)


def test_gaussian_vector_zero_matrix():
    ens = gpsim.sample_gaussian_vector(np.zeros((3, 3)), n_paths=50, seed=0)
    np.testing.assert_array_equal(ens.paths, np.zeros((50, 3)))


def test_gaussian_vector_small_singular_matrix():
    # rank one at scale 1e-6: the ridge retry must succeed at any scale
    g = 1e-6 * np.array([[1.0, 1.0], [1.0, 1.0]])
    ens = gpsim.sample_gaussian_vector(g, n_paths=2000, seed=5)
    np.testing.assert_allclose(ens.paths[:, 0], ens.paths[:, 1], atol=1e-8)
    emp = gpsim.empirical_covariance(ens)
    tol = 5.0 * float(np.abs(g).max()) / np.sqrt(2000)
    assert float(np.max(np.abs(emp - g))) <= tol


def test_gaussian_vector_brownian_covariance():
    g = kf.gram(kf.brownian_min(), [1.0, 2.0, 3.0])
    ens = gpsim.sample_gaussian_vector(g, n_paths=100_000, seed=42)
    emp = gpsim.empirical_covariance(ens)
    assert float(np.max(np.abs(emp - g.entries))) <= 0.05


def test_gaussian_vector_complex_covariance():
    g = kf.gram(kf.szego(), [0.1 + 0.2j, -0.4j, 0.3])
    ens = gpsim.sample_gaussian_vector(g, n_paths=60_000, seed=7)
    emp = gpsim.empirical_covariance(ens)
    tol = 5.0 * float(np.abs(g.entries).max()) / np.sqrt(60_000)
    assert float(np.max(np.abs(emp - g.entries))) <= tol


def test_gaussian_vector_deterministic():
    g = kf.gram(kf.brownian_min(), [1.0, 2.0])
    a = gpsim.sample_gaussian_vector(g, n_paths=10, seed=3).paths
    b = gpsim.sample_gaussian_vector(g, n_paths=10, seed=3).paths
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Wiener increments and cumulative paths


def test_wiener_increment_variances():
    for m, res in ((kf.lebesgue(), 5), (kf.cantor4(), 4)):
        inc = gpsim.wiener_increments(m, res, n_paths=40_000, seed=2)
        var = np.var(inc.matrix, axis=0)
        np.testing.assert_allclose(var, 2.0**-res, rtol=0.1)


def test_cumulative_path_starts_at_zero():
    inc = gpsim.wiener_increments(kf.lebesgue(), 4, n_paths=20, seed=0)
    ens = gpsim.cumulative_path(inc, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(ens.paths[:, 0], np.zeros(20))


def test_cumulative_path_telescopes():
    inc = gpsim.wiener_increments(kf.lebesgue(), 3, n_paths=10, seed=5)
    ens = gpsim.cumulative_path(inc, [1.0])
    np.testing.assert_allclose(ens.paths[:, 0], np.sum(inc.matrix, axis=1), atol=1e-12)


def test_cumulative_path_domain():
    inc = gpsim.wiener_increments(kf.lebesgue(), 3, n_paths=2, seed=0)
    with pytest.raises(kf.OutOfDomainError):
        gpsim.cumulative_path(inc, [1.5])


def test_cantor_staircase_path_variance():
    # mass accumulates only on the fractal support
    inc = gpsim.wiener_increments(kf.cantor4(), 6, n_paths=50_000, seed=9)
    ens = gpsim.cumulative_path(inc, [0.25, 0.5, 1.0])
    var = np.var(ens.paths, axis=0)
    np.testing.assert_allclose(var, [0.5, 0.5, 1.0], rtol=0.05)


# ---------------------------------------------------------------------------
# Ito synthesis


def test_ito_constant_feature_gives_total_mass():
    pair = custom_pair(lambda x, reps: np.ones_like(reps), kf.lebesgue())
    ens = gpsim.ito_synthesize(pair, 5, [0.25, 0.75], n_paths=30_000, seed=4)
    # k identically 1 integrates the whole field: V_x = W([0,1]) for every x
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
    pair = gpsim.pair_ex1()
    grid = [0.25, 0.5, 1.0]
    a = gpsim.ito_synthesize(pair, 6, grid, n_paths=300, seed=8).paths
    monkeypatch.setattr(gpsim, "PATH_BLOCK", 7)
    b = gpsim.ito_synthesize(pair, 6, grid, n_paths=300, seed=8).paths
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# frame synthesis


def test_frame_synthesize_rank_one():
    g = [lambda x: np.ones_like(np.asarray(x, dtype=float))]
    ens = gpsim.frame_synthesize(g, [0.1, 0.9], n_paths=5000, seed=1)
    corr = np.corrcoef(ens.paths[:, 0], ens.paths[:, 1])[0, 1]
    assert abs(abs(corr) - 1.0) < 1e-12


def test_frame_synthesize_matches_cholesky_columns():
    pts = [1.0, 2.0, 3.0]
    L = kf.brownian_cholesky_closed_form(pts).L

    def column(m):
        # evaluate column m of L at x: the row is the last sample <= x
        def g(x):
            rows = np.searchsorted(pts, np.atleast_1d(x), side="right") - 1
            return np.where(rows >= 0, L[np.clip(rows, 0, 2), m], 0.0)

        return g

    gs = [column(m) for m in range(3)]
    ens = gpsim.frame_synthesize(gs, pts, n_paths=80_000, seed=6)
    emp = gpsim.empirical_covariance(ens)
    target = kf.gram(kf.brownian_min(), pts).entries
    tol = 5.0 * target.max() / np.sqrt(80_000)
    assert float(np.max(np.abs(emp - target))) <= tol


def test_frame_synthesize_sinc_translates():
    n_range = range(-20, 21)
    gs = [
        (lambda n: lambda x: np.sinc(np.asarray(x, dtype=float) - n))(n)
        for n in n_range
    ]
    grid = [0.0, 0.5, 1.25]
    ens = gpsim.frame_synthesize(gs, grid, n_paths=60_000, seed=12)
    emp = gpsim.empirical_covariance(ens)
    target = kf.gram(kf.shannon(), grid).entries
    assert float(np.max(np.abs(emp - target))) <= 0.03


# ---------------------------------------------------------------------------
# empirical covariance


def test_empirical_covariance_zero():
    ens = gpsim.PathEnsemble(grid=[0.1, 0.2], paths=np.zeros((10, 2)), seed=0)
    np.testing.assert_array_equal(gpsim.empirical_covariance(ens), np.zeros((2, 2)))


def test_empirical_covariance_hermitian_exactly():
    rng = np.random.default_rng(0)
    paths = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    ens = gpsim.PathEnsemble(grid=[0.1, 0.2, 0.3], paths=paths, seed=0)
    c = gpsim.empirical_covariance(ens)
    assert np.array_equal(c, c.conj().T)


def test_empirical_covariance_needs_two_paths():
    ens = gpsim.PathEnsemble(grid=[0.0], paths=np.zeros((1, 1)), seed=0)
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


def test_duality_report_fields_round():
    rep = gpsim.duality_check(
        gpsim.pair_ex1(), kf.brownian_min(), [0.5], resolution=6, n_paths=4000, seed=2
    )
    assert rep.resolution == 6 and rep.n_paths == 4000 and rep.seed == 2
    assert rep.quad_tol == pytest.approx(2.0**-6)


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


# ---------------------------------------------------------------------------
# adjoint transform


def test_transform_adjoint_zero():
    got = gpsim.transform_adjoint(gpsim.pair_ex1(), lambda x: 0.0 * x, [0.25, 0.5], 8)
    np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-15)


def test_transform_adjoint_integrates_indicator():
    # indicator features turn f=1 into x -> lebesgue([0, x])
    grid = [0.25, 0.5, 1.0]
    got = gpsim.transform_adjoint(gpsim.pair_ex1(), lambda x: np.ones_like(x), grid, 10)
    np.testing.assert_allclose(got, grid, atol=2.0**-10)
