"""Projections, Dirac-mass membership, induced graphs, interpolation."""

import numpy as np
import pytest

import kernel_forge as kf


def test_project_fixes_kernel_sections():
    spec = kf.brownian_min()
    pts = [1.0, 2.0, 4.0]
    y0 = 2.0
    h = [kf.eval_kernel(spec, p, y0) for p in pts]
    t = [0.5, 1.5, 3.0, 4.0]
    got = kf.project(spec, pts, h, t)
    expected = [kf.eval_kernel(spec, x, y0) for x in t]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_project_zero():
    got = kf.project(kf.brownian_min(), [1.0, 2.0], [0.0, 0.0], [0.5, 1.5])
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_project_interpolates_brownian():
    # between samples the projection is the chord
    got = kf.project(kf.brownian_min(), [1.0, 2.0, 3.0], [1.0, 1.5, 2.5], [1.5, 2.5])
    np.testing.assert_allclose(got, [1.25, 2.0], atol=1e-12)


def test_norm_chain_constant_for_reproducing_section():
    spec = kf.brownian_min()
    chain = [[2.0], [1.0, 2.0], [1.0, 2.0, 3.0]]
    sample = kf.SampleSet(points=chain[-1], chain=chain)
    y0 = 2.0
    h_levels = [[kf.eval_kernel(spec, p, y0) for p in level] for level in chain]
    rep = kf.rkhs_norm_sq(spec, sample, h_levels)
    np.testing.assert_allclose(rep.sequence, kf.eval_kernel(spec, y0, y0), rtol=1e-12)
    assert rep.sup == pytest.approx(2.0, rel=1e-12)


def test_norm_chain_monotone():
    spec = kf.brownian_min()
    chain = [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]]
    sample = kf.SampleSet(points=chain[-1], chain=chain)
    rng = np.random.default_rng(3)
    target = rng.standard_normal(4)
    h_levels = [
        [float(target[chain[-1].index(p)]) for p in level] for level in chain
    ]
    rep = kf.rkhs_norm_sq(spec, sample, h_levels)
    seq = list(rep.sequence)
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


def test_delta_membership_integer_lattice():
    # 0 is excluded: the kernel vanishes there and pins every function to 0
    spec = kf.brownian_line()
    chain = [
        [float(n) for n in range(-k, k + 1) if n != 0] for k in (1, 2, 3)
    ]
    sample = kf.SampleSet(points=chain[-1], chain=chain)
    rep = kf.delta_membership(spec, 1.0, sample)
    assert rep.verdict == "member"
    assert rep.sup == pytest.approx(2.0, abs=1e-9)


def test_delta_membership_singleton():
    spec = kf.brownian_min()
    sample = kf.SampleSet(points=[1.0], chain=[[1.0]])
    rep = kf.delta_membership(spec, 1.0, sample)
    # a single point: the norm is 1/K(x,x)
    assert rep.sequence[0] == pytest.approx(1.0, rel=1e-12)


def test_delta_membership_diverges_on_refining_grid():
    spec = kf.brownian_min()
    x = 0.5
    chain = []
    for k in (3, 4, 5, 6, 7):
        h = 2.0**-k
        grid = [x + (i - 2) * h for i in range(5)]  # stays inside (0, 1)
        chain.append(sorted(set(chain[-1]) | set(grid)) if chain else grid)
    sample = kf.SampleSet(points=chain[-1], chain=chain)
    rep = kf.delta_membership(spec, x, sample)
    assert rep.verdict == "diverging"
    seq = list(rep.sequence)
    # halving the grid spacing roughly doubles the energy (2/h law)
    for a, b in zip(seq, seq[1:]):
        assert b >= 1.9 * a


def test_laplacian_apply_zero():
    got = kf.laplacian_apply(kf.brownian_min(), [1.0, 2.0], [0.0, 0.0])
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_induced_graph_shannon_has_no_edges():
    g = kf.induced_graph(kf.shannon(), [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert g.edges == []


def test_induced_graph_brownian_is_a_path():
    g = kf.induced_graph(kf.brownian_min(), [1.0, 2.0, 3.0, 4.0])
    assert g.edges == [(0, 1), (1, 2), (2, 3)]
    assert all(i != j for i, j in g.edges)


def test_induced_graph_edges_are_row_major_int_pairs():
    rng = np.random.default_rng(11)
    pts = sorted(rng.uniform(-5.0, 5.0, size=12))
    g = kf.induced_graph(kf.brownian_line(), pts, threshold=1e-3)
    n = len(pts)
    expected = [
        (i, j) for i in range(n) for j in range(i + 1, n) if abs(g.weights[i, j]) > 1e-3
    ]
    assert g.edges == expected and expected
    assert all(type(i) is int and type(j) is int for i, j in g.edges)


def test_extend_spline_tent():
    spec = kf.brownian_line()
    pts = [2.0, 3.0, 4.0]
    # discrete delta at the middle point, in inverse-Gram coordinates:
    # the extension is the tent 2K(x,3) - K(x,2) - K(x,4) up to scaling.
    g = kf.gram(spec, pts)
    delta = np.array([0.0, 1.0, 0.0])
    h = g.entries @ kf.inverse_gram(g) @ delta  # h == delta on the sample
    got = kf.extend_spline(spec, pts, delta, [3.5, 5.0, 3.0])
    assert got[0] == pytest.approx(0.5, abs=1e-12)
    assert got[1] == pytest.approx(0.0, abs=1e-12)
    assert got[2] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(h, delta, atol=1e-12)


def test_extend_spline_reproduces_samples():
    spec = kf.brownian_min()
    pts = [0.5, 1.5, 2.0]
    vals = [0.3, -0.2, 0.9]
    got = kf.extend_spline(spec, pts, vals, pts)
    np.testing.assert_allclose(got, vals, atol=1e-12)


def test_min_norm_interpolant_single_knot():
    f, norm_sq = kf.min_norm_interpolant([(1.0, 1.0)])
    assert norm_sq == pytest.approx(1.0)
    assert f(1.0) == 1.0
    assert f(0.5) == 0.5  # linear ramp from the pinned origin


def test_min_norm_interpolant_zero_data():
    f, norm_sq = kf.min_norm_interpolant([(1.0, 0.0), (2.0, 0.0)])
    assert norm_sq == 0.0
    assert f(1.7) == 0.0


def test_min_norm_interpolant_energy():
    # sum of (dy)^2/dx over the segments: 1/1 + 4/1
    f, norm_sq = kf.min_norm_interpolant([(1.0, 1.0), (2.0, 3.0)])
    assert norm_sq == pytest.approx(5.0, rel=1e-12)
    assert f(1.5) == pytest.approx(2.0)
    assert f(3.0) == pytest.approx(3.0)  # constant continuation


def test_min_norm_interpolant_validates():
    with pytest.raises(kf.NotIncreasingError):
        kf.min_norm_interpolant([(2.0, 1.0), (1.0, 0.0)])
    with pytest.raises(kf.NotIncreasingError):
        kf.min_norm_interpolant([(0.0, 1.0)])
    f, _ = kf.min_norm_interpolant([(1.0, 1.0)])
    with pytest.raises(kf.OutOfDomainError):
        f(-0.5)


def test_min_norm_matches_projection_route():
    """The closed-form energy equals the quadratic form through the inverse Gram."""
    data = [(0.5, 0.2), (1.25, -0.4), (2.0, 1.0), (3.5, 0.9)]
    _, norm_sq = kf.min_norm_interpolant(data)
    spec = kf.brownian_min()
    pts = [x for x, _ in data]
    vals = np.array([y for _, y in data])
    g = kf.gram(spec, pts)
    energy = float(vals @ kf.inverse_gram(g) @ vals)
    assert norm_sq == pytest.approx(energy, rel=1e-10)
