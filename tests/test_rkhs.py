"""Projections, Dirac-mass membership, induced graphs, interpolation."""

import cmath
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge import factorize, kernels
from kernel_forge.kernels import point_key


def _k(spec, x, y):
    """K(x, y): the one entry of a 1 x 1 `cross_gram`."""
    return kf.cross_gram(spec, [x], [y])[0, 0]


def test_project_fixes_kernel_sections():
    spec = kf.brownian_min()
    pts = [1.0, 2.0, 4.0]
    y0 = 2.0
    h = [_k(spec, p, y0) for p in pts]
    t = [0.5, 1.5, 3.0, 4.0]
    got = kf.project(spec, pts, h, t)
    expected = [_k(spec, x, y0) for x in t]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_project_zero():
    got = kf.project(kf.brownian_min(), [1.0, 2.0], [0.0, 0.0], [0.5, 1.5])
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_project_interpolates_brownian():
    # between samples the projection is the chord
    got = kf.project(kf.brownian_min(), [1.0, 2.0, 3.0], [1.0, 1.5, 2.5], [1.5, 2.5])
    np.testing.assert_allclose(got, [1.25, 2.0], atol=1e-12)


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


# spline extension is projection with F = S: it reproduces h on S


def test_extend_spline_tent():
    spec = kf.brownian_line()
    pts = [2.0, 3.0, 4.0]
    # discrete delta at the middle point, in inverse-Gram coordinates:
    # the extension is the tent 2K(x,3) - K(x,2) - K(x,4) up to scaling.
    g = kf.gram(spec, pts)
    delta = np.array([0.0, 1.0, 0.0])
    h = g.entries @ kf.inverse_gram(g) @ delta  # h == delta on the sample
    got = kf.project(spec, pts, delta, [3.5, 5.0, 3.0])
    assert got[0] == pytest.approx(0.5, abs=1e-12)
    assert got[1] == pytest.approx(0.0, abs=1e-12)
    assert got[2] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(h, delta, atol=1e-12)


def test_extend_spline_reproduces_samples():
    spec = kf.brownian_min()
    pts = [0.5, 1.5, 2.0]
    vals = [0.3, -0.2, 0.9]
    got = kf.project(spec, pts, vals, pts)
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


def test_min_norm_interpolant_rejects_a_nan_abscissa():
    for data in ([(float("nan"), 1.0)], [(1.0, 0.0), (float("nan"), 1.0), (3.0, 0.0)]):
        with pytest.raises(kf.NotIncreasingError):
            kf.min_norm_interpolant(data)


def test_min_norm_interpolant_rejects_an_infinite_abscissa():
    # [(0.5, 1.0), (inf, 2.0)] reported norm_sq = 2.0, as if the last
    # segment had no energy
    for data in ([(0.5, 1.0), (float("inf"), 2.0)], [(float("inf"), 1.0)]):
        with pytest.raises(kf.NotIncreasingError, match="got inf after"):
            kf.min_norm_interpolant(data)


def test_min_norm_interpolant_rejects_a_decreasing_abscissa_whose_gap_overflows():
    # -1e308 - 1e308 overflows to -inf, which numpy warned of (an error
    # under the tier-1 filter) before the abscissa check saw it
    with pytest.raises(kf.NotIncreasingError, match="got -1e\\+308 after 1e\\+308"):
        kf.min_norm_interpolant([(1e308, 1.0), (-1e308, 2.0)])


def test_min_norm_interpolant_energy_is_finite_when_a_square_overflows():
    # (1e200)^2 / 1e100 = 1e300 fits in a float, though (1e200)^2 does not
    assert kf.min_norm_interpolant([(1e100, 1e200)])[1] == pytest.approx(1e300)


@pytest.mark.parametrize("data", [
    [(1.0, 1e308), (2.0, -1e308)],  # the difference overflows
    [(1.0, 1e200), (2.0, 0.0)],  # each square overflows
], ids=["difference", "square"])
def test_min_norm_interpolant_says_that_an_overflowing_energy_overflows(data):
    with pytest.raises(ValueError, match="the energy overflows"):
        kf.min_norm_interpolant(data)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_min_norm_interpolant_rejects_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="finite y"):
        kf.min_norm_interpolant([(0.5, 1.0), (1.5, bad), (2.0, 3.0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("option", ["cap", "growth", "rtol"])
def test_delta_membership_options_outside_their_domain_raise(option, bad):
    sample = kf.SampleSet(points=[-1.0, 1.0, 2.0], chain=[[-1.0, 1.0], [-1.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match=f"{option} must be finite and >= 0"):
        kf.delta_membership(kf.brownian_line(), 1.0, sample, **{option: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_induced_graph_threshold_outside_its_domain_raises(bad):
    with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
        kf.induced_graph(kf.brownian_min(), [1.0, 2.0, 3.0], threshold=bad)


def test_interpolant_rejects_a_nan_evaluation_point():
    f, _ = kf.min_norm_interpolant([(1.0, 1.0), (2.0, 3.0)])
    for t in (float("nan"), np.array([0.5, float("nan")]), [[1.0], [float("nan")]]):
        with pytest.raises(kf.OutOfDomainError, match="t >= 0, got nan"):
            f(t)
    with pytest.raises(kf.OutOfDomainError, match="finite t >= 0, got inf"):
        f(float("inf"))  # the tail is constant, but inf is no point of [0, inf)


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


# ---------------------------------------------------------------------------
# one factor per chain, against the per-level routes it replaced


def per_level_delta_sequence(spec, x, sample):
    """(K_F^-1)_xx from a Gram and a full inverse at every chain level."""
    key = point_key(x)
    seq = []
    for level in sample.chain:
        keys = [point_key(p) for p in level]
        if key not in keys:
            raise kf.ChainError(f"chain level {level} does not contain the point {x}")
        idx = keys.index(key)
        inv = kf.inverse_gram(kf.gram(spec, kf.SampleSet(points=level, domain=sample.domain)))
        seq.append(float(inv[idx, idx].real))
    return np.array(seq)


# point pools whose Grams stay well conditioned (condition number below
# about 2e3 for up to six points), so both routes agree to 1e-12 of the
# largest value; 0.0 makes a brownian-min Gram singular
CHAIN_POOLS = {
    "brownian-min": (kf.brownian_min(), [0.0] + [k / 4 for k in range(1, 17)]),
    "brownian-line": (kf.brownian_line(), [k / 4 for k in range(-8, 9) if k]),
    "szego": (kf.szego(), [0.0] + [0.8 * cmath.exp(2j * cmath.pi * k / 7) for k in range(7)]),
    "cantor-product": (
        kf.cantor_product(3),
        [0.9 * cmath.exp(2j * cmath.pi * (k + 0.45) / 7) for k in range(7)],
    ),
}


@st.composite
def nested_chains(draw):
    """(spec, sample, x): a strictly nested chain, each level in its own
    order, and a point x of the chain (not always in the first level)."""
    spec, pool = CHAIN_POOLS[draw(st.sampled_from(sorted(CHAIN_POOLS)))]
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    cuts = [c for c in range(1, len(points)) if draw(st.booleans())] + [len(points)]
    levels = [draw(st.permutations(points[:c])) for c in cuts]
    x = draw(st.sampled_from(points))
    return spec, kf.SampleSet(points=levels[-1], chain=levels), x


def _outcome(route, *args):
    try:
        return route(*args)
    except (kf.ChainError, kf.SingularMatrixError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(nested_chains())
def test_one_factor_chains_match_the_per_level_routes(case):
    # (K_F^-1)_xx >= 1 / K_xx, so the sequence stays in the normal range,
    # where the two routes agree to 1e-12 of its largest value
    spec, sample, x = case
    new = _outcome(lambda: kf.delta_membership(spec, x, sample).sequence)
    old = _outcome(per_level_delta_sequence, spec, x, sample)
    if isinstance(old, type):
        assert new is old
    else:
        assert new.shape == old.shape
        np.testing.assert_allclose(new, old, rtol=0.0, atol=1e-12 * np.max(np.abs(old)))


def test_chain_errors_are_kept():
    spec = kf.brownian_min()
    chain = [[1.0], [1.0, 2.0], [0.5, 1.0, 2.0]]
    sample = kf.SampleSet(points=chain[-1], chain=chain)
    for x in (2.0, 3.0):  # first in the second level; not in the chain
        with pytest.raises(kf.ChainError):
            kf.delta_membership(spec, x, sample)
    singular = [[1.0], [0.0, 1.0]]  # K(0, .) = 0
    sample = kf.SampleSet(points=singular[-1], chain=singular)
    with pytest.raises(kf.SingularMatrixError):
        kf.delta_membership(spec, 1.0, sample)
    for empty in (kf.SampleSet(points=[]), kf.SampleSet(points=[], chain=[])):
        with pytest.raises(kf.ChainError):
            kf.delta_membership(spec, 1.0, empty)


def _patch_everywhere(monkeypatch, original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "kernel_forge" or name.startswith("kernel_forge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_one_cholesky_per_chain_question(monkeypatch):
    calls = []
    original = factorize.cholesky

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, counted)
    x = 0.5
    levels = []
    for depth in range(3, 9):
        h = 2.0**-depth
        grid = [x + (i - 2) * h for i in range(5)]
        levels.append(sorted(set(levels[-1]) | set(grid)) if levels else grid)
    real = kf.SampleSet(points=levels[-1], chain=levels)
    disk = [[0.5], [0.5, -0.3j], [0.1 + 0.2j, 0.5, -0.3j]]
    disk = kf.SampleSet(points=disk[-1], chain=disk)
    for spec, sample, x in ((kf.brownian_min(), real, x), (kf.szego(), disk, 0.5)):
        kf.delta_membership(spec, x, sample)
        assert len(calls) == 1
        calls.clear()


def test_chain_questions_reuse_the_sample_keys(monkeypatch):
    # the SampleSet hashed every chain point once, when it was built; a chain
    # question hashes x, no more
    x = 0.5
    levels = []
    for depth in range(3, 9):
        h = 2.0**-depth
        grid = [x + (i - 2) * h for i in range(5)]
        levels.append(sorted(set(levels[-1]) | set(grid)) if levels else grid)
    sample = kf.SampleSet(points=levels[-1], chain=levels)
    calls = []

    def counted(p):
        calls.append(p)
        return point_key(p)

    _patch_everywhere(monkeypatch, kernels.point_key, counted)
    kf.delta_membership(kf.brownian_min(), x, sample)
    assert len(calls) <= 1
