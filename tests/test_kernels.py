"""Kernel families, sample sets, Gram matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf


def _k(spec, x, y):
    """K(x, y): the one entry of a 1 x 1 `cross_gram`."""
    return kf.cross_gram(spec, [x], [y])[0, 0]


def test_brownian_min_is_min():
    spec = kf.brownian_min()
    assert _k(spec, 2.0, 3.0) == 2.0
    assert _k(spec, 3.0, 2.0) == 2.0
    assert _k(spec, 0.5, 0.5) == 0.5


def test_szego_at_origin():
    spec = kf.szego()
    for w in (0.0, 0.3 + 0.1j, -0.9j):
        assert _k(spec, 0.0, w) == 1.0


def test_shannon_diagonal():
    spec = kf.shannon()
    for x in (0.0, 0.5, 3.25):
        assert _k(spec, x, x) == 1.0


def test_cantor_product_partial_product():
    # oracle: evaluate the finite product directly, factor by factor
    z = w = 0.5
    expected = 1.0
    for n in range(8):
        expected *= 1.0 + (z * w) ** (4**n)
    spec = kf.cantor_product(trunc=8)
    got = _k(spec, z, w)
    assert got == pytest.approx(expected, abs=0.0, rel=1e-15)
    # frozen from the oracle above
    assert got == pytest.approx(1.2548828127921752, rel=1e-15)


def test_drury_arveson_basic():
    spec = kf.KernelSpec("drury-arveson", dim=2)
    zero = np.zeros(2, dtype=complex)
    assert _k(spec, zero, zero) == 1.0
    z = np.array([0.3, 0.1j])
    w = np.array([0.2 + 0.1j, 0.4])
    # conjugate-linear in the first slot
    expected = 1.0 / (1.0 - np.vdot(z, w))
    assert _k(spec, z, w) == pytest.approx(expected, rel=1e-15)


def test_green_1d_against_second_difference():
    """K(*, y) should be harmonic for -d^2/dx^2 away from y and zero at 0, 1."""
    spec = kf.KernelSpec("green-1d")
    y = 0.37
    h = 1e-3
    xs = np.arange(h, 1.0, h)
    vals = np.array([_k(spec, x, y) for x in xs])
    second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
    away = np.abs(xs[1:-1] - y) > 2 * h
    assert np.max(np.abs(second[away])) < 1e-6
    # vanishes linearly toward both endpoints (the domain is open)
    assert vals[0] < 2 * h
    assert vals[-1] < 2 * h
    with pytest.raises(kf.OutOfDomainError):
        _k(spec, 0.0, y)


def test_overlap_kernel_interval_masses():
    lam = kf.overlap(kf.lebesgue())
    a = kf.IntervalSet(((0.0, 1.0),))
    b = kf.IntervalSet(((0.0, 0.5),))
    c = kf.IntervalSet(((0.25, 0.75),))
    assert _k(lam, a, a) == pytest.approx(1.0)
    assert _k(lam, b, b) == pytest.approx(0.5)
    assert _k(lam, b, c) == pytest.approx(0.25)
    mu = kf.overlap(kf.cantor4())
    quarter = kf.IntervalSet(((0.0, 0.25),))
    assert _k(mu, quarter, a) == pytest.approx(0.5)


@pytest.mark.parametrize("interval", [(math.nan, 0.5), (0.0, math.nan), (0.7, 0.2)])
def test_interval_set_rejects_nan_and_reversed_endpoints(interval):
    with pytest.raises(ValueError):
        kf.IntervalSet((interval, (0.8, 0.9)))


@pytest.mark.parametrize("interval",
                         [(-math.inf, 0.5), (0.5, math.inf), (-math.inf, math.inf)])
def test_interval_set_rejects_infinite_endpoints(interval):
    # an infinite end would reach reports as Infinity, which JSON lacks
    with pytest.raises(ValueError, match="not a finite interval"):
        kf.IntervalSet((interval,))


@pytest.mark.parametrize("m,mass", [(kf.lebesgue(), 0.25), (kf.cantor4(), 0.5)],
                         ids=["lebesgue", "cantor4"])
def test_overlap_gram_of_empty_sets(m, mass):
    spec = kf.overlap(m)
    empty, quarter = kf.IntervalSet(()), kf.IntervalSet(((0.0, 0.25),))
    assert kf.gram(spec, []).entries.shape == (0, 0)
    assert kf.gram(spec, [empty]).entries.tolist() == [[0.0]]
    assert kf.gram(spec, [empty, quarter]).entries.tolist() == [[0.0, 0.0], [0.0, mass]]


def test_gram_shannon_integers_identity():
    g = kf.gram(kf.shannon(), [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(g.entries, np.eye(3), atol=1e-15)


def test_gram_empty():
    g = kf.gram(kf.brownian_min(), [])
    assert g.n == 0
    assert g.entries.shape == (0, 0)


def test_gram_hermitian_bitwise():
    pts = [0.1 + 0.2j, -0.3j, 0.5, 0.25 - 0.6j]
    g = kf.gram(kf.szego(), pts).entries
    assert np.array_equal(g, g.conj().T)
    assert np.all(np.diag(g).imag == 0.0)


def test_cross_gram_matches_gram():
    spec = kf.brownian_min()
    pts = [1.0, 2.0, 3.5]
    g = kf.gram(spec, pts).entries
    c = kf.cross_gram(spec, pts, pts)
    np.testing.assert_array_equal(g, c)


def test_validate_psd():
    ok, m = kf.validate_psd(np.eye(2))
    assert ok and m == pytest.approx(1.0)
    ok, m = kf.validate_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not ok
    assert m == pytest.approx(-1.0, abs=1e-12)  # roots of (1-t)^2 = 4
    ok, m = kf.validate_psd(np.zeros((0, 0)))
    assert ok and m == np.inf


@pytest.mark.parametrize(
    "g",
    [np.zeros((0, 3)), np.zeros((3, 0)), [], np.zeros((2, 3))],
    ids=["0x3", "3x0", "empty-list", "2x3"],
)
def test_validate_psd_rejects_non_square_input(g):
    # only a 0 x 0 matrix is vacuously PSD, empty or not
    with pytest.raises(ValueError, match="expected a square matrix"):
        kf.validate_psd(g)


def test_sample_set_rejects_duplicates():
    with pytest.raises(kf.DuplicatePointError):
        kf.SampleSet(points=[1.0, 2.0, 1.0])


def test_sample_set_rejects_broken_chain():
    with pytest.raises(kf.ChainError):
        kf.SampleSet(points=[1.0, 2.0], chain=[[3.0], [1.0, 2.0]])


def test_domain_tag_mismatch():
    sample = kf.SampleSet(points=[0.1 + 0.1j], domain="complex-disk")
    with pytest.raises(kf.DomainMismatchError):
        kf.gram(kf.brownian_min(), sample)


def test_szego_rejects_boundary():
    with pytest.raises(kf.OutOfDomainError):
        _k(kf.szego(), 1.0 + 0.0j, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
def test_brownian_gram_always_psd(points):
    ok, min_eig = kf.validate_psd(kf.gram(kf.brownian_min(), sorted(points)))
    assert ok, f"min eigenvalue {min_eig}"


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
def test_szego_gram_always_psd(points):
    ok, min_eig = kf.validate_psd(kf.gram(kf.szego(), points))
    assert ok, f"min eigenvalue {min_eig}"
