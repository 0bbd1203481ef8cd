"""Parseval diagnostics, frame bounds, reconstruction, sawtooth witnesses."""

import math

import numpy as np
import pytest

import kernel_forge as kf


def _k(spec, x, y):
    """K(x, y): the one entry of a 1 x 1 `cross_gram`."""
    return kf.cross_gram(spec, [x], [y])[0, 0]


def test_parseval_exact_at_integer():
    # at an integer only one sinc term survives, so the deficit is zero bitwise
    rep = kf.parseval_check(kf.shannon(), "integers", [3.0], truncation=20)
    assert rep.deficits[0] == 0.0


def test_parseval_shannon_half_point():
    rep = kf.parseval_check(kf.shannon(), "integers", [0.5], truncation=10_000)
    assert rep.parseval_deficit <= 1e-4
    assert rep.tail_bound is not None
    # the truncation error is controlled by the analytic tail bound
    assert rep.parseval_deficit <= rep.tail_bound
    assert rep.verdict == "parseval"


def test_parseval_brownian_diverges():
    # sum of min(0.5, n)^2 grows like N/4: no Parseval identity on this lattice
    rep = kf.parseval_check(kf.brownian_min(), "positive-integers", [0.5], truncation=400)
    assert rep.verdict == "not-parseval"
    assert rep.parseval_deficit > 10.0


def test_parseval_deficit_shrinks_with_truncation():
    prev = None
    for n in (100, 1000, 10_000):
        rep = kf.parseval_check(kf.shannon(), "integers", [0.5], truncation=n)
        if prev is not None:
            assert rep.parseval_deficit < prev
        prev = rep.parseval_deficit


def test_frame_bounds_shannon_identity():
    a, b = kf.frame_bounds(kf.shannon(), [float(n) for n in range(-5, 6)])
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_frame_bounds_match_jacobi():
    pts = [1.0, 2.0, 3.0]
    a, b = kf.frame_bounds(kf.brownian_min(), pts)
    eigs = kf.jacobi_eigs(kf.gram(kf.brownian_min(), pts)).eigenvalues
    assert a == pytest.approx(eigs[-1], rel=1e-12)
    assert b == pytest.approx(eigs[0], rel=1e-12)


def test_frame_bounds_singular():
    with pytest.raises(kf.SingularMatrixError):
        kf.frame_bounds(kf.brownian_min(), [1.0, 1.0 + 2e-16])


def test_reconstruct_kernel_section_exact():
    spec = kf.shannon()
    s = [float(n) for n in range(0, 6)]
    s0 = 2.0
    samples = [_k(spec, p, s0) for p in s]
    evals = [0.3, 1.7, 4.9]
    got = kf.frame_reconstruct(spec, s, samples, evals)
    expected = [_k(spec, x, s0) for x in evals]
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_reconstruct_bandlimited_combo():
    spec = kf.shannon()
    s = [float(n) for n in range(0, 6)]

    def f(x):
        return np.sinc(x - 1.0) + 2.0 * np.sinc(x - 3.0)

    samples = f(np.array(s))
    got = kf.frame_reconstruct(spec, s, samples, [2.5])
    assert got[0] == pytest.approx(float(f(np.array([2.5]))[0]), abs=1e-10)


def test_reconstruct_matches_projection_route():
    # second route: same coefficients through the hand-rolled inverse
    spec = kf.brownian_min()
    s = [0.5, 1.0, 2.0]
    vals = [0.1, -0.7, 0.4]
    evals = [0.75, 1.5, 3.0]
    a = kf.frame_reconstruct(spec, s, vals, evals)
    b = kf.project(spec, s, vals, evals)
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# sawtooth witness


def test_sawtooth_vanishes_at_knots():
    knots = [float(n) for n in range(1, 12)]
    w = kf.sawtooth_witness(knots)
    np.testing.assert_array_equal(w(np.array(knots)), np.zeros(len(knots)))


def test_sawtooth_norm_partial_sums():
    # harmonic slopes: the energy telescopes to sum 1/n^2
    for n_knots in (3, 6, 10):
        w = kf.sawtooth_witness([float(n) for n in range(1, n_knots + 2)])
        expected = sum(1.0 / n**2 for n in range(1, n_knots + 1))
        assert w.norm_sq == pytest.approx(expected, rel=1e-12)
    w10 = kf.sawtooth_witness([float(n) for n in range(1, 12)])
    assert w10.norm_sq == pytest.approx(1.5497677311665408, rel=1e-15)


def test_sawtooth_apex():
    w = kf.sawtooth_witness([1.0, 2.0], slope_rule=[3.0])
    assert w(np.array([1.5]))[0] == pytest.approx(1.5)


def test_sawtooth_knot_inner_products_vanish():
    w = kf.sawtooth_witness([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(w.knot_inner_products(), np.zeros(4))


def test_sawtooth_outside_support():
    w = kf.sawtooth_witness([1.0, 2.0])
    assert w(np.array([0.5]))[0] == 0.0
    assert w(np.array([2.5]))[0] == 0.0


def test_sawtooth_validates_knots():
    with pytest.raises(kf.NotIncreasingError):
        kf.sawtooth_witness([2.0, 1.0])
    with pytest.raises(ValueError):
        kf.sawtooth_witness([1.0])  # an interval needs two endpoints
    with pytest.raises(ValueError):
        kf.sawtooth_witness([1.0, 2.0, 3.0], slope_rule=[1.0])  # wrong count


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("option", ["tol"])
def test_parseval_tolerances_outside_their_domain_raise(option, bad):
    with pytest.raises(ValueError, match=f"{option} must be finite and >= 0"):
        kf.parseval_check(kf.shannon(), "integers", [0.5], 20, **{option: bad})


def test_sawtooth_rejects_a_nan_knot():
    with pytest.raises(kf.NotIncreasingError):
        kf.sawtooth_witness([1.0, float("nan"), 3.0])


# the last two have a gap inf - inf, which is NaN: numpy's warning of it
# is an error under the RuntimeWarning filter
@pytest.mark.parametrize(
    "knots",
    [
        [0.0, 1.0, math.inf],
        [-math.inf, 0.0, 1.0],
        [1.0, math.inf, math.inf],
        [-math.inf, -math.inf, 0.0],
    ],
)
def test_sawtooth_rejects_an_infinite_knot(knots):
    with pytest.raises(kf.NotIncreasingError, match="need finite"):
        kf.sawtooth_witness(knots)


def test_sawtooth_says_that_an_overflowing_gap_overflows():
    # both knots are finite and increasing; only their gap is not finite
    with pytest.raises(
        kf.NotIncreasingError,
        match=r"need finite x_1 < x_2 < \.\.\., but the gap from -1e\+308 to 1e\+308 overflows",
    ):
        kf.sawtooth_witness([-1e308, 1e308])


@pytest.mark.parametrize("knots, slopes, norm_sq", [
    # a subnormal gap: 1 / sqrt(1e-310) squared overflows, yet its term is 1
    ([0.0, 1e-310, 1.0], "harmonic", 1.25),
    ([0.0, 1e-300, 1.0], [1e200, 1.0], 1e100 + 1.0),
], ids=["harmonic", "custom"])
def test_sawtooth_energy_is_finite_when_a_square_overflows(knots, slopes, norm_sq):
    assert kf.sawtooth_witness(knots, slopes).norm_sq == pytest.approx(norm_sq)


def test_sawtooth_says_that_an_overflowing_energy_overflows():
    with pytest.raises(ValueError, match="the energy overflows"):
        kf.sawtooth_witness([0.0, 1.0, 2.0], slope_rule=[1e200, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sawtooth_rejects_a_non_finite_slope(bad):
    with pytest.raises(ValueError, match="slopes must be finite"):
        kf.sawtooth_witness([1.0, 2.0, 3.0], slope_rule=[1.0, bad])
