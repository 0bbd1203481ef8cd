"""Scale-4 Cantor measure: cells, CDF, spectrum, Fourier data, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge import measures


# ---------------------------------------------------------------------------
# oracles


def digit_walk_cdf(x: float, depth: int = 40) -> float:
    """Independent CDF oracle: walk base-4 digits of x.

    Each step keeps half the remaining mass in digit 0, the other half in
    digit 2; digits 1 and 3 land in gaps where the CDF is flat.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    acc = 0.0
    weight = 1.0
    for _ in range(depth):
        x *= 4.0
        d = int(x)
        x -= d
        if d >= 3:
            return acc + weight
        if d == 2:
            acc += 0.5 * weight
            weight *= 0.5
        elif d == 1:
            return acc + 0.5 * weight
        else:
            weight *= 0.5
        if x == 0.0:
            break
    return acc


def scalar_mu4_cdf(x: float) -> float:
    """The scalar base-4 digit walk that `measures.cdf` vectorizes, kept
    verbatim as its bitwise oracle (exact rational digit extraction)."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise kf.OutOfDomainError(f"mu4_cdf requires 0 <= x <= 1, got {x}")
    if x == 1.0:
        return 1.0
    num, den = x.as_integer_ratio()
    acc, w = 0.0, 1.0
    for _ in range(64):
        if num == 0:
            break
        num *= 4
        d, num = divmod(num, den)
        if d == 0:
            w *= 0.5
        elif d == 1:
            acc += 0.5 * w
            break
        elif d == 2:
            acc += 0.5 * w
            w *= 0.5
        else:
            acc += w
            break
    return acc


def is_spectrum_member(n: int) -> bool:
    # base-4 digits restricted to {0, 1}
    while n:
        if n % 4 > 1:
            return False
        n //= 4
    return True


# ---------------------------------------------------------------------------
# cells


def test_cells_resolution_zero():
    for m in (kf.lebesgue(), kf.cantor4()):
        part = kf.cells(m, 0)
        assert list(part.lefts) == [0.0]
        assert list(part.rights) == [1.0]
        assert list(part.masses) == [1.0]


def test_cantor_cells_depth_one():
    part = kf.cells(kf.cantor4(), 1)
    np.testing.assert_allclose(part.lefts, [0.0, 0.5])
    np.testing.assert_allclose(part.rights, [0.25, 0.75])
    np.testing.assert_allclose(part.masses, [0.5, 0.5])


def test_lebesgue_cells_depth_two():
    part = kf.cells(kf.lebesgue(), 2)
    assert len(part.masses) == 4
    np.testing.assert_allclose(part.masses, 0.25)
    np.testing.assert_allclose(part.rights - part.lefts, 0.25)


def test_cantor_cells_ascending_and_disjoint():
    for r in range(16):
        part = kf.cells(kf.cantor4(), r)
        assert np.all(part.lefts[1:] > part.rights[:-1])


@pytest.mark.parametrize("depth", range(13))
def test_cell_masses_sum_to_one(depth):
    for m in (kf.lebesgue(), kf.cantor4()):
        part = kf.cells(m, depth)
        assert abs(float(np.sum(part.masses)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# CDF


def test_cdf_landmarks():
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    expected = [0.0, 0.5, 0.5, 1.0, 1.0]
    got = kf.cdf(kf.cantor4(), xs).tolist()
    assert got == expected


def test_cdf_matches_digit_walk_oracle():
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, size=200):
        assert float(kf.cdf(kf.cantor4(), float(x))) == pytest.approx(
            digit_walk_cdf(float(x)), abs=1e-12
        )


def test_cdf_matches_cell_counting():
    # second oracle: mass of cells at depth 8 lying left of x
    part = kf.cells(kf.cantor4(), 8)
    for x in (0.1, 0.3, 0.55, 0.62, 0.9):
        counted = float(np.sum(part.masses[part.rights <= x]))
        assert abs(float(kf.cdf(kf.cantor4(), x)) - counted) <= 2.0 ** (-8)


def _walk_inputs():
    tiny = np.nextafter(0.0, 1.0)
    fixed = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), tiny, 3 * tiny, 2.0**-1022, 2.0**-1040]
    grids = [np.arange((1 << r) + 1) / (1 << r) for r in range(13)]
    return np.concatenate([fixed] + grids + [np.random.default_rng(5).uniform(size=2000)])


def test_cdf_matches_the_scalar_walk_bitwise():
    xs = _walk_inputs()
    want = np.array([scalar_mu4_cdf(x) for x in xs])
    assert measures.cdf(kf.cantor4(), xs).tobytes() == want.tobytes()
    assert [float(kf.cdf(kf.cantor4(), x)) for x in xs] == want.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=2.0**-1000, allow_subnormal=True),
            st.integers(0, 1 << 20).map(lambda k: k / (1 << 20)),
        ),
        max_size=40,
    )
)
def test_cdf_equals_the_scalar_walk(xs):
    got = measures.cdf(kf.cantor4(), np.array(xs, dtype=float))
    want = np.array([scalar_mu4_cdf(x) for x in xs], dtype=float)
    assert got.tobytes() == want.tobytes()


def test_cdf_keeps_the_input_shape():
    xs = np.array([[0.0, 0.3], [0.75, 1.0]])
    assert measures.cdf(kf.cantor4(), xs).shape == (2, 2)
    assert measures.cdf(kf.lebesgue(), xs).tobytes() == xs.tobytes()
    assert measures.cdf(kf.cantor4(), 0.25).shape == ()


@pytest.mark.parametrize("bad", [math.nan, -1e-300, np.nextafter(1.0, 2.0), math.inf, -math.inf])
@pytest.mark.parametrize("m", [kf.lebesgue(), kf.cantor4()], ids=["lebesgue", "cantor4"])
def test_cdf_rejects_values_outside_the_unit_interval(m, bad):
    with pytest.raises(kf.OutOfDomainError):
        measures.cdf(m, np.array([0.5, bad, 0.25]))
    with pytest.raises(kf.OutOfDomainError):
        measures.cdf(m, bad)
    with pytest.raises(kf.OutOfDomainError):
        scalar_mu4_cdf(bad)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_cdf_monotone(x, y):
    lo, hi = sorted((x, y))
    assert kf.cdf(kf.cantor4(), lo) <= kf.cdf(kf.cantor4(), hi)


# ---------------------------------------------------------------------------
# spectrum and generating function


def test_lambda4_limit_one():
    assert list(kf.lambda4(1)) == [0]


def test_lambda4_frozen_prefix():
    assert list(kf.lambda4(66)) == [0, 1, 4, 5, 16, 17, 20, 21, 64, 65]


def test_lambda4_digit_oracle():
    got = set(int(v) for v in kf.lambda4(256))
    expected = {n for n in range(256) if is_spectrum_member(n)}
    assert got == expected


def test_lambda4_recursion_identity():
    # the set below 256 is {0,1} + 4 * (the set below 64), disjointly
    small = [int(v) for v in kf.lambda4(64)]
    rebuilt = sorted({4 * v for v in small} | {4 * v + 1 for v in small})
    assert [int(v) for v in kf.lambda4(256)] == rebuilt


def test_generating_function_at_zero():
    prod, total, gap = kf.generating_function(0.0, 4)
    assert prod == 1.0 and total == 1.0 and gap == 0.0


@pytest.mark.parametrize("s", [complex(math.nan), complex(0.0, math.nan)])
def test_generating_function_rejects_nan(s):
    with pytest.raises(kf.OutOfDomainError):
        kf.generating_function(s, 3)


def test_generating_function_frozen_value():
    # oracle: 1.5 * (1 + 0.5**4) * (1 + 0.5**16)
    prod, total, gap = kf.generating_function(0.5, 3)
    oracle = 1.5 * (1 + 0.5**4) * (1 + 0.5**16)
    assert prod == pytest.approx(oracle, rel=1e-15)
    assert prod == pytest.approx(1.5937743186950684, rel=1e-15)
    assert abs(prod - total) < 1e-12


@pytest.mark.parametrize("s", [np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
                               complex(0.0, np.nextafter(1.0, 0.0))])
def test_generating_function_gap_is_finite_below_the_boundary(s):
    # |s| < 1 makes q = |s|^(4^trunc) < 1, so the gap bound never overflows
    assert math.isfinite(kf.generating_function(s, 1)[2])


def test_generating_function_rejects_boundary():
    with pytest.raises(kf.OutOfDomainError):
        kf.generating_function(1.0, 3)


@settings(max_examples=50, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=4),
)
def test_product_equals_sum(s, trunc):
    prod, total, _ = kf.generating_function(s, trunc)
    assert abs(prod - total) <= 1e-12 * max(1.0, abs(prod))


# ---------------------------------------------------------------------------
# Fourier transform values


def test_mu4_fourier_at_zero():
    rep = kf.mu4_fourier(0.0, trunc=12)
    assert rep.product_value == 1.0 + 0.0j
    assert rep.quadrature_value == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert rep.difference == pytest.approx(0.0, abs=1e-12)


def test_mu4_fourier_modulus_bounded():
    # each product factor has modulus <= 1; the quadrature integrates a
    # unimodular function against a probability measure
    for t in np.linspace(-7.3, 7.3, 29):
        rep = kf.mu4_fourier(float(t), trunc=12)
        assert abs(rep.product_value) <= 1.0 + 1e-12
        assert abs(rep.quadrature_value) <= 1.0 + 1e-12


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_mu4_fourier_rejects_a_non_finite_frequency(t):
    with pytest.raises(ValueError, match="must be finite"):
        kf.mu4_fourier(t, trunc=3)


def test_mu4_fourier_comparison_report_at_one():
    # the report carries both readings; they use different frequency
    # conventions and are not reconciled, so only the fields themselves
    # are pinned here
    rep = kf.mu4_fourier(1.0, trunc=12, oracle_depth=10)
    quad = kf.integrate(kf.cantor4(), lambda x: np.exp(2j * np.pi * x), 10)
    assert rep.quadrature_value == pytest.approx(quad, abs=1e-12)
    assert rep.difference == abs(rep.product_value - rep.quadrature_value)


def test_mu4_fourier_nonzero_off_spectrum_gap():
    # 2 has a base-4 digit equal to 2, so e(2t) is not orthogonal to 1
    rep = kf.mu4_fourier(2.0, trunc=12)
    assert abs(rep.quadrature_value) >= 0.5


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_constant():
    for m in (kf.lebesgue(), kf.cantor4()):
        assert kf.integrate(m, lambda x: np.ones_like(x), 6) == pytest.approx(1.0)


def test_integrate_identity_function():
    depth = 10
    got = kf.integrate(kf.cantor4(), lambda x: x, depth)
    assert abs(got - 1.0 / 3.0) <= 4.0 ** (-depth)
    got = kf.integrate(kf.lebesgue(), lambda x: x, depth)
    assert abs(got - 0.5) <= 2.0 ** (-depth)


def test_measure_of_intervals():
    m = kf.cantor4()
    assert kf.measure_of_intervals(m, [(0.0, 1.0)]) == pytest.approx(1.0)
    assert kf.measure_of_intervals(m, [(0.25, 0.5)]) == pytest.approx(0.0, abs=1e-12)
    assert kf.measure_of_intervals(m, [(0.0, 0.25)]) == pytest.approx(0.5)


@pytest.mark.parametrize("m", [kf.lebesgue(), kf.cantor4()], ids=["lebesgue", "cantor4"])
@pytest.mark.parametrize("interval", [(0.7, 0.2), (math.nan, 0.5), (0.0, math.nan)])
def test_measure_of_intervals_rejects_reversed_or_nan_intervals(m, interval):
    with pytest.raises(ValueError):
        kf.measure_of_intervals(m, [(0.0, 0.1), interval])


def test_measure_of_intervals_clips_to_the_unit_interval():
    for m in (kf.lebesgue(), kf.cantor4()):
        assert kf.measure_of_intervals(m, [(-3.0, -1.0), (-0.5, 1.5)]) == 1.0
        assert kf.measure_of_intervals(m, [(1.5, 2.0)]) == 0.0
        assert kf.measure_of_intervals(m, []) == 0.0


def test_check_cell_alignment():
    # the cells wholly inside a union, and a cell cut by it
    m = kf.lebesgue()
    idx = kf.cells(m, 2).inside([(0.25, 0.75)])
    assert list(idx) == [1, 2]
    with pytest.raises(kf.CellMisalignmentError):
        kf.cells(m, 2).inside([(0.1, 0.6)])


# ---------------------------------------------------------------------------
# Fourier Gram


def test_fourier_gram_diagonal_exact():
    g = kf.fourier_gram([0, 1, 4, 5], 8)
    np.testing.assert_array_equal(np.diag(g.entries).real, np.ones(4))


def test_fourier_gram_off_diagonal_small():
    g = kf.fourier_gram([0, 1], 12)
    assert abs(g.entries[0, 1]) <= 0.01


def test_fourier_gram_requires_spectrum_members():
    with pytest.raises(ValueError):
        kf.fourier_gram([0, 2], 8)
    g = kf.fourier_gram([0, 2], 12, allow_any=True)
    # orthogonality genuinely fails off the spectrum
    assert abs(g.entries[0, 1]) >= 0.5


def test_fourier_gram_off_diag_decreases_with_resolution():
    # entries are exactly annihilated by resolution 3, so past that the
    # sequence is roundoff noise: compare with a noise floor, not strictly
    lams = [int(v) for v in kf.lambda4(22)]
    prev = None
    for res in (1, 2, 4, 8, 12):
        g = kf.fourier_gram(lams, res).entries
        off = float(np.max(np.abs(g - np.diag(np.diag(g)))))
        if prev is not None:
            assert off <= prev + 1e-14
        prev = off
    assert prev <= 1e-14  # fully annihilated at depth 12


@pytest.mark.parametrize("measure", [kf.lebesgue, kf.cantor4])
def test_scalar_only_callables_fall_back_elementwise(measure):
    # math.sin raises TypeError on an array; np.sin is the vectorized twin
    m = measure()
    assert kf.integrate(m, math.sin, 3) == kf.integrate(m, np.sin, 3)
