"""Cholesky, inverse Grams, and the two eigenvalue routes."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge import factorize
from kernel_forge.factorize import (
    CholeskyFactor,
    _as_matrix,
    _check_hermitian,
    matrix_scale,
)


def random_psd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T


# ---------------------------------------------------------------------------
# cholesky


def test_cholesky_identity():
    f = kf.cholesky(np.eye(3))
    np.testing.assert_array_equal(f.L, np.eye(3))
    assert f.ridge_used == 0.0


def test_cholesky_brownian_1_3_4():
    g = kf.gram(kf.brownian_min(), [1.0, 3.0, 4.0])
    f = kf.cholesky(g)
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [1.0, np.sqrt(2.0), 0.0],
            [1.0, np.sqrt(2.0), 1.0],
        ]
    )
    np.testing.assert_allclose(f.L, expected, rtol=1e-15)
    np.testing.assert_allclose(f.L @ f.L.T, g.entries, rtol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_ridge():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular
    f = kf.cholesky(g, ridge=1e-8)
    assert f.ridge_used == 1e-8
    np.testing.assert_allclose(f.L @ f.L.conj().T, g + 1e-8 * np.eye(2), rtol=1e-12)
    with pytest.raises(ValueError):
        kf.cholesky(g, ridge=-1.0)


# every tolerance, ridge and step budget is a finite number >= 0, tested
# inside-out so that NaN fails: a NaN stop would pass G's diagonal off as
# a converged spectrum
OUT_OF_DOMAIN = [math.nan, math.inf, -1.0]


@pytest.mark.parametrize("bad", OUT_OF_DOMAIN)
@pytest.mark.parametrize(
    "route,option",
    [
        (kf.cholesky, "ridge"),
        (kf.cholesky, "tol"),
        (kf.alt_cholesky_eigs, "tol"),
        (kf.alt_cholesky_eigs, "max_iter"),
        (kf.jacobi_eigs, "tol"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_options_outside_their_domain_raise(route, option, bad):
    g = kf.gram(kf.brownian_min(), [0.1, 0.7, 1.3])
    with pytest.raises(ValueError, match=f"{option} must be finite and >= 0"):
        route(g, **{option: bad})


def test_cholesky_complex_hermitian_is_n_by_n():
    # complex Hermitian input factors as it is: L @ L^H = G, L lower n x n
    # with a real positive diagonal
    g = kf.gram(kf.szego(), [0.1 + 0.2j, -0.3j, 0.4])
    f = kf.cholesky(g)
    assert f.L.shape == (g.n, g.n)
    assert np.iscomplexobj(f.L)
    assert np.all(np.triu(f.L, 1) == 0.0)
    assert np.all(f.L.diagonal().imag == 0.0) and np.all(f.L.diagonal().real > 0.0)
    gap = np.max(np.abs(f.L @ f.L.conj().T - g.entries))
    assert gap <= 1e-14 * np.max(np.abs(g.entries))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_cholesky_reconstructs(n, seed):
    g = random_psd(np.random.default_rng(seed), n) + 1e-6 * np.eye(n)
    f = kf.cholesky(g)
    np.testing.assert_allclose(f.L @ f.L.T, g, atol=1e-10 * np.abs(g).max())
    assert np.all(np.triu(f.L, 1) == 0.0)


# ---------------------------------------------------------------------------
# the column sweep that factored every Gram before `cholesky` called LAPACK,
# kept as the oracle for the LAPACK route, with the `cholesky` and
# `inverse_gram` bodies that ran it


def _chol_lower(a: np.ndarray, tol: float) -> np.ndarray:
    """Right-looking Cholesky column sweep on a Hermitian matrix.

    The pivot is the real part of the working diagonal, and each step
    subtracts the outer product col @ col^H.  Raises
    NotPositiveDefiniteError as soon as a pivot falls below the absolute
    threshold ``tol`` or is not positive (NaN pivots fail too).
    """
    n = a.shape[0]
    work = np.array(a)
    lower = np.zeros_like(work)
    for j in range(n):
        pivot = float(work[j, j].real)
        if not (pivot >= tol and pivot > 0.0):
            raise kf.NotPositiveDefiniteError(
                f"Cholesky pivot {pivot:.6e} at index {j} is below tolerance {tol:.1e}"
            )
        root = math.sqrt(pivot)
        lower[j, j] = root
        if j + 1 < n:
            col = work[j + 1 :, j] / root
            lower[j + 1 :, j] = col
            work[j + 1 :, j + 1 :] -= np.outer(col, col.conj())
    return lower


def sweep_cholesky(g, ridge: float = 0.0, tol: float = 1e-12) -> CholeskyFactor:
    """`cholesky` on the column sweep."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    arr = _as_matrix(g)
    _check_hermitian(arr)
    threshold = tol * matrix_scale(arr)
    if ridge:
        arr = arr + ridge * np.eye(arr.shape[0])
    return CholeskyFactor(L=_chol_lower(arr, threshold), ridge_used=float(ridge))


def sweep_inverse_gram(g) -> np.ndarray:
    """`inverse_gram` on the column sweep: two triangular solves."""
    arr = _as_matrix(g)
    if arr.shape[0] == 0:
        return arr.copy()
    try:
        factor = sweep_cholesky(arr, ridge=0.0, tol=1e-12)
    except kf.NotPositiveDefiniteError as exc:
        raise kf.SingularMatrixError(f"matrix is singular or indefinite: {exc}") from exc
    eye = np.eye(factor.L.shape[0])
    half = scipy.linalg.solve_triangular(factor.L, eye, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(
        factor.L.conj().T, half, lower=False, check_finite=False
    )


def _factor_or_none(chol, g):
    try:
        return chol(g).L
    except kf.NotPositiveDefiniteError:
        return None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
    st.sampled_from(["full", "deficient", "ridged"]),
    st.floats(min_value=-12.0, max_value=12.0),
)
def test_lapack_cholesky_matches_the_sweep(n, seed, complex_, rank, exponent):
    # a rank-deficient Gram has trailing pivots of rounding size, far below
    # 1e-12 * scale, and its ridged twin pivots near 1e-9 * scale, far
    # above; neither verdict sits near the threshold, for any scale c
    rng = np.random.default_rng(seed)
    cols = n if rank == "full" else max(1, n // 2)
    a = rng.standard_normal((n, cols))
    if complex_:
        a = a + 1j * rng.standard_normal((n, cols))
    g = a @ a.conj().T
    if rank == "ridged":
        g = g + 1e-9 * matrix_scale(g) * np.eye(n)
    g = 10.0**exponent * g
    old = _factor_or_none(sweep_cholesky, g)
    new = _factor_or_none(kf.cholesky, g)
    assert (old is None) == (new is None)
    expected_pd = rank != "deficient" or cols == n
    assert (new is not None) == expected_pd
    if new is None:
        return
    # both are backward stable, |L L^H - G| <= (m + 1) eps |L||L^H| <=
    # (m + 1) eps scale (Higham 2002, Thm 10.3), and forming each product
    # here adds m eps scale more; m = n for real and complex input alike
    m = n
    assert new.shape == old.shape == (n, n) and np.all(np.triu(new, 1) == 0.0)
    bound = 8 * m * np.finfo(float).eps * matrix_scale(g)
    assert np.max(np.abs(new @ new.conj().T - old @ old.conj().T)) <= bound


def test_cholesky_names_the_first_pivot_below_tolerance():
    # LAPACK factors this diagonal matrix; the relative pivot test rejects
    # it at index 1, where the sweep stopped too
    g = np.diag([1.0, 1e-13, 1e-14])
    for chol in (kf.cholesky, sweep_cholesky):
        with pytest.raises(kf.NotPositiveDefiniteError, match="at index 1 "):
            chol(g)


def test_cholesky_and_inverse_call_no_scipy(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("cholesky and inverse_gram must not call scipy.linalg")

    for name in dir(scipy.linalg):
        if not name.startswith("_") and callable(getattr(scipy.linalg, name)):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
    # a name imported from scipy would escape the patch: factorize binds none
    assert not [
        name for name, value in vars(factorize).items()
        if getattr(value, "__module__", getattr(value, "__name__", "")).startswith("scipy")
    ]
    g = kf.gram(kf.brownian_min(), [0.2, 0.5, 0.9])
    lower = kf.cholesky(g).L
    np.testing.assert_allclose(lower @ lower.conj().T, g.entries, rtol=1e-15)
    np.testing.assert_allclose(kf.inverse_gram(g) @ g.entries, np.eye(3), atol=1e-12)
    z = kf.gram(kf.szego(), [0.1j, 0.3, -0.2 + 0.4j])
    np.testing.assert_allclose(kf.inverse_gram(z) @ z.entries, np.eye(3), atol=1e-12)
    for gram, h in ((g, [1.0, -2.0, 0.5]), (z, [1.0, 0.5j, -1.0 + 2.0j])):
        np.testing.assert_allclose(gram.entries @ factorize.solve_gram(gram, h), h, atol=1e-12)
    assert kf.inverse_gram(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(AssertionError, match="must not call"):
        scipy.linalg.solve_triangular(np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# closed-form brownian factor


def test_closed_form_singleton():
    np.testing.assert_array_equal(kf.brownian_cholesky_closed_form([1.0]).L, [[1.0]])


def test_closed_form_half_two():
    got = kf.brownian_cholesky_closed_form([0.5, 2.0]).L
    expected = np.array([[np.sqrt(0.5), 0.0], [np.sqrt(0.5), np.sqrt(1.5)]])
    np.testing.assert_allclose(got, expected, rtol=1e-15)
    # det(G) = x1 * (x2 - x1), read off the factor diagonal
    det = np.prod(np.diag(got)) ** 2
    assert det == pytest.approx(0.75, rel=1e-15)


def test_closed_form_requires_increasing_positive():
    with pytest.raises(kf.NotIncreasingError):
        kf.brownian_cholesky_closed_form([1.0, 1.0])
    with pytest.raises(kf.NotIncreasingError):
        kf.brownian_cholesky_closed_form([-1.0, 2.0])
    with pytest.raises(kf.NotIncreasingError):
        kf.brownian_cholesky_closed_form([2.0, 1.0])


def test_closed_form_rejects_a_nan_point():
    for pts in ([math.nan], [1.0, math.nan, 3.0]):
        with pytest.raises(kf.NotIncreasingError):
            kf.brownian_cholesky_closed_form(pts)


def test_closed_form_rejects_an_infinite_point():
    # its factor had an inf entry; and inf - inf is NaN, whose numpy
    # warning is an error under the RuntimeWarning filter
    for pts in ([0.5, math.inf], [math.inf], [0.5, math.inf, math.inf]):
        with pytest.raises(kf.NotIncreasingError, match="got inf after"):
            kf.brownian_cholesky_closed_form(pts)


def test_closed_form_matches_generic():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        pts = np.sort(rng.uniform(0.05, 10.0, size=n))
        pts = np.unique(pts)
        closed = kf.brownian_cholesky_closed_form(pts).L
        generic = kf.cholesky(kf.gram(kf.brownian_min(), list(pts))).L
        np.testing.assert_allclose(closed, generic, atol=1e-12)


# ---------------------------------------------------------------------------
# inverse


def test_inverse_identity():
    np.testing.assert_array_equal(kf.inverse_gram(np.eye(4)), np.eye(4))


def test_inverse_shannon_integers():
    g = kf.gram(kf.shannon(), [0.0, 1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(kf.inverse_gram(g), np.eye(5), atol=1e-12)


def test_inverse_singular_raises():
    with pytest.raises(kf.SingularMatrixError):
        kf.inverse_gram(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(kf.SingularMatrixError):
        factorize.solve_gram(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0])


def test_inverse_roundtrip_complex():
    g = kf.gram(kf.szego(), [0.2, 0.1 + 0.4j, -0.5j])
    inv = kf.inverse_gram(g)
    np.testing.assert_allclose(inv @ g.entries, np.eye(3), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_inverse_roundtrip(n, seed):
    g = random_psd(np.random.default_rng(seed), n) + 1e-3 * np.eye(n)
    inv = kf.inverse_gram(g)
    np.testing.assert_allclose(inv @ g, np.eye(n), atol=1e-8)


# ---------------------------------------------------------------------------
# eigenvalues: alternating-Cholesky route


def test_alt_eigs_diagonal_is_immediate():
    res = kf.alt_cholesky_eigs(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], rtol=1e-12)
    assert res.iterations <= 1
    assert res.converged


def test_alt_eigs_2x2():
    res = kf.alt_cholesky_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], rtol=1e-10)
    assert res.converged


def test_alt_eigs_brownian_golden():
    # roots of t^2 - 3t + 1
    g = kf.gram(kf.brownian_min(), [1.0, 2.0])
    res = kf.alt_cholesky_eigs(g)
    expected = [(3.0 + np.sqrt(5.0)) / 2.0, (3.0 - np.sqrt(5.0)) / 2.0]
    np.testing.assert_allclose(res.eigenvalues, expected, rtol=1e-10)


def test_alt_eigs_trace_preserved():
    g = kf.gram(kf.brownian_min(), [1.0, 2.0, 3.0])
    res = kf.alt_cholesky_eigs(g, max_iter=50000)
    assert np.sum(res.eigenvalues) == pytest.approx(6.0, rel=1e-12)


def test_alt_eigs_rejects_indefinite():
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.alt_cholesky_eigs(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_alt_eigs_reports_nonconvergence_honestly():
    # near-degenerate spectrum converges slowly; a tiny budget must be
    # reported as converged=False, never papered over
    g = np.array([[1.0, 0.999], [0.999, 1.0]])
    g = g @ g
    res = kf.alt_cholesky_eigs(g, max_iter=1)
    assert not res.converged


# ---------------------------------------------------------------------------
# eigenvalues: Jacobi route


def test_jacobi_diagonal():
    res = kf.jacobi_eigs(np.diag([5.0, 2.0, 1.0]))
    np.testing.assert_array_equal(res.eigenvalues, [5.0, 2.0, 1.0])
    assert res.converged


def test_jacobi_2x2():
    res = kf.jacobi_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], rtol=1e-12)


def test_jacobi_complex_hermitian():
    g = kf.gram(kf.szego(), [0.1 + 0.2j, -0.3j, 0.4, 0.25 - 0.5j])
    res = kf.jacobi_eigs(g)
    expected = np.sort(np.linalg.eigvalsh(g.entries))[::-1]
    np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-10)


def test_two_routes_agree():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        g = random_psd(rng, n)
        a = kf.alt_cholesky_eigs(g, max_iter=200000).eigenvalues
        j = kf.jacobi_eigs(g).eigenvalues
        np.testing.assert_allclose(a, j, atol=1e-9 * max(1.0, np.abs(g).max()))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=2**31))
def test_jacobi_matches_lapack(n, seed):
    g = random_psd(np.random.default_rng(seed), n)
    res = kf.jacobi_eigs(g)
    expected = np.sort(np.linalg.eigvalsh(g))[::-1]
    np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-9 * max(1.0, g.max()))
    assert list(res.eigenvalues) == sorted(res.eigenvalues, reverse=True)


# ---------------------------------------------------------------------------
# scale-free verdicts: every tolerance is relative to the matrix


def test_tiny_brownian_gram_is_positive_definite():
    g = kf.gram(kf.brownian_min(), [1e-14, 2e-14, 3e-14])
    f = kf.cholesky(g)
    np.testing.assert_allclose(f.L @ f.L.T, g.entries, rtol=1e-15)
    ok, min_eig = kf.validate_psd(g)
    assert ok and min_eig > 0.0


def test_tiny_indefinite_matrix_is_not_psd():
    ok, min_eig = kf.validate_psd(1e-14 * np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not ok
    assert min_eig == pytest.approx(-1e-14, rel=1e-12)
    res = kf.jacobi_eigs(1e-14 * np.array([[1.0, 2.0], [2.0, 1.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3e-14, -1e-14], rtol=1e-12)
    assert res.converged


def test_tiny_asymmetric_matrix_is_not_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        kf.cholesky(1e-10 * np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_jacobi_zero_matrix_converges():
    res = kf.jacobi_eigs(np.zeros((3, 3)))
    np.testing.assert_array_equal(res.eigenvalues, [0.0, 0.0, 0.0])
    assert res.converged


def _random_symmetric(seed):
    """A 4 x 4 symmetric matrix, usually indefinite."""
    a = np.random.default_rng(seed).standard_normal((4, 4))
    return a + a.T


def _verdicts(g, spec=None, pts=None):
    try:
        kf.cholesky(g)
        chol = "ok"
    except kf.NotPositiveDefiniteError:
        chol = "not-pd"
    ok, _ = kf.validate_psd(g)
    out = [chol, ok]
    if spec is not None:
        try:
            kf.frame_bounds(spec, pts)
            out.append("frame")
        except kf.SingularMatrixError:
            out.append("singular")
    return out


# c = 4^k spans [3.6e-12, 2.7e11]; a power of four scales every product,
# square root and Jacobi rotation exactly, so only a threshold that does
# not scale with the matrix could change a verdict
SCALES = [4.0 ** k for k in (-19, -13, -7, 7, 13, 19)]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["brownian-min", "brownian-line"]),
    st.lists(
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=7,
        unique=True,
    ),
)
def test_brownian_verdicts_do_not_depend_on_scale(family, points):
    # min(c x, c y) = c min(x, y), so scaling the points scales the Gram
    spec = kf.KernelSpec(family)
    pts = sorted(points)
    g = kf.gram(spec, pts)
    expected = _verdicts(g, spec, pts)
    for c in SCALES:
        scaled = [c * x for x in pts]
        gc = kf.gram(spec, scaled)
        np.testing.assert_array_equal(gc.entries, c * g.entries)
        assert _verdicts(gc, spec, scaled) == expected, c


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
            unique=True,
        ).map(lambda pts: kf.gram(kf.szego(), pts).entries),
        st.integers(min_value=0, max_value=2**31).map(_random_symmetric),
    ),
)
def test_matrix_verdicts_do_not_depend_on_scale(g):
    expected = _verdicts(g)
    for c in SCALES:
        assert _verdicts(c * g) == expected, c
