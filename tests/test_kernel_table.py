"""Broadcast Gram assembly against per-entry scalar reference formulas.

The reference below is the scalar route the package used before the
family table: one Python call per entry, with the point checks of each
family inlined.  `gram` and `cross_gram` must agree with it exactly where
the arithmetic is the same operation for operation (brownian-min,
brownian-line, green-1d, shannon, overlap) and within
4 * eps * max(1, |K|) where numpy's complex multiply and divide round
differently from Python's (szego, cantor-product, drury-arveson).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge.measures import measure_of_intervals

EPS = np.finfo(float).eps
EXACT = ("brownian-min", "brownian-line", "green-1d", "shannon", "overlap")
_LOG_TINY = math.log(5e-324)


def _k(spec, x, y):
    """K(x, y): the one entry of a 1 x 1 `cross_gram`."""
    return kf.cross_gram(spec, [x], [y])[0, 0]


# ---------------------------------------------------------------------------
# scalar reference


def _real(p):
    arr = np.asarray(p)
    if arr.ndim != 0 or np.iscomplexobj(arr) and arr.imag != 0:
        raise kf.DomainMismatchError(f"expects real scalar points, got {p!r}")
    return float(arr.real if np.iscomplexobj(arr) else arr)


def _disk(p):
    arr = np.asarray(p)
    if arr.ndim != 0:
        raise kf.DomainMismatchError(f"expects complex scalar points, got {p!r}")
    z = complex(arr)
    if abs(z) >= 1.0:
        raise kf.OutOfDomainError(f"requires |z| < 1, got |z| = {abs(z)}")
    return z


def _sinc_pi(d):
    if d == math.floor(d):
        return 1.0 if d == 0.0 else 0.0
    return math.sin(math.pi * d) / (math.pi * d)


def _truncated_product(u, trunc):
    prod = 1.0 + 0.0j
    mag = abs(u)
    if mag == 0.0:
        return prod
    for n in range(trunc):
        if (4 ** n) * math.log(mag) < _LOG_TINY:
            break
        prod *= 1.0 + u ** (4 ** n)
    return prod


def _intersect(x, y):
    """The intervals of the IntervalSet x intersect y, ascending."""
    meets = ((max(a, c), min(b, d)) for a, b in x.intervals for c, d in y.intervals)
    return tuple((lo, hi) for lo, hi in meets if lo < hi)


def reference_kernel(spec, x, y):
    fam = spec.family
    if fam == "brownian-min":
        a, b = _real(x), _real(y)
        if a < 0 or b < 0:
            raise kf.OutOfDomainError("brownian-min requires x, y >= 0")
        return min(a, b)
    if fam == "brownian-line":
        a, b = _real(x), _real(y)
        return min(abs(a), abs(b)) if a * b >= 0 else 0.0
    if fam == "green-1d":
        a, b = _real(x), _real(y)
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            raise kf.OutOfDomainError("green-1d requires points strictly inside (0, 1)")
        return min(a, b) - a * b
    if fam == "shannon":
        return _sinc_pi(_real(x) - _real(y))
    if fam == "szego":
        z, w = _disk(x), _disk(y)
        return 1.0 / (1.0 - z.conjugate() * w)
    if fam == "cantor-product":
        z, w = _disk(x), _disk(y)
        return _truncated_product(z.conjugate() * w, spec.trunc)
    if fam == "drury-arveson":
        zx, zy = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        if zx.shape != (spec.dim,) or zy.shape != (spec.dim,):
            raise kf.DomainMismatchError("wrong vector length")
        for v in (zx, zy):
            if np.sum(np.abs(v) ** 2) >= 1.0:
                raise kf.OutOfDomainError("drury-arveson requires sum |z_j|^2 < 1")
        return 1.0 / (1.0 - np.vdot(zx, zy))
    if fam == "overlap":
        if not isinstance(x, kf.IntervalSet) or not isinstance(y, kf.IntervalSet):
            raise kf.DomainMismatchError("overlap expects IntervalSet points")
        return measure_of_intervals(spec.measure, _intersect(x, y))
    raise ValueError(fam)


def reference_gram(spec, points):
    n = len(points)
    g = np.zeros((n, n), dtype=complex if spec.is_complex else float)
    for i in range(n):
        for j in range(i, n):
            v = reference_kernel(spec, points[i], points[j])
            if i == j:
                g[i, i] = complex(v).real if spec.is_complex else v
            else:
                g[i, j] = v
                g[j, i] = np.conj(v)
    return g


def reference_cross(spec, rows, cols):
    out = np.zeros((len(rows), len(cols)), dtype=complex if spec.is_complex else float)
    for i, x in enumerate(rows):
        for j, y in enumerate(cols):
            out[i, j] = reference_kernel(spec, x, y)
    return out


def assert_matches(spec, got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    if spec.family in EXACT:
        np.testing.assert_array_equal(got, expected)
    else:
        bound = 4 * EPS * np.maximum(1.0, np.abs(expected))
        assert np.all(np.abs(got - expected) <= bound)


# ---------------------------------------------------------------------------
# point strategies, one per family (cantor-product stays within |z| <= 0.9:
# nearer the circle both routes carry errors of order 4^n * eps in the
# factor u^(4^n); see test_cantor_product_near_the_circle)

_reals = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
_disk_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


@st.composite
def _interval_set(draw):
    ends = draw(
        st.lists(
            st.floats(min_value=-0.25, max_value=1.25, allow_nan=False),
            min_size=0,
            max_size=6,
            unique=True,
        )
    )
    ends = sorted(ends)[: 2 * (len(ends) // 2)]
    return kf.IntervalSet(tuple(zip(ends[0::2], ends[1::2])))


def _ball(dim):
    coord = st.complex_numbers(max_magnitude=0.55, allow_nan=False, allow_infinity=False)
    return st.lists(coord, min_size=dim, max_size=dim).map(np.array)


CASES = {
    "brownian-min": (kf.brownian_min(), st.floats(min_value=0.0, max_value=50.0)),
    "brownian-line": (kf.brownian_line(), _reals),
    "green-1d": (
        kf.KernelSpec("green-1d"),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    "shannon": (
        kf.shannon(),
        st.one_of(_reals, st.integers(-40, 40).map(float), _reals.map(lambda x: x + 0.5)),
    ),
    "szego": (kf.szego(), _disk_points),
    "cantor-product": (kf.cantor_product(trunc=8), _disk_points),
    "drury-arveson": (kf.KernelSpec("drury-arveson", dim=3), _ball(3)),
    "overlap-lebesgue": (kf.overlap(kf.lebesgue()), _interval_set()),
    "overlap-cantor4": (kf.overlap(kf.cantor4()), _interval_set()),
}


def _unique(points):
    seen, out = set(), []
    for p in points:
        key = kf.kernels.point_key(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gram_matches_scalar_reference(case, data):
    spec, points = CASES[case]
    pts = _unique(data.draw(st.lists(points, min_size=0, max_size=9)))
    g = kf.gram(spec, pts).entries
    assert_matches(spec, g, reference_gram(spec, pts))
    # Hermitian bitwise, with a real diagonal
    assert np.array_equal(g, g.conj().T)
    assert np.all(np.diagonal(g).imag == 0.0)
    np.testing.assert_array_equal(kf.kernel_diagonal(spec, pts), np.diagonal(g).real)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cross_gram_matches_scalar_reference(case, data):
    spec, points = CASES[case]
    rows = data.draw(st.lists(points, min_size=0, max_size=6))
    cols = data.draw(st.lists(points, min_size=0, max_size=7))
    assert_matches(spec, kf.cross_gram(spec, rows, cols), reference_cross(spec, rows, cols))


# ---------------------------------------------------------------------------
# contracts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-640, 640).map(lambda m: m / 64.0),  # offset + k stays exact
    st.lists(st.integers(-30, 30), min_size=1, max_size=12, unique=True),
)
def test_shannon_integer_offsets_give_exactly_the_identity(offset, ints):
    pts = [offset + k for k in ints]
    g = kf.gram(kf.shannon(), pts).entries
    np.testing.assert_array_equal(g, np.eye(len(pts)))


def test_cantor_product_cutoff_is_exactly_one_plus_u():
    z, w = 1e-150, 1e-150j  # u = conj(z) w = 1e-300j, so u^4 underflows
    spec = kf.cantor_product(trunc=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = kf.gram(spec, [0.0, z, w]).entries
        value = _k(spec, z, w)
    u = complex(z).conjugate() * w
    assert value == 1.0 + u
    assert g[1, 2] == 1.0 + u
    assert g[2, 1] == 1.0 - u
    # u = 0: the product is exactly 1
    assert np.all(g[0] == 1.0) and np.all(g[:, 0] == 1.0)


def test_cantor_product_near_the_circle():
    """Within |z| <= 0.999 the broadcast product stays within 8 eps of a
    200-bit evaluation; the scalar reference's own error there is of the
    same order, which is why the parity property stops at |z| = 0.9."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    rng = np.random.default_rng(3)
    r = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 12))
    pts = list(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 12)))
    got = kf.cross_gram(kf.cantor_product(trunc=8), pts, pts)
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            u = mpmath.conj(mpmath.mpc(z)) * mpmath.mpc(w)
            exact = complex(mpmath.fprod(1 + u ** (4 ** n) for n in range(8)))
            assert abs(got[i, j] - exact) <= 8 * EPS * max(1.0, abs(exact))


@pytest.mark.parametrize("case", sorted(CASES))
def test_empty_sets(case):
    spec, _ = CASES[case]
    dtype = complex if spec.is_complex else float
    g = kf.gram(spec, [])
    assert g.n == 0 and g.entries.shape == (0, 0) and g.entries.dtype == dtype
    assert kf.cross_gram(spec, [], []).shape == (0, 0)
    assert kf.kernel_diagonal(spec, []).shape == (0,)


GOOD_AND_BAD = [
    (kf.brownian_min(), 1.0, -1.0),
    (kf.brownian_min(), 1.0, [1.0, 2.0]),
    (kf.brownian_min(), 1.0, 0.5j),
    (kf.brownian_line(), 1.0, np.array([1.0])),
    (kf.KernelSpec("green-1d"), 0.5, 0.0),
    (kf.KernelSpec("green-1d"), 0.5, 1.0),
    (kf.KernelSpec("green-1d"), 0.5, float("nan")),
    (kf.shannon(), 1.0, 2.0 + 1.0j),
    (kf.szego(), 0.5j, 1.0),
    (kf.szego(), 0.5j, [0.1, 0.2]),
    (kf.cantor_product(), 0.5, -1.0j),
    (kf.KernelSpec("drury-arveson", dim=2), np.array([0.1, 0.2]), np.array([0.1, 0.2, 0.3])),
    (kf.KernelSpec("drury-arveson", dim=2), np.array([0.1, 0.2]), np.array([0.8, 0.8j])),
    (kf.overlap(kf.lebesgue()), kf.IntervalSet(((0.0, 0.5),)), 0.25),
]


@pytest.mark.parametrize("spec, good, bad", GOOD_AND_BAD)
def test_bad_point_raises_the_same_class_everywhere(spec, good, bad):
    with pytest.raises(kf.KernelForgeError) as scalar:
        _k(spec, good, bad)
    with pytest.raises(kf.KernelForgeError) as ref:
        reference_kernel(spec, good, bad)
    assert scalar.type is ref.type
    for call in (
        lambda: kf.gram(spec, [good, bad]),
        lambda: kf.cross_gram(spec, [good], [bad]),
        lambda: kf.cross_gram(spec, [bad], [good]),
        lambda: kf.kernel_diagonal(spec, [bad]),
    ):
        with pytest.raises(kf.KernelForgeError) as exc:
            call()
        assert exc.type is scalar.type


_NAN, _INF = float("nan"), float("inf")
NOT_FINITE = [
    (spec, 0.5, bad)
    for spec in (kf.brownian_min(), kf.brownian_line(), kf.KernelSpec("green-1d"), kf.shannon())
    for bad in (_NAN, _INF, -_INF)
] + [
    (kf.szego(), 0.5j, complex(_NAN, 0.0)),
    (kf.szego(), 0.5j, complex(0.0, _NAN)),
    (kf.cantor_product(), 0.5j, complex(_NAN, 0.0)),
    (kf.KernelSpec("drury-arveson", dim=2), np.array([0.1, 0.2]), np.array([0.1, _NAN])),
]


@pytest.mark.parametrize(
    "spec, good, bad", NOT_FINITE, ids=[f"{s.family}-{b}" for s, _, b in NOT_FINITE]
)
def test_a_nan_or_infinite_point_is_out_of_domain(spec, good, bad):
    for call in (
        lambda: _k(spec, good, bad),
        lambda: _k(spec, bad, good),
        lambda: kf.gram(spec, [good, bad]),
        lambda: kf.cross_gram(spec, [good], [bad]),
        lambda: kf.cross_gram(spec, [bad], [good]),
        lambda: kf.kernel_diagonal(spec, [bad]),
    ):
        with pytest.raises(kf.OutOfDomainError):
            call()


DOMAINS = {
    "brownian-min": (kf.brownian_min(), "real-line"),
    "brownian-line": (kf.brownian_line(), "real-line"),
    "green-1d": (kf.KernelSpec("green-1d"), "unit-interval"),
    "shannon": (kf.shannon(), "real-line"),
    "szego": (kf.szego(), "complex-disk"),
    "cantor-product": (kf.cantor_product(trunc=3), "complex-disk"),
    "drury-arveson": (kf.KernelSpec("drury-arveson", dim=3), "complex-vector(3)"),
    "overlap": (kf.overlap(kf.cantor4()), "interval-set"),
}


def test_every_family_has_its_domain_pinned():
    assert set(DOMAINS) == set(kf.kernels.FAMILY_TABLE)


@pytest.mark.parametrize("family", sorted(DOMAINS))
def test_kernel_spec_domain(family):
    # a family's domain is its first tag
    spec, domain = DOMAINS[family]
    assert kf.kernels.FAMILY_TABLE[family].tags[0].format(dim=spec.dim) == domain
