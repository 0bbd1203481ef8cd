"""The two eigen routes against their plain-loop references and LAPACK.

The references below are the loops the package used before the
round-robin ordering, the LR shift and the Hermitian-native routes:
cyclic Jacobi, one rotation at a time in row order, and the unshifted
alternating-Cholesky (LR) iteration, whose 2 x 2 blocks iterate on
scalars (`_lr_step_2x2`), both real, taking complex input
through the real block embedding.  They share the skip rule, the stop
rules and the deflation rule with the package routes, so the spectra must
agree to rounding; the package routes reorder the rotations, shift the LR
iterates and iterate on a complex matrix as it is.  LAPACK's
`eigvalsh` is the third, independent opinion.  It is also the route of
`factorize.eig_range`, the extremes behind the PSD and frame verdicts,
which Jacobi checks in turn.
"""

import cmath
import hashlib
import json
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge import factorize
from kernel_forge.factorize import (
    _MAX_JACOBI_SWEEPS,
    SpectralResult,
    _as_matrix,
    _check_hermitian,
    _components,
    _finish_spectrum,
    _round_robin,
    eig_range,
    matrix_scale,
)

# ---------------------------------------------------------------------------
# references


def real_embedding(arr):
    """Real symmetric 2n x 2n block embedding [[Re, -Im], [Im, Re]].

    It is positive definite exactly when the complex matrix is, and its
    spectrum is that of the complex matrix with every eigenvalue twice.
    """
    return np.block([[arr.real, -arr.imag], [arr.imag, arr.real]])


def _embedded(reference):
    """`reference` taking complex input through `real_embedding`, with the
    doubled spectrum's pairs averaged."""

    def route(g, *args, **kwargs):
        arr = _as_matrix(g)
        _check_hermitian(arr)
        if not np.iscomplexobj(arr):
            return reference(arr, *args, **kwargs)
        res = reference(real_embedding(arr), *args, **kwargs)
        vals = res.eigenvalues
        return SpectralResult(0.5 * (vals[0::2] + vals[1::2]), res.iterations, res.converged)

    return route


@_embedded
def reference_jacobi(a, tol=1e-12):
    """Cyclic Jacobi: rotate (p, q) for p < q in row order, one at a time."""
    n = a.shape[0]
    scale = matrix_scale(a)
    if n <= 1:
        return _finish_spectrum(np.diag(a), 0, True, scale)
    stop = tol * float(np.sqrt(np.sum(a * a)))

    def off_frobenius():
        off = a - np.diag(np.diag(a))
        return float(np.sqrt(np.sum(off * off)))

    sweeps = 0
    while sweeps < _MAX_JACOBI_SWEEPS:
        current = off_frobenius()
        if current <= stop:
            break
        gate = current / n if sweeps < 5 else 0.0
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                noise = 1e-15 * (abs(a[p, p]) + abs(a[q, q]))
                if abs(apq) <= max(gate, noise):
                    continue
                rotated = True
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
        sweeps += 1
        if not rotated:
            break
    return _finish_spectrum(np.diag(a), sweeps, off_frobenius() <= stop, scale)


def _split_components(mask):
    """Connected components of a symmetric boolean coupling pattern."""
    unseen = set(range(mask.shape[0]))
    comps = []
    while unseen:
        stack = [unseen.pop()]
        comp = set(stack)
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(mask[i]):
                if j in unseen:
                    unseen.remove(j)
                    comp.add(int(j))
                    stack.append(int(j))
        comps.append(sorted(comp))
    return comps


def _lr_step_2x2(a, b, d, stop, start, max_iter):
    """Unshifted LR iteration on the real 2 x 2 block [[a, b], [b, d]].

    Its pivots pass only when > 0, as in LAPACK's `potrf`, so a singular
    block is rejected, as the package route rejects it.
    """
    it = start
    while abs(b) >= stop and it < max_iter:
        if not a > 0.0:
            raise kf.NotPositiveDefiniteError(f"2x2 iterate has nonpositive pivot {a:.6e}")
        shifted = d - b * b / a
        if not shifted > 0.0:
            raise kf.NotPositiveDefiniteError(f"2x2 iterate has nonpositive pivot {shifted:.6e}")
        a, b, d = a + b * b / a, b * math.sqrt(shifted / a), shifted
        it += 1
    return (a, d), it, abs(b) < stop


@_embedded
def reference_lr(arr, max_iter=500, tol=1e-12):
    """Unshifted alternating Cholesky: B <- A.T A where B = A A.T."""
    n = arr.shape[0]
    scale = matrix_scale(arr)
    if n == 0:
        return _finish_spectrum([], 0, True, scale)
    stop = tol * max(float(np.trace(arr)), 1e-300)
    deflate = 0.01 * stop / n
    finished = []
    pending = [(arr, 0)]
    deepest = 0
    converged = True
    while pending:
        block, depth = pending.pop()
        m = block.shape[0]
        if m == 1:
            finished.append(float(block[0, 0]))
            deepest = max(deepest, depth)
            continue
        if m == 2:
            pair, depth, ok = _lr_step_2x2(
                block[0, 0], block[0, 1], block[1, 1], stop, depth, max_iter
            )
            finished.extend(pair)
            deepest = max(deepest, depth)
            converged &= ok
            continue
        local = 0
        while True:
            off = np.abs(block)
            np.fill_diagonal(off, 0.0)
            if off.max() < stop:
                finished.extend(np.diag(block))
                deepest = max(deepest, depth)
                break
            if depth >= max_iter:
                finished.extend(np.diag(block))
                deepest = max(deepest, depth)
                converged = False
                break
            if local % 8 == 0:
                comps = _split_components(off > deflate)
                if len(comps) > 1:
                    for comp in comps:
                        if len(comp) == 1:
                            finished.append(float(block[comp[0], comp[0]]))
                        else:
                            pending.append((block[np.ix_(comp, comp)], depth))
                    break
            try:
                lower = np.linalg.cholesky(block)
            except np.linalg.LinAlgError as exc:
                raise kf.NotPositiveDefiniteError("iterate is not PD") from exc
            block = lower.T @ lower
            depth += 1
            local += 1
    # a block that split off diagonal was never factored: its values are
    # its last pivots, and LAPACK's rule (> 0, so NaN fails) applies
    if not all(value > 0.0 for value in finished):
        raise kf.NotPositiveDefiniteError("finished diagonal has a pivot <= 0")
    return _finish_spectrum(finished, deepest, converged, scale)


# ---------------------------------------------------------------------------
# inputs: each a pure function of (n, seed)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _psd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T


def _indefinite(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def _hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


def _repeated(rng, n):
    # at most three distinct eigenvalues, each repeated, one of them maybe 0
    values = rng.choice([0.0, 1.0, 2.5, -3.0], size=3, replace=False)
    spectrum = values[rng.integers(0, 3, size=n)]
    q = _orthogonal(rng, n)
    g = (q * spectrum) @ q.T
    return 0.5 * (g + g.T)


KINDS = {
    "psd": _psd,
    "indefinite": _indefinite,
    "hermitian": _hermitian,
    "repeated": _repeated,
}
# powers of four scale every product, square root and angle exactly
SCALES = [4.0 ** k for k in (-19, -13, -7, 0, 7, 13, 19)]


def _sorted_lapack(g):
    return np.sort(np.linalg.eigvalsh(g))[::-1]


def _yardstick(g):
    """max |G_ij|: matrix_scale for the PSD kinds, and a bound for the rest."""
    return float(np.max(np.abs(g))) if g.size else 0.0


# ---------------------------------------------------------------------------
# round-robin schedule


def _rounds(n):
    """The pairs (p < q) of each round of one sweep, dummy pairs dropped."""
    order, step = _round_robin(n)
    rounds = []
    for _ in range(max(order.size - 1, 0)):
        pairs = [tuple(sorted(map(int, pq))) for pq in zip(order[0::2], order[1::2])]
        rounds.append([pq for pq in pairs if pq[1] < n])
        order = order[step]
    return rounds, order


@pytest.mark.parametrize("n", range(2, 62))
def test_round_robin_sweep_meets_every_pair_once(n):
    rounds, final = _rounds(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    seen = []
    for pairs in rounds:
        assert len(pairs) == n // 2
        members = [i for pq in pairs for i in pq]
        assert len(set(members)) == len(members), "a round reuses an index"
        seen.extend(pairs)
    expected = {(p, q) for p in range(n) for q in range(p + 1, n)}
    assert len(seen) == len(expected) and set(seen) == expected
    # the seating comes back, so every sweep repeats the same rounds
    np.testing.assert_array_equal(final, _round_robin(n)[0])


# ---------------------------------------------------------------------------
# Jacobi


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(sorted(KINDS)),
    st.sampled_from(SCALES),
)
def test_jacobi_matches_lapack(n, seed, kind, c):
    g = c * KINDS[kind](np.random.default_rng(seed), n)
    res = kf.jacobi_eigs(g)
    assert res.converged
    bound = 1e-11 * _yardstick(g)
    np.testing.assert_allclose(res.eigenvalues, _sorted_lapack(g), rtol=0, atol=bound)
    # the round-robin order changes the rounding, not the scaling: every
    # step of a power-of-four multiple is the same step scaled
    if c != 1.0:
        base = kf.jacobi_eigs(KINDS[kind](np.random.default_rng(seed), n))
        np.testing.assert_array_equal(res.eigenvalues, c * base.eigenvalues)
        assert res.iterations == base.iterations


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(sorted(KINDS)),
)
def test_jacobi_matches_cyclic_reference(n, seed, kind):
    g = KINDS[kind](np.random.default_rng(seed), n)
    res = kf.jacobi_eigs(g)
    ref = reference_jacobi(g)
    assert res.converged == ref.converged
    np.testing.assert_allclose(
        res.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-11 * _yardstick(g)
    )


# ---------------------------------------------------------------------------
# alternating Cholesky


def _lr_bound(g):
    # both routes stop once every coupling is below tol * trace, and a
    # leftover coupling moves an eigenvalue by at most its size
    return 4e-12 * float(np.trace(real_embedding(g) if np.iscomplexobj(g) else g))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["psd", "hermitian"]),
)
def test_alt_cholesky_matches_unshifted_reference(n, seed, kind):
    g = KINDS[kind](np.random.default_rng(seed), n)
    res = kf.alt_cholesky_eigs(g, max_iter=200_000)
    ref = reference_lr(g, max_iter=200_000)
    assert res.converged == ref.converged
    bound = _lr_bound(g)
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, rtol=0, atol=bound)
    np.testing.assert_allclose(res.eigenvalues, _sorted_lapack(g), rtol=0, atol=bound)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
def test_hermitian_routes_match_the_embedded_references(n, seed):
    g = _hermitian(np.random.default_rng(seed), n)
    want = _sorted_lapack(g)
    jac, jac_ref = kf.jacobi_eigs(g), reference_jacobi(g)
    assert jac.converged and jac_ref.converged
    bound = 1e-11 * _yardstick(g)
    np.testing.assert_allclose(jac.eigenvalues, jac_ref.eigenvalues, rtol=0, atol=bound)
    np.testing.assert_allclose(jac.eigenvalues, want, rtol=0, atol=bound)
    lr, lr_ref = kf.alt_cholesky_eigs(g, max_iter=200_000), reference_lr(g, max_iter=200_000)
    assert lr.converged and lr_ref.converged
    bound = _lr_bound(g)
    np.testing.assert_allclose(lr.eigenvalues, lr_ref.eigenvalues, rtol=0, atol=bound)
    np.testing.assert_allclose(lr.eigenvalues, want, rtol=0, atol=bound)


def test_complex_input_iterates_at_its_own_size(monkeypatch):
    # the n x n complex matrix is what both routes iterate on: no LR
    # factor and no Jacobi round ever sees a 2n x 2n real array
    seen = []

    def spy(route):
        def wrapped(a, *args):
            seen.append((a.shape, a.dtype))
            return route(a, *args)
        return wrapped

    monkeypatch.setattr(kf.factorize, "_lr_factor", spy(kf.factorize._lr_factor))
    monkeypatch.setattr(kf.factorize, "_turn_hermitian", spy(kf.factorize._turn_hermitian))
    g = _hermitian(np.random.default_rng(5), 7)
    kf.alt_cholesky_eigs(g)
    kf.jacobi_eigs(g)
    assert seen and all(dtype == complex for _, dtype in seen)
    assert max(shape[0] for shape, _ in seen) == 8  # Jacobi pads 7 to 8


# 40 points on the ring |z| = 0.6, from a vectorized and a scalar `exp`:
# the two point sets differ in the last bits only
RING_POINTS = {
    "np.exp": lambda: [complex(z) for z in 0.6 * np.exp(2j * np.pi * np.arange(40) / 40)],
    "cmath.exp": lambda: [0.6 * cmath.exp(2j * cmath.pi * k / 40) for k in range(40)],
}


def _szego_ring(exp):
    return kf.gram(kf.szego(), RING_POINTS[exp]()).entries


@pytest.mark.parametrize("exp", sorted(RING_POINTS))
def test_alt_cholesky_rejects_the_near_singular_szego_ring(exp):
    # the Gram's smallest eigenvalue is about 5e-18 of its largest, below
    # working precision.  `cholesky` meets a pivot below 1e-12 * max|G_ii|
    # on either point set, and the LR route takes its verdict; by LAPACK's
    # absolute rule (a pivot > 0) it converged on the np.exp points and
    # raised on the cmath.exp ones.  Jacobi gives no verdict and agrees
    # with LAPACK on both
    g = _szego_ring(exp)
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.cholesky(g)
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.alt_cholesky_eigs(g)
    jac = kf.jacobi_eigs(g)
    assert jac.converged
    np.testing.assert_allclose(jac.eigenvalues, _sorted_lapack(g), rtol=0, atol=1e-11 * _yardstick(g))


def _verdict(route, g):
    try:
        route(g)
    except kf.NotPositiveDefiniteError:
        return "not-pd"
    return "pd"


def _near_singular(seed, n, rank_share, complex_valued, exponent):
    """A A^H of rank 1 to n, real or complex, plus a ridge of
    10**exponent * max|G_ii|: singular to within the ridge."""
    rng = np.random.default_rng(seed)
    shape = (n, max(1, round(rank_share * n)))
    a = rng.standard_normal(shape)
    if complex_valued:
        a = a + 1j * rng.standard_normal(shape)
    g = a @ a.conj().T
    return g + 10.0**exponent * matrix_scale(g) * np.eye(n)


@settings(max_examples=80, deadline=None)
@given(st.builds(
    _near_singular,
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=2, max_value=24),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
    st.floats(min_value=-16.0, max_value=-9.0),
))
@example(_szego_ring("np.exp"))
@example(_szego_ring("cmath.exp"))
def test_alt_cholesky_rejects_exactly_what_cholesky_rejects(g):
    # one positive-definiteness rule: the LR route raises if and only if
    # `cholesky` does, also within rounding of singular
    assert _verdict(kf.alt_cholesky_eigs, g) == _verdict(kf.cholesky, g)


def _one_ulp(rng, g):
    """g with every entry (each real and imaginary part) one ulp up or
    down at random, still exactly Hermitian."""
    up = rng.integers(2, size=g.shape).astype(bool)

    def nudge(x):
        return np.where(up, np.nextafter(x, np.inf), np.nextafter(x, -np.inf))

    moved = nudge(g.real) + 1j * nudge(g.imag) if np.iscomplexobj(g) else nudge(g)
    upper = np.triu(moved, 1)
    return upper + upper.conj().T + np.diag(moved.diagonal().real)


# inputs whose smallest pivot is far from the threshold 1e-12 * max|G_ii|:
# `_near_singular`'s (rank share, complex, ridge exponent) at n = 12, or
# None for the ring, and the verdict
FAR_FROM_THE_THRESHOLD = {
    # full rank and a ridge of 1e-6: lambda_min is at least 1e-6 of the scale
    "pd-real": ((1.0, False, -6.0), "pd"),
    "pd-complex": ((1.0, True, -6.0), "pd"),
    # rank 4 and a ridge of 1e-15: the pivots beyond the rank are about
    # 1e-15 of the scale
    "singular-real": ((1 / 3, False, -15.0), "not-pd"),
    "singular-complex": ((1 / 3, True, -15.0), "not-pd"),
    "ring": (None, "not-pd"),
}


@pytest.mark.parametrize("kind", sorted(FAR_FROM_THE_THRESHOLD))
def test_the_verdict_survives_a_one_ulp_perturbation(kind):
    # LAPACK's absolute rule (a pivot > 0) is decided by rounding on a
    # matrix within rounding of singular; the relative rule is not
    shape, verdict = FAR_FROM_THE_THRESHOLD[kind]
    rng = np.random.default_rng(28)
    for _ in range(4):
        if shape is None:
            g = _szego_ring("np.exp")
        else:
            g = _near_singular(rng.integers(2**31), 12, *shape)
        for _ in range(5):
            h = _one_ulp(rng, g)
            assert _verdict(kf.cholesky, h) == _verdict(kf.alt_cholesky_eigs, h) == verdict


@pytest.mark.parametrize("n", [30, 40, 60])
def test_an_lr_step_that_fails_after_cholesky_accepts_raises(n):
    # G = L L^T with L = I minus the strictly lower ones: every pivot is 1,
    # but lambda_min / max|G_ii| is below 1e-15, so an LR step's own LAPACK
    # rule can fail by rounding.  Whether it does is not pinned; that the
    # route then raises, and never returns an unconverged diagonal as the
    # spectrum, is
    lower = np.eye(n) - np.tril(np.ones((n, n)), -1)
    g = lower @ lower.T
    kf.cholesky(g)  # accepts
    try:
        res = kf.alt_cholesky_eigs(g)
    except kf.NotPositiveDefiniteError:
        return
    assert res.converged
    ref = kf.jacobi_eigs(g).eigenvalues
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0, atol=1e-8 * np.abs(g).max())


# a converged LR spectrum against LAPACK's, in units of max|G|
EIG_AGREE = 1e-12


@pytest.mark.parametrize("kind", ["psd", "hermitian"])
def test_alt_cholesky_converges_within_the_default_budget(kind):
    # every block of size 2 or more takes the shifted step, so a random
    # A A^H (n from 3 to 50) needs at most about 200 of the default 500
    # steps; a close pair iterated unshifted can take thousands
    for seed in range(25):
        rng = np.random.default_rng(seed)
        g = KINDS[kind](rng, int(rng.integers(3, 51)))
        res = kf.alt_cholesky_eigs(g)
        assert res.converged, seed
        np.testing.assert_allclose(
            res.eigenvalues, _sorted_lapack(g), rtol=0, atol=EIG_AGREE * _yardstick(g)
        )


@pytest.mark.parametrize(
    "diagonal", [[-1.0, 2.0], [-1.0], [-1.0, 2.0, 3.0], [0.0], [0.0, 1.0]],
    ids=["diag(-1,2)", "[-1]", "diag(-1,2,3)", "[0]", "diag(0,1)"])
def test_alt_cholesky_rejects_a_diagonal_it_never_factors(diagonal):
    # already diagonal, so no step runs: the finished values are the pivots
    g = np.diag(diagonal)
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.alt_cholesky_eigs(g)
    with pytest.raises(kf.NotPositiveDefiniteError):
        reference_lr(g)
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.cholesky(g)


def test_alt_cholesky_finishes_a_1x1_input_at_once():
    # no step runs, also at tol = 0, where no coupling is below the stop
    res = kf.alt_cholesky_eigs([[2.0]], tol=0.0)
    assert (res.eigenvalues.tolist(), res.iterations, res.converged) == ([2.0], 0, True)


@pytest.mark.parametrize("g", [
    [[2.0, 1.0], [1.0, 2.0]],
    np.diag([3.0, 2.0, 1.0]) + 0.1 * (np.ones((3, 3)) - np.eye(3)),
], ids=["2x2", "3x3"])
def test_alt_cholesky_counts_the_steps_before_a_split_into_singletons(monkeypatch, g):
    # at tol = 0 no stop fires: each block ends when a split leaves it as
    # singletons, and the steps it took still count
    steps = []
    lr_factor = factorize._lr_factor

    def counted(block, shift):
        steps.append(block.shape[0])
        return lr_factor(block, shift)

    monkeypatch.setattr(factorize, "_lr_factor", counted)
    res = kf.alt_cholesky_eigs(g, tol=0.0)
    assert res.converged and res.iterations == len(steps) > 0
    np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(g)[::-1], rtol=1e-14)


@pytest.mark.parametrize("v", [[1.0, 2.0], [1.0, 2.0, 3.0]], ids=["2x2", "3x3"])
def test_alt_cholesky_rejects_an_exactly_singular_matrix(v):
    # an integer rank-one matrix: elimination meets a pivot of exactly 0,
    # which LAPACK's rule (a pivot must be > 0) rejects at every size
    g = np.outer(v, v)
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.alt_cholesky_eigs(g)
    with pytest.raises(kf.NotPositiveDefiniteError):
        kf.cholesky(g)


def _clearly_indefinite(rng, n):
    # one eigenvalue at -1/2 of the largest: no rounding makes this PSD
    q = _orthogonal(rng, n)
    spectrum = rng.uniform(0.1, 1.0, size=n)
    spectrum[rng.integers(n)] = -0.5
    g = (q * spectrum) @ q.T
    return 0.5 * (g + g.T)


def _exactly_singular(rng, n):
    # an integer rank-one matrix, or one with a zero row: elimination is
    # exact, so a pivot is exactly 0 in every Cholesky implementation
    v = rng.integers(-9, 10, size=n).astype(float)
    v[0] = rng.integers(1, 10)
    g = np.outer(v, v)
    if rng.integers(2):
        # row 0 keeps its pivot v[0]^2 >= 1, so elimination starts
        k = rng.integers(1, n)
        g[k, :] = 0.0
        g[:, k] = 0.0
    return g


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([_clearly_indefinite, _exactly_singular]),
)
def test_alt_cholesky_rejects_what_the_reference_rejects(n, seed, make):
    g = make(np.random.default_rng(seed), n)
    outcomes = []
    for route in (kf.alt_cholesky_eigs, reference_lr):
        try:
            route(g, max_iter=200_000)
            outcomes.append("ok")
        except kf.NotPositiveDefiniteError:
            outcomes.append("not-pd")
    assert outcomes == ["not-pd", "not-pd"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=0.3),
    st.booleans(),
)
def test_components_match_depth_first_search(m, seed, density, chain):
    rng = np.random.default_rng(seed)
    coupled = rng.random((m, m)) < density
    if chain:
        # a long path in shuffled order: the slowest case for propagation
        perm = rng.permutation(m)
        coupled[perm[:-1], perm[1:]] = rng.random(m - 1) < 0.9
    coupled |= coupled.T
    labels = _components(coupled)
    roots = np.unique(labels)
    got = sorted(np.flatnonzero(labels == r).tolist() for r in roots)
    assert got == sorted(_split_components(coupled))
    assert all(labels[r] == r for r in roots)
    assert roots.tolist() == [comp[0] for comp in got]  # each its smallest index


def test_alt_cholesky_shift_cuts_iterations():
    # the shift is what makes the route fast: on criterion 03's kind of
    # input it needs far fewer steps than the unshifted iteration
    g = _psd(np.random.default_rng(3), 40)
    res = kf.alt_cholesky_eigs(g, max_iter=200_000)
    ref = reference_lr(g, max_iter=200_000)
    assert res.converged and ref.converged
    assert res.iterations < ref.iterations


# ---------------------------------------------------------------------------
# bitwise breadth: one digest over many seeded runs of both routes


def _sweep_runs():
    """(route, matrix, options) for 318 seeded runs of both routes: every
    n from 0 to 40, real and complex, full rank, rank-deficient and
    indefinite, some at tol = 0 and some on a budget too small to
    converge."""
    for n in range(41):
        rng = np.random.default_rng(2300 + n)
        low = rng.standard_normal((n, n // 3))
        inputs = [_psd(rng, n), _hermitian(rng, n), low @ low.T]
        if n % 2:
            inputs.append(_indefinite(rng, n))
        for g in inputs:
            yield kf.jacobi_eigs, g, {}
            yield kf.alt_cholesky_eigs, g, {}
        if n % 4 == 0:
            g = inputs[n // 4 % 2]
            yield kf.jacobi_eigs, g, {"tol": 0.0}
            yield kf.alt_cholesky_eigs, g, {"tol": 0.0, "max_iter": 40}
        if n % 4 == 2:
            yield kf.alt_cholesky_eigs, inputs[n // 4 % 2], {"max_iter": 3}


# sha256 of every run's eigenvalue bytes, iterations and converged flag (or
# the class of the error it raised), pinned before the eigen routes' rounds
# and steps were rewritten for speed: the rewrite must keep every bit.  Like
# the CLI goldens, it holds for one build of numpy's BLAS and LAPACK.
SWEEP_DIGEST = "8b25fba6d1bdc6f99d00379cf0eba1cde1411ef7284de1353798a4f9d01f4ead"


def test_eigen_routes_keep_their_bits_across_a_seeded_sweep():
    digest = hashlib.sha256()
    runs = 0
    for route, g, options in _sweep_runs():
        try:
            res = route(g, **options)
        except kf.NotPositiveDefiniteError as exc:
            digest.update(type(exc).__name__.encode())
        else:
            digest.update(res.eigenvalues.tobytes())
            digest.update(f"{res.iterations} {res.converged}".encode())
        runs += 1
    assert runs == 318
    assert digest.hexdigest() == SWEEP_DIGEST


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["psd", "hermitian"]),
    st.integers(min_value=-508, max_value=510),
)
# unscaled, Jacobi's stop norm underflowed (4^-260) or overflowed (4^257),
# and the LR stop's floor of tol * 1e-300 loosened it below a trace of
# 1e-300: 26 steps for 27 at 4^-500, and 19 for 23 at 4^-508
@example(6, 2, "psd", -500)
@example(6, 3, "psd", -508)
@example(6, 0, "psd", -260)
@example(6, 0, "psd", 257)
@example(6, 1, "hermitian", 510)
def test_eigen_routes_scale_with_every_exact_power_of_four(n, seed, kind, k):
    g = KINDS[kind](np.random.default_rng(seed), n)
    g = g / np.trace(g).real
    c = math.ldexp(1.0, 2 * k)
    assume(np.array_equal(c * g / c, g))  # c * g is exact
    for route in (kf.jacobi_eigs, kf.alt_cholesky_eigs):
        base, res = route(g), route(c * g)
        np.testing.assert_array_equal(res.eigenvalues, c * base.eigenvalues)
        assert (res.iterations, res.converged) == (base.iterations, base.converged)


# ---------------------------------------------------------------------------
# extreme eigenvalues: the LAPACK route behind the PSD and frame verdicts


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["psd", "indefinite", "hermitian"]),
)
def test_eig_range_matches_jacobi_extremes(n, seed, kind):
    g = KINDS[kind](np.random.default_rng(seed), n)
    jac = kf.jacobi_eigs(g).eigenvalues
    bound = 1e-11 * _yardstick(g)
    lo, hi = eig_range(g)
    assert abs(lo - jac[-1]) <= bound and abs(hi - jac[0]) <= bound
    ok, min_eig = kf.validate_psd(g)
    assert abs(min_eig - jac[-1]) <= bound
    assert ok == (min_eig >= -1e-8 * matrix_scale(g))


def test_eig_range_floors_rounding_noise_to_zero():
    # a diagonal matrix's eigenvalues are exact: one above the floor of
    # 1e-10 * matrix_scale reads 0.0, one below it is kept
    assert eig_range(np.diag([2.0, -1e-13, 1.0])) == (0.0, 2.0)
    assert eig_range(np.diag([2.0, -1e-9, 1.0])) == (-1e-9, 2.0)
    assert eig_range(np.zeros((0, 0))) == (math.inf, -math.inf)


def test_psd_and_frame_verdicts_call_no_jacobi_and_no_scipy(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the verdict routes must not call this")

    jacobi = kf.factorize.jacobi_eigs
    for name, module in list(sys.modules.items()):
        if name == "kernel_forge" or name.startswith("kernel_forge."):
            for attr, value in list(vars(module).items()):
                if value is jacobi:
                    monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", forbidden)
    pts = [0.2, 0.5, 0.9]
    ok, min_eig = kf.validate_psd(kf.gram(kf.brownian_min(), pts))
    assert ok and min_eig > 0.0
    ok, _ = kf.validate_psd(kf.gram(kf.szego(), [0.1j, 0.3, -0.2 + 0.4j]))
    assert ok
    a, b = kf.frame_bounds(kf.brownian_min(), pts)
    assert 0.0 < a < b
    with pytest.raises(AssertionError, match="must not call"):
        kf.jacobi_eigs(np.eye(2))


def test_validate_psd_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        kf.validate_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        kf.validate_psd(np.array([[1.0, 0.5j], [0.5j, 1.0]]))


# ---------------------------------------------------------------------------
# non-finite input


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "route",
    [
        kf.cholesky,
        kf.inverse_gram,
        kf.alt_cholesky_eigs,
        kf.jacobi_eigs,
        kf.validate_psd,
        eig_range,
    ],
    ids=lambda f: f.__name__,
)
def test_non_finite_matrix_raises_value_error(route, dtype, bad):
    g = np.eye(3, dtype=dtype)
    g[0, 1] = g[1, 0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        route(g)


@pytest.mark.parametrize("method", ["alt-chol", "jacobi"])
@pytest.mark.parametrize("text", ["1.0,nan\nnan,1.0\n", "1.0,inf\ninf,1.0\n"])
def test_cli_eig_non_finite_exits_two(tmp_path, capsys, method, text):
    from kernel_forge import cli

    m = tmp_path / "m.csv"
    m.write_text(text)
    out = tmp_path / "out.json"
    argv = ["eig", "--matrix", str(m), "--method", method, "--out", str(out)]
    assert cli.run(argv) == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists() or out.read_text() == ""


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_cli_eig_turns_a_matrix_whose_squares_leave_the_range(tmp_path, c):
    # [[2c, c], [c, 2c]] has eigenvalues 3c and c.  Summed unscaled, the
    # squares of Jacobi's stop norms underflowed to 0 (1e-200) or overflowed
    # to inf (1e200), and either way Jacobi reported the diagonal after no
    # sweep, as converged
    from kernel_forge import cli

    m = tmp_path / "m.csv"
    m.write_text(f"{2 * c!r},{c!r}\n{c!r},{2 * c!r}\n")
    for method in ("jacobi", "alt-chol"):
        out = tmp_path / f"{method}.json"
        assert cli.run(["eig", "--matrix", str(m), "--method", method, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["eigenvalues"], [3 * c, c], rtol=1e-15, atol=0)
        assert report["converged"] and report["iterations"] >= 1


def test_cli_eig_alt_chol_on_an_indefinite_diagonal_exits_one(tmp_path, capsys):
    from kernel_forge import cli

    m = tmp_path / "m.csv"
    m.write_text("-1.0,0.0\n0.0,2.0\n")
    out = tmp_path / "out.json"
    assert cli.run(["eig", "--matrix", str(m), "--method", "alt-chol", "--out", str(out)]) == 1
    assert "a Cholesky pivot is not positive" in capsys.readouterr().err
    assert not out.exists() or out.read_text() == ""
