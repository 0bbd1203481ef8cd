"""The two eigen routes against their plain-loop references and LAPACK.

The references below are the loops the package used before the
round-robin ordering and the LR shift: cyclic Jacobi, one rotation at a
time in row order, and the unshifted alternating-Cholesky (LR) iteration.
They share the skip rule, the stop rules and the deflation rule with the
package routes, so the spectra must agree to rounding; the package routes
only reorder the rotations and shift the LR iterates.  LAPACK's
`eigvalsh` is the third, independent opinion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge.factorize import (
    _MAX_JACOBI_SWEEPS,
    _as_matrix,
    _check_hermitian,
    _components,
    _finish_spectrum,
    _lr_step_2x2,
    _round_robin,
    matrix_scale,
    real_embedding,
)

# ---------------------------------------------------------------------------
# references


def reference_jacobi(g, tol=1e-12):
    """Cyclic Jacobi: rotate (p, q) for p < q in row order, one at a time."""
    arr = _as_matrix(g)
    _check_hermitian(arr)
    dedup = np.iscomplexobj(arr)
    if dedup:
        arr = real_embedding(arr)
    a = np.array(arr, dtype=float)
    n = a.shape[0]
    scale = matrix_scale(a)
    if n <= 1:
        return _finish_spectrum(np.diag(a), 0, True, scale, dedup)
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
    return _finish_spectrum(np.diag(a), sweeps, off_frobenius() <= stop, scale, dedup)


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


def reference_lr(g, max_iter=500, tol=1e-12):
    """Unshifted alternating Cholesky: B <- A.T A where B = A A.T."""
    arr = _as_matrix(g)
    _check_hermitian(arr)
    dedup = np.iscomplexobj(arr)
    if dedup:
        arr = real_embedding(arr)
    n = arr.shape[0]
    scale = matrix_scale(arr)
    if n == 0:
        return _finish_spectrum([], 0, True, scale, False)
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
    return _finish_spectrum(finished, deepest, converged, scale, dedup)


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
        k = rng.integers(n)
        g[k, :] = 0.0
        g[:, k] = 0.0
        g[0, 0] = max(g[0, 0], 1.0)
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
    assert outcomes[0] == outcomes[1]
    if make is _clearly_indefinite:
        assert outcomes[0] == "not-pd"


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


def test_alt_cholesky_shift_cuts_iterations():
    # the shift is what makes the route fast: on criterion 03's kind of
    # input it needs far fewer steps than the unshifted iteration
    g = _psd(np.random.default_rng(3), 40)
    res = kf.alt_cholesky_eigs(g, max_iter=200_000)
    ref = reference_lr(g, max_iter=200_000)
    assert res.converged and ref.converged
    assert res.iterations < ref.iterations


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
