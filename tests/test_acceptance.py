"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance here is pinned; loosening one to make a red criterion green
is never acceptable.  Monte Carlo criteria use fixed seeds, so failures are
regressions, not noise.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import child_env

import kernel_forge as kf
from kernel_forge import cli, gpsim


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_brownian_structure_exact():
    start = time.perf_counter()
    n = 50
    pts = [float(k) for k in range(1, n + 1)]
    g = kf.gram(kf.brownian_min(), pts)

    chol = kf.cholesky(g)
    ones_ok = np.array_equal(chol.L, np.tril(np.ones((n, n))))

    det = float(np.prod(np.diag(chol.L)) ** 2)
    det_ok = abs(det - 1.0) <= 1e-9

    inv = kf.inverse_gram(g)
    expected = 2.0 * np.eye(n)
    expected[n - 1, n - 1] = 1.0
    expected -= np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    inv_ok = float(np.max(np.abs(inv - expected))) <= 1e-9

    elapsed = time.perf_counter() - start
    ok = ones_ok and det_ok and inv_ok and elapsed < 1.0
    report(
        1,
        ok,
        f"unit-spaced Gram n={n}: Cholesky all-ones {ones_ok}, det={det:.2e} "
        f"(target 1±1e-9), inverse tridiagonal {inv_ok}, {elapsed:.3f}s < 1s",
    )


def test_criterion_02_closed_form_cholesky():
    rng = np.random.default_rng(0)
    worst = 0.0
    worst_det = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        pts = np.sort(rng.uniform(0.01, 20.0, size=n))
        pts = np.unique(pts)
        closed = kf.brownian_cholesky_closed_form(pts).L
        generic = kf.cholesky(kf.gram(kf.brownian_min(), list(pts))).L
        worst = max(worst, float(np.max(np.abs(closed - generic))))
        det = float(np.prod(np.diag(generic)) ** 2)
        target = float(np.prod(np.diff(np.concatenate([[0.0], pts]))))
        worst_det = max(worst_det, abs(det - target) / max(target, 1e-300))
    ok = worst <= 1e-12 and worst_det <= 1e-9
    report(
        2,
        ok,
        f"100 random increasing sets: closed-vs-generic max {worst:.2e} <= 1e-12, "
        f"det-vs-increment-product max rel {worst_det:.2e} <= 1e-9",
    )


def test_criterion_03_eigen_routes_agree():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        g = a @ a.T
        scale = float(np.abs(g).max())
        alt = kf.alt_cholesky_eigs(g, max_iter=200_000).eigenvalues
        jac = kf.jacobi_eigs(g).eigenvalues
        worst = max(worst, float(np.max(np.abs(alt - jac))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        3,
        ok,
        f"100 random PSD (n<=50): max |alt - jacobi| = {worst:.2e}·‖G‖∞ <= 1e-8, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_04_spectrum_and_generating_function():
    frozen = [0, 1, 4, 5, 16, 17, 20, 21, 64, 65]
    set_ok = list(kf.lambda4(66)) == frozen

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        trunc = int(rng.integers(1, 5))
        prod, total, _ = kf.generating_function(complex(s), trunc)
        worst = max(worst, abs(prod - total))
    ident_ok = worst <= 1e-12
    ok = set_ok and ident_ok
    report(
        4,
        ok,
        f"spectrum below 66 exact: {set_ok}; product-vs-sum identity over 100 "
        f"random |s|<=0.9: max gap {worst:.2e} <= 1e-12",
    )


def test_criterion_05_cantor_measure():
    cdf_ok = kf.cdf(kf.cantor4(), [0.0, 0.25, 0.5, 0.75, 1.0]).tolist() == [
        0.0, 0.5, 0.5, 1.0, 1.0,
    ]
    mass_worst = max(
        abs(float(np.sum(kf.cells(kf.cantor4(), d).masses)) - 1.0) for d in range(13)
    )
    mass_ok = mass_worst <= 1e-12
    mean = kf.integrate(kf.cantor4(), lambda x: x, 10)
    mean_ok = abs(mean - 1.0 / 3.0) <= 4.0**-10
    ok = cdf_ok and mass_ok and mean_ok
    report(
        5,
        ok,
        f"CDF landmarks exact: {cdf_ok}; cell-mass drift {mass_worst:.1e} <= 1e-12 "
        f"(depths 0..12); mean {mean:.10f} vs 1/3 within 4^-10",
    )


def test_criterion_06_fourier_orthogonality():
    # Left-endpoint quadrature annihilates every spectrum-pair entry exactly
    # once the resolution passes the lowest differing digit (a product factor
    # becomes (1 + e^{i pi})/2 = 0), so from resolution 4 on the off-diagonal
    # norm is pure roundoff ~1e-16.  Strict float monotonicity is therefore
    # unobservable; the check is "nonincreasing up to the roundoff floor",
    # with the floor (1e-14) twelve orders below the 0.01 headline bound.
    noise_floor = 1e-14
    start = time.perf_counter()
    lams = [int(v) for v in kf.lambda4(22)]
    assert len(lams) == 8
    offs = []
    for res in (4, 6, 8, 10, 12):
        g = kf.fourier_gram(lams, res).entries
        offs.append(float(np.max(np.abs(g - np.diag(np.diag(g))))))
    elapsed = time.perf_counter() - start
    small_ok = offs[-1] <= 0.01
    mono_ok = all(b <= a + noise_floor for a, b in zip(offs, offs[1:]))
    ok = small_ok and mono_ok and elapsed < 5.0
    report(
        6,
        ok,
        f"first 8 spectrum exponentials: off-diag {offs[-1]:.2e} <= 0.01 at "
        f"resolution 12; nonincreasing within roundoff floor over "
        f"{[f'{v:.1e}' for v in offs]}; {elapsed:.2f}s < 5s",
    )


@pytest.mark.parametrize(
    "name,pair,spec,grid",
    [
        (
            "ex1",
            gpsim.pair_ex1,
            kf.brownian_min,
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        ),
        (
            "ex2",
            gpsim.pair_ex2,
            kf.szego,
            [r * np.exp(2j * np.pi * k / 3.0) for r in (0.2, 0.5, 0.8) for k in range(3)],
        ),
        (
            "ex3",
            gpsim.pair_ex3,
            kf.cantor_product,
            [r * np.exp(2j * np.pi * k / 3.0) for r in (0.2, 0.5, 0.8) for k in range(3)],
        ),
    ],
)
def test_criterion_07_duality_both_halves(name, pair, spec, grid):
    start = time.perf_counter()
    rep = gpsim.duality_check(
        pair(), spec(), grid, resolution=12, n_paths=100_000, seed=42
    )
    elapsed = time.perf_counter() - start
    ok = rep.quad_pass and rep.mc_pass and elapsed < 60.0
    report(
        7,
        ok,
        f"{name}: quadrature {rep.quad_error:.2e} <= {rep.quad_tol:.2e}, "
        f"Monte Carlo {rep.mc_error:.2e} <= {rep.mc_tol:.2e} "
        f"(P=1e5, seed 42), {elapsed:.1f}s < 60s",
    )


def test_criterion_08_quadratic_variation_halves():
    rep = gpsim.quadratic_variation(
        kf.lebesgue(), (0.0, 1.0), resolutions=list(range(4, 11)),
        n_paths=100_000, seed=0,
    )
    ratios = [b / a for a, b in zip(rep.e_sq, rep.e_sq[1:])]
    ok = all(abs(r - 0.5) <= 0.1 for r in ratios)
    report(
        8,
        ok,
        "E|1-Q|^2 halves per refinement 4->10 within 20%: ratios "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_09_point_process_norms():
    spec = kf.brownian_line()
    chain = [[float(n) for n in range(-k, k + 1) if n != 0] for k in (1, 2, 3)]
    sample = kf.SampleSet(points=chain[-1], chain=chain)
    rep = kf.delta_membership(spec, 1.0, sample)
    member_ok = rep.verdict == "member" and abs(rep.sup - 2.0) <= 1e-9

    bspec = kf.brownian_min()
    x = 0.5
    levels = []
    for k in (3, 4, 5, 6, 7):
        h = 2.0**-k
        grid = [x + (i - 2) * h for i in range(5)]
        levels.append(sorted(set(levels[-1]) | set(grid)) if levels else grid)
    fine = kf.SampleSet(points=levels[-1], chain=levels)
    div = kf.delta_membership(bspec, x, fine)
    seq = list(div.sequence)
    growth_ok = all(b >= 1.9 * a for a, b in zip(seq, seq[1:]))
    ok = member_ok and growth_ok
    report(
        9,
        ok,
        f"lattice chain sup={rep.sup:.12f} (target 2±1e-9, verdict {rep.verdict}); "
        f"refining-grid growth factors {[float(round(b / a, 3)) for a, b in zip(seq, seq[1:])]} all >= 1.9",
    )


def test_criterion_10_shannon_sampling():
    rep = kf.parseval_check(kf.shannon(), "integers", [0.5], truncation=10_000)
    deficit_ok = rep.parseval_deficit <= 1e-4

    spec = kf.shannon()
    s = [float(n) for n in range(0, 8)]

    def f(x):
        return np.sinc(x - 2.0) - 0.5 * np.sinc(x - 5.0)

    got = kf.frame_reconstruct(spec, s, f(np.array(s)), [1.3, 3.7, 6.1])
    err = float(np.max(np.abs(got - f(np.array([1.3, 3.7, 6.1])))))
    recon_ok = err <= 1e-10
    ok = deficit_ok and recon_ok
    report(
        10,
        ok,
        f"Parseval deficit at 0.5 with 1e4 terms: {rep.parseval_deficit:.2e} <= 1e-4 "
        f"(tail bound {rep.tail_bound:.2e}); in-span reconstruction error {err:.2e} <= 1e-10",
    )


def test_criterion_11_sawtooth_witness():
    n = 10
    knots = [float(k) for k in range(1, n + 2)]
    w = kf.sawtooth_witness(knots)
    vanish_ok = bool(np.all(w(np.array(knots)) == 0.0))
    target = sum(1.0 / k**2 for k in range(1, n + 1))
    norm_ok = abs(w.norm_sq - target) <= 1e-12
    inner = w.knot_inner_products()
    inner_ok = bool(np.all(inner == 0.0))
    ok = vanish_ok and norm_ok and inner_ok
    report(
        11,
        ok,
        f"knots 1..{n + 1}: vanishes at knots exactly {vanish_ok}; norm^2 "
        f"{w.norm_sq:.12f} vs partial sum {target:.12f} within 1e-12; "
        f"knot inner products all zero {inner_ok}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("real-line\n1.0\n2.0\n3.0\n")
    grid = tmp_path / "grid.csv"
    grid.write_text("unit-interval\n0.25\n0.5\n1.0\n")
    disk = tmp_path / "disk.csv"
    disk.write_text("complex-disk\n0.2,0.0\n0.1,0.3\n")
    vals = tmp_path / "vals.csv"
    vals.write_text("1.0\n1.5\n2.5\n")
    ev = tmp_path / "ev.csv"
    ev.write_text("real-line\n1.5\n2.5\n")
    chain = tmp_path / "chain.csv"
    chain.write_text("-1.0,1.0\n-2.0,-1.0,1.0,2.0\n")
    data = tmp_path / "data.csv"
    data.write_text("1.0,1.0\n2.0,3.0\n")
    knots = tmp_path / "knots.csv"
    knots.write_text("1.0\n2.0\n3.0\n")

    commands = [
        ["gram", "--kernel", "brownian-min", "--points", str(pts)],
        ["chol", "--kernel", "brownian-min", "--points", str(pts)],
        ["inv", "--kernel", "brownian-min", "--points", str(pts)],
        ["eig", "--kernel", "brownian-min", "--points", str(pts), "--method", "jacobi"],
        ["project", "--kernel", "brownian-min", "--points", str(pts),
         "--values", str(vals), "--eval", str(ev)],
        ["delta-test", "--kernel", "brownian-line", "--point", "1.0",
         "--chain-file", str(chain)],
        ["graph", "--kernel", "brownian-min", "--points", str(pts)],
        ["interpolate", "--data", str(data)],
        ["cantor", "cdf", "--grid-n", "9"],
        ["cantor", "spectrum", "--limit", "66"],
        ["cantor", "gen-fn", "--s-re", "0.5", "--trunc", "3"],
        ["simulate", "--example", "ex1", "--paths", "40", "--resolution", "6",
         "--grid-file", str(grid), "--seed", "7"],
        ["covcheck", "--example", "ex1", "--paths", "4000", "--resolution", "6",
         "--grid-file", str(grid), "--seed", "3"],
        ["qvar", "--interval", "0", "1", "--resolutions", "4", "5",
         "--paths", "4000", "--seed", "1"],
        ["duality", "--example", "ex2", "--grid-file", str(disk),
         "--resolution", "6", "--paths", "4000", "--seed", "5"],
        ["frame", "check", "--kernel", "shannon", "--set", "integers",
         "--truncation", "200", "--test", "0.5"],
        ["frame", "bounds", "--kernel", "brownian-min", "--points", str(pts)],
        ["frame", "reconstruct", "--kernel", "shannon", "--points", str(pts),
         "--samples", str(vals), "--eval", str(ev)],
        ["witness", "sawtooth", "--knots", str(knots)],
    ]

    checked = 0
    for k, argv in enumerate(commands):
        outs = []
        for rep, extra in ((0, []), (1, []), (2, ["--threads", "9"])):
            out = tmp_path / f"cmd{k}_{rep}.txt"
            code = cli.run(extra + argv + ["--out", str(out)])
            assert code == 0, f"{argv} exited {code}"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], f"nondeterministic: {argv}"
        checked += 1

    # and through the real process boundary, where hash seeds etc. could differ
    sim = ["simulate", "--example", "ex1", "--paths", "40", "--resolution", "6",
           "--grid-file", str(grid), "--seed", "7"]
    runs = [
        subprocess.run([sys.executable, "-m", "kernel_forge"] + args,
                       capture_output=True, env=child_env(), timeout=120)
        for args in (sim, sim, ["--threads", "3"] + sim)
    ]
    assert all(r.returncode == 0 for r in runs)
    proc_ok = runs[0].stdout == runs[1].stdout == runs[2].stdout

    ok = checked == len(commands) and proc_ok
    report(
        12,
        ok,
        f"{checked} subcommand invocations byte-identical across reruns and "
        f"--threads variation; subprocess rerun identical: {proc_ok}",
    )
