"""The benchmark's workloads: inputs made from a seed, one pass of ops, checks.

Each workload is a fixed list of ops.  An op is one call into the public
API of kernel_forge; a pass runs every op once, in order.  Sizes are fixed
per workload, and only the values of the inputs come from the seed, so two
seeds ask for the same amount of work (the eigen ops are the exception:
the alternating-Cholesky iteration count depends on the spectrum).

Every op has a check against a pinned tolerance.  A check returns None
when the result is correct and a short description of what is wrong
otherwise.  Checks run after the pass, outside the timed region; the
reference values they compare with are computed while the workload is
built, also outside it.

Ops look their entry point up on the module at call time, so the wrappers
that `tracing.Instruments.install` puts in place are the ones called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

# ---------------------------------------------------------------------------
# sizes (the "tiny" sizes serve the warm-up and the benchmark's self-test)

MC = {
    "full": {"resolution": 12, "paths": 1024},
    "tiny": {"resolution": 8, "paths": 256},
}

FAMILIES = ("brownian-min", "brownian-line", "green-1d", "shannon",
            "szego", "cantor-product", "drury-arveson", "overlap")

# one op per entry of each size list
LINALG = {
    "full": {
        "gram": [100, 130],
        "project": [(40, 20), (60, 20)],
        "graph": [50, 70],
        "reconstruct": [(20, 10), (25, 10), (30, 10), (35, 10), (40, 10), (45, 10), (50, 10), (60, 10)],
        "chain_levels": [4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9],
        "truncation": 2500,
        "eig_sizes": [int(n) for n in np.round(np.linspace(2, 50, 10))],
        "psd": [10, 20],
        "complex_frame": 10,
    },
    "tiny": {
        "gram": [6],
        "project": [(8, 4)],
        "graph": [10],
        "reconstruct": [(10, 5)],
        "chain_levels": [3],
        "truncation": 2500,
        "eig_sizes": [2, 3, 5],
        "psd": [6],
        "complex_frame": 4,
    },
}

CLI = {
    "full": {"paths": 2000, "resolution": 6, "points": 300},
    "tiny": {"paths": 50, "resolution": 3, "points": 12},
}

# the acceptance grids of the duality criterion
GRID_REAL = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
GRID_DISK = [r * np.exp(2j * np.pi * k / 3.0) for r in (0.2, 0.5, 0.8) for k in range(3)]

EIG_AGREE = 1e-8  # routes agree within EIG_AGREE * max|G_ij| (criterion 03)
RECON_TOL = 1e-10  # in-span reconstruction error (criterion 10)
LINALG_TOL = 1e-8  # relative residual of interpolation and inversion
GROWTH = 1.9  # refining-chain growth factor of a non-member (criterion 09)


def _default_digest(obj) -> str:
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(str((o.dtype, o.shape)).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for x in o:
                feed(x)
            h.update(b"]")
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


@dataclass
class Op:
    """One library call, its check, and a digest of its result."""

    name: str
    call: Callable[[], Any]
    # check(result, expected, results of the pass by op name) -> None or
    # what is wrong
    check: Callable[[Any, Any, dict], Optional[str]]
    # the reference the check compares with, if any
    expected: Any = None
    digest: Callable[[Any], str] = _default_digest


@dataclass
class Workload:
    ops: list
    sizes: dict
    workdir: Optional[Path] = None

    def cleanup(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _separated(rng, n, lo, hi):
    """n sorted points in (lo, hi), at least half a grid step apart."""
    h = (hi - lo) / n
    base = lo + h * (np.arange(n) + 0.5)
    return [float(x) for x in base + rng.uniform(-0.25 * h, 0.25 * h, n)]


def _disk(rng, n, rmax):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    return [complex(z) for z in r * np.exp(1j * t)]


def _linf(a) -> float:
    return float(np.max(np.sum(np.abs(a), axis=1)))


# ---------------------------------------------------------------------------
# mc-duality


def _check_duality(rep, _expected, _results):
    if rep.passed:
        return None
    return (
        f"quadrature {rep.quad_error:.3e} (tol {rep.quad_tol:.3e}), "
        f"Monte Carlo {rep.mc_error:.3e} (tol {rep.mc_tol:.3e})"
    )


def mc_duality(kf, seed: int, size: str, workdir: Path) -> Workload:
    cfg = MC[size]
    rng = np.random.default_rng(seed)
    mc_seed = int(rng.integers(0, 2**63))
    cases = (
        ("ex1", "pair_ex1", "brownian_min", GRID_REAL),
        ("ex2", "pair_ex2", "szego", GRID_DISK),
        ("ex3", "pair_ex3", "cantor_product", GRID_DISK),
    )
    ops = []
    for ex, pair, spec, grid in cases:
        def call(pair=pair, spec=spec, grid=grid):
            return kf.duality_check(
                getattr(kf, pair)(), getattr(kf, spec)(), grid,
                cfg["resolution"], cfg["paths"], mc_seed,
            )

        ops.append(Op(f"duality_{ex}", call, _check_duality))
    sizes = {
        "resolution": cfg["resolution"],
        "cells": 1 << cfg["resolution"],
        "paths": cfg["paths"],
        "grid_points": len(GRID_REAL),
        "mc_seed": mc_seed,
    }
    return Workload(ops, sizes)


# ---------------------------------------------------------------------------
# kernel-linalg


def _point_sets(kf, rng, sizes: dict) -> dict:
    """Seeded points on each family's domain, sized per family."""
    out = {}
    for fam, n in sizes.items():
        if fam == "brownian-min":
            pts, tag = _separated(rng, n, 0.0, 10.0), "real-line"
        elif fam == "brownian-line":
            # an even count keeps 0 out: the nearest base points are +-h/2
            pts, tag = _separated(rng, n + n % 2, -10.0, 10.0), "real-line"
        elif fam == "green-1d":
            pts, tag = _separated(rng, n, 0.0, 1.0), "unit-interval"
        elif fam == "shannon":
            pts, tag = _separated(rng, n, 0.0, float(n)), "real-line"
        elif fam in ("szego", "cantor-product"):
            pts, tag = _disk(rng, n, 0.9), "complex-disk"
        elif fam == "drury-arveson":
            v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, n))
            v *= (radius / np.linalg.norm(v, axis=1))[:, None]
            pts, tag = [row for row in v], "complex-vector(2)"
        else:  # overlap, against Lebesgue measure
            starts = _separated(rng, n, 0.0, 0.6)
            widths = rng.uniform(0.1, 0.4, n)
            pts = [kf.IntervalSet(((a, a + w),)) for a, w in zip(starts, widths)]
            tag = "interval-set"
        out[fam] = kf.SampleSet(points=pts, domain=tag)
    return out


def _spec(kf, fam):
    if fam == "overlap":
        return kf.overlap(kf.lebesgue())
    return kf.KernelSpec(fam, trunc=8 if fam == "cantor-product" else None,
                         dim=2 if fam == "drury-arveson" else None)


def _shannon_in_span(rng, support):
    """A random combination of sinc translates at points of `support`."""
    centers = rng.choice(np.asarray(support), size=min(5, len(support)), replace=False)
    coef = rng.standard_normal(len(centers))

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sum(coef[:, None] * np.sinc(x[None, :] - centers[:, None]), axis=0)

    return f


def kernel_linalg(kf, seed: int, size: str, workdir: Path) -> Workload:
    cfg = LINALG[size]
    rng = np.random.default_rng(seed)
    ops = []
    real = ("brownian-min", "brownian-line", "green-1d", "shannon")

    # Gram assembly for every family
    for n in cfg["gram"]:
        for fam, sample in _point_sets(kf, rng, {fam: n for fam in FAMILIES}).items():
            def call(fam=fam, sample=sample):
                return kf.gram(_spec(kf, fam), sample)

            def check(g, n, _results):
                e = g.entries
                if e.shape != (n, n):
                    return f"shape {e.shape}"
                if not np.array_equal(e, e.conj().T):
                    return "not Hermitian bitwise"
                return None

            ops.append(Op(f"gram_{fam}_n{n}", call, check, len(sample)))

    # projection: reproduces the data on F
    for n_f, n_extra in cfg["project"]:
        for fam, sample in _point_sets(kf, rng, {fam: n_f for fam in real}).items():
            values = rng.standard_normal(len(sample))
            extra = _point_sets(kf, rng, {fam: n_extra})[fam].points
            evals = list(sample.points) + list(extra)

            def call(fam=fam, sample=sample, values=values, evals=evals):
                return kf.project(_spec(kf, fam), sample, values, evals)

            def check(out, values, _results):
                err = float(np.max(np.abs(out[: len(values)] - values)))
                bound = LINALG_TOL * max(1.0, float(np.max(np.abs(values))))
                return None if err <= bound else f"misses the data on F by {err:.3e}"

            ops.append(Op(f"project_{fam}_n{n_f}", call, check, values))

    # induced graphs: inverse residual, and the path structure where known
    for n in cfg["graph"]:
        for fam, sample in _point_sets(kf, rng, {fam: n for fam in real}).items():
            g = kf.gram(_spec(kf, fam), sample).entries
            m = len(sample)
            path = None
            if fam in ("brownian-min", "green-1d"):
                path = [(i, i + 1) for i in range(m - 1)]
            elif fam == "brownian-line":
                # opposite signs do not interact: one path per sign
                k = sum(1 for p in sample.points if p < 0)
                path = [(i, i + 1) for i in range(m - 1) if i != k - 1]

            def call(fam=fam, sample=sample):
                return kf.induced_graph(_spec(kf, fam), sample)

            def check(graph, g, _results, path=path):
                w = graph.weights
                resid = _linf(w @ g - np.eye(len(g)))
                if resid > LINALG_TOL * _linf(w) * _linf(g):
                    return f"inverse residual {resid:.3e}"
                if path is not None and graph.edges != path:
                    return f"{len(graph.edges)} edges, expected the {len(path)}-edge path"
                return None

            ops.append(Op(f"induced_graph_{fam}_n{n}", call, check, g))

    # reconstruction of a Shannon function in the span of the samples
    for k, (n_s, n_eval) in enumerate(cfg["reconstruct"]):
        support = _separated(rng, n_s, 0.0, float(n_s))
        f = _shannon_in_span(rng, support)
        evals = [float(x) for x in rng.uniform(0.0, float(n_s), n_eval)]
        samples = f(support)

        def call(support=support, samples=samples, evals=evals):
            return kf.frame_reconstruct(kf.shannon(), support, samples, evals)

        def check(got, want, _results):
            err = float(np.max(np.abs(got - want)))
            return None if err <= RECON_TOL else f"reconstruction error {err:.3e}"

        ops.append(Op(f"frame_reconstruct_{k}_n{n_s}", call, check, f(evals)))

    # Dirac membership along refining brownian_min chains (a non-member)
    for k, n_levels in enumerate(cfg["chain_levels"]):
        x = float(rng.uniform(0.3, 0.7))
        levels = []
        for depth in range(3, 3 + n_levels):
            h = 2.0 ** -depth
            grid = [x + (i - 2) * h for i in range(5)]
            levels.append(sorted(set(levels[-1]) | set(grid)) if levels else grid)
        chain = kf.SampleSet(points=levels[-1], chain=levels)

        def call(x=x, chain=chain):
            return kf.delta_membership(kf.brownian_min(), x, chain)

        def check(rep, _expected, _results):
            seq = list(rep.sequence)
            if rep.verdict != "diverging":
                return f"verdict {rep.verdict!r} on a refining chain"
            if not all(b >= GROWTH * a for a, b in zip(seq, seq[1:])):
                return f"growth below {GROWTH}: {seq}"
            return None

        ops.append(Op(f"delta_membership_{k}_levels{n_levels}", call, check))

    # Parseval check of sinc translates at the integers
    tests = [float(t) for t in rng.uniform(-5.0, 5.0, 3)]

    def parseval_call():
        return kf.parseval_check(kf.shannon(), "integers", tests, truncation=cfg["truncation"])

    def parseval_check(rep, _expected, _results):
        if rep.verdict != "parseval":
            return f"verdict {rep.verdict!r}"
        if rep.tail_bound is None or rep.parseval_deficit > rep.tail_bound:
            return f"deficit {rep.parseval_deficit:.3e} above tail bound {rep.tail_bound}"
        return None

    ops.append(Op("parseval_shannon", parseval_call, parseval_check))

    # eigen routes on random PSD A A^T (criterion 03's distribution)
    for idx, n in enumerate(cfg["eig_sizes"]):
        a = rng.standard_normal((n, n))
        g = a @ a.T
        scale = float(np.abs(g).max())
        jac_name = f"jacobi_{idx}_n{n}"

        def jac_call(g=g):
            return kf.jacobi_eigs(g)

        def jac_check(res, ref, _results, scale=scale):
            err = float(np.max(np.abs(res.eigenvalues - ref))) / scale
            return None if err <= EIG_AGREE else f"off LAPACK by {err:.2e} ||G||"

        def alt_call(g=g):
            return kf.alt_cholesky_eigs(g, max_iter=200_000)

        def alt_check(res, _expected, results, scale=scale, jac_name=jac_name):
            jac = results.get(jac_name)
            if not hasattr(jac, "eigenvalues"):
                return "no Jacobi result to compare with"
            err = float(np.max(np.abs(res.eigenvalues - jac.eigenvalues))) / scale
            return None if err <= EIG_AGREE else f"routes differ by {err:.2e} ||G||"

        ops.append(Op(jac_name, jac_call, jac_check, np.linalg.eigvalsh(g)[::-1]))
        ops.append(Op(f"alt_cholesky_{idx}_n{n}", alt_call, alt_check))

    # PSD validation and frame bounds on kernel Grams, one of them complex
    for r, n in enumerate(cfg["psd"]):
        sets = _point_sets(kf, rng, {fam: n for fam in real + ("overlap",)})
        sets["szego"] = _point_sets(kf, rng, {"szego": n // 2})["szego"]
        for fam, sample in sets.items():
            def call(g=kf.gram(_spec(kf, fam), sample).entries):
                return kf.validate_psd(g)

            def check(res, _expected, _results):
                return None if res[0] else f"reported not PSD (min eigenvalue {res[1]:.3e})"

            ops.append(Op(f"validate_psd_{fam}_n{n}", call, check))

        sets = _point_sets(kf, rng, {fam: n for fam in real + ("overlap",)})
        # well-spread points on |z| = 0.5 keep the complex Gram well conditioned
        m = cfg["complex_frame"]
        angles = 2.0 * np.pi * (np.arange(m) + rng.uniform(-0.2, 0.2, m)) / m
        sets["szego"] = kf.SampleSet(
            points=[complex(z) for z in 0.5 * np.exp(1j * angles)], domain="complex-disk"
        )
        for fam, sample in sets.items():
            g = kf.gram(_spec(kf, fam), sample).entries

            def call(fam=fam, sample=sample):
                return kf.frame_bounds(_spec(kf, fam), sample)

            def check(ab, ref, _results, scale=float(np.abs(g).max())):
                err = max(abs(ab[0] - ref[0]), abs(ab[1] - ref[-1])) / scale
                return None if err <= EIG_AGREE else f"bounds off LAPACK by {err:.2e} ||G||"

            ops.append(Op(f"frame_bounds_{fam}_{r}_n{len(sample)}", call, check,
                          np.linalg.eigvalsh(g)))

    return Workload(ops, dict(cfg))


# ---------------------------------------------------------------------------
# cli-io


def _file_digest(path: Path):
    def digest(_):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    return digest


def _check_simulate(path: Path, paths: int, width: int):
    def check(code, _expected, _results):
        if code != 0:
            return f"exit code {code}"
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("# "):
            return "no configuration header"
        head = json.loads(lines[0][2:])
        if head.get("schema") != "kernel-forge/1" or head.get("command") != "simulate":
            return f"header {head.get('schema')!r}/{head.get('command')!r}"
        rows = lines[1:]
        if len(rows) != paths:
            return f"{len(rows)} rows, expected {paths}"
        if any(r.count(",") != width - 1 for r in rows):
            return f"a row without {width} cells"
        for cell in rows[0].split(",") + rows[-1].split(","):
            complex(cell)
        return None

    return check


def cli_io(kf, seed: int, size: str, workdir: Path) -> Workload:
    cfg = CLI[size]
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    sim_seed = int(rng.integers(0, 2**31))

    grid_real = workdir / "grid_real.csv"
    grid_real.write_text(
        "unit-interval\n" + "".join(f"{x!r}\n" for x in _separated(rng, 9, 0.0, 1.0)),
        encoding="utf-8",
    )
    grid_disk = workdir / "grid_disk.csv"
    disk = [complex(z) for z in rng.uniform(0.2, 0.8, 9) * np.exp(2j * np.pi * rng.uniform(0, 1, 9))]
    grid_disk.write_text(
        "complex-disk\n" + "".join(f"{z.real!r},{z.imag!r}\n" for z in disk),
        encoding="utf-8",
    )
    points = workdir / "points.csv"
    xs = _separated(rng, cfg["points"], 0.0, 10.0)
    points.write_text("real-line\n" + "".join(f"{x!r}\n" for x in xs), encoding="utf-8")
    g = np.minimum.outer(np.array(xs), np.array(xs))  # the brownian-min Gram

    ops = []
    for ex, grid in (("ex1", grid_real), ("ex2", grid_disk), ("ex3", grid_disk)):
        out = workdir / f"sim_{ex}.csv"
        argv = [
            "simulate", "--example", ex, "--paths", str(cfg["paths"]),
            "--resolution", str(cfg["resolution"]), "--grid-file", str(grid),
            "--seed", str(sim_seed), "--out", str(out),
        ]
        ops.append(Op(
            f"simulate_{ex}",
            lambda argv=argv: kf.cli.run(argv),
            _check_simulate(out, cfg["paths"], 9),
            digest=_file_digest(out),
        ))

    gram_csv = workdir / "gram.csv"
    gram_argv = ["gram", "--kernel", "brownian-min", "--points", str(points),
                 "--format", "csv", "--out", str(gram_csv)]

    def gram_check(code, g, _results):
        if code != 0:
            return f"exit code {code}"
        rows = gram_csv.read_text(encoding="utf-8").splitlines()
        got = np.array([[float(c) for c in r.split(",")] for r in rows])
        if got.shape != g.shape:
            return f"shape {got.shape}, expected {g.shape}"
        return None if np.array_equal(got, g) else "entries differ from min(x, y)"

    ops.append(Op("gram_csv", lambda: kf.cli.run(gram_argv), gram_check, g,
                  _file_digest(gram_csv)))

    inv_json = workdir / "inv.json"
    inv_argv = ["inv", "--matrix", str(gram_csv), "--format", "json", "--out", str(inv_json)]

    def inv_check(code, g, _results):
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(inv_json.read_text(encoding="utf-8"))
        if doc.get("schema") != "kernel-forge/1" or doc.get("command") != "inv":
            return f"header {doc.get('schema')!r}/{doc.get('command')!r}"
        inv = doc["inverse"]
        n = len(g)
        if inv["n"] != n or len(inv["entries"]) != n * n:
            return f"inverse of size {inv['n']} with {len(inv['entries'])} entries"
        w = np.array(inv["entries"], dtype=float).reshape(n, n)
        resid = _linf(w @ g - np.eye(n))
        bound = LINALG_TOL * _linf(w) * _linf(g)
        return None if resid <= bound else f"inverse residual {resid:.3e}"

    ops.append(Op("inv_json", lambda: kf.cli.run(inv_argv), inv_check, g,
                  _file_digest(inv_json)))

    sizes = {
        "simulate_paths": cfg["paths"],
        "resolution": cfg["resolution"],
        "cells": 1 << cfg["resolution"],
        "grid_points": 9,
        "gram_points": cfg["points"],
        "sim_seed": sim_seed,
    }
    return Workload(ops, sizes, workdir)


WORKLOADS = {"mc-duality": mc_duality, "kernel-linalg": kernel_linalg, "cli-io": cli_io}


def build(name: str, kf, seed: int, size: str, workdir: Path) -> Workload:
    wl = WORKLOADS[name](kf, seed, size, workdir)
    names = [op.name for op in wl.ops]
    if len(set(names)) != len(names):
        raise ValueError(f"{name}: op names repeat")  # checks look results up by name
    return wl
