"""Command-line front end.

Every run is reproducible: seeds default to 0 and are never time-based,
JSON reports are schema-versioned with sorted keys, and identical argv
produces byte-identical output.  `--threads` (or KERNEL_FORGE_THREADS)
caps worker counts without changing any result; the current
orchestration is single-threaded, so the flag is validated and recorded
only.

Exit codes: 0 success, 1 numerical failure (matrix not positive
definite, singular system), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import factorize, fileio, gpsim, kernels, measures, rkhs, sampling
from .errors import KernelForgeError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

_EXAMPLE_NAMES = ("ex1", "ex2", "ex3")


# ---------------------------------------------------------------------------
# shared plumbing


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_kernel(args) -> kernels.KernelSpec:
    fam = kernels.FAMILY_TABLE[args.kernel]
    if fam.param is None:
        return kernels.KernelSpec(args.kernel)
    if fam.param == "measure":
        value = _build_measure(getattr(args, "measure", "lebesgue"))
    else:
        value = getattr(args, fam.param, None) or fam.default
    return kernels.KernelSpec(args.kernel, **{fam.param: value})


def _build_measure(name: str) -> measures.MeasureModel:
    if name == "lebesgue":
        return measures.lebesgue()
    if name == "cantor4":
        return measures.cantor4()
    raise ValueError(f"unknown measure {name!r}; use lebesgue or cantor4")


def _build_pair(args) -> gpsim.FactorizationPair:
    ex = args.example
    if ex == "ex1":
        return gpsim.pair_ex1()
    if ex == "ex2":
        return gpsim.pair_ex2()
    return gpsim.pair_ex3(trunc=getattr(args, "trunc", 8) or 8)


def _example_kernel(args) -> kernels.KernelSpec:
    ex = args.example
    if ex == "ex1":
        return kernels.brownian_min()
    if ex == "ex2":
        return kernels.szego()
    return kernels.cantor_product(trunc=getattr(args, "trunc", 8) or 8)


def _matrix_input(args) -> np.ndarray:
    """Matrix either directly from CSV or as a kernel Gram on points."""
    if getattr(args, "matrix", None):
        return fileio.read_matrix(args.matrix)
    if getattr(args, "kernel", None) and getattr(args, "points", None):
        spec = _build_kernel(args)
        return kernels.gram(spec, fileio.read_points(args.points)).entries
    raise ValueError("provide either --matrix, or --kernel with --points")


def _values_text(arr: np.ndarray) -> str:
    lines = []
    for v in np.atleast_1d(arr):
        c = complex(v)
        if np.iscomplexobj(arr):
            lines.append(f"{c.real!r},{c.imag!r}")
        else:
            lines.append(repr(c.real))
    return "\n".join(lines) + "\n"


def _config_header(command: str, config: dict) -> str:
    import json

    doc = {"schema": fileio.SCHEMA, "command": command, "config": fileio.json_value(config)}
    return "# " + json.dumps(doc, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# command handlers


def _cmd_gram(args) -> int:
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    g = kernels.gram(spec, sample)
    config = {"kernel": args.kernel, "points": args.points, "format": args.format}
    if args.format == "json":
        _emit(args, fileio.render_report(
            "gram", config, {"matrix": fileio.matrix_json(g.entries, sample.points)}
        ))
    else:
        _emit(args, fileio.format_matrix(g.entries))
    return EXIT_OK


def _cmd_chol(args) -> int:
    arr = _matrix_input(args)
    factor = factorize.cholesky(arr, ridge=args.ridge, tol=args.tol)
    config = {
        "matrix": getattr(args, "matrix", None),
        "kernel": getattr(args, "kernel", None),
        "points": getattr(args, "points", None),
        "ridge": args.ridge,
        "tol": args.tol,
    }
    if args.format == "json":
        _emit(args, fileio.render_report(
            "chol",
            config,
            {"L": fileio.matrix_json(factor.L), "ridge_used": factor.ridge_used},
        ))
    else:
        _emit(args, fileio.format_matrix(factor.L))
    return EXIT_OK


def _cmd_inv(args) -> int:
    arr = _matrix_input(args)
    inv = factorize.inverse_gram(arr)
    config = {
        "matrix": getattr(args, "matrix", None),
        "kernel": getattr(args, "kernel", None),
        "points": getattr(args, "points", None),
    }
    if args.format == "json":
        _emit(args, fileio.render_report("inv", config, {"inverse": fileio.matrix_json(inv)}))
    else:
        _emit(args, fileio.format_matrix(inv))
    return EXIT_OK


def _cmd_eig(args) -> int:
    arr = _matrix_input(args)
    if args.method == "alt-chol":
        res = factorize.alt_cholesky_eigs(arr, max_iter=args.max_iter, tol=args.tol)
    else:
        res = factorize.jacobi_eigs(arr, tol=args.tol)
    config = {
        "matrix": getattr(args, "matrix", None),
        "kernel": getattr(args, "kernel", None),
        "points": getattr(args, "points", None),
        "method": args.method,
        "max_iter": args.max_iter,
        "tol": args.tol,
    }
    _emit(args, fileio.render_report(
        "eig",
        config,
        {
            "eigenvalues": res.eigenvalues,
            "iterations": res.iterations,
            "converged": res.converged,
        },
    ))
    return EXIT_OK


def _cmd_project(args) -> int:
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    values = fileio.read_values(args.values)
    evals = fileio.read_points(args.eval)
    out = rkhs.project(spec, sample, values, evals.points)
    config = {
        "kernel": args.kernel,
        "points": args.points,
        "values": args.values,
        "eval": args.eval,
    }
    if args.format == "json":
        _emit(args, fileio.render_report("project", config, {"values": out}))
    else:
        _emit(args, _values_text(out))
    return EXIT_OK


def _cmd_delta_test(args) -> int:
    spec = _build_kernel(args)
    levels = fileio.read_chain(args.chain_file)
    sample = kernels.SampleSet(points=levels[-1], chain=levels)
    rep = rkhs.delta_membership(
        spec, args.point, sample, cap=args.cap, growth=args.growth, rtol=args.rtol
    )
    config = {
        "kernel": args.kernel,
        "point": args.point,
        "chain_file": args.chain_file,
        "cap": args.cap,
        "growth": args.growth,
        "rtol": args.rtol,
    }
    _emit(args, fileio.render_report(
        "delta-test",
        config,
        {
            "sequence": rep.sequence,
            "sup": rep.sup,
            "verdict": rep.verdict,
            "chain_levels": levels,
        },
    ))
    return EXIT_OK


def _cmd_graph(args) -> int:
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    g = rkhs.induced_graph(spec, sample, threshold=args.threshold)
    config = {"kernel": args.kernel, "points": args.points, "threshold": args.threshold}
    _emit(args, fileio.render_report(
        "graph",
        config,
        {
            "vertices": [fileio.json_value(p) for p in sample.points],
            "weights": fileio.matrix_json(g.weights),
            "edges": [list(e) for e in g.edges],
            "threshold": g.threshold,
        },
    ))
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    rows = fileio.read_matrix(args.data)
    data = [(float(r[0]), float(r[1])) for r in np.atleast_2d(rows)]
    f, norm_sq = rkhs.min_norm_interpolant(data)
    config = {"data": args.data, "eval": args.eval}
    payload = {
        "knots_x": f.knots_x,
        "knots_y": f.knots_y,
        "norm_sq": norm_sq,
    }
    if args.eval:
        grid = fileio.read_points(args.eval).points
        payload["eval_points"] = list(grid)
        payload["values"] = f(np.array(grid, dtype=float))
    _emit(args, fileio.render_report("interpolate", config, payload))
    return EXIT_OK


def _cmd_cantor(args) -> int:
    sub = args.cantor_command
    if sub == "cdf":
        if args.grid_file:
            xs = [float(p) for p in fileio.read_points(args.grid_file).points]
        else:
            xs = [k / (args.grid_n - 1) for k in range(args.grid_n)]
        config = {"grid_file": args.grid_file, "grid_n": args.grid_n}
        body = "\n".join(f"{x!r},{measures.mu4_cdf(x)!r}" for x in xs)
        _emit(args, _config_header("cantor cdf", config) + body + "\n")
        return EXIT_OK
    if sub == "cells":
        part = measures.cells(_build_measure(args.measure), args.depth)
        config = {"measure": args.measure, "depth": args.depth}
        body = "\n".join(
            f"{float(l)!r},{float(r)!r},{float(m)!r}"
            for l, r, m in zip(part.lefts, part.rights, part.masses)
        )
        _emit(args, _config_header("cantor cells", config) + body + "\n")
        return EXIT_OK
    if sub == "spectrum":
        spectrum = measures.lambda4(args.limit)
        config = {"limit": args.limit}
        body = "\n".join(str(int(v)) for v in spectrum.values)
        _emit(args, _config_header("cantor spectrum", config) + body + "\n")
        return EXIT_OK
    if sub == "fourier-gram":
        lams = list(measures.lambda4(args.limit).values[: args.count])
        g = measures.fourier_gram(lams, args.resolution, allow_any=args.allow_any)
        off = g.entries - np.diag(np.diag(g.entries))
        config = {
            "count": args.count,
            "limit": args.limit,
            "resolution": args.resolution,
            "allow_any": args.allow_any,
        }
        _emit(args, fileio.render_report(
            "cantor fourier-gram",
            config,
            {
                "lams": [int(v) for v in lams],
                "matrix": fileio.matrix_json(g.entries),
                "off_diagonal_max": float(np.max(np.abs(off))) if g.n > 1 else 0.0,
            },
        ))
        return EXIT_OK
    # gen-fn
    s = complex(args.s_re, args.s_im)
    prod, total, gap = measures.generating_function(s, args.trunc)
    config = {"s_re": args.s_re, "s_im": args.s_im, "trunc": args.trunc}
    _emit(args, fileio.render_report(
        "cantor gen-fn",
        config,
        {"product": prod, "sum": total, "gap_bound": gap,
         "difference": abs(prod - total)},
    ))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    pair = _build_pair(args)
    grid = fileio.read_points(args.grid_file).points
    ens = gpsim.ito_synthesize(pair, args.resolution, grid, args.paths, args.seed)
    config = {
        "example": args.example,
        "paths": args.paths,
        "resolution": args.resolution,
        "grid_file": args.grid_file,
        "seed": args.seed,
    }
    _emit(args, _config_header("simulate", config) + fileio.format_matrix(ens.paths))
    return EXIT_OK


def _cmd_covcheck(args) -> int:
    pair = _build_pair(args)
    spec = _example_kernel(args)
    grid = fileio.read_points(args.grid_file).points
    ens = gpsim.ito_synthesize(pair, args.resolution, grid, args.paths, args.seed)
    emp = gpsim.empirical_covariance(ens)
    target = kernels.gram(spec, grid).entries
    err = float(np.max(np.abs(emp - target)))
    tol = 5.0 * float(np.max(np.abs(target))) / float(np.sqrt(args.paths))
    config = {
        "example": args.example,
        "paths": args.paths,
        "resolution": args.resolution,
        "grid_file": args.grid_file,
        "seed": args.seed,
    }
    _emit(args, fileio.render_report(
        "covcheck",
        config,
        {"max_abs_error": err, "tolerance": tol, "pass": err <= tol},
        seed=args.seed,
    ))
    return EXIT_OK


def _cmd_qvar(args) -> int:
    m = _build_measure(args.measure)
    rep = gpsim.quadratic_variation(
        m, tuple(args.interval), args.resolutions, args.paths, args.seed
    )
    expected = []
    for r in rep.resolutions:
        part = measures.cells(m, r)
        idx = measures.check_cell_alignment(m, [rep.interval], r)
        expected.append(float(2.0 * np.sum(part.masses[idx] ** 2)))
    config = {
        "measure": args.measure,
        "interval": list(args.interval),
        "resolutions": args.resolutions,
        "paths": args.paths,
        "seed": args.seed,
    }
    _emit(args, fileio.render_report(
        "qvar",
        config,
        {
            "mu": rep.mu,
            "resolutions": rep.resolutions,
            "mean_q": rep.mean_q,
            "e_sq": rep.e_sq,
            "expected_e_sq": expected,
            "n_cells": rep.n_cells,
        },
        seed=args.seed,
    ))
    return EXIT_OK


def _cmd_duality(args) -> int:
    pair = _build_pair(args)
    spec = _example_kernel(args)
    grid = fileio.read_points(args.grid_file).points
    rep = gpsim.duality_check(
        pair,
        spec,
        grid,
        args.resolution,
        args.paths,
        args.seed,
        quad_tol=args.quad_tol,
        mc_tol=args.mc_tol,
    )
    config = {
        "example": args.example,
        "grid_file": args.grid_file,
        "resolution": args.resolution,
        "paths": args.paths,
        "seed": args.seed,
    }
    _emit(args, fileio.render_report(
        "duality",
        config,
        {
            "kernel_family": rep.kernel_family,
            "quad_error": rep.quad_error,
            "quad_tolerance": rep.quad_tol,
            "quad_pass": rep.quad_pass,
            "mc_error": rep.mc_error,
            "mc_tolerance": rep.mc_tol,
            "mc_pass": rep.mc_pass,
            "pass": rep.passed,
        },
        seed=args.seed,
    ))
    return EXIT_OK


def _cmd_frame(args) -> int:
    spec = _build_kernel(args)
    sub = args.frame_command
    if sub == "check":
        s = args.set if args.set in ("integers", "positive-integers") else None
        sample = s or fileio.read_points(args.set)
        if args.test_points:
            tests = fileio.read_points(args.test_points).points
        else:
            tests = [float(x) for x in args.test]
        rep = sampling.parseval_check(spec, sample, tests, args.truncation, tol=args.tol)
        config = {
            "kernel": args.kernel,
            "set": args.set,
            "truncation": args.truncation,
            "tol": args.tol,
        }
        _emit(args, fileio.render_report(
            "frame check",
            config,
            {
                "a": rep.a,
                "b": rep.b,
                "parseval_deficit": rep.parseval_deficit,
                "deficits": rep.deficits,
                "test_points": rep.test_points,
                "tail_bound": rep.tail_bound,
                "verdict": rep.verdict,
            },
        ))
        return EXIT_OK
    if sub == "bounds":
        sample = fileio.read_points(args.points)
        a, b = sampling.frame_bounds(spec, sample)
        config = {"kernel": args.kernel, "points": args.points}
        _emit(args, fileio.render_report("frame bounds", config, {"a": a, "b": b}))
        return EXIT_OK
    # reconstruct
    sample = fileio.read_points(args.points)
    samples = fileio.read_values(args.samples)
    evals = fileio.read_points(args.eval)
    out = sampling.frame_reconstruct(spec, sample, samples, evals.points)
    config = {
        "kernel": args.kernel,
        "points": args.points,
        "samples": args.samples,
        "eval": args.eval,
    }
    if args.format == "json":
        _emit(args, fileio.render_report("frame reconstruct", config, {"values": out}))
    else:
        _emit(args, _values_text(out))
    return EXIT_OK


def _cmd_witness(args) -> int:
    knots = [float(v) for v in np.atleast_1d(fileio.read_values(args.knots))]
    rule = args.rule
    if args.slopes:
        rule = [float(v) for v in np.atleast_1d(fileio.read_values(args.slopes))]
    w = sampling.sawtooth_witness(knots, rule)
    config = {"knots": args.knots, "rule": args.rule, "slopes": args.slopes}
    payload = {
        "knots": w.knots,
        "slopes": w.slopes,
        "norm_sq": w.norm_sq,
        "knot_inner_products": w.knot_inner_products(),
    }
    if args.eval:
        grid = [float(p) for p in fileio.read_points(args.eval).points]
        payload["eval_points"] = grid
        payload["values"] = w(np.array(grid))
    _emit(args, fileio.render_report("witness sawtooth", config, payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_kernel_flags(p, required: bool = True):
    p.add_argument("--kernel", required=required, choices=kernels.FAMILIES)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--measure", default="lebesgue", choices=("lebesgue", "cantor4"))


def _add_matrix_input_flags(p):
    p.add_argument("--matrix", help="matrix CSV (no header)")
    p.add_argument("--kernel", choices=kernels.FAMILIES)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--measure", default="lebesgue", choices=("lebesgue", "cantor4"))
    p.add_argument("--points", help="points CSV (used with --kernel)")


def _add_output_flags(p, formats=("csv", "json"), default="csv"):
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernel-forge",
        description="Kernel, measure, and Gaussian-process toolkit",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap (results never depend on it); falls back to "
        "KERNEL_FORGE_THREADS",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gram", help="kernel Gram matrix on a point set")
    _add_kernel_flags(p)
    p.add_argument("--points", required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_gram)

    p = subs.add_parser("chol", help="Cholesky factor")
    _add_matrix_input_flags(p)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="relative pivot tolerance: a pivot below tol * max|G_ii| fails",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_chol)

    p = subs.add_parser("inv", help="inverse Gram matrix")
    _add_matrix_input_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_inv)

    p = subs.add_parser("eig", help="eigenvalues (alternating Cholesky or Jacobi)")
    _add_matrix_input_flags(p)
    p.add_argument("--method", required=True, choices=("alt-chol", "jacobi"))
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="relative stop: off-diagonal size below tol * trace(G) (alt-chol) "
        "or tol * ||G||_F (jacobi)",
    )
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_eig)

    p = subs.add_parser("project", help="orthogonal projection onto a sample span")
    _add_kernel_flags(p)
    p.add_argument("--points", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--eval", required=True)
    _add_output_flags(p, default="json")
    p.set_defaults(handler=_cmd_project)

    p = subs.add_parser("delta-test", help="Dirac-mass membership along a chain")
    _add_kernel_flags(p)
    p.add_argument("--point", type=float, required=True)
    p.add_argument("--chain-file", required=True)
    p.add_argument("--cap", type=float, default=rkhs.MEMBERSHIP_CAP)
    p.add_argument("--growth", type=float, default=rkhs.MEMBERSHIP_GROWTH)
    p.add_argument("--rtol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_delta_test)

    p = subs.add_parser("graph", help="graph induced by the inverse Gram")
    _add_kernel_flags(p)
    p.add_argument("--points", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_graph)

    p = subs.add_parser("interpolate", help="minimal-norm piecewise-linear interpolant")
    p.add_argument("--data", required=True, help="CSV rows x,y")
    p.add_argument("--eval", help="points CSV of evaluation abscissae")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_interpolate)

    p = subs.add_parser("cantor", help="Cantor-measure utilities")
    csubs = p.add_subparsers(dest="cantor_command", required=True)
    c = csubs.add_parser("cdf")
    c.add_argument("--grid-file")
    c.add_argument("--grid-n", type=int, default=257)
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_cantor)
    c = csubs.add_parser("cells")
    c.add_argument("--measure", default="cantor4", choices=("lebesgue", "cantor4"))
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_cantor)
    c = csubs.add_parser("spectrum")
    c.add_argument("--limit", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_cantor)
    c = csubs.add_parser("fourier-gram")
    c.add_argument("--count", type=int, default=8)
    c.add_argument("--limit", type=int, default=1024)
    c.add_argument("--resolution", type=int, default=12)
    c.add_argument("--allow-any", action="store_true")
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_cantor)
    c = csubs.add_parser("gen-fn")
    c.add_argument("--s-re", type=float, required=True)
    c.add_argument("--s-im", type=float, default=0.0)
    c.add_argument("--trunc", type=int, default=8,
                   help="product factors; the sum side costs 2**trunc terms")
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_cantor)

    p = subs.add_parser("simulate", help="synthesize sample paths")
    p.add_argument("--example", required=True, choices=_EXAMPLE_NAMES)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--grid-file", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_simulate)

    p = subs.add_parser("covcheck", help="empirical covariance vs kernel")
    p.add_argument("--example", required=True, choices=_EXAMPLE_NAMES)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--grid-file", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_covcheck)

    p = subs.add_parser("qvar", help="quadratic variation across resolutions")
    p.add_argument("--measure", default="lebesgue", choices=("lebesgue", "cantor4"))
    p.add_argument("--interval", type=float, nargs=2, required=True)
    p.add_argument("--resolutions", type=int, nargs="+", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_qvar)

    p = subs.add_parser("duality", help="factorization duality check, both halves")
    p.add_argument("--example", required=True, choices=_EXAMPLE_NAMES)
    p.add_argument("--grid-file", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--quad-tol", type=float, default=None)
    p.add_argument("--mc-tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_duality)

    p = subs.add_parser("frame", help="Parseval checks, bounds, reconstruction")
    fsubs = p.add_subparsers(dest="frame_command", required=True)
    f = fsubs.add_parser("check")
    _add_kernel_flags(f)
    f.add_argument("--set", required=True,
                   help="'integers', 'positive-integers', or a points CSV")
    f.add_argument("--test-points", help="points CSV of test locations")
    f.add_argument("--test", type=float, nargs="+", help="inline test locations")
    f.add_argument("--truncation", type=int, required=True)
    f.add_argument("--tol", type=float, default=1e-4)
    f.add_argument("--out")
    f.set_defaults(handler=_cmd_frame)
    f = fsubs.add_parser("bounds")
    _add_kernel_flags(f)
    f.add_argument("--points", required=True)
    f.add_argument("--out")
    f.set_defaults(handler=_cmd_frame)
    f = fsubs.add_parser("reconstruct")
    _add_kernel_flags(f)
    f.add_argument("--points", required=True)
    f.add_argument("--samples", required=True)
    f.add_argument("--eval", required=True)
    _add_output_flags(f, default="json")
    f.set_defaults(handler=_cmd_frame)

    p = subs.add_parser("witness", help="non-density witness construction")
    wsubs = p.add_subparsers(dest="witness_command", required=True)
    w = wsubs.add_parser("sawtooth")
    w.add_argument("--knots", required=True, help="CSV of knot abscissae")
    w.add_argument("--rule", default="harmonic", choices=("harmonic", "custom"))
    w.add_argument("--slopes", help="CSV of slopes (with --rule custom)")
    w.add_argument("--eval", help="points CSV of evaluation abscissae")
    w.add_argument("--out")
    w.set_defaults(handler=_cmd_witness)

    return parser


def _resolve_threads(args) -> int:
    value = args.threads
    if value is None:
        env = os.environ.get("KERNEL_FORGE_THREADS")
        value = int(env) if env else 1
    if value < 1:
        raise ValueError("--threads must be a positive integer")
    return value


def run(argv) -> int:
    """Parse argv, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _resolve_threads(args)
        if args.command == "frame" and args.frame_command == "check":
            if not args.test_points and not args.test:
                raise ValueError("frame check needs --test-points or --test")
        if args.command == "witness" and args.rule == "custom" and not args.slopes:
            raise ValueError("--rule custom needs --slopes")
        return args.handler(args)
    except KernelForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL if isinstance(exc, ArithmeticError) else EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
