"""Command-line front end.

Each (sub)command is declared once, in `build_parser`, through `_command`:
its parser, its `--out` (and `--format`, when it has one) and its
handler; its report is named by its command path, e.g. "frame check".  A
handler only computes and returns its result, and `_emit` writes it: a
payload dict becomes a JSON report, CSV text is written bare when the
command has `--format` and after a `# {...}` config header when it has
none.  `_config` builds the `config` record by one rule: every option
the command's own parser declares, by argparse dest, except `--out` and
`--help`.  The global `--threads` is never recorded, since no byte
depends on it.  A check that spans flags (`frame check`'s tests,
`witness`'s custom slopes) lives in its handler.

Every run is reproducible: seeds default to 0 and are never time-based,
JSON reports are schema-versioned with sorted keys, and identical argv
produces byte-identical output.  `--threads` (or KERNEL_FORGE_THREADS)
caps the workers of the Monte Carlo draw engine (`gpsim`), which runs
a job of at least 2^20 normals block by block on a thread pool of
min(cap, usable cores, blocks) workers; unset means usable cores.  While
the Ito sum's draws are made and mixed, numpy's OpenBLAS is held to one
thread, so that pool is the only one running.  No result depends on the
cap: every block writes its own rows.

Exit codes: 0 success, 1 numerical failure (matrix not positive
definite, singular system), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import factorize, fileio, gpsim, kernels, measures, rkhs, sampling
from .errors import KernelForgeError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

# --example: (factorization pair, its kernel) for a --trunc value
_EXAMPLES = {
    "ex1": lambda trunc: (gpsim.pair_ex1(), kernels.brownian_min()),
    "ex2": lambda trunc: (gpsim.pair_ex2(), kernels.szego()),
    "ex3": lambda trunc: (gpsim.pair_ex3(trunc=trunc), kernels.cantor_product(trunc=trunc)),
}


# ---------------------------------------------------------------------------
# shared plumbing


def _config(args) -> dict:
    """The run's config record: every dest its parser declares but out and help."""
    opts = vars(args)
    return {a.dest: opts[a.dest] for a in args.parser._actions
            if a.dest not in ("out", "help")}


def _emit(args, result) -> None:
    """Write a handler's result: a payload dict as a JSON report, else CSV text."""
    if isinstance(result, dict):
        text = fileio.render_report(
            args.report, _config(args), result, seed=getattr(args, "seed", None)
        )
    elif hasattr(args, "format"):
        text = result
    else:
        text = fileio.config_header(args.report, _config(args)) + result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_kernel(args) -> kernels.KernelSpec:
    param = kernels.FAMILY_TABLE[args.kernel].param
    if param is None:
        return kernels.KernelSpec(args.kernel)
    value = getattr(args, param)
    if param == "measure":
        value = measures.MeasureModel(value)
    return kernels.KernelSpec(args.kernel, **{param: value})


def _real(path: str, values) -> np.ndarray:
    """values read from path as a float array; a complex or non-numeric
    value (a two-column value file, a complex-disk point) raises ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{path}: expected real values, got {arr.dtype}")
    return arr.astype(float)


def _matrix_input(args) -> np.ndarray:
    """Matrix either directly from CSV or as a kernel Gram on points."""
    if args.matrix:
        return fileio.read_matrix(args.matrix)
    if args.kernel and args.points:
        spec = _build_kernel(args)
        return kernels.gram(spec, fileio.read_points(args.points)).entries
    raise ValueError("provide either --matrix, or --kernel with --points")


# ---------------------------------------------------------------------------
# command handlers: each returns a report payload dict or CSV text


def _cmd_gram(args):
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    g = kernels.gram(spec, sample).entries
    if args.format == "json":
        return {"matrix": fileio.matrix_json(g, sample.points)}
    return fileio.format_matrix(g)


def _cmd_chol(args):
    arr = _matrix_input(args)
    factor = factorize.cholesky(arr, ridge=args.ridge, tol=args.tol)
    if args.format == "json":
        return {"L": fileio.matrix_json(factor.L), "ridge_used": factor.ridge_used}
    return fileio.format_matrix(factor.L)


def _cmd_inv(args):
    inv = factorize.inverse_gram(_matrix_input(args))
    if args.format == "json":
        return {"inverse": fileio.matrix_json(inv)}
    return fileio.format_matrix(inv)


def _cmd_eig(args):
    arr = _matrix_input(args)
    if args.method == "alt-chol":
        res = factorize.alt_cholesky_eigs(arr, max_iter=args.max_iter, tol=args.tol)
    else:
        res = factorize.jacobi_eigs(arr, tol=args.tol)
    return {
        "eigenvalues": res.eigenvalues,
        "iterations": res.iterations,
        "converged": res.converged,
    }


def _cmd_project(args):
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    values = fileio.read_values(args.values)
    evals = fileio.read_points(args.eval)
    out = rkhs.project(spec, sample, values, evals.points)
    return {"values": out} if args.format == "json" else fileio.format_values(out)


def _cmd_delta_test(args):
    spec = _build_kernel(args)
    levels = fileio.read_chain(args.chain_file)
    sample = kernels.SampleSet(points=levels[-1], chain=levels)
    rep = rkhs.delta_membership(
        spec, args.point, sample, cap=args.cap, growth=args.growth, rtol=args.rtol
    )
    return {
        "sequence": rep.sequence,
        "sup": rep.sup,
        "verdict": rep.verdict,
        "chain_levels": levels,
    }


def _cmd_graph(args):
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    g = rkhs.induced_graph(spec, sample, threshold=args.threshold)
    return {
        "vertices": [fileio.json_value(p) for p in sample.points],
        "weights": fileio.matrix_json(g.weights),
        "edges": [list(e) for e in g.edges],
        "threshold": g.threshold,
    }


def _cmd_interpolate(args):
    rows = np.atleast_2d(_real(args.data, fileio.read_matrix(args.data)))
    if rows.shape[1] != 2:
        raise ValueError(f"{args.data}: --data needs x,y rows, got {rows.shape[1]} columns")
    data = [(float(x), float(y)) for x, y in rows]
    f, norm_sq = rkhs.min_norm_interpolant(data)
    payload = {
        "knots_x": f.knots_x,
        "knots_y": f.knots_y,
        "norm_sq": norm_sq,
    }
    if args.eval:
        grid = _real(args.eval, fileio.read_points(args.eval).points)
        payload["eval_points"] = grid
        payload["values"] = f(grid)
    return payload


def _cmd_cantor_cdf(args):
    if args.grid_file:
        xs = _real(args.grid_file, fileio.read_points(args.grid_file).points)
    elif args.grid_n < 2:
        raise ValueError(f"--grid-n must be at least 2, got {args.grid_n}")
    else:
        xs = np.array([k / (args.grid_n - 1) for k in range(args.grid_n)])
    return fileio.format_matrix(np.column_stack((xs, measures.cdf(measures.cantor4(), xs))))


def _cmd_cantor_cells(args):
    part = measures.cells(measures.MeasureModel(args.measure), args.depth)
    return fileio.format_matrix(np.column_stack((part.lefts, part.rights, part.masses)))


def _cmd_cantor_spectrum(args):
    return fileio.format_ints(measures.lambda4(args.limit).values)


def _cmd_cantor_fourier_gram(args):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    lams = list(measures.lambda4(args.limit).values[: args.count])
    g = measures.fourier_gram(lams, args.resolution, allow_any=args.allow_any)
    off = g.entries - np.diag(np.diag(g.entries))
    return {
        "lams": [int(v) for v in lams],
        "matrix": fileio.matrix_json(g.entries),
        "off_diagonal_max": float(np.max(np.abs(off))) if g.n > 1 else 0.0,
    }


def _cmd_cantor_gen_fn(args):
    prod, total, gap = measures.generating_function(complex(args.s_re, args.s_im), args.trunc)
    return {"product": prod, "sum": total, "gap_bound": gap, "difference": abs(prod - total)}


def _cmd_simulate(args):
    pair, _ = _EXAMPLES[args.example](args.trunc)
    grid = fileio.read_points(args.grid_file).points
    ens = gpsim.ito_synthesize(pair, args.resolution, grid, args.paths, args.seed)
    return fileio.format_matrix(ens.paths)


def _example_duality(args, **tols):
    pair, spec = _EXAMPLES[args.example](args.trunc)
    grid = fileio.read_points(args.grid_file).points
    return gpsim.duality_check(
        pair, spec, grid, args.resolution, args.paths, args.seed, **tols
    )


def _cmd_covcheck(args):
    rep = _example_duality(args)
    return {"max_abs_error": rep.mc_error, "tolerance": rep.mc_tol, "pass": rep.mc_pass}


def _cmd_qvar(args):
    m = measures.MeasureModel(args.measure)
    rep = gpsim.quadratic_variation(
        m, tuple(args.interval), args.resolutions, args.paths, args.seed
    )
    return {
        "mu": rep.mu,
        "resolutions": rep.resolutions,
        "mean_q": rep.mean_q,
        "e_sq": rep.e_sq,
        "expected_e_sq": rep.expected_e_sq,
        "n_cells": rep.n_cells,
    }


def _cmd_duality(args):
    rep = _example_duality(args, quad_tol=args.quad_tol, mc_tol=args.mc_tol)
    return {
        "kernel_family": rep.kernel_family,
        "quad_error": rep.quad_error,
        "quad_tolerance": rep.quad_tol,
        "quad_pass": rep.quad_pass,
        "mc_error": rep.mc_error,
        "mc_tolerance": rep.mc_tol,
        "mc_pass": rep.mc_pass,
        "pass": rep.passed,
    }


def _cmd_frame_check(args):
    if (args.test_points is None) == (args.test is None):
        raise ValueError("frame check needs one of --test-points and --test")
    spec = _build_kernel(args)
    s = args.set if args.set in ("integers", "positive-integers") else None
    sample = s or fileio.read_points(args.set)
    if args.test is None:
        tests = fileio.read_points(args.test_points).points
    else:
        tests = [float(x) for x in args.test]
    rep = sampling.parseval_check(spec, sample, tests, args.truncation, tol=args.tol)
    return {
        "a": rep.a,
        "b": rep.b,
        "parseval_deficit": rep.parseval_deficit,
        "deficits": rep.deficits,
        "test_points": rep.test_points,
        "tail_bound": rep.tail_bound,
        "verdict": rep.verdict,
    }


def _cmd_frame_bounds(args):
    spec = _build_kernel(args)
    a, b = sampling.frame_bounds(spec, fileio.read_points(args.points))
    return {"a": a, "b": b}


def _cmd_frame_reconstruct(args):
    spec = _build_kernel(args)
    sample = fileio.read_points(args.points)
    samples = fileio.read_values(args.samples)
    evals = fileio.read_points(args.eval)
    out = sampling.frame_reconstruct(spec, sample, samples, evals.points)
    return {"values": out} if args.format == "json" else fileio.format_values(out)


def _cmd_witness(args):
    if args.rule == "custom" and not args.slopes:
        raise ValueError("--rule custom needs --slopes")
    if args.slopes and args.rule != "custom":
        raise ValueError("--slopes needs --rule custom")
    knots = _real(args.knots, fileio.read_values(args.knots))
    rule = args.rule
    if args.slopes:
        rule = _real(args.slopes, fileio.read_values(args.slopes))
    w = sampling.sawtooth_witness(knots, rule)
    payload = {
        "knots": w.knots,
        "slopes": w.slopes,
        "norm_sq": w.norm_sq,
        "knot_inner_products": w.knot_inner_products(),
    }
    if args.eval:
        grid = _real(args.eval, fileio.read_points(args.eval).points)
        payload["eval_points"] = grid
        payload["values"] = w(grid)
    return payload


# ---------------------------------------------------------------------------
# parser


def _command(subs, name, handler, help=None, default_format=None):
    """Declare one (sub)command: its parser, --out, and what `_emit` needs.

    The report name is the parser's prog less the program name, e.g.
    "frame check".  default_format: the default of its --format flag (csv
    or json), or None for a command without one.
    """
    p = subs.add_parser(name, help=help)
    if default_format:
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(handler=handler, report=p.prog.partition(" ")[2], parser=p)
    return p


def _add_kernel_flags(p, required: bool = True):
    p.add_argument("--kernel", required=required, choices=kernels.FAMILIES)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--measure", default="lebesgue", choices=measures.KINDS)


def _add_matrix_input_flags(p):
    p.add_argument("--matrix", help="matrix CSV (no header)")
    _add_kernel_flags(p, required=False)
    p.add_argument("--points", help="points CSV (used with --kernel)")


def _add_example_flags(p):
    p.add_argument("--example", required=True, choices=tuple(_EXAMPLES))
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--grid-file", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernel-forge",
        description="Kernel, measure, and Gaussian-process toolkit",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap of the Monte Carlo draw engine (numpy's OpenBLAS is "
        "held to one thread while the Ito sum's draws are made and mixed); "
        "results never depend on it; falls back to KERNEL_FORGE_THREADS, "
        "then usable cores",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _command(subs, "gram", _cmd_gram,
                 help="kernel Gram matrix on a point set", default_format="csv")
    _add_kernel_flags(p)
    p.add_argument("--points", required=True)

    p = _command(subs, "chol", _cmd_chol, help="Cholesky factor", default_format="csv")
    _add_matrix_input_flags(p)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="relative pivot tolerance: a pivot below tol * max|G_ii| fails",
    )

    p = _command(subs, "inv", _cmd_inv, help="inverse Gram matrix", default_format="csv")
    _add_matrix_input_flags(p)

    p = _command(subs, "eig", _cmd_eig, help="eigenvalues (alternating Cholesky or Jacobi)")
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

    p = _command(subs, "project", _cmd_project,
                 help="orthogonal projection onto a sample span", default_format="json")
    _add_kernel_flags(p)
    p.add_argument("--points", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--eval", required=True)

    p = _command(subs, "delta-test", _cmd_delta_test,
                 help="Dirac-mass membership along a chain")
    _add_kernel_flags(p)
    p.add_argument("--point", type=float, required=True)
    p.add_argument("--chain-file", required=True)
    p.add_argument("--cap", type=float, default=rkhs.MEMBERSHIP_CAP)
    p.add_argument("--growth", type=float, default=rkhs.MEMBERSHIP_GROWTH)
    p.add_argument("--rtol", type=float, default=1e-6)

    p = _command(subs, "graph", _cmd_graph, help="graph induced by the inverse Gram")
    _add_kernel_flags(p)
    p.add_argument("--points", required=True)
    p.add_argument("--threshold", type=float, default=None)

    p = _command(subs, "interpolate", _cmd_interpolate,
                 help="minimal-norm piecewise-linear interpolant")
    p.add_argument("--data", required=True, help="CSV rows x,y")
    p.add_argument("--eval", help="points CSV of evaluation abscissae")

    p = subs.add_parser("cantor", help="Cantor-measure utilities")
    csubs = p.add_subparsers(dest="cantor_command", required=True)
    c = _command(csubs, "cdf", _cmd_cantor_cdf)
    c.add_argument("--grid-file")
    c.add_argument("--grid-n", type=int, default=257)
    c = _command(csubs, "cells", _cmd_cantor_cells)
    c.add_argument("--measure", default="cantor4", choices=measures.KINDS)
    c.add_argument("--depth", type=int, required=True)
    c = _command(csubs, "spectrum", _cmd_cantor_spectrum)
    c.add_argument("--limit", type=int, required=True)
    c = _command(csubs, "fourier-gram", _cmd_cantor_fourier_gram)
    c.add_argument("--count", type=int, default=8)
    c.add_argument("--limit", type=int, default=1024)
    c.add_argument("--resolution", type=int, default=12)
    c.add_argument("--allow-any", action="store_true")
    c = _command(csubs, "gen-fn", _cmd_cantor_gen_fn)
    c.add_argument("--s-re", type=float, required=True)
    c.add_argument("--s-im", type=float, default=0.0)
    c.add_argument("--trunc", type=int, default=8,
                   help="product factors; the sum side costs 2**trunc terms")

    p = _command(subs, "simulate", _cmd_simulate, help="synthesize sample paths")
    _add_example_flags(p)

    p = _command(subs, "covcheck", _cmd_covcheck, help="empirical covariance vs kernel")
    _add_example_flags(p)

    p = _command(subs, "qvar", _cmd_qvar, help="quadratic variation across resolutions")
    p.add_argument("--measure", default="lebesgue", choices=measures.KINDS)
    p.add_argument("--interval", type=float, nargs=2, required=True)
    p.add_argument("--resolutions", type=int, nargs="+", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = _command(subs, "duality", _cmd_duality, help="factorization duality check, both halves")
    _add_example_flags(p)
    p.add_argument("--quad-tol", type=float, default=None)
    p.add_argument("--mc-tol", type=float, default=None)

    p = subs.add_parser("frame", help="Parseval checks, bounds, reconstruction")
    fsubs = p.add_subparsers(dest="frame_command", required=True)
    f = _command(fsubs, "check", _cmd_frame_check)
    _add_kernel_flags(f)
    f.add_argument("--set", required=True,
                   help="'integers', 'positive-integers', or a points CSV")
    f.add_argument("--test-points", help="points CSV of test locations")
    f.add_argument("--test", type=float, nargs="+", help="inline test locations")
    f.add_argument("--truncation", type=int, required=True)
    f.add_argument("--tol", type=float, default=1e-4)
    f = _command(fsubs, "bounds", _cmd_frame_bounds)
    _add_kernel_flags(f)
    f.add_argument("--points", required=True)
    f = _command(fsubs, "reconstruct", _cmd_frame_reconstruct, default_format="json")
    _add_kernel_flags(f)
    f.add_argument("--points", required=True)
    f.add_argument("--samples", required=True)
    f.add_argument("--eval", required=True)

    p = subs.add_parser("witness", help="non-density witness construction")
    wsubs = p.add_subparsers(dest="witness_command", required=True)
    w = _command(wsubs, "sawtooth", _cmd_witness)
    w.add_argument("--knots", required=True, help="CSV of knot abscissae")
    w.add_argument("--rule", default="harmonic", choices=("harmonic", "custom"))
    w.add_argument("--slopes", help="CSV of slopes (with --rule custom)")
    w.add_argument("--eval", help="points CSV of evaluation abscissae")

    return parser


def _resolve_threads(args) -> int:
    """Worker cap from --threads, else KERNEL_FORGE_THREADS, else usable cores."""
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError("--threads must be a positive integer")
        return args.threads
    env = os.environ.get("KERNEL_FORGE_THREADS")
    if not env:
        return gpsim._usable_cores()
    try:
        value = int(env)
    except ValueError:
        value = 0  # reported below, like any count under 1
    if value < 1:
        raise ValueError(f"KERNEL_FORGE_THREADS must be a positive integer, got {env!r}")
    return value


# one parser per process: building it (24 subparsers) costs milliseconds,
# and parsing changes neither it nor its (immutable) defaults
_parser = functools.cache(build_parser)


def run(argv) -> int:
    """Parse argv, dispatch, and map failures to exit codes."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        with gpsim._capped_workers(_resolve_threads(args)):
            result = args.handler(args)
        _emit(args, result)
        return EXIT_OK
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
