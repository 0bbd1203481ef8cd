"""The benchmark's harness: set-up, timed passes, checks and metrics.

A pass runs each op of the workload once, in order, in a closed loop with
one caller.  A run makes passes until `--seconds` is spent (at least
MIN_PASSES) and checks every op's result after each pass, outside the
timed region.

Timing estimator.  On a shared 2-vCPU cloud VM, other tenants slowed
Python-heavy code by up to a factor of two, in spells lasting from
milliseconds to minutes.  The median time of a pass moved by 20-30%
between runs there.  The least time of an op over a run's passes moved by
a few percent, unless one spell covered the whole run.  So an op's latency
is its least time over the run, and `wall_s` is the sum of those
latencies: one pass with the interference taken out.  The median pass wall
clock is printed in the context beside it.

The traced run alternates untraced and traced passes: spans come from the
traced ones, and `trace.overhead` compares the two kinds.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"  # scratch files of a run, and the span dumps
BENCH = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_PROBES = 5
SELF_SUM_TOL = 0.01  # span self times must sum to the traced pass wall clock


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_package():
    """Import kernel_forge from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "kernel_forge" / "__init__.py").is_file():
        raise BenchError(f"no kernel_forge package under {src}")
    sys.path.insert(0, str(src))
    import kernel_forge
    import kernel_forge.cli  # noqa: F401  (ops call kernel_forge.cli.run)

    if Path(kernel_forge.__file__).resolve().parent != (src / "kernel_forge").resolve():
        raise BenchError(f"kernel_forge was imported from {kernel_forge.__file__}")
    return kernel_forge


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# set-up


def setup(kf, name: str, seed: int, size: str):
    """Instrument the package, build the workload and warm every layer it uses.

    The warm-up is one pass of the same workload at tiny sizes.
    """
    inst = tracing.Instruments()
    inst.install()
    warm = workloads.build(name, kf, seed, "tiny", OUT / f"warm-{os.getpid()}")
    try:
        for op in warm.ops:
            try:
                op.call()
            except Exception:  # the timed passes report a failing op
                pass
    finally:
        warm.cleanup()
    wl = workloads.build(name, kf, seed, size, OUT / f"{name}-{os.getpid()}")
    inst.take_counts()
    inst.take_spans()
    return inst, wl


def probe_setup(name: str, seed: int, size: str) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters, from spawn to ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--size", size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe took over 120 s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


# ---------------------------------------------------------------------------
# passes


def run_pass(inst, wl, traced: bool) -> dict:
    """Run every op once, timing each; then check the results untimed."""
    results, times = {}, []
    inst.tracing = traced
    start = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            if traced:
                res = inst.span(tracing.OP_SPAN, op.call)
            else:
                res = op.call()
        except Exception as exc:  # a raising op is a failed op, not a dead run
            res = exc
        times.append(time.perf_counter() - t0)
        results[op.name] = res
    wall = time.perf_counter() - start
    inst.tracing = False
    counts = inst.take_counts()
    spans = inst.take_spans()

    failures, digests = {}, []
    for op in wl.ops:
        res = results[op.name]
        if isinstance(res, Exception):
            failures[op.name] = f"raised {type(res).__name__}: {res}"
            digests.append(None)
            continue
        try:
            msg = op.check(res, op.expected, results)
        except Exception as exc:  # a result the check cannot read is wrong
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            failures[op.name] = msg
        digests.append(op.digest(res))
    return {"traced": traced, "wall": wall, "times": times, "counts": counts,
            "spans": spans, "failures": failures, "digests": digests}


def run_passes(inst, wl, seconds: float, trace: bool) -> list:
    """Passes until `seconds` is spent; with tracing, alternate untraced/traced."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(inst, wl, traced))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        need = MIN_PASSES * (2 if trace else 1)
        if len(passes) >= need and elapsed + typical > seconds:
            return passes


def op_latencies(passes) -> list:
    """Each op's least time over the given passes."""
    return [min(col) for col in zip(*(p["times"] for p in passes))]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, setup_times) -> dict:
    lat = op_latencies(passes)
    q = statistics.quantiles([t * 1e3 for t in lat], n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "op_p50_ms": statistics.median(t * 1e3 for t in lat),
        "op_p90_ms": q[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, counts) -> tuple:
    """Per-layer metrics from the traced passes, plus the sanity findings."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    problems = []
    per_pass = []
    for p in traced:
        selfs, found = tracing.self_times(p["spans"])
        problems += found
        gap = abs(sum(selfs.values()) - p["wall"]) / p["wall"]
        if gap > SELF_SUM_TOL:
            problems.append(f"self times sum {gap:.2%} away from the pass wall clock")
        per_pass.append(selfs)
    names = {n for s in per_pass for n in s}
    least = {n: min(s.get(n, 0.0) for s in per_pass) for n in names}
    total = sum(least.values())

    m = {}
    for name, *_ in tracing.TARGETS:
        m[f"{name}.self_s"] = least.get(name, 0.0)
    for layer in tracing.LAYERS + ("bench",):
        own = sum(v for n, v in least.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_share"] = own / total if total else 0.0

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    for key in ("gpsim.normal_block.normals", "gpsim.normal_block.streams",
                "gpsim.ito_synthesize.mix_flops", "measures.cells.calls",
                "kernels.gram.entries", "kernels.cross_gram.entries",
                "factorize.jacobi_eigs.sweeps", "factorize.alt_cholesky_eigs.iterations",
                "factorize.cholesky.calls", "factorize.cholesky.ridge_nonzero",
                "fileio.format_matrix.bytes", "fileio.render_report.bytes"):
        m[key] = c(key)
    m["gpsim.normal_block.ns_per_normal"] = 1e9 * ratio(
        least.get("gpsim.normal_block", 0.0), c("gpsim.normal_block.normals"))
    m["kernels.ns_per_entry"] = 1e9 * ratio(
        least.get("kernels.gram", 0.0) + least.get("kernels.cross_gram", 0.0),
        c("kernels.gram.entries") + c("kernels.cross_gram.entries"))
    m["factorize.converged_ratio"] = ratio(
        c("factorize.jacobi_eigs.converged") + c("factorize.alt_cholesky_eigs.converged"),
        c("factorize.jacobi_eigs.calls") + c("factorize.alt_cholesky_eigs.calls"))
    m["trace.overhead"] = sum(op_latencies(traced)) / sum(op_latencies(plain)) - 1.0
    if any(p["digests"] != plain[0]["digests"] for p in traced):
        problems.append("traced op results differ from untraced ones")
    return m, problems


def dump_spans(passes, name: str, seed: int) -> str:
    """Write the traced passes' spans, times relative to each pass's start."""
    doc = []
    for p in passes:
        if p["traced"] and p["spans"]:
            t0 = p["spans"][0][2]
            doc.append([[n, parent, start - t0, end - t0] for n, parent, start, end in p["spans"]])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "parent", "start_s", "end_s"],
                                "passes": doc}))
    return str(path.relative_to(ROOT))


def _metric_spec(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(kf, args, t0: float) -> tuple:
    """One benchmark run; returns the context and the result line."""
    inst, wl = setup(kf, args.workload, args.seed, args.size)
    ready = time.monotonic()
    try:
        setup_times = [] if args.trace else probe_setup(args.workload, args.seed, args.size)
        passes = run_passes(inst, wl, args.seconds, bool(args.trace))
    finally:
        wl.cleanup()
        inst.uninstall()

    counts = passes[0]["counts"]
    problems = []
    if any(p["counts"] != counts for p in passes):
        problems.append("work counts differ between passes")
    if any(p["digests"] != passes[0]["digests"] for p in passes if not p["traced"]):
        problems.append("op results differ between passes")
    spans_file = None
    if args.trace:
        values, found = per_layer(passes, counts)
        problems += found
        spans_file = dump_spans(passes, args.workload, args.seed)
    else:
        values = end_to_end(passes, setup_times)

    metrics = {}
    for entry in _metric_spec(bool(args.trace)):
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}

    attempted = len(passes) * len(wl.ops)
    failed = sum(len(p["failures"]) for p in passes)
    failures = {}
    for p in passes:
        for op, msg in p["failures"].items():
            failures.setdefault(op, {"passes": 0, "message": msg})["passes"] += 1
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python_threads": threading.active_count(),
        "ops_per_pass": len(wl.ops),
        "sizes": wl.sizes,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "main_setup_s": ready - t0,
        "setup_probe_s": setup_times,
        "median_pass_wall_s": statistics.median(p["wall"] for p in passes if not p["traced"]),
        "op_least_ms": {op.name: t * 1e3 for op, t in zip(
            wl.ops, op_latencies([p for p in passes if not p["traced"]]))},
        "counts_per_pass": counts,
        "counts_note": "exact per pass; gpsim.ito_synthesize.mix_flops is computed from sizes",
        "fail_rate": failed / attempted,
        "failures": failures,
        "sanity_problems": problems,
        "spans_file": spans_file,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return context, result
