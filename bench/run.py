"""kernel-forge benchmark: one workload per process, timed from outside.

    python3 bench/run.py --workload {mc-duality,kernel-linalg,cli-io} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from the
checkout's `src/`, never from anywhere else, and the run fails (exit 2,
no result line) when it is missing.

With `--trace 0` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with `--trace 1`, the per-layer metrics.  The
lines before it are the run's context as JSON: git SHA, versions, thread
settings, sizes, exact work counts per pass, and any failure op by op.
`harness.py` describes how the passes are timed.
"""

import time

_T0 = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes on Linux

import argparse
import json
import os
import signal
import sys

WORKLOADS = ("mc-duality", "kernel-linalg", "cli-io")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # tiny sizes, for the benchmark's self-test
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    # internal: set up once and print the monotonic time when ready
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cap_threads() -> None:
    """Keep BLAS/OpenMP threads at or below the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        want = os.environ.get(var, "")
        if not want.isdigit() or not 1 <= int(want) <= nproc:
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    args = _parse(argv)
    # exit through the finally blocks, which remove the run's scratch files
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    cap_threads()
    import harness  # loads numpy, which reads the thread caps once

    try:
        kf = harness.load_package()
        if args.setup_probe:
            inst, wl = harness.setup(kf, args.workload, args.seed, args.size)
            wl.cleanup()
            inst.uninstall()
            print(repr(time.monotonic()))
            return 0
        context, result = harness.run(kf, args, _T0)
    except (harness.BenchError, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(context, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
