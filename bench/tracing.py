"""Counters and spans around kernel_forge's public entry points.

`Instruments.install()` replaces each entry point listed in TARGETS with a
wrapper, in every kernel_forge module namespace that binds the original
(for example `gpsim.gram`, `rkhs.inverse_gram`, `sampling.jacobi_eigs` and
the package namespace itself) and, for methods, on the class.  Nothing
under `src/` changes; `uninstall()` puts the originals back.

Every wrapped call adds to exact work counters derived from its result,
traced or not.  While `tracing` is on, each call also records a span
(name, parent, start, end) in memory; spans are turned into self times
only after the pass that produced them ends.

`eval_kernel` and `RngSeedPolicy.raw` run once per matrix entry and once
per path, so they are not wrapped: the wrapper would cost more than they
do.  Their work shows in the counts of the calls that enclose them
(`kernels.gram.entries`, `gpsim.normal_block.streams`).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _entries_gram(res):
    return {"entries": res.n * (res.n + 1) // 2}


def _entries_cross(res):
    return {"entries": int(res.size)}


def _normal_block(res):
    # one Philox key per path, `count` normals per path
    return {"normals": int(res.size), "streams": int(res.shape[0])}


def _ito(res):
    # computed from sizes: z (paths x cells) @ mixer (cells x grid),
    # 2 flops per multiply-add, 4x for a complex mixer
    paths, grid = res.paths.shape
    cells = 1 << res.partition_resolution
    flops = 2 * paths * cells * grid * (4 if np.iscomplexobj(res.paths) else 1)
    return {"mix_flops": flops}


def _eigen(key):
    def count(res):
        return {key: int(res.iterations), "converged": int(res.converged)}

    return count


def _cholesky(res):
    return {"ridge_nonzero": int(res.ridge_used > 0.0)}


def _text_bytes(res):
    # the formats are ASCII, so characters are bytes
    return {"bytes": len(res)}


# (span name, module, attribute path, counter from the result or None)
TARGETS = (
    ("gpsim.normal_block", "gpsim", "RngSeedPolicy.normal_block", _normal_block),
    ("gpsim.feature_matrix", "gpsim", "FactorizationPair.feature_matrix", None),
    ("gpsim.ito_synthesize", "gpsim", "ito_synthesize", _ito),
    ("gpsim.empirical_covariance", "gpsim", "empirical_covariance", None),
    ("gpsim.duality_check", "gpsim", "duality_check", None),
    ("measures.cells", "measures", "cells", None),
    ("kernels.gram", "kernels", "gram", _entries_gram),
    ("kernels.cross_gram", "kernels", "cross_gram", _entries_cross),
    ("kernels.validate_psd", "kernels", "validate_psd", None),
    ("factorize.cholesky", "factorize", "cholesky", _cholesky),
    ("factorize.inverse_gram", "factorize", "inverse_gram", None),
    ("factorize.jacobi_eigs", "factorize", "jacobi_eigs", _eigen("sweeps")),
    ("factorize.alt_cholesky_eigs", "factorize", "alt_cholesky_eigs", _eigen("iterations")),
    ("rkhs.project", "rkhs", "project", None),
    ("rkhs.delta_membership", "rkhs", "delta_membership", None),
    ("rkhs.induced_graph", "rkhs", "induced_graph", None),
    ("sampling.parseval_check", "sampling", "parseval_check", None),
    ("sampling.frame_bounds", "sampling", "frame_bounds", None),
    ("sampling.frame_reconstruct", "sampling", "frame_reconstruct", None),
    ("fileio.read_points", "fileio", "read_points", None),
    ("fileio.read_matrix", "fileio", "read_matrix", None),
    ("fileio.format_matrix", "fileio", "format_matrix", _text_bytes),
    ("fileio.matrix_json", "fileio", "matrix_json", None),
    ("fileio.render_report", "fileio", "render_report", _text_bytes),
    ("cli.run", "cli", "run", None),
)

LAYERS = ("kernels", "factorize", "rkhs", "measures", "gpsim", "sampling", "fileio", "cli")

# name of the spans the benchmark itself opens around each op; their self
# time is the benchmark's glue between the op and the first wrapped call
OP_SPAN = "bench.op"


class Instruments:
    """Wrappers, per-pass counters and (when tracing) the span list."""

    def __init__(self):
        self.tracing = False
        self.counts = defaultdict(int)
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for name, module, attr, counter in TARGETS:
            mod = sys.modules[f"kernel_forge.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, counter))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, counter)
            for mname, m in list(sys.modules.items()):
                if mname != "kernel_forge" and not mname.startswith("kernel_forge."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, name, orig, counter):
        counts = self.counts
        calls_key = f"{name}.calls"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.tracing:
                result = self.span(name, orig, *args, **kwargs)
            else:
                result = orig(*args, **kwargs)
            counts[calls_key] += 1
            if counter is not None:
                for key, val in counter(result).items():
                    counts[f"{name}.{key}"] += val
            return result

        return wrapper

    # -- spans --------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name` (tracing must be on)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def take_counts(self) -> dict:
        out = dict(sorted(self.counts.items()))
        self.counts.clear()
        return out

    def take_spans(self) -> list:
        out, self.spans = self.spans, []
        return out


def self_times(spans):
    """Per-name self time of one pass, plus any nesting violations.

    A span's self time is its duration minus the durations of its direct
    children.  The run is single-threaded, so children must lie inside
    their parent and must not overlap each other.
    """
    child_sum = [0.0] * len(spans)
    last_end = {}
    problems = []
    for idx, (name, parent, start, end) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {idx} ({name}) has no valid end")
            continue
        if parent >= 0:
            p_name, _, p_start, p_end = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {idx} ({name}) leaves its parent {p_name}")
            child_sum[parent] += end - start
        if start < last_end.get(parent, -np.inf):
            problems.append(f"span {idx} ({name}) overlaps a sibling")
        last_end[parent] = end
    totals = defaultdict(float)
    for idx, (name, _, start, end) in enumerate(spans):
        own = end - start - child_sum[idx]
        if own < -1e-9:  # rounding of the subtraction, not a real gap
            problems.append(f"span {idx} ({name}) has negative self time {own:.3e}")
        totals[name] += own
    return dict(totals), problems
