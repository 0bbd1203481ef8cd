"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench

Runs every workload, untraced and traced, as the benchmark command does,
and checks the result line against BENCHMARK.json.  It also breaks an
expected value on purpose (in this test only) to show that a wrong
result raises fail_rate above 0.
"""

import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(cwd: Path, *args):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@lru_cache(maxsize=None)
def _run(workload: str, trace: int, seed: int = 3):
    proc = _invoke(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_with_its_unit(workload, trace):
    context, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], context["failures"] or context["sanity_problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert context["fail_rate"] == 0.0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_across_runs_with_one_seed(workload):
    # two processes, one untraced and one traced: counting does not depend
    # on tracing, so the exact per-pass counts must agree
    plain, _ = _run(workload, 0)
    traced, _ = _run(workload, 1)
    assert plain["counts_per_pass"] == traced["counts_per_pass"]
    assert plain["counts_per_pass"]


def test_traced_run_is_sane():
    context, result = _run("kernel-linalg", 1)
    assert not context["sanity_problems"]
    assert context["traced_passes"] >= harness.MIN_PASSES
    shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)
    assert "trace.overhead" in result["metrics"]


@pytest.fixture
def tiny_linalg():
    kf = harness.load_package()
    inst, wl = harness.setup(kf, "kernel-linalg", 5, "tiny")
    yield inst, wl
    wl.cleanup()
    inst.uninstall()


def _failed(passes):
    return {name for p in passes for name in p["failures"]}


def test_broken_expected_value_raises_fail_rate(tiny_linalg):
    inst, wl = tiny_linalg
    assert not _failed(harness.run_passes(inst, wl, 0.01, False))
    ops = {op.name: op for op in wl.ops}
    recon = next(name for name in ops if name.startswith("frame_reconstruct"))
    jacobi = next(name for name in ops if name.startswith("jacobi"))
    ops[recon].expected = ops[recon].expected + 1e-6
    ops[jacobi].expected = ops[jacobi].expected * 1.01
    passes = harness.run_passes(inst, wl, 0.01, False)
    assert _failed(passes) == {recon, jacobi}
    failed = sum(len(p["failures"]) for p in passes)
    assert failed / (len(passes) * len(wl.ops)) > 0


def test_raising_op_counts_as_failed(tiny_linalg):
    inst, wl = tiny_linalg
    op = wl.ops[0]
    op.call = lambda: harness.load_package().cholesky([[1.0, 2.0], [2.0, 1.0]])
    assert _failed(harness.run_passes(inst, wl, 0.01, False)) == {op.name}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(tmp_path, "--workload", "mc-duality", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
