"""CLI surface: subcommands, exit codes, file formats, determinism.

Most tests drive `run()` in-process with --out files; a few go through the
installed console script to cover the real entry point.
"""

import argparse
import hashlib
import itertools
import json
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from conftest import child_env
from test_factorize import sweep_cholesky, sweep_inverse_gram

from kernel_forge import cli, factorize, fileio, gpsim


@pytest.fixture()
def points_file(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("real-line\n1.0\n2.0\n3.0\n")
    return str(p)


@pytest.fixture()
def unit_grid_file(tmp_path):
    p = tmp_path / "grid.csv"
    p.write_text("unit-interval\n0.25\n0.5\n0.75\n1.0\n")
    return str(p)


def run_to_file(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = cli.run(argv + ["--out", str(out)])
    return code, out.read_bytes()


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "kernel-forge" in capsys.readouterr().out


def test_unknown_flag_exits_two():
    assert cli.run(["gram", "--nonsense"]) == 2


def test_missing_subcommand_exits_two():
    assert cli.run([]) == 2


def test_missing_file_exits_two(tmp_path):
    assert cli.run(["gram", "--kernel", "brownian-min", "--points", "/no/such.csv"]) == 2


def test_numerical_failure_exits_one(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("1.0,2.0\n2.0,1.0\n")
    assert cli.run(["chol", "--matrix", str(m)]) == 1
    assert cli.run(["inv", "--matrix", str(m).replace("m.csv", "m.csv")]) in (1, 2)


def test_bad_threads_exits_two(points_file):
    assert cli.run(["--threads", "0", "gram", "--kernel", "brownian-min",
                    "--points", points_file]) == 2


def test_threads_env_fallback(tmp_path, points_file, monkeypatch):
    monkeypatch.setenv("KERNEL_FORGE_THREADS", "4")
    code, _ = run_to_file(tmp_path, ["gram", "--kernel", "brownian-min",
                                     "--points", points_file])
    assert code == 0
    monkeypatch.setenv("KERNEL_FORGE_THREADS", "-2")
    assert cli.run(["gram", "--kernel", "brownian-min",
                    "--points", points_file]) == 2


@pytest.mark.parametrize("value", ["0", "abc", " "])
def test_bad_threads_env_names_the_variable(points_file, monkeypatch, capsys, value):
    monkeypatch.setenv("KERNEL_FORGE_THREADS", value)
    assert cli.run(["gram", "--kernel", "brownian-min", "--points", points_file]) == 2
    err = capsys.readouterr().err
    assert f"KERNEL_FORGE_THREADS must be a positive integer, got {value!r}" in err


def test_threads_cap_never_exceeds_usable_cores(points_file, monkeypatch):
    # resolves the count only: no thread may start
    monkeypatch.delenv("KERNEL_FORGE_THREADS", raising=False)
    parser = cli.build_parser()
    cmd = ["gram", "--kernel", "brownian-min", "--points", points_file]
    threads = threading.active_count()
    cap = cli._resolve_threads(parser.parse_args(["--threads", "100000"] + cmd))
    assert cap == 100_000
    with gpsim._capped_workers(cap):
        assert gpsim._worker_count(10**9) == gpsim._usable_cores()
    # unset means usable cores
    assert cli._resolve_threads(parser.parse_args(cmd)) == gpsim._usable_cores()
    assert threading.active_count() == threads


@pytest.fixture()
def disk_grid_file(tmp_path):
    p = tmp_path / "disk.csv"
    p.write_text("complex-disk\n0.2,0.0\n0.1,0.3\n-0.5,0.25\n")
    return str(p)


@pytest.mark.parametrize("example", ["ex2", "ex3"])
@pytest.mark.parametrize("command", ["duality", "simulate"])
def test_mc_bytes_independent_of_threads_and_blocks(
    tmp_path, monkeypatch, disk_grid_file, example, command
):
    argv = [command, "--example", example, "--grid-file", disk_grid_file,
            "--resolution", "7", "--paths", "300", "--seed", "2"]
    # blocks of 7 paths: the block size sets the products' shape, so the
    # reference is made with it too
    monkeypatch.setattr(gpsim, "_BLOCK_NORMALS", 1000)
    code, ref = run_to_file(tmp_path, argv)
    assert code == 0
    pools = []

    class Recording(gpsim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    # a low threshold makes every job run on the pool
    monkeypatch.setattr(gpsim, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 4)
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    for threads in ("1", "2", "9"):
        code, raw = run_to_file(tmp_path, ["--threads", threads] + argv)
        assert code == 0 and raw == ref, threads
    assert set(pools) == {2, 4}


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_simulate_bytes_equal_with_and_without_blas_cap(
    tmp_path, monkeypatch, blas_threads, unit_grid_file, disk_grid_file, example
):
    # 3000 paths at resolution 10: pooled draws and multi-row BLAS products,
    # taken on two BLAS threads when the cap is bypassed
    grid = unit_grid_file if example == "ex1" else disk_grid_file
    argv = ["simulate", "--example", example, "--grid-file", grid,
            "--resolution", "10", "--paths", "3000", "--seed", "4"]
    code, capped = run_to_file(tmp_path, argv)
    assert code == 0
    monkeypatch.setattr(gpsim, "_blas_controls", lambda: None)  # not found
    code, bypassed = run_to_file(tmp_path, argv)
    assert code == 0 and bypassed == capped


# ---------------------------------------------------------------------------
# linear-algebra commands


def test_gram_csv(tmp_path, points_file):
    code, raw = run_to_file(tmp_path, ["gram", "--kernel", "brownian-min",
                                       "--points", points_file])
    assert code == 0
    assert raw == b"1.0,1.0,1.0\n1.0,2.0,2.0\n1.0,2.0,3.0\n"


def test_gram_json(tmp_path, points_file):
    code, raw = run_to_file(tmp_path, ["gram", "--kernel", "brownian-min",
                                       "--points", points_file, "--format", "json"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["schema"] == "kernel-forge/1"
    assert doc["matrix"]["n"] == 3


def test_gram_rejects_a_zero_kernel_parameter(tmp_path, disk_grid_file, capsys):
    ball = tmp_path / "ball.csv"
    ball.write_text("complex-vector(2)\n0.1,0.0,0.2,0.1\n0.0,0.3,-0.1,0.0\n")
    for flags, message in (
        (["--kernel", "cantor-product", "--trunc", "0", "--points", disk_grid_file],
         "cantor-product needs trunc >= 1"),
        (["--kernel", "drury-arveson", "--dim", "0", "--points", str(ball)],
         "drury-arveson needs dim >= 1"),
    ):
        assert cli.run(["gram"] + flags) == 2, flags
        assert message in capsys.readouterr().err


def test_chol_inv_consistency(tmp_path, points_file):
    _, chol_raw = run_to_file(tmp_path, ["chol", "--kernel", "brownian-min",
                                         "--points", points_file], "l.csv")
    assert chol_raw == b"1.0,0.0,0.0\n1.0,1.0,0.0\n1.0,1.0,1.0\n"
    _, inv_raw = run_to_file(tmp_path, ["inv", "--kernel", "brownian-min",
                                        "--points", points_file], "i.csv")
    inv_path = tmp_path / "i.csv"
    inv = fileio.read_matrix(str(inv_path))
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_allclose(inv, expected, atol=1e-9)


def test_chol_of_a_complex_gram_is_n_by_n(tmp_path):
    disk = tmp_path / "disk.csv"
    disk.write_text("complex-disk\n0.1,0.2\n-0.3,0.05\n0.5,-0.4\n0.0,0.0\n")
    docs = {}
    for command in ("chol", "gram"):
        code, raw = run_to_file(tmp_path, [command, "--kernel", "szego", "--points",
                                           str(disk), "--format", "json"], f"{command}.json")
        assert code == 0
        docs[command] = json.loads(raw)

    def matrix(doc):
        pairs = np.array(doc["entries"])
        return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["n"], doc["n"])

    assert docs["chol"]["L"]["n"] == 4
    lower, g = matrix(docs["chol"]["L"]), matrix(docs["gram"]["matrix"])
    assert np.all(np.triu(lower, 1) == 0.0)
    assert np.max(np.abs(lower @ lower.conj().T - g)) <= 1e-14 * np.max(np.abs(g))


def test_eig_methods_agree(tmp_path, points_file):
    outputs = []
    for method in ("alt-chol", "jacobi"):
        code, raw = run_to_file(
            tmp_path,
            ["eig", "--kernel", "brownian-min", "--points", points_file,
             "--method", method, "--max-iter", "100000"],
            f"{method}.json",
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["converged"] is True
        outputs.append(doc["eigenvalues"])
    np.testing.assert_allclose(outputs[0], outputs[1], atol=1e-8)


def test_project(tmp_path, points_file):
    vals = tmp_path / "vals.csv"
    vals.write_text("1.0\n1.5\n2.5\n")
    ev = tmp_path / "ev.csv"
    ev.write_text("real-line\n1.5\n2.5\n")
    code, raw = run_to_file(tmp_path, ["project", "--kernel", "brownian-min",
                                       "--points", points_file,
                                       "--values", str(vals), "--eval", str(ev)])
    assert code == 0
    assert json.loads(raw)["values"] == [1.25, 2.0]


@pytest.mark.parametrize("argv", [
    ["project", "--kernel", "brownian-min", "--values", "vals.csv"],
    ["frame", "reconstruct", "--kernel", "brownian-min", "--samples", "vals.csv"],
], ids=["project", "frame-reconstruct"])
def test_complex_values_on_a_real_kernel_stay_complex(tmp_path, monkeypatch, points_file, argv):
    # both routes are linear in the values: the imaginary part is projected
    # as the real part is, not dropped
    monkeypatch.chdir(tmp_path)
    (tmp_path / "vals.csv").write_text("1.0,0.5\n1.5,0.0\n2.5,-1.0\n")
    (tmp_path / "ev.csv").write_text("real-line\n1.5\n2.5\n")
    code, raw = run_to_file(tmp_path, argv + ["--points", points_file, "--eval", "ev.csv"])
    assert code == 0
    np.testing.assert_allclose(json.loads(raw)["values"], [[1.25, 0.25], [2.0, -0.5]],
                               rtol=0, atol=1e-12)


def test_graph(tmp_path, points_file):
    code, raw = run_to_file(tmp_path, ["graph", "--kernel", "brownian-min",
                                       "--points", points_file])
    assert code == 0
    assert json.loads(raw)["edges"] == [[0, 1], [1, 2]]


def test_delta_test(tmp_path):
    chain = tmp_path / "chain.csv"
    chain.write_text("-1.0,1.0\n-2.0,-1.0,1.0,2.0\n-3.0,-2.0,-1.0,1.0,2.0,3.0\n")
    code, raw = run_to_file(tmp_path, ["delta-test", "--kernel", "brownian-line",
                                       "--point", "1.0", "--chain-file", str(chain)])
    assert code == 0
    doc = json.loads(raw)
    assert doc["verdict"] == "member"
    assert doc["sup"] == pytest.approx(2.0, abs=1e-9)


def test_interpolate(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("1.0,1.0\n2.0,3.0\n")
    code, raw = run_to_file(tmp_path, ["interpolate", "--data", str(data)])
    assert code == 0
    assert json.loads(raw)["norm_sq"] == pytest.approx(5.0)


@pytest.mark.parametrize(
    "text,width",
    [("1.0\n2.0\n", 1), ("1.0,1.0,9.0\n2.0,3.0,9.0\n", 3)],
    ids=["one-column", "three-columns"],
)
def test_interpolate_needs_x_y_rows(tmp_path, capsys, text, width):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "out.json"
    assert cli.run(["interpolate", "--data", str(data), "--out", str(out)]) == 2
    assert f"{data}: --data needs x,y rows, got {width} columns" in capsys.readouterr().err
    assert not out.exists()


def test_interpolate_rejects_a_nan_eval_point(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("1.0,1.0\n2.0,3.0\n")
    grid = tmp_path / "eval.csv"
    grid.write_text("real-line\nnan\n0.5\n")
    out = tmp_path / "out.json"
    argv = ["interpolate", "--data", str(data), "--eval", str(grid), "--out", str(out)]
    assert cli.run(argv) == 2
    assert "interpolant domain is finite t >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv,domain", [
    (["witness", "sawtooth", "--knots", "knots.csv"], "witness domain is finite t"),
    (["interpolate", "--data", "data.csv"], "interpolant domain is finite t >= 0"),
], ids=["witness", "interpolate"])
def test_a_non_finite_eval_point_exits_2(tmp_path, monkeypatch, capsys, argv, domain, bad):
    # NaN and Infinity are not JSON: the point is rejected, not reported
    _golden_run(tmp_path, monkeypatch, GOLDEN_OUTPUTS[0][0])
    (tmp_path / "bad.csv").write_text(f"real-line\n0.4\n{bad}\n")
    out = tmp_path / "bad.json"
    assert cli.run(argv + ["--eval", "bad.csv", "--out", str(out)]) == 2
    assert f"{domain}, got {bad}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# measure commands


def test_cantor_cdf(tmp_path):
    code, raw = run_to_file(tmp_path, ["cantor", "cdf", "--grid-n", "5"])
    assert code == 0
    rows = [r for r in raw.decode().splitlines() if not r.startswith("#")]
    got = [float(r.split(",")[1]) for r in rows]
    assert got == [0.0, 0.5, 0.5, 1.0, 1.0]


@pytest.mark.parametrize("grid_n", ["1", "0", "-3"])
def test_cantor_cdf_needs_two_grid_points(tmp_path, capsys, grid_n):
    out = tmp_path / "cdf.csv"
    assert cli.run(["cantor", "cdf", "--grid-n", grid_n, "--out", str(out)]) == 2
    assert f"--grid-n must be at least 2, got {grid_n}" in capsys.readouterr().err
    assert not out.exists()


def test_cantor_spectrum(tmp_path):
    code, raw = run_to_file(tmp_path, ["cantor", "spectrum", "--limit", "66"])
    assert code == 0
    rows = [int(r) for r in raw.decode().splitlines() if not r.startswith("#")]
    assert rows == [0, 1, 4, 5, 16, 17, 20, 21, 64, 65]


def test_cantor_cells_mass(tmp_path):
    code, raw = run_to_file(tmp_path, ["cantor", "cells", "--depth", "6"])
    assert code == 0
    rows = [r for r in raw.decode().splitlines() if not r.startswith("#")]
    masses = [float(r.split(",")[2]) for r in rows]
    assert len(masses) == 64
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)


def test_cantor_gen_fn(tmp_path):
    code, raw = run_to_file(tmp_path, ["cantor", "gen-fn", "--s-re", "0.5",
                                       "--trunc", "3"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["product"] == pytest.approx([1.5937743186950684, 0.0])
    assert doc["difference"] < 1e-12


def test_cantor_fourier_gram(tmp_path):
    code, raw = run_to_file(tmp_path, ["cantor", "fourier-gram", "--count", "4",
                                       "--resolution", "10"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["lams"] == [0, 1, 4, 5]
    assert doc["off_diagonal_max"] <= 0.05


def test_cantor_fourier_gram_count_is_not_negative(tmp_path, capsys):
    # a slice [:-1] would drop the last frequency and exit 0
    out = tmp_path / "fg.json"
    assert cli.run(["cantor", "fourier-gram", "--count", "-1", "--out", str(out)]) == 2
    assert "--count must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    code, raw = run_to_file(tmp_path, ["cantor", "fourier-gram", "--count", "0"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["lams"] == [] and doc["matrix"]["entries"] == []


# ---------------------------------------------------------------------------
# simulation commands


def test_covcheck_passes(tmp_path, unit_grid_file):
    code, raw = run_to_file(tmp_path, ["covcheck", "--example", "ex1",
                                       "--paths", "20000", "--resolution", "8",
                                       "--grid-file", unit_grid_file, "--seed", "3"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["pass"] is True
    assert doc["max_abs_error"] <= doc["tolerance"]


def test_simulate_ex3_rejects_zero_trunc(tmp_path, disk_grid_file, capsys):
    assert cli.run(["simulate", "--example", "ex3", "--trunc", "0", "--paths", "4",
                    "--resolution", "3", "--grid-file", disk_grid_file]) == 2
    assert "cantor-product pairs need trunc >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["1.5,0.0", "0.0,1.0"])
@pytest.mark.parametrize("command", ["simulate", "duality"])
def test_a_grid_outside_the_pair_domain_exits_2(tmp_path, capsys, command, point):
    grid = tmp_path / "grid.csv"
    grid.write_text(f"complex-disk\n0.2,0.0\n{point}\n")
    out = tmp_path / "out.txt"
    assert cli.run([command, "--example", "ex2", "--paths", "4", "--resolution", "3",
                    "--grid-file", str(grid), "--out", str(out)]) == 2
    assert "szego requires |z| < 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "covcheck"])
def test_a_nan_grid_point_exits_2(tmp_path, capsys, command):
    grid = tmp_path / "grid.csv"
    grid.write_text("unit-interval\n0.5\nnan\n")
    out = tmp_path / "out.txt"
    assert cli.run([command, "--example", "ex1", "--paths", "4", "--resolution", "3",
                    "--grid-file", str(grid), "--out", str(out)]) == 2
    assert "nan" in capsys.readouterr().err
    assert not out.exists()


def test_qvar_rejects_zero_paths(capsys):
    assert cli.run(["qvar", "--interval", "0", "1", "--resolutions", "2",
                    "--paths", "0"]) == 2
    assert "n_paths must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("measure", ["lebesgue", "cantor4"])
def test_overlap_gram_rejects_a_nan_endpoint(tmp_path, capsys, measure):
    pts = tmp_path / "iset.csv"
    pts.write_text("interval-set\nnan,0.5\n0.0,1.0\n")
    out = tmp_path / "out.csv"
    assert cli.run(["gram", "--kernel", "overlap", "--measure", measure,
                    "--points", str(pts), "--out", str(out)]) == 2
    assert "nan" in capsys.readouterr().err
    assert not out.exists()


def test_qvar_expected_matches(tmp_path):
    code, raw = run_to_file(tmp_path, ["qvar", "--interval", "0", "1",
                                       "--resolutions", "4", "5",
                                       "--paths", "20000", "--seed", "1"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["expected_e_sq"] == pytest.approx([2.0**-3, 2.0**-4])
    np.testing.assert_allclose(doc["e_sq"], doc["expected_e_sq"], rtol=0.2)


def test_duality_ex3(tmp_path):
    grid = tmp_path / "disk.csv"
    grid.write_text("complex-disk\n0.2,0.0\n0.1,0.3\n")
    code, raw = run_to_file(tmp_path, ["duality", "--example", "ex3",
                                       "--grid-file", str(grid),
                                       "--resolution", "8", "--paths", "20000",
                                       "--seed", "5"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["pass"] is True
    assert doc["quad_error"] < 1e-12


# ---------------------------------------------------------------------------
# frames and witnesses


def test_frame_check(tmp_path):
    # the 1/N tail needs N at 5000 to clear the 1e-4 default tolerance
    code, raw = run_to_file(tmp_path, ["frame", "check", "--kernel", "shannon",
                                       "--set", "integers", "--truncation", "5000",
                                       "--test", "0.5"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["verdict"] == "parseval"


def test_frame_check_needs_tests(tmp_path):
    assert cli.run(["frame", "check", "--kernel", "shannon", "--set", "integers",
                    "--truncation", "100"]) == 2


def test_frame_bounds(tmp_path, points_file):
    code, raw = run_to_file(tmp_path, ["frame", "bounds", "--kernel", "brownian-min",
                                       "--points", points_file])
    assert code == 0
    doc = json.loads(raw)
    assert 0.0 < doc["a"] <= doc["b"]


def test_frame_reconstruct(tmp_path):
    s = tmp_path / "s.csv"
    s.write_text("real-line\n0.0\n1.0\n2.0\n3.0\n")
    vals = tmp_path / "v.csv"
    vals.write_text("0.0\n1.0\n0.0\n2.0\n")
    ev = tmp_path / "e.csv"
    ev.write_text("real-line\n2.5\n")
    code, raw = run_to_file(tmp_path, ["frame", "reconstruct", "--kernel", "shannon",
                                       "--points", str(s), "--samples", str(vals),
                                       "--eval", str(ev)])
    assert code == 0
    expected = float(np.sinc(2.5 - 1.0) + 2.0 * np.sinc(2.5 - 3.0))
    assert json.loads(raw)["values"][0] == pytest.approx(expected, abs=1e-10)


def test_witness(tmp_path):
    knots = tmp_path / "k.csv"
    knots.write_text("1.0\n2.0\n3.0\n")
    ev = tmp_path / "e.csv"
    ev.write_text("real-line\n1.0\n1.5\n2.0\n")
    code, raw = run_to_file(tmp_path, ["witness", "sawtooth", "--knots", str(knots),
                                       "--eval", str(ev)])
    assert code == 0
    doc = json.loads(raw)
    assert doc["norm_sq"] == pytest.approx(1.25)
    assert doc["values"][0] == 0.0 and doc["values"][2] == 0.0
    assert doc["values"][1] == pytest.approx(0.5)
    assert doc["knot_inner_products"] == [0.0, 0.0, 0.0]


def test_witness_custom_needs_slopes(tmp_path):
    knots = tmp_path / "k.csv"
    knots.write_text("1.0\n2.0\n")
    assert cli.run(["witness", "sawtooth", "--knots", str(knots),
                    "--rule", "custom"]) == 2


def test_witness_slopes_need_custom_rule(tmp_path, capsys):
    # the slopes would be used while the report records the harmonic rule
    knots = tmp_path / "k.csv"
    knots.write_text("1.0\n2.0\n3.0\n")
    slopes = tmp_path / "s.csv"
    slopes.write_text("3.0\n4.0\n")
    out = tmp_path / "w.json"
    assert cli.run(["witness", "sawtooth", "--knots", str(knots), "--slopes", str(slopes),
                    "--out", str(out)]) == 2
    assert "--slopes needs --rule custom" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# determinism (the console script itself)


def _script(args, env_extra=None):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kernel_forge"] + args,
        capture_output=True,
        env=env,
        timeout=120,
    )


def test_simulate_byte_identical(tmp_path, unit_grid_file):
    argv = ["simulate", "--example", "ex1", "--paths", "50", "--resolution", "6",
            "--grid-file", unit_grid_file, "--seed", "7"]
    a = _script(argv)
    b = _script(argv)
    c = _script(["--threads", "13"] + argv)
    d = _script(argv, env_extra={"KERNEL_FORGE_THREADS": "5"})
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout == d.stdout
    assert a.stdout.startswith(b"# ")


def test_eig_byte_identical_via_script(tmp_path, points_file):
    argv = ["eig", "--kernel", "brownian-min", "--points", points_file,
            "--method", "jacobi"]
    a = _script(argv)
    b = _script(argv)
    assert a.returncode == 0
    assert a.stdout == b.stdout


_SCIPY_PROBE = """
import json, sys
import kernel_forge, kernel_forge.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

pts, grid, d = sys.argv[1:]
loaded = {}
for name, argv in [
    ("gram", ["gram", "--kernel", "brownian-min", "--points", pts, "--format", "csv",
              "--out", d + "/g.csv"]),
    ("gram_json", ["gram", "--kernel", "brownian-min", "--points", pts, "--format", "json",
                   "--out", d + "/g.json"]),
    ("inv", ["inv", "--matrix", d + "/g.csv", "--format", "json", "--out", d + "/i.json"]),
    ("eig", ["eig", "--kernel", "brownian-min", "--points", pts, "--method", "jacobi",
             "--out", d + "/e.json"]),
    ("graph", ["graph", "--kernel", "brownian-min", "--points", pts, "--out", d + "/w.json"]),
    ("simulate", ["simulate", "--example", "ex1", "--paths", "50", "--resolution", "6",
                  "--grid-file", grid, "--seed", "7", "--out", d + "/s.csv"]),
]:
    assert cli.run(argv) == 0, name
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_a_draw_loads_scipy(tmp_path, points_file, unit_grid_file):
    # a fresh interpreter: in this one the tests have loaded scipy long ago
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, points_file, unit_grid_file, str(tmp_path)],
        capture_output=True, env=child_env(), timeout=120, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    for name in ("gram", "gram_json", "inv", "eig", "graph"):
        assert loaded[name] == [], name
    assert "scipy.special" in loaded["simulate"]


# ---------------------------------------------------------------------------
# config records


def _leaf_parsers(parser, words=()):
    """(argv words, parser) of every command that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(words), parser
        return
    for word, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, words + (word,))


def _required_argv(leaf):
    """The fewest flags the leaf parses: one value per required option."""
    argv = []
    for a in leaf._actions:
        if a.required and a.option_strings:
            if a.choices:
                value = str(next(iter(a.choices)))
            else:
                value = "1" if a.type in (int, float) else "x"
            argv += [a.option_strings[0]] + [value] * (a.nargs if isinstance(a.nargs, int) else 1)
    return argv


def test_config_records_every_declared_option():
    parser = cli.build_parser()
    leaves = list(_leaf_parsers(parser))
    assert len(leaves) == 21
    for words, leaf in leaves:
        args = parser.parse_args(words + _required_argv(leaf))
        declared = {a.dest for a in leaf._actions} - {"out", "help"}
        assert set(cli._config(args)) == declared, words


def test_simulate_header_records_trunc(tmp_path, disk_grid_file):
    heads = set()
    for trunc in (4, 8):
        code, raw = run_to_file(tmp_path, [
            "simulate", "--example", "ex3", "--trunc", str(trunc), "--paths", "4",
            "--resolution", "3", "--grid-file", disk_grid_file])
        assert code == 0
        head = raw.split(b"\n", 1)[0]
        assert json.loads(head[2:])["config"]["trunc"] == trunc
        heads.add(head)
    assert len(heads) == 2


def test_covcheck_reports_the_monte_carlo_half_of_duality(tmp_path, disk_grid_file):
    argv = ["--example", "ex3", "--trunc", "4", "--grid-file", disk_grid_file,
            "--resolution", "6", "--paths", "64", "--seed", "5"]
    _, cov = run_to_file(tmp_path, ["covcheck"] + argv, "cov.json")
    _, dual = run_to_file(tmp_path, ["duality"] + argv, "dual.json")
    cov, dual = json.loads(cov), json.loads(dual)
    assert (cov["max_abs_error"], cov["tolerance"], cov["pass"]) == (
        dual["mc_error"], dual["mc_tolerance"], dual["mc_pass"])


def test_covcheck_on_an_empty_grid_agrees_with_duality(tmp_path):
    grid = tmp_path / "empty.csv"
    grid.write_text("unit-interval\n")
    argv = ["--example", "ex1", "--grid-file", str(grid), "--resolution", "3",
            "--paths", "10"]
    code, cov = run_to_file(tmp_path, ["covcheck"] + argv, "cov.json")
    assert code == 0
    _, dual = run_to_file(tmp_path, ["duality"] + argv, "dual.json")
    cov, dual = json.loads(cov), json.loads(dual)
    assert cov["max_abs_error"] == dual["mc_error"] == 0.0
    assert cov["tolerance"] == dual["mc_tolerance"]


# ---------------------------------------------------------------------------
# golden bytes: sha256 of each command's output, so a change to how CSV or
# JSON text is built cannot move a byte.  Inputs use relative paths because
# reports and simulate headers echo them.

# 24 dyadic points near the circle |z| = 0.875, in 64ths
RING24 = [(56, 0), (52, 20), (42, 37), (40, 40), (23, 51), (4, 56), (0, 56), (-20, 52),
          (-37, 42), (-40, 40), (-51, 23), (-56, 4), (-56, 0), (-52, -20), (-42, -37),
          (-40, -40), (-23, -51), (-4, -56), (0, -56), (20, -52), (37, -42), (40, -40),
          (51, -23), (56, -4)]

GOLDEN_INPUTS = {
    "line.csv": "real-line\n0.1\n0.7\n1.3\n2.0\n3.3333333333333335\n",
    "disk.csv": "complex-disk\n0.1,0.2\n-0.3,0.05\n0.5,-0.4\n0.0,0.0\n",
    "grid.csv": "unit-interval\n0.125\n0.3\n0.5\n0.8\n1.0\n",
    "eval_line.csv": "real-line\n0.4\n1.0\n2.5\n",
    "eval_disk.csv": "complex-disk\n0.2,-0.1\n-0.05,0.3\n",
    "vals_line.csv": "1.0\n-0.5\n0.25\n2.0\n1e-05\n",
    "vals_disk.csv": "1.0,0.5\n-0.25,0.0\n0.125,-2.0\n3.0,1e16\n",
    "chain.csv": "-1.0,1.0\n-2.0,-1.0,1.0,2.0\n-3.0,-2.0,-1.0,1.0,2.0,3.0\n",
    "data.csv": "0.5,1.0\n1.5,-0.25\n2.0,3.0\n",
    "knots.csv": "0.5\n1.0\n2.25\n4.0\n",
    "slopes.csv": "1.0\n-0.5\n0.125\n",
    # several intervals per set, endpoints outside [0, 1] and in Cantor gaps
    "iset.csv": "interval-set\n0.0,0.1,0.3,0.55\n0.05,0.25\n-0.5,0.2,0.6,0.7,0.8,1.5\n"
                "0.5,0.75\n0.1234,0.9\n0.26,0.49,0.51,0.52,0.53125,0.5625\n",
    # mid-size eigen inputs: dyadic points, so no libm rounding reaches the
    # Gram's bytes; 41 points (odd, so Jacobi pads them) and 24
    "line41.csv": "real-line\n" + "".join(f"{k / 16 + 5 * k % 7 / 128!r}\n" for k in range(1, 42)),
    "ring24.csv": "complex-disk\n" + "".join(f"{x / 64!r},{y / 64!r}\n" for x, y in RING24),
}

GOLDEN_OUTPUTS = [
    (["gram", "--kernel", "brownian-min", "--points", "line.csv", "--format", "csv"],
     "d7c397c51037845b28303fbd225455fbc0b2c043a5232b89915ea7a6b448a612"),
    (["gram", "--kernel", "brownian-min", "--points", "line.csv", "--format", "json"],
     "fe887ade2d49ef1a4ed543c5ac6b007289ceedff5c3ed2824c11d974fe350f2e"),
    (["gram", "--kernel", "szego", "--points", "disk.csv", "--format", "csv"],
     "7d61f565587b82f909d91d69f7253d5d643f68ae8d7461fae7988c745a89945a"),
    (["gram", "--kernel", "szego", "--points", "disk.csv", "--format", "json"],
     "cfe36162467165b50c6efc8de15cd394cbc0b68217c2b7b553f8b8ebaf3ead60"),
    (["inv", "--matrix", "gram.csv", "--format", "json"],
     "5c80d4422e9e2f69b0b22b82a6892b1c8e3c92a4f6c9044d9376eb3c583e8bbf"),
    (["inv", "--matrix", "gram.csv", "--format", "csv"],
     "71b11ddc61923812c9b9e5b9f6e3071b1807211629a85aba9fdc5347df506eab"),
    (["chol", "--matrix", "gram.csv", "--format", "json"],
     "f0956ee744c43eec88ca9ea8eafe90483de486a8a1730337e2c81fbb826eaabf"),
    (["chol", "--kernel", "szego", "--points", "disk.csv", "--format", "json"],
     "cf717a72a430b4fd54d006cd7a087b5a45c0e87c469b8b0db305f8457717e74d"),
    (["simulate", "--example", "ex1", "--paths", "40", "--resolution", "5",
      "--grid-file", "grid.csv", "--seed", "11"],
     "2bf00c25ed78ed3e7bac2faa9d77e4fdb9ba18d2187d50a2a56cda2974996209"),
    (["simulate", "--example", "ex2", "--paths", "40", "--resolution", "5",
      "--grid-file", "disk.csv", "--seed", "11"],
     "1e1e873f72c62c223d327f1270030412c84ce2f10870d327132540da6b435d55"),
    (["project", "--kernel", "brownian-min", "--points", "line.csv",
      "--values", "vals_line.csv", "--eval", "eval_line.csv", "--format", "csv"],
     "49bddeb781311815dec45ffcae9d4ddcf886df164c81a1737699a6188576e40a"),
    (["project", "--kernel", "szego", "--points", "disk.csv",
      "--values", "vals_disk.csv", "--eval", "eval_disk.csv", "--format", "csv"],
     "748b4ed725a00448ea33860161a6554eca917ee59fc80de21f1d017fc9488bcd"),
    (["cantor", "cdf", "--grid-file", "grid.csv"],
     "d41fb0121f0afe466f00f7b01a7e0c3fecfedf18bb8c77ca7d4cfd5863004d38"),
    (["cantor", "cells", "--depth", "3"],
     "ab9ca2e0c800c3e230172b22ad4cd52cf3d901d681a100b6c78b2d0fb51a93a8"),
    (["cantor", "spectrum", "--limit", "1000"],
     "1a067a69dc1c11aaf95ab452025a0e66f5eea77775d0e8e04ff005f51d61bea5"),
    (["eig", "--matrix", "gram.csv", "--method", "alt-chol", "--max-iter", "100000"],
     "c50088c28f79d4934a7a82fac46aa19e59b32590684ad184fb8b5ed4e592a7a9"),
    (["eig", "--matrix", "gram.csv", "--method", "jacobi"],
     "1d0bf7349fe0c2b8eeec7ecb8e023eb1026c34ceabb0e207d053286151e6b9f0"),
    (["eig", "--kernel", "szego", "--points", "disk.csv", "--method", "jacobi"],
     "913982c1cd6e04d14e42b21c1708852c07ee04019b3fb55939a10c2179a9c49d"),
    (["eig", "--kernel", "szego", "--points", "disk.csv", "--method", "alt-chol"],
     "7b1fdb4d249fa4fa95ce451c4f4970cbf6c7806372bcc1e5e22b2b8d1c6842ca"),
    (["delta-test", "--kernel", "brownian-line", "--point", "1.0",
      "--chain-file", "chain.csv"],
     "b2ae5705486de8cd0214d42895b4cfe427028e9619c4424e92e19ddab6b57857"),
    (["graph", "--kernel", "brownian-min", "--points", "line.csv"],
     "aaa6ac733f01604e57aeae999368286f106f909f35713a1698a6794ff9e9cb5a"),
    (["interpolate", "--data", "data.csv", "--eval", "eval_line.csv"],
     "4ee970e2b4d0bd393b169943d50d1ed35176804b2e6c5c2f1953cb2d4244aba9"),
    (["cantor", "fourier-gram", "--count", "4", "--limit", "100", "--resolution", "8"],
     "9c40e4becd75237131abbbaada68b39ec0bb4059d20c38ed640d243258a2c23d"),
    (["cantor", "gen-fn", "--s-re", "0.5", "--s-im", "0.25", "--trunc", "3"],
     "e6c5349236f4f4450ec026d5b5daa521d69076548c49a310520d45e43da565af"),
    (["covcheck", "--example", "ex1", "--paths", "64", "--resolution", "6",
      "--grid-file", "grid.csv", "--seed", "3"],
     "f96cd7185e82c6f138cef539c99af250c5d9a4779eda5e2be651d3ef3f9d72ad"),
    (["qvar", "--measure", "cantor4", "--interval", "0", "0.25", "--resolutions", "2", "4",
      "--paths", "64", "--seed", "1"],
     "9aeb82271a0cb3c702e861939e110e8fe0d29252adae64154ec3885420cff59e"),
    (["duality", "--example", "ex3", "--grid-file", "disk.csv", "--resolution", "6",
      "--paths", "64", "--seed", "5", "--trunc", "4"],
     "f63744c5a9f18ab39bc608be764d1f324b2011b82498c8d4f7c4695340ad30e6"),
    (["frame", "check", "--kernel", "shannon", "--set", "integers",
      "--truncation", "200", "--test", "0.5", "0.25"],
     "85a5c634c300da0fefb4f9afb344f1600b445f7ba61c43b0568dd0d212358664"),
    (["frame", "check", "--kernel", "brownian-min", "--set", "line.csv",
      "--truncation", "10", "--test-points", "eval_line.csv"],
     "7a1db235b22292a402e926f29cb207903f6faca70c839b2437bdcf81438a24ef"),
    (["frame", "bounds", "--kernel", "brownian-min", "--points", "line.csv"],
     "94a54fb060a2b45d0a58cdba2837c769ef9399cc33b434f6c61ea43cc2b91bb1"),
    (["frame", "reconstruct", "--kernel", "shannon", "--points", "line.csv",
      "--samples", "vals_line.csv", "--eval", "eval_line.csv", "--format", "json"],
     "96496925601d0f86d0c4c610813a15cae9cb19f6c9364e451f6e82f91afd16a9"),
    (["frame", "reconstruct", "--kernel", "shannon", "--points", "line.csv",
      "--samples", "vals_line.csv", "--eval", "eval_line.csv", "--format", "csv"],
     "9f49fe226b031a1a63da44dfdbb517982199d03186b53b5d87f7b0ab4d12ce8d"),
    (["witness", "sawtooth", "--knots", "knots.csv", "--eval", "eval_line.csv"],
     "6014ce2f37afa16e837d90c10a9661dc543c856e4e75c2cfd01f314af310df01"),
    (["witness", "sawtooth", "--knots", "knots.csv", "--rule", "custom",
      "--slopes", "slopes.csv", "--eval", "eval_line.csv"],
     "205213282f4177101cfb2b089510d2036e756551cf25f7c1fddff520ef2ecab0"),
    (["gram", "--kernel", "overlap", "--measure", "cantor4", "--points", "iset.csv",
      "--format", "csv"],
     "18764d795c08e64663e60429390b9905a0970a812dea013487dd5f4316f1d36d"),
    (["gram", "--kernel", "overlap", "--measure", "lebesgue", "--points", "iset.csv",
      "--format", "json"],
     "1a4a46209a41326a72f9c07a98bfa3ccfe85ca38a83cbff8ff35e0e3bde1e32a"),
    (["eig", "--kernel", "brownian-min", "--points", "line41.csv", "--method", "jacobi"],
     "cc45730542fac8f61bec03628cfffd2c06217e04bc303c24e1a05c0743d4a302"),
    (["eig", "--kernel", "brownian-min", "--points", "line41.csv", "--method", "alt-chol"],
     "51a4c4799c8b02d43c2c917b5891e838499d438d6bb6aad1f4a1bd18d99de3ef"),
    (["eig", "--kernel", "szego", "--points", "ring24.csv", "--method", "jacobi"],
     "c0ec95fad74159795a27d41449a5f2776ea6891b5e16545ca69f6c2e39f60757"),
    (["eig", "--kernel", "szego", "--points", "ring24.csv", "--method", "alt-chol"],
     "70eaff82f612246a937732568d843791ccf735c491f7ea1c133d254a0c4cddde"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_OUTPUTS, ids=[
    "-".join(a for a in argv if not a.startswith("--")) for argv, _ in GOLDEN_OUTPUTS])
def test_cli_output_golden(tmp_path, monkeypatch, argv, digest):
    raw = _golden_run(tmp_path, monkeypatch, argv)
    assert hashlib.sha256(raw).hexdigest() == digest


def test_qvar_golden_bytes_at_any_thread_count(tmp_path, monkeypatch):
    # blocks of 8 paths, each on the pool: the workers write Q per path,
    # so neither the blocks nor --threads moves a byte of the golden
    (argv, digest), = [case for case in GOLDEN_OUTPUTS if case[0][0] == "qvar"]
    pools = []

    class Recording(gpsim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(gpsim, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(gpsim, "_usable_cores", lambda: 4)
    monkeypatch.setattr(gpsim, "_PARALLEL_MIN_NORMALS", 1)
    monkeypatch.setattr(gpsim, "_BLOCK_NORMALS", 8 * 16)
    for threads in ("1", "2"):
        raw = _golden_run(tmp_path, monkeypatch, ["--threads", threads] + argv)
        assert hashlib.sha256(raw).hexdigest() == digest, threads
    assert pools == [2]


def _golden_run(tmp_path, monkeypatch, argv) -> bytes:
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    assert cli.run(["gram", "--kernel", "brownian-min", "--points", "line.csv",
                    "--out", "gram.csv"]) == 0
    assert cli.run(argv + ["--out", "out.txt"]) == 0
    return (tmp_path / "out.txt").read_bytes()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    cli._parser.cache_clear()
    for argv, digest in GOLDEN_OUTPUTS[:8]:
        raw = _golden_run(tmp_path, monkeypatch, argv)
        assert hashlib.sha256(raw).hexdigest() == digest
        assert cli.run(argv + ["--no-such-flag"]) == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert _golden_run(tmp_path, monkeypatch, argv) == raw
    # 8 x 5 runs (each golden run writes gram.csv first), one build
    assert cli._parser.cache_info().misses == 1
    assert cli._parser.cache_info().hits == 39


def _float_option_runs(argv, action, bad):
    """argv with one value of a float option set to `bad`, one argv per
    value the option takes there; an option argv lacks is appended."""
    flag = action.option_strings[0]
    at = [i for i, word in enumerate(argv) if word in action.option_strings]
    if not at:
        yield argv + [flag] + [bad] * (action.nargs if isinstance(action.nargs, int) else 1)
        return
    start = at[0] + 1
    end = start
    while end < len(argv) and not argv[end].startswith("--"):
        end += 1
    for k in range(start, end):
        yield argv[:k] + [bad] + argv[k + 1:]


def test_no_float_option_writes_nan(tmp_path, monkeypatch, capsys):
    # every float option of every command, set to nan and then to inf on
    # each golden argv of the command: the run rejects the value (exit 2)
    # or succeeds without writing NaN
    _golden_run(tmp_path, monkeypatch, GOLDEN_OUTPUTS[0][0])
    out = tmp_path / "out.txt"
    guarded = []
    for words, leaf in _leaf_parsers(cli.build_parser()):
        floats = [a for a in leaf._actions if a.type is float]
        if not floats:
            continue
        argvs = [argv for argv, _ in GOLDEN_OUTPUTS if argv[: len(words)] == words]
        assert argvs, f"no golden argv covers {' '.join(words)}"
        for argv, action, bad in itertools.product(argvs, floats, ("nan", "inf")):
            for run in _float_option_runs(argv, action, bad):
                out.unlink(missing_ok=True)
                code = cli.run(run + ["--out", str(out)])
                assert code == 2 or (code == 0 and not _writes_non_finite(out)), (run, code)
        guarded.append(" ".join(words))
    capsys.readouterr()
    assert sorted(guarded) == ["cantor gen-fn", "chol", "delta-test", "duality", "eig",
                               "frame check", "graph", "qvar"]


def _writes_non_finite(out) -> bool:
    """Whether the output holds a NaN or Infinity token, which JSON lacks,
    or a CSV cell `nan` or `inf`."""
    return re.search(rb"NaN|Infinity|\bnan\b|\binf\b", out.read_bytes()) is not None


FILE_OPTIONS = ("--points", "--grid-file", "--eval", "--test-points", "--set", "--chain-file",
                "--matrix", "--data", "--knots", "--values", "--samples", "--slopes")
_FILE_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _number_rewrites(text, bad):
    """text with its first number, then its last, replaced by `bad`."""
    numbers = list(_FILE_NUMBER.finditer(text))
    for start, end in dict.fromkeys((numbers[0].span(), numbers[-1].span())):
        yield text[:start] + bad + text[end:]


def test_no_file_number_writes_nan(tmp_path, monkeypatch, capsys):
    # every file option of every command, on each golden argv of the
    # command that names a file there: the file's first, then its last
    # number set to nan, inf or -inf is rejected (exit 2), or the run
    # writes neither NaN nor Infinity
    _golden_run(tmp_path, monkeypatch, GOLDEN_OUTPUTS[0][0])
    out = tmp_path / "out.txt"
    with_files, guarded = [], set()
    for words, leaf in _leaf_parsers(cli.build_parser()):
        if not any(set(a.option_strings) & set(FILE_OPTIONS) for a in leaf._actions):
            continue
        with_files.append(" ".join(words))
        for argv, _ in GOLDEN_OUTPUTS:
            if argv[: len(words)] != words:
                continue
            for k in range(len(words), len(argv) - 1):
                source = tmp_path / argv[k + 1]
                if argv[k] not in FILE_OPTIONS or not source.is_file():
                    continue
                for bad in ("nan", "inf", "-inf"):
                    for text in _number_rewrites(source.read_text(), bad):
                        (tmp_path / "bad.csv").write_text(text)
                        run = argv[: k + 1] + ["bad.csv"] + argv[k + 2:]
                        out.unlink(missing_ok=True)
                        code = cli.run(run + ["--out", str(out)])
                        assert code == 2 or (code == 0 and not _writes_non_finite(out)), (
                            run, text, code)
                guarded.add(" ".join(words))
    capsys.readouterr()
    assert sorted(guarded) == sorted(with_files) == [
        "cantor cdf", "chol", "covcheck", "delta-test", "duality", "eig", "frame bounds",
        "frame check", "frame reconstruct", "gram", "graph", "interpolate", "inv", "project",
        "simulate", "witness sawtooth"]


@pytest.mark.parametrize("argv", [
    ["eig", "--method", "alt-chol", "--tol", "nan"],
    ["eig", "--method", "jacobi", "--tol", "nan"],
    ["chol", "--ridge", "nan"],
    ["chol", "--tol", "nan"],
], ids=["eig-alt-chol-tol", "eig-jacobi-tol", "chol-ridge", "chol-tol"])
def test_a_nan_tolerance_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # exit 2 (bad argument), not 1 (numerical failure), and no report
    _golden_run(tmp_path, monkeypatch, GOLDEN_OUTPUTS[0][0])
    out = tmp_path / "nan.json"
    assert cli.run(argv + ["--matrix", "gram.csv", "--out", str(out)]) == 2
    assert "must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


# each command with a value file (or data file), and the golden input
# whose second value a test replaces
VALUE_FILE_RUNS = [
    (["project", "--kernel", "brownian-min", "--points", "line.csv",
      "--values", "bad.csv", "--eval", "eval_line.csv"], "vals_line.csv"),
    (["frame", "reconstruct", "--kernel", "shannon", "--points", "line.csv",
      "--samples", "bad.csv", "--eval", "eval_line.csv"], "vals_line.csv"),
    (["witness", "sawtooth", "--knots", "knots.csv", "--rule", "custom",
      "--slopes", "bad.csv"], "slopes.csv"),
    (["interpolate", "--data", "bad.csv"], "data.csv"),
]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("argv,source", VALUE_FILE_RUNS,
                         ids=["project", "frame-reconstruct", "witness", "interpolate"])
def test_a_non_finite_value_file_entry_exits_2(tmp_path, monkeypatch, capsys, argv, source, bad):
    _golden_run(tmp_path, monkeypatch, GOLDEN_OUTPUTS[0][0])
    rows = GOLDEN_INPUTS[source].splitlines()
    rows[1] = ",".join(rows[1].split(",")[:-1] + [bad])
    (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "bad.json"
    assert cli.run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad.csv: line 2: NaN or infinite value" in err or "finite y, got" in err
    assert not out.exists()


# each command with an input that must be real, and a file that reads as
# complex: a complex cell, (re, im) value pairs, or complex-disk points
REAL_INPUT_RUNS = [
    (["interpolate", "--data", "bad.csv"], "0.5,1.0\n1.5,3+1j\n"),
    (["interpolate", "--data", "data.csv", "--eval", "bad.csv"], "complex-disk\n0.5,0.25\n"),
    (["witness", "sawtooth", "--knots", "bad.csv"], "0.5,0.0\n1.0,0.0\n2.25,0.0\n"),
    (["witness", "sawtooth", "--knots", "knots.csv", "--rule", "custom",
      "--slopes", "bad.csv"], "1.0,0.5\n-0.5,0.0\n0.125,0.0\n"),
    (["witness", "sawtooth", "--knots", "knots.csv", "--eval", "bad.csv"],
     "complex-disk\n0.5,0.25\n"),
    (["cantor", "cdf", "--grid-file", "bad.csv"], "complex-disk\n0.5,0.25\n"),
]


@pytest.mark.parametrize("argv,text", REAL_INPUT_RUNS, ids=[
    "interpolate-data", "interpolate-eval", "witness-knots", "witness-slopes",
    "witness-eval", "cantor-cdf-grid"])
def test_a_complex_input_that_must_be_real_exits_2(tmp_path, monkeypatch, capsys, argv, text):
    # neither dropped to its real part (exit 0) nor a TypeError (exit 1)
    _golden_run(tmp_path, monkeypatch, GOLDEN_OUTPUTS[0][0])
    (tmp_path / "bad.csv").write_text(text)
    out = tmp_path / "bad.out"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert "bad.csv: expected real values, got complex128" in capsys.readouterr().err
    assert not out.exists()


# The outputs that factor a Gram, with their digests when the factor came
# from the Python column sweep (tests/test_factorize.py keeps it as the
# oracle).  LAPACK rounds differently, so their numbers may move, but only
# by rounding: the text around the numbers is unchanged.
SWEEP_OUTPUTS = [
    (["inv", "--matrix", "gram.csv", "--format", "json"],
     "c1af32f4c0456f1e3b63ad3051031dcc333a6d634949ae0f288c5808befca153"),
    (["inv", "--matrix", "gram.csv", "--format", "csv"],
     "cb13f79424d932419284c1e50dfc40f6db3504bbc30c3b49d04a3e792494d69f"),
    (["chol", "--matrix", "gram.csv", "--format", "json"],
     "90022bca2f6d981b3b9f52120979c11fa24e274cc2c089caa18b45b76d26453a"),
    (["chol", "--kernel", "szego", "--points", "disk.csv", "--format", "json"],
     "490fe0a4f172f1cce976027b46eb252018b925120864969e7102fe3012c2fe00"),
    (["project", "--kernel", "brownian-min", "--points", "line.csv",
      "--values", "vals_line.csv", "--eval", "eval_line.csv", "--format", "csv"],
     "4f29d1206791f024bd10e83ece3805f321553c3e96c0f7478506d2e44b5b0006"),
    (["project", "--kernel", "szego", "--points", "disk.csv",
      "--values", "vals_disk.csv", "--eval", "eval_disk.csv", "--format", "csv"],
     "4a38b8ee3534ae5637d1d51a35b1cea003673eba3c3155580e2bb52fe017bb0b"),
    (["graph", "--kernel", "brownian-min", "--points", "line.csv"],
     "cdc91bfe9aff9b8b2d56b230c4f00143a3b4a32898a83d6690da45dbb32e386c"),
]

_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@pytest.mark.parametrize("argv,sweep_digest", SWEEP_OUTPUTS, ids=[
    "-".join(a for a in argv if not a.startswith("--")) for argv, _ in SWEEP_OUTPUTS])
def test_factor_outputs_stay_within_rounding_of_the_sweep(
    tmp_path, monkeypatch, argv, sweep_digest
):
    raw = _golden_run(tmp_path, monkeypatch, argv)
    oracles = ((factorize.cholesky, sweep_cholesky),
               (factorize.inverse_gram, sweep_inverse_gram),
               (factorize.solve_gram, lambda g, h: sweep_inverse_gram(g) @ h))
    for name, module in list(sys.modules.items()):
        if name == "kernel_forge" or name.startswith("kernel_forge."):
            for attr, value in list(vars(module).items()):
                for original, oracle in oracles:
                    if value is original:
                        monkeypatch.setattr(module, attr, oracle)
    swept = _golden_run(tmp_path, monkeypatch, argv)
    assert hashlib.sha256(swept).hexdigest() == sweep_digest
    assert _NUMBER.split(raw) == _NUMBER.split(swept)
    new = np.array([float(x) for x in _NUMBER.findall(raw)])
    old = np.array([float(x) for x in _NUMBER.findall(swept)])
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
