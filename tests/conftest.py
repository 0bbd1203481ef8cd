"""Suite-wide guards and shared fixtures."""

import os
from pathlib import Path

import pytest

import kernel_forge
from kernel_forge import gpsim


def child_env() -> dict:
    """This process's environment, with the imported package's root first on
    PYTHONPATH, so that a `python -m kernel_forge` child runs the same code
    also from a checkout without an install."""
    env = dict(os.environ)
    root = str(Path(kernel_forge.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test after which numpy's OpenBLAS thread count has changed.

    The Monte Carlo path holds that count to one and must restore it, so a
    leak would silently slow every later product.  Without OpenBLAS there
    is nothing to check.
    """
    controls = gpsim._blas_controls()
    if controls is None:
        yield
        return
    get_n = controls[1]
    before = get_n()
    yield
    after = get_n()
    assert after == before, f"numpy's BLAS threads: {before} before the test, {after} after"


@pytest.fixture()
def blas_threads():
    """Reads numpy's OpenBLAS thread count, held at two for the test."""
    controls = gpsim._blas_controls()
    if controls is None:
        pytest.skip("numpy does not use OpenBLAS")
    set_n, get_n = controls
    previous = get_n()
    set_n(2)
    try:
        if get_n() != 2:
            pytest.skip("numpy's OpenBLAS cannot run two threads here")
        yield get_n
    finally:
        set_n(previous)
