"""The four demos run to completion and print exactly what they printed
when pinned: a change that moves a demo's output shows up here."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
DEMO_STDOUT = {
    "01_brownian_structure.py":
        "a9bddb6b03c0146e1dba2d9fe93b8395ff9edb91b087ec1abe3a24b6906f6688",
    "02_cantor_staircase.py":
        "f5b6aa2c95d74d82a13feadffea805a18809facf94800606ffe6e4e70e31ce28",
    "03_duality_monte_carlo.py":
        "f9cd410a1e36c713070194dbcecb94e0a4f53a7d3e62a12c3a072f34b2fc799d",
    "04_sampling_frames.py":
        "7e4d90fd87c75510976ee379002ce4b824280d233dad4c02471d49b844cfcf63",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_stdout_is_pinned(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[name]
