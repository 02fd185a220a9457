"""The scripts under scripts/ run to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("fractionality_sweep.py", ["--trials", "3"]),
        ("steepest_shape.py", ["--sizes", "4", "--seeds", "1"]),
        ("prox_layers.py", ["--instances", "4", "--repeats", "1"]),
    ],
)
def test_script_exits_cleanly(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
