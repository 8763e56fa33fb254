"""Demos 01-03 run to completion and print their headline result (each takes seconds)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("script, line", [
    ("01_spectrum_tiling.py", "of peak (exact copy)"),
    ("02_formation_grid.py", "zero_insert_stage3.pgm      zero_insert   3      1.0000"),
    ("03_selfsimilarity_separation.py", "0      0.6791           0.2788       1.0000"),
])
def test_demo_runs(tmp_path, script, line):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC))
    # the working directory is tmp_path: demo 02 writes formation_grid/ into it
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout, done.stdout
