"""The quick demos run end to end against the current API.

Demos 01-04 take about 5 s together.  05 (a 6.5 s training run) and 06
(which writes a sweep into demos/out) are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK = ("01_rotations_and_exponentials.py", "02_bracket_generation.py",
         "03_invariance_vs_drift.py", "04_gradient_check.py")


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
