"""The quick demos and the README's quick start run end to end against the current API.

Demos 01-04 take about 5 s together, and the quick start 3.5 s.  05 (a 6.5 s
training run) and 06 (which writes a sweep into demos/out) are left to be
run by hand.
"""

import os
import re
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


def test_readme_quick_start_prints_the_line_the_readme_states():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start\n.*?```python\n(.*?)```", readme, re.S).group(1)
    stated = re.search(r"This prints `([^`]*)`", readme).group(1)
    assert stated == "test mse 0.5370 -> 0.0038, worst defect 8.88e-16"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == stated + "\n"
