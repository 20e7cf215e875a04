"""The narrative demos run to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 05 is left out: it paces probes against loopback, so its timing depends on the host
DEMOS = ("01_trace_anatomy.py", "02_phase_and_profile.py", "03_latency_models.py",
         "04_window_study.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
