"""The demo scripts run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Demo 04 runs every sequential pipeline and takes about half a minute;
# tests/test_experiments.py covers those modes at smaller sizes.
DEMOS = (
    "01_multiview_training.py",
    "02_vertical_federation.py",
    "03_horizontal_federation.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
