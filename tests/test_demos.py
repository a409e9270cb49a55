"""The demos run end to end against the current API.

Demo 04 trains for about a minute, demo 06 for about three, and demo 07 times
the decoder's layouts for about 40 seconds; all three are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmlab

SRC = Path(harmlab.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_autodiff_and_gradcheck.py",
        "02_synthetic_data_and_metrics.py",
        "03_normalization_blocks.py",
        "05_pairwise_ranking.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
