"""The benchmark's traced toy runs, as a tier-1 guard.

A traced run (``perfbench/run.py --trace 1``) patches names in ``harmlab``'s
modules from the outside (``perfbench/spans.py``), so renaming or deleting a
function the tracer wraps can break the benchmark while every library test
still passes. This runs the two traced toy-size smoke tests of
``perfbench/test_smoke.py`` in a subprocess, about 7 s on a 2-CPU box.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = [f"perfbench/test_smoke.py::test_workload_at_toy_size[{workload}-1]" for workload in ("px64", "px128")]


def test_traced_toy_workloads_run():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TRACED], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "2 passed" in proc.stdout, proc.stdout[-4000:]
