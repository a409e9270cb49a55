"""Run one workload of the harmlab benchmark and print its metrics.

    python3 perfbench/run.py --workload px64 --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
start with ``#`` and record the environment, the workload, and the
value, percentile and sample count of each timing tail. A traced run also writes
its spans to ``.perfbench/traces/``. The exit code is 0 only when every
correctness check passed; it is 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# harmlab's generators take seeds in [0, 2**63) and the corpora use 2*seed+1,
# so every --seed, negative or huge, is mapped onto [0, 2**32)
SEED_RANGE = 2**32


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "harmlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, plan, seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None)
    return {
        "workload": args.workload, "seed": args.seed, "library_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "why": why, "plan": vars(plan),
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "git_sha": git_sha(), "src_sha256": src_sha256(),
    }


def main(argv=None, plans=None) -> int:
    # BLAS reads these when numpy is first imported, so they are set before it;
    # one BLAS thread keeps runs on a shared 2-CPU box steady.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HARMLAB_THREADS", None)
    if not (SRC / "harmlab" / "__init__.py").is_file():
        print(f"error: no harmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harmlab

    if Path(harmlab.__file__).resolve().parent != SRC / "harmlab":
        print(f"error: imported harmlab from {harmlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    plans = plans if plans is not None else workloads.PLANS
    args = parse_args(argv, plans)
    plan = plans[args.workload].scaled(args.seconds)
    seed = args.seed % SEED_RANGE
    print("# env " + json.dumps(environment(args, plan, seed)), flush=True)

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    checks = workloads.Checks()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        outcome = workloads.run(plan, seed, work, tracer, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = tracer.layer_metrics(outcome.suite_untraced_s)
        outcome.notes["trace_overhead_frac"] = {"suite_untraced_s": outcome.suite_untraced_s}
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# trace {trace_path.relative_to(ROOT)}")
    else:
        metrics = outcome.metrics
    for name, note in outcome.notes.items():
        print(f"# {name} {json.dumps(note)}")
    print(f"# ops_failed_frac {checks.failed / max(checks.attempted, 1)}")
    for what in checks.failures:
        print(f"# FAILED {what}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
