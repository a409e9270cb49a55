"""Smoke tests of the benchmark itself: every workload at toy size, traced and
untraced, seeds outside the library's range, plus the failure paths. Run with
``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))  # what run.main does before importing the workloads
HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy_plans():
    import workloads

    small = dict(train_count=4, eval_count=4, epochs=3, warmup=1, eval_rounds=1, harmonize_calls=3)
    return {
        "px64": replace(workloads.PLANS["px64"], size=32, **small),
        "px128": replace(workloads.PLANS["px128"], size=32, **small),
    }


def run_toy(capsys, workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "40", "--trace", str(trace)]
    code = run.main(argv, plans=toy_plans())
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_toy_size(capsys, workload, trace):
    code, result = run_toy(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("seed", [-3, 2**64 + 3])
def test_any_integer_seed(capsys, seed):
    code, result = run_toy(capsys, "px128", 0, seed)
    assert code == 0 and result["correct"]


def test_corrupted_output_counts_as_failure(capsys, monkeypatch):
    import harmlab.training
    from harmlab.imaging import Image

    honest = harmlab.training.unet_forward

    def corrupt(model, composite, mask, semantic):
        px = honest(model, composite, mask, semantic).pixels.copy()
        y, x = np.argwhere(mask.values == 0)[0]
        px[y, x, 0] = 1.0 - px[y, x, 0]
        return Image(px)

    monkeypatch.setattr(harmlab.training, "unet_forward", corrupt)
    code, result = run_toy(capsys, "px64", 0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 4  # every evaluated held-out sample


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "px64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
