"""Workload plans, the interleaved schedule, and correctness checks.

A run first sets up: it generates the seeded training and held-out corpora,
writes them as PPM/PGM, loads them back, builds one generator per block and
saves its checkpoint. Then it runs these tasks, each a stream of timed units:

* setup: further repetitions of the set-up above (``setup_s`` is the median);
* train.none, train.rain, train.srin: ``training.train`` from scratch at
  batch 1; one unit is one step;
* eval: ``training.evaluate`` of one block's model on a chunk of the held-out
  corpus;
* harmonize: one ``cli.dispatch(["harmonize", ...])`` call (checkpoint load,
  PPM/PGM read, forward, PPM write);
* suite: one ``verify.run_suite()``, once per run.

The units of all tasks are interleaved so that each task's units are spread
evenly over the whole run. The machine's speed drifts by tens of percent over
a few seconds when its neighbours are busy; a task run in one block of time
would see one state of that drift, while spread out it sees all of them, so
its median moves much less from run to run. ``train`` runs in its own thread
per block, which hands control back at every ``on_step`` call, so exactly one
thread runs at any time and each step runs uninterrupted.

The amount of work is fixed by the plan and the ``--seconds`` scale, never by
the clock, so a faster program finishes sooner, runs the same steps and
reaches the same losses.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from harmlab import blocks, cli, synthdata, tensor, training, unet, verify
from harmlab.imaging import read_ppm, write_pgm, write_ppm
from harmlab.synthdata import GenConfig, generate_dataset, load_dataset, write_dataset
from harmlab.training import TrainConfig, evaluate, train
from harmlab.unet import GeneratorModel, UNetConfig, downsample_mask, downsample_planar, load_checkpoint, save_checkpoint
from spans import NullTracer

BLOCKS = ("none", "rain", "srin")
BASE_CHANNELS = 16
SETUP_REPEATS = 9
ATTENTION_CHECKS = 4  # held-out samples whose srin attention is checked
REFERENCE_SECONDS = 40  # --seconds at which the plans below run unscaled

HARMLAB_MODULES = {
    "tensor": tensor, "blocks": blocks, "unet": unet, "training": training,
    "cli": cli, "synthdata": synthdata, "verify": verify,
}


@dataclass(frozen=True)
class Plan:
    """How much of each task one run does; counts scale with ``--seconds``."""

    size: int
    stages: int
    train_count: int  # training corpus; one epoch is this many batch-1 steps
    eval_count: int  # held-out corpus for evaluate and harmonize
    epochs: int  # per block; the loss check compares the first and last epoch
    warmup: int  # leading steps per block left out of the step timings
    eval_chunk: int  # held-out samples per evaluate call
    eval_rounds: int  # passes of every block's model over the held-out corpus
    harmonize_calls: int

    def scaled(self, seconds: float) -> "Plan":
        f = seconds / REFERENCE_SECONDS
        return replace(
            self,
            epochs=max(2, round(self.epochs * f)),
            eval_rounds=max(1, round(self.eval_rounds * f)),
            harmonize_calls=max(2, round(self.harmonize_calls * f)),
        )


PLANS = {
    # why each workload was chosen is in BENCHMARK.json. The loss check needs
    # each training sample seen many times: with 8 samples seen 3 times each
    # at 128 px the loss of `none` rose on 3 seeds in 200, and with 16 seen 8
    # times at 64 px it came within 9% of rising (perfbench/README.md).
    "px64": Plan(
        size=64, stages=3, train_count=8, eval_count=64, epochs=16, warmup=4,
        eval_chunk=8, eval_rounds=4, harmonize_calls=200,
    ),
    "px128": Plan(
        size=128, stages=2, train_count=4, eval_count=8, epochs=6, warmup=2,
        eval_chunk=2, eval_rounds=3, harmonize_calls=31,
    ),
}


class Checks:
    """Correctness checks; every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.failures.append(what)


@dataclass
class Setup:
    train: list
    held: list
    checkpoints: dict


@dataclass
class Outcome:
    """What one run measured: end-to-end values plus the details printed beside them."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: dict = field(default_factory=dict)
    suite_untraced_s: float = 0.0


def tail(xs) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    Below 21 samples that percentile would fall under the median, so the
    median is returned instead.
    """
    v = sorted(xs)
    k = max(len(v) - 11, len(v) // 2)
    return v[k], 100.0 * (k + 1) / len(v), len(v)


def timing(out: Outcome, name: str, ms: list) -> None:
    """Record the median of ``ms`` as metric ``name``, and its tail beside it.

    The tail is printed, not reported as a metric: on a shared machine it
    follows the neighbours' bursts, and moved by 40-50% between runs.
    """
    value, pct, n = tail(ms)
    out.metrics[name] = (statistics.median(ms), "ms")
    out.notes[name.replace("_ms", "_ms_tail", 1)] = {"value": value, "percentile": pct, "samples": n}


def same_samples(a, b) -> bool:
    return len(a) == len(b) and all(
        x.id == y.id and np.array_equal(x.mask.values, y.mask.values)
        and all(np.array_equal(getattr(x, f).pixels, getattr(y, f).pixels) for f in ("real", "composite", "semantic"))
        for x, y in zip(a, b)
    )


def background_kept(out_pixels: np.ndarray, composite, mask) -> bool:
    bg = mask.values == 0
    return bool(np.array_equal(out_pixels[bg], composite.pixels[bg]))


def checkpoint_roundtrip(path: Path, scratch: Path, tr) -> bool:
    with tr.span("unet.load_checkpoint"):
        model = load_checkpoint(path)
    with tr.span("unet.save_checkpoint"):
        save_checkpoint(model, scratch)
    return path.read_bytes() == scratch.read_bytes()


def identity_l1(samples) -> float:
    """Mean L1 of composite against ground truth: the loss of leaving the image alone."""
    return statistics.fmean(float(np.mean(np.abs(s.composite.pixels - s.real.pixels))) for s in samples)


# ---------------------------------------------------------------------------
# tasks and the schedule


class Task:
    """A fixed list of units, run one per turn."""

    def __init__(self, name: str, phase: str, units: list[Callable[[], None]]):
        self.name = name
        self.phase = phase
        self.units = units
        self.total = len(units)
        self.done = 0

    def run_unit(self) -> None:
        self.units[self.done]()
        self.done += 1

    def close(self) -> None:
        pass


class _Abort(Exception):
    pass


class TrainTask(Task):
    """``training.train`` in a thread that yields to the scheduler at every step.

    Unit k runs from the end of step k-1 (or the start of ``train``) to the
    ``on_step`` call of step k; one last unit lets ``train`` return.
    """

    def __init__(self, block: str, cfg: TrainConfig, samples: list, warmup: int, tr):
        super().__init__(f"train.{block}", "train", [])
        self.block = block
        self.total = cfg.steps + 1
        self.step_s: list[float] = []
        self.result = None
        self.error: Exception | None = None
        self._go = threading.Semaphore(0)
        self._back = threading.Semaphore(0)
        self._abort = False
        self._thread = threading.Thread(target=self._body, args=(cfg, samples, warmup, tr), name=self.name)

    def _body(self, cfg, samples, warmup, tr) -> None:
        woke = 0.0

        def resume() -> None:
            nonlocal woke
            self._go.acquire()
            if self._abort:
                raise _Abort()
            woke = time.perf_counter()
            tr.mark()

        def on_step(entry) -> None:
            self.step_s.append(time.perf_counter() - woke)
            tr.step(keep=len(self.step_s) > warmup)
            self._back.release()
            resume()

        try:
            resume()
            self.result = train(cfg, samples=samples, on_step=on_step)
        except _Abort:
            pass
        except Exception as exc:  # handed to the scheduler thread, which reports it
            self.error = exc
        finally:
            self._back.release()

    def run_unit(self) -> None:
        if self.done == 0:
            self._thread.start()
        self._go.release()
        self._back.acquire()
        self.done += 1
        if self.result is not None or self.error is not None:
            self._thread.join()
            self.done = self.total

    def close(self) -> None:
        if self._thread.is_alive():
            self._abort = True
            self._go.release()
            self._thread.join()


def interleave(tasks: list[Task], tr) -> None:
    """Run every unit, always picking the task furthest behind its even share of the run.

    Ties rotate, so tasks of equal length (the three trainers) take turns at
    following the other tasks' units, which leave colder caches behind.
    """
    try:
        for turn in itertools.count():
            live = [t for t in tasks if t.done < t.total]
            if not live:
                return
            lag = min((t.done + 0.5) / t.total for t in live)
            tied = [t for t in live if (t.done + 0.5) / t.total == lag]
            task = tied[turn % len(tied)]
            with tr.phase(task.phase), tr.span(f"unit.{task.name}"):
                task.run_unit()
    finally:
        for t in tasks:
            t.close()


def _timed(fn: Callable[[], object], sink: list) -> Callable[[], None]:
    def unit() -> None:
        t0 = time.perf_counter()
        fn()
        sink.append(time.perf_counter() - t0)

    return unit


def set_up(plan: Plan, seed: int, d: Path, tr) -> tuple[Setup, dict]:
    generated, loaded = {}, {}
    for name, gen_seed, count in (("train", 2 * seed, plan.train_count), ("held", 2 * seed + 1, plan.eval_count)):
        with tr.span("synthdata.generate_dataset"):
            generated[name] = generate_dataset(GenConfig(size=plan.size, seed=gen_seed), count)
        tr.count("synthdata.samples", count)
        with tr.span("synthdata.write_dataset"):
            write_dataset(generated[name], d / name)
    for name in generated:
        with tr.span("synthdata.load_dataset"):
            loaded[name] = load_dataset(d / name)
    checkpoints = {}
    for block in BLOCKS:
        with tr.span("unet.build"):
            model = GeneratorModel.build(UNetConfig(plan.size, plan.stages, BASE_CHANNELS, block), seed=seed)
        checkpoints[block] = d / f"{block}.ckpt"
        with tr.span("unet.save_checkpoint"):
            save_checkpoint(model, checkpoints[block])
    return Setup(loaded["train"], loaded["held"], checkpoints), generated


def eval_task(plan: Plan, setup: Setup, tr, checks: Checks, busy: dict) -> Task:
    models = {}
    for block in BLOCKS:
        with tr.span("unet.load_checkpoint"):
            models[block] = load_checkpoint(setup.checkpoints[block])
    chunks = [setup.held[i : i + plan.eval_chunk] for i in range(0, len(setup.held), plan.eval_chunk)]

    def unit(block: str, chunk: list) -> Callable[[], None]:
        def run_one() -> None:
            # evaluate returns only metrics, so the forward outputs it
            # produces are observed by wrapping the unet_forward it calls
            outputs = []
            inner = training.unet_forward

            def observed(model, composite, mask, semantic):
                img = inner(model, composite, mask, semantic)
                outputs.append((img, composite, mask))
                return img

            training.unet_forward = observed
            try:
                t0 = time.perf_counter()
                with tr.span("training.evaluate"):
                    evaluate(models[block], chunk)
                busy[block].append(time.perf_counter() - t0)
            finally:
                training.unet_forward = inner
            tr.count("eval.samples", len(chunk))
            checks.check(len(outputs) == len(chunk), f"evaluate {block}: {len(outputs)} of {len(chunk)} outputs")
            for img, comp, mask in outputs:
                checks.check(background_kept(img.pixels, comp, mask), f"evaluate {block}: background changed")

        return run_one

    return Task("eval", "serve", [unit(b, c) for _ in range(plan.eval_rounds) for c in chunks for b in BLOCKS])


def harmonize_task(plan: Plan, setup: Setup, work: Path, tr, checks: Checks, ms: list) -> Task:
    inputs = []
    for i, s in enumerate(setup.held[:8]):
        paths = {k: work / f"h{i}_{k}" for k in ("comp.ppm", "mask.pgm", "sem.ppm", "out.ppm")}
        write_ppm(s.composite, paths["comp.ppm"])
        write_pgm(s.mask, paths["mask.pgm"])
        write_ppm(s.semantic, paths["sem.ppm"])
        inputs.append((s, paths))
    sink = io.StringIO()

    def unit(call: int) -> Callable[[], None]:
        s, p = inputs[call % len(inputs)]
        argv = ["harmonize", "--ckpt", str(setup.checkpoints["srin"]), "--comp", str(p["comp.ppm"]),
                "--mask", str(p["mask.pgm"]), "--sem", str(p["sem.ppm"]), "--out", str(p["out.ppm"])]

        def run_one() -> None:
            with contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                with tr.span("cli.dispatch"):
                    code = cli.dispatch(argv)
                dt = time.perf_counter() - t0
            sink.seek(0)
            sink.truncate()
            ok = code == 0 and background_kept(read_ppm(p["out.ppm"]).pixels, s.composite, s.mask)
            checks.check(ok, f"harmonize call {call}: exit {code} or background changed")
            if call > 0:  # the first call is warm-up
                ms.append(1000.0 * dt)

        return run_one

    return Task("harmonize", "serve", [unit(i) for i in range(plan.harmonize_calls)])


def suite_once(checks: Checks, tr) -> None:
    with tr.span("verify.run_suite"):
        results = verify.run_suite()
    for r in results:
        checks.check(r.passed, f"gradcheck {r.name}: max_rel_err {r.max_rel_err:.3g}")


# ---------------------------------------------------------------------------
# after the schedule


def training_checks(plan: Plan, task: TrainTask, base_l1: float, work: Path, tr, checks: Checks, out: Outcome):
    """Check one block's training run and record its metrics; returns the trained model."""
    block, steps = task.block, task.total - 1
    if task.result is None:
        checks.check(False, f"train {block}: {task.error!r}", n=steps)
        return None
    model, history = task.result
    checks.check(len(history) == steps, f"train {block}: {len(history)} of {steps} steps", n=steps)
    losses = [e.loss for e in history]
    first = statistics.fmean(losses[: plan.train_count])
    last = statistics.fmean(losses[-plan.train_count:])
    checks.check(all(map(math.isfinite, losses)) and last < first,
                 f"train {block}: loss did not fall ({first:.6g} -> {last:.6g})")
    path = work / f"trained_{block}.ckpt"
    with tr.span("unet.save_checkpoint"):
        save_checkpoint(model, path)
    checks.check(checkpoint_roundtrip(path, work / "roundtrip.ckpt", tr), f"trained checkpoint {block} not bit-exact")
    timing(out, f"train_step_ms.{block}", [1000.0 * s for s in task.step_s[plan.warmup:]])
    # printed, not a metric: it depends on the seed's corpus far more than on
    # the code, and moved by up to 24% across seeds on px128
    out.notes[f"train_loss_last.{block}"] = {
        "value": last / base_l1, "last_epoch_l1": last, "first_epoch_l1": first, "identity_l1": base_l1}
    return model


def attention_checks(plan: Plan, seed: int, setup: Setup, srin_model, checks: Checks) -> None:
    """srin contracts at this workload's bottleneck: fg key columns exactly 0, rows sum to 1."""
    params = srin_model.block_params
    fs = plan.size >> plan.stages
    rng = np.random.default_rng([seed, 7])
    for s in setup.held[:ATTENTION_CHECKS]:
        mask_f = downsample_mask(s.mask.values, fs)
        if mask_f.sum() in (0, mask_f.size):
            continue  # degenerate region: the block passes features through
        feat = tensor.Tensor(rng.normal(size=(params.channels, fs, fs)))
        attn = blocks.srin_forward(feat, mask_f, downsample_planar(s.semantic.planar(), fs), params).attention.data
        fg_cols = mask_f.reshape(-1).astype(bool)
        ok = bool(np.all(attn[:, fg_cols] == 0.0)) and float(np.max(np.abs(attn.sum(axis=1) - 1.0))) <= 1e-9
        checks.check(ok, f"srin attention contract broken on sample {s.id}")


def run(plan: Plan, seed: int, work: Path, tr, checks: Checks) -> Outcome:
    """Run one workload; correctness violations land in ``checks``."""
    out = Outcome()
    if tr.enabled:
        # reference for trace_overhead_frac, taken before any wrapper is installed
        t0 = time.perf_counter()
        suite_once(checks, NullTracer())
        out.suite_untraced_s = time.perf_counter() - t0
        tr.install(HARMLAB_MODULES)
    setup_s: list[float] = []
    eval_s: dict[str, list[float]] = {block: [] for block in BLOCKS}
    harmonize_ms: list[float] = []
    suite_s: list[float] = []
    try:
        with tr.phase("setup"):
            t0 = time.perf_counter()
            setup, generated = set_up(plan, seed, work / "setup0", tr)
            setup_s.append(time.perf_counter() - t0)
            checks.check(same_samples(setup.train, generated["train"]), "training corpus changed in write/load")
            checks.check(same_samples(setup.held, generated["held"]), "held-out corpus changed in write/load")
            for block, path in setup.checkpoints.items():
                checks.check(checkpoint_roundtrip(path, work / "roundtrip.ckpt", tr), f"checkpoint {block} not bit-exact")

        steps = plan.epochs * plan.train_count
        unet_cfg = UNetConfig(plan.size, plan.stages, BASE_CHANNELS)
        trainers = [
            TrainTask(block, TrainConfig(data_dir=str(work / "setup0" / "train"), steps=steps, block=block,
                                         seed=seed, unet=unet_cfg), setup.train, plan.warmup, tr)
            for block in BLOCKS
        ]
        with tr.phase("serve"):
            tasks = [
                Task("setup", "setup", [_timed(lambda r=r: set_up(plan, seed, work / f"setup{r}", tr), setup_s)
                                        for r in range(1, SETUP_REPEATS)]),
                *trainers,
                eval_task(plan, setup, tr, checks, eval_s),
                harmonize_task(plan, setup, work, tr, checks, harmonize_ms),
                Task("suite", "verify", [_timed(lambda: suite_once(checks, tr), suite_s)]),
            ]
        interleave(tasks, tr)

        with tr.phase("checks"):
            base_l1 = identity_l1(setup.train)
            trained = {t.block: training_checks(plan, t, base_l1, work, tr, checks, out) for t in trainers}
            if trained["srin"] is not None:
                attention_checks(plan, seed, setup, trained["srin"], checks)
    finally:
        if tr.enabled:
            tr.uninstall()
    out.metrics["setup_s"] = (statistics.median(setup_s), "s")
    # every block's evaluate calls taken at their median time, so that one
    # burst of load on the machine does not set the rate
    busy = sum(len(s) * statistics.median(s) for s in eval_s.values())
    out.metrics["eval_samples_per_s"] = (len(BLOCKS) * plan.eval_rounds * len(setup.held) / busy, "1/s")
    timing(out, "harmonize_ms", harmonize_ms)
    # printed, not a metric: one 4 s run moves by 10-30% with the load on a
    # shared machine, and enough runs to steady it would triple a run's length
    out.notes["gradcheck_suite_s"] = {"value": suite_s[0]}
    out.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out
