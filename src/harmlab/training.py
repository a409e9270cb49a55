"""Training loop, L1 objective, and bucketed evaluation reports.

Training is strictly single-threaded and deterministic: importing ``harmlab``
pins the BLAS pool to one thread, a seeded shuffle fixes the sample order,
every forward/backward runs on a fresh tape, and the learning rate drops by
the decay factor once each milestone step has passed. A run gives the same
bits whatever BLAS thread count the environment asks for.
The loss (``sample_loss``) is the mean absolute difference between the
composed output and the ground truth over the whole [3, S, S] frame. The
composite, mask, semantic map and ground truth are constants; only the
parameters are differentiated. Outside the foreground's bounding box ``F``
the output is the composite, so that part of the sum is a per-sample
constant ``c`` that no parameter reaches (0 on synthetic data, whose
background matches by construction). Training therefore runs the network on
``F`` only (``GeneratorModel.forward_box``) and takes the loss
``(sum over F of |out - real| + c)`` times ``1 / (3 S^2)``, one
``tensor.l1_loss`` record: the full-frame mean up to rounding, whose gradient
at every output pixel is the mean's, bit for bit. ``c`` and every other
per-sample constant of the forward pass are worked out once per ``train``
call (``prepare_sample``).

Evaluation (``unet_forward``) pastes the same ``forward_box`` into the
composite in numpy, one sample after another, and orders the report by
sample id, so the result does not depend on the order the samples come in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ShapeError, TrainingError
from .imaging import BUCKET_LABELS, MetricsRecord, metrics, ratio_bucket
from .optim import AdamState, adam_step
from .synthdata import Sample, check_seed, load_dataset
from .tensor import Graph, Tensor
from .unet import GeneratorModel, UNetConfig, Windows, save_checkpoint, unet_forward


@dataclass(frozen=True)
class PreparedSample:
    """A training sample's constants: the forward pass's windows, the real
    image on the foreground's box, the L1 sum outside the box and the
    degenerate-block flag."""

    windows: Windows
    real_box: np.ndarray
    outside_l1: float
    degenerate: bool


def prepare_sample(model: GeneratorModel, sample: Sample) -> PreparedSample:
    """Check ``sample`` against ``model`` and build its constants for ``sample_loss``."""
    comp, real = sample.composite.planar(), sample.real.planar()
    win = model.windows(comp, sample.mask.values, sample.semantic.planar())
    top, bottom, left, right = win.box
    outside = np.abs(comp - real)
    outside[:, top:bottom, left:right] = 0.0
    return PreparedSample(
        win, real[:, top:bottom, left:right], float(outside.sum()),
        win.block is not None and win.block.degenerate,
    )


def sample_loss(model: GeneratorModel, prep: PreparedSample) -> Tensor:
    """The mean absolute difference between the model's composed output and
    the real image over the [3, S, S] frame, computed on the foreground's box
    plus the constant outside it.

    Every box element's gradient is the full-frame mean's, bit for bit:
    ``sign(out - real) / (3 S^2)``, with sign(0) = 0.
    """
    return tc.l1_loss(model.forward_box(prep.windows), prep.real_box, prep.outside_l1,
                      1.0 / (3 * model.config.size ** 2))


@dataclass(frozen=True)
class TrainConfig:
    data_dir: str
    steps: int = 2000
    batch_size: int = 1
    lr: float = 1e-3
    # Fractional milestone positions within the run, mirroring a decay at
    # epochs 100 and 110 of a 120-epoch schedule.
    milestones: tuple[float, ...] = (100.0 / 120.0, 110.0 / 120.0)
    decay: float = 0.1
    seed: int = 0
    block: str = "srin"
    unet: UNetConfig = field(default_factory=UNetConfig)
    val_dir: Optional[str] = None
    checkpoint_out: Optional[str] = None

    def __post_init__(self):
        check_seed(self.seed)
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.decay) and self.decay >= 0):
            raise ConfigError(f"decay must be non-negative and finite, got {self.decay}")
        prev = 0.0
        for m in self.milestones:
            if not (prev < m < 1.0):
                raise ConfigError(f"milestones must be strictly increasing within (0, 1), got {self.milestones}")
            prev = m
        if self.unet.block not in (UNetConfig.block, self.block):
            raise ConfigError(f"unet.block {self.unet.block!r} conflicts with block {self.block!r}; set block")
        object.__setattr__(self, "unet", replace(self.unet, block=self.block))  # what trains


@dataclass
class LossEntry:
    step: int
    lr: float
    loss: float
    # True when the bottleneck block hit an empty region at feature
    # resolution during this step and fell back to pass-through
    block_degenerate: bool = False

    def line(self) -> str:
        return f"{self.step},{self.lr:.10g},{self.loss:.12g}"


def lr_at_step(cfg: TrainConfig, step: int) -> float:
    """Learning rate for a 1-indexed step; each milestone takes effect after floor(frac*steps)."""
    drops = sum(1 for m in cfg.milestones if step > math.floor(m * cfg.steps))
    return cfg.lr * (cfg.decay ** drops)


def train(
    cfg: TrainConfig,
    samples: Optional[Sequence[Sample]] = None,
    on_step: Optional[Callable[[LossEntry], None]] = None,
    on_validate: Optional[Callable[[int, "EvalReport"], None]] = None,
) -> tuple[GeneratorModel, list[LossEntry]]:
    """Train a generator from scratch; returns the model and per-step loss history.

    ``samples`` overrides loading from ``cfg.data_dir`` (used by tests and
    callers that already hold the data in memory). When a validation set is
    configured and ``on_validate`` given, every validation sample is checked
    against the model before the first step, and ``on_validate`` fires every
    10% of the run and once at the end.
    """
    data = list(samples) if samples is not None else load_dataset(cfg.data_dir)
    if not data:
        raise TrainingError(f"no samples to train on in {cfg.data_dir!r}")
    val_data = load_dataset(cfg.val_dir) if cfg.val_dir and on_validate is not None else None

    model = GeneratorModel.build(cfg.unet, seed=cfg.seed)
    for s in val_data or ():  # a sample the model cannot take fails here, not at the first validation
        try:
            model.windows(s.composite.planar(), s.mask.values, s.semantic.planar())
        except ShapeError as exc:
            raise ShapeError(f"validation set {cfg.val_dir!r}: sample {s.id}: {exc}") from exc
    state = AdamState(lr=cfg.lr)

    order_rng = np.random.Generator(np.random.PCG64(cfg.seed))
    queue: list[int] = []
    history: list[LossEntry] = []
    val_every = max(1, cfg.steps // 10)

    prepared = [prepare_sample(model, s) for s in data]

    for step in range(1, cfg.steps + 1):
        state.lr = lr_at_step(cfg, step)
        # a diverging step is reported once, by the loss check or adam_step
        with np.errstate(over="ignore", invalid="ignore"):
            model.zero_grad()
            batch_loss = 0.0
            degenerate = False
            for _ in range(cfg.batch_size):
                if not queue:
                    queue = list(order_rng.permutation(len(data)))
                idx = queue.pop()
                prep = prepared[idx]
                with Graph() as graph:
                    loss = sample_loss(model, prep)
                    loss_value = loss.item()
                    if not math.isfinite(loss_value):
                        raise TrainingError(
                            f"non-finite loss {loss_value} at step {step} (sample {data[idx].id}, lr {state.lr:g})"
                        )
                    graph.backward(loss)
                batch_loss += loss_value
                degenerate = degenerate or prep.degenerate
            inv_b = 1.0 / cfg.batch_size
            if cfg.batch_size > 1:  # at batch 1 the mean is the gradient itself
                model.flat.grad *= inv_b
            adam_step(model.flat, state)

        entry = LossEntry(
            step=step, lr=state.lr, loss=batch_loss * inv_b, block_degenerate=degenerate
        )
        history.append(entry)
        if on_step is not None:
            on_step(entry)
        if val_data is not None and (step % val_every == 0 or step == cfg.steps):
            on_validate(step, evaluate(model, val_data))

    model.zero_grad()
    if cfg.checkpoint_out:
        save_checkpoint(model, cfg.checkpoint_out)
    return model, history


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class BucketStats:
    count: int = 0
    mse_sum: float = 0.0
    psnr_sum: float = 0.0
    fmse_sum: float = 0.0
    fmse_count: int = 0

    def add(self, rec: MetricsRecord) -> None:
        self.count += 1
        self.mse_sum += rec.mse
        self.psnr_sum += rec.psnr
        if rec.fmse is not None:
            self.fmse_sum += rec.fmse
            self.fmse_count += 1

    def mean_mse(self) -> Optional[float]:
        return self.mse_sum / self.count if self.count else None

    def mean_psnr(self) -> Optional[float]:
        return self.psnr_sum / self.count if self.count else None

    def mean_fmse(self) -> Optional[float]:
        return self.fmse_sum / self.fmse_count if self.fmse_count else None


@dataclass
class EvalReport:
    per_sample: list[tuple[str, MetricsRecord]]
    buckets: list[BucketStats]
    overall: BucketStats

    def csv_lines(self) -> list[str]:
        lines = ["id,fg_ratio,bucket,mse,fmse,psnr"]
        for sid, rec in self.per_sample:
            fmse = f"{rec.fmse:.6f}" if rec.fmse is not None else ""
            lines.append(
                f"{sid},{rec.fg_ratio:.6f},{ratio_bucket(rec.fg_ratio)},{rec.mse:.6f},{fmse},{rec.psnr:.4f}"
            )
        return lines

    def summary_text(self) -> str:
        def fmt(v: Optional[float]) -> str:
            return f"{v:10.4f}" if v is not None else " " * 9 + "-"

        rows = [f"{'ratio bucket':>14} {'count':>6} {'MSE':>10} {'fMSE':>10} {'PSNR':>10}"]
        for label, st in zip(BUCKET_LABELS, self.buckets):
            rows.append(
                f"{label:>14} {st.count:>6} {fmt(st.mean_mse())} {fmt(st.mean_fmse())} {fmt(st.mean_psnr())}"
            )
        st = self.overall
        rows.append(
            f"{'overall':>14} {st.count:>6} {fmt(st.mean_mse())} {fmt(st.mean_fmse())} {fmt(st.mean_psnr())}"
        )
        return "\n".join(rows)


def evaluate(model: GeneratorModel, samples: Sequence[Sample]) -> EvalReport:
    """Forward (``unet_forward`` composes) + metrics for every sample, aggregated per ratio bucket."""
    results: list[tuple[str, MetricsRecord]] = []
    for sample in samples:
        out = unet_forward(model, sample.composite, sample.mask, sample.semantic)
        results.append((sample.id, metrics(out, sample.real, sample.mask)))
    results.sort(key=lambda pair: pair[0])

    buckets = [BucketStats() for _ in BUCKET_LABELS]
    overall = BucketStats()
    for _, rec in results:
        buckets[ratio_bucket(rec.fg_ratio)].add(rec)
        overall.add(rec)
    return EvalReport(per_sample=results, buckets=buckets, overall=overall)
