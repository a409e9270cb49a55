import os
import platform
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import harmlab
from harmlab import tensor as tc
from harmlab.errors import ConfigError, ShapeError, TrainingError
from harmlab.imaging import Image, Mask, MetricsRecord
from harmlab.synthdata import GenConfig, Sample, generate_dataset, write_dataset
from harmlab.training import (
    BucketStats, TrainConfig, evaluate, lr_at_step, prepare_sample, sample_loss, train,
)
from harmlab.unet import BLOCK_KINDS, GeneratorModel, UNetConfig


TINY_UNET = UNetConfig(size=32, stages=2, base_channels=8)


def tiny_config(**kw):
    defaults = dict(data_dir="", steps=8, seed=0, block="srin", unet=TINY_UNET)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _zero_head_loss(comp: np.ndarray, real: np.ndarray, mask: np.ndarray):
    """``sample_loss`` of a model whose zeroed head outputs the composite
    exactly, and the head bias's gradient."""
    model = GeneratorModel.build(UNetConfig(size=16, stages=1, base_channels=2, block="none"), seed=0)
    model.head[0].data[:] = 0.0
    model.head[1].data[:] = 0.0
    sample = Sample(Image.from_planar(real), Image.from_planar(comp), Mask(mask), Image.from_planar(comp), "s")
    with tc.Graph() as g:
        loss = sample_loss(model, prepare_sample(model, sample))
        g.backward(loss)
    return loss.item(), model.head[1].grad


def _blob(size: int = 16) -> np.ndarray:
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[3:9, 5:12] = 1
    return mask


class TestL1Loss:
    def test_identical_inputs(self):
        comp = np.random.default_rng(0).uniform(0.1, 0.9, size=(3, 16, 16))
        assert _zero_head_loss(comp, comp, _blob())[0] == 0.0

    def test_constant_offset(self):
        loss, _ = _zero_head_loss(np.full((3, 16, 16), 1.0), np.full((3, 16, 16), 0.75), _blob())
        assert abs(loss - 0.25) < 1e-15

    def test_mixed_entries(self):
        # differences inside and outside the foreground's box, some of them 0
        rng = np.random.default_rng(1)
        comp = rng.uniform(0.1, 0.9, size=(3, 16, 16))
        real = comp + rng.choice([-0.05, 0.0, 0.1], size=comp.shape)
        loss, _ = _zero_head_loss(comp, real, _blob())
        want = np.mean(np.abs(comp - real))
        assert abs(loss - want) <= 1e-15 * want

    def test_gradient_is_scaled_sign(self):
        # the output is the composite, so each foreground pixel hands the
        # head's bias sign(comp - real) / (3 S^2), with sign(0) = 0
        rng = np.random.default_rng(2)
        comp = rng.uniform(0.1, 0.9, size=(3, 16, 16))
        real = comp + rng.choice([-0.05, 0.0, 0.05], size=comp.shape)
        mask = _blob()
        _, grad = _zero_head_loss(comp, real, mask)
        want = np.sign(comp - real)[:, mask == 1].sum(axis=1) / (3 * 16 * 16)
        assert np.allclose(grad, want, rtol=1e-12, atol=0.0) and (want != 0.0).all()


class TestSchedule:
    def test_lr_decays_at_milestones(self):
        cfg = tiny_config(steps=120, lr=0.001)
        assert lr_at_step(cfg, 1) == 0.001
        assert lr_at_step(cfg, 100) == 0.001
        assert abs(lr_at_step(cfg, 101) - 0.0001) < 1e-18
        assert abs(lr_at_step(cfg, 111) - 0.00001) < 1e-18

    def test_final_lr_is_one_hundredth(self):
        cfg = tiny_config(steps=120, lr=0.001)
        assert abs(lr_at_step(cfg, 120) - 0.001 * 0.01) <= 1e-15

    def test_milestones_must_increase(self):
        with pytest.raises(ValueError):
            tiny_config(milestones=(0.5, 0.4))
        with pytest.raises(ValueError):
            tiny_config(milestones=(0.0, 0.5))


class TestTrainLoop:
    def test_seeded_runs_are_bit_identical(self):
        data = generate_dataset(GenConfig(seed=31, size=32), 4)
        h1 = train(tiny_config(), samples=data)[1]
        h2 = train(tiny_config(), samples=data)[1]
        assert [e.loss for e in h1] == [e.loss for e in h2]
        assert [e.lr for e in h1] == [e.lr for e in h2]

    def test_identity_dataset_is_fixed_point_with_zero_head(self):
        cfg_gen = GenConfig(seed=32, size=32, gain=(1.0, 1.0), bias=(0.0, 0.0), gamma=(1.0, 1.0))
        data = generate_dataset(cfg_gen, 3)
        model = GeneratorModel.build(TINY_UNET, seed=0)
        model.head[0].data[:] = 0.0
        model.head[1].data[:] = 0.0
        before = [t.data.copy() for t in model.parameters()]

        # hand-stepped loop equivalent to train() but reusing the zeroed model
        from harmlab.optim import AdamState, adam_step
        from harmlab.tensor import Graph

        state = AdamState(lr=1e-3)
        losses = []
        for step in range(6):
            s = data[step % len(data)]
            model.zero_grad()
            with Graph() as g:
                loss = sample_loss(model, prepare_sample(model, s))
                g.backward(loss)
            adam_step(model.flat, state)
            losses.append(loss.item())
        assert all(lv == 0.0 for lv in losses)
        for prev, t in zip(before, model.parameters()):
            assert np.max(np.abs(prev - t.data)) <= 1e-12

    def test_history_lines_and_checkpoint(self, tmp_path):
        data = generate_dataset(GenConfig(seed=33, size=32), 2)
        out = tmp_path / "m.ckpt"
        model, history = train(tiny_config(steps=3, checkpoint_out=str(out)), samples=data)
        assert len(history) == 3
        assert history[0].line().startswith("1,0.001,")
        assert out.exists()

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(tiny_config(), samples=[])

    def test_unet_block_is_the_block_that_trains(self):
        # a unet.block other than UNetConfig's default must agree with block,
        # and cfg.unet is what trains
        with pytest.raises(ConfigError, match="'rain' conflicts with block 'srin'"):
            TrainConfig(data_dir="", unet=UNetConfig(block="rain"))
        with pytest.raises(ConfigError, match="'srin' conflicts with block 'none'"):
            TrainConfig(data_dir="", block="none", unet=UNetConfig(block="srin"))
        assert TrainConfig(data_dir="", block="rain", unet=UNetConfig(block="rain")).unet.block == "rain"
        cfg = tiny_config(block="rain", steps=1)
        assert cfg.unet == UNetConfig(size=32, stages=2, base_channels=8, block="rain")
        model, _ = train(cfg, samples=generate_dataset(GenConfig(seed=34, size=32), 1))
        assert model.config == cfg.unet

    def test_block_plumbing_identical_when_bottleneck_forced_identity(self, monkeypatch):
        # with the bottleneck forced to pass-through, all three block settings
        # must produce the same seeded loss history
        import harmlab.unet as unet_mod

        monkeypatch.setattr(unet_mod, "rain_forward", lambda feat, mask: feat)

        class _Identity:
            def __init__(self, feat):
                self.output = feat

        monkeypatch.setattr(unet_mod, "srin_forward", lambda feat, mask, sem, params: _Identity(feat))

        data = generate_dataset(GenConfig(seed=34, size=32), 3)
        histories = {}
        for block in ("none", "rain", "srin"):
            _, hist = train(tiny_config(block=block, steps=5), samples=data)
            histories[block] = [e.loss for e in hist]
        assert histories["none"] == histories["rain"] == histories["srin"]


def test_concurrent_runs_match_sequential_runs():
    # One run per block, all three in threads at once, each yielding at every
    # step: the library is reentrant, so every run's loss history, final
    # parameters and evaluation match its run alone, bit for bit.
    data = generate_dataset(GenConfig(seed=3, size=32), 4)
    val = generate_dataset(GenConfig(seed=4, size=32), 3)
    cfgs = {block: TrainConfig(data_dir="", steps=12, seed=3, block=block, unet=UNetConfig(size=32, stages=2))
            for block in BLOCK_KINDS}

    def run(block):
        model, history = train(cfgs[block], samples=data, on_step=lambda entry: time.sleep(0))
        return [e.loss for e in history], model.flat.data.copy(), evaluate(model, val).csv_lines()

    alone = {block: run(block) for block in BLOCK_KINDS}
    barrier = threading.Barrier(len(BLOCK_KINDS), timeout=60)
    together, errors = {}, []

    def work(block):
        try:
            barrier.wait()
            together[block] = run(block)
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(block,)) for block in BLOCK_KINDS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over far more often than every 5 ms
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for block in BLOCK_KINDS:
        (losses, params, report), (t_losses, t_params, t_report) = alone[block], together[block]
        assert t_losses == losses, block
        assert np.array_equal(t_params, params), block
        assert t_report == report, block


@pytest.mark.parametrize("block", BLOCK_KINDS)
def test_forward_and_evaluate_leave_parameters_and_gradients_alone(block):
    model = GeneratorModel.build(UNetConfig(size=32, stages=2, block=block), seed=6)
    model.flat.grad[:] = np.random.default_rng(7).normal(size=model.flat.size)
    params, grads = model.flat.data.copy(), model.flat.grad.copy()
    data = generate_dataset(GenConfig(seed=41, size=32), 3)
    s = data[0]
    model.forward_tensor(s.composite.planar(), s.mask.values, s.semantic.planar())
    evaluate(model, data)
    assert np.array_equal(model.flat.data, params) and np.array_equal(model.flat.grad, grads)


def _oracle_samples(size: int) -> list[Sample]:
    """A synthetic sample, the same with a real image that differs from the
    composite outside the foreground too, a one-pixel corner and an empty mask."""
    s = generate_dataset(GenConfig(seed=52, size=size), 1)[0]
    noisy = Image.from_planar(np.clip(s.real.planar() + np.random.default_rng(53).normal(0, 0.05, (3, size, size)), 0, 1))
    corner = np.zeros((size, size), dtype=np.uint8)
    corner[-1, 0] = 1
    return [s, Sample(noisy, s.composite, s.mask, s.semantic, "noisy"),
            Sample(noisy, s.composite, Mask(corner), s.semantic, "corner"),
            Sample(noisy, s.composite, Mask(np.zeros((size, size), dtype=np.uint8)), s.semantic, "empty")]


class TestSampleLoss:
    @pytest.mark.parametrize("size,stages", [(32, 2), (64, 3), (128, 2)])
    @pytest.mark.parametrize("block", ["none", "rain", "srin"])
    def test_matches_serving_loss(self, block, size, stages):
        # evaluation and training run one forward: forward_tensor is
        # forward_box pasted into the composite, and sample_loss is the L1
        # of forward_tensor's output
        model = GeneratorModel.build(UNetConfig(size=size, stages=stages, block=block), seed=51)
        for sample in _oracle_samples(size):
            comp, real = sample.composite.planar(), sample.real.planar()
            served = model.forward_tensor(comp, sample.mask.values, sample.semantic.planar())
            prep = prepare_sample(model, sample)
            top, bottom, left, right = prep.windows.box
            where = f"{block} {size}/{stages} {sample.id}"
            assert np.array_equal(served[:, top:bottom, left:right], model.forward_box(prep.windows).data), where
            outside = np.ones((size, size), dtype=bool)
            outside[top:bottom, left:right] = False
            assert np.array_equal(served[:, outside], comp[:, outside]), where
            model.zero_grad()
            with tc.Graph() as g:
                got = sample_loss(model, prep)
            assert not any(out.shape == (3, size, size) for r in g.records for out in r.outs), where
            g.backward(got)
            want = np.mean(np.abs(served - real))
            assert abs(got.item() - want) <= 1e-15 * want, where
            if sample.id == "empty":  # every output is the composite
                assert not model.flat.grad.any(), where
            if sample.id == "noisy":
                assert prep.outside_l1 > 0.0, where


def test_adam_over_flat_buffer_matches_per_tensor_steps():
    from harmlab.optim import AdamState, adam_step

    config = UNetConfig(size=32, stages=2, base_channels=4, block="srin")
    per_tensor, flat = GeneratorModel.build(config, seed=1), GeneratorModel.build(config, seed=1)
    s_tensor = [AdamState(lr=1e-2) for _ in per_tensor.parameters()]
    s_flat = AdamState(lr=1e-2)
    rng = np.random.default_rng(2)
    for _ in range(3):
        g = rng.normal(size=flat.flat.size) * rng.uniform(1e-6, 1e3, size=flat.flat.size)
        per_tensor.flat.grad[:] = g
        flat.flat.grad[:] = g
        for p, state in zip(per_tensor.parameters(), s_tensor):
            adam_step(p, state)
        adam_step(flat.flat, s_flat)
    assert per_tensor.flat.data.tobytes() == flat.flat.data.tobytes()
    for moment in ("m", "v"):
        per_param = np.concatenate([getattr(state, moment).ravel() for state in s_tensor])
        assert per_param.tobytes() == getattr(s_flat, moment).tobytes()


class TestBatchingAndValidation:
    def test_batched_step_count_and_determinism(self):
        data = generate_dataset(GenConfig(seed=41, size=32), 5)
        cfg = tiny_config(steps=3, batch_size=2)
        h1 = train(cfg, samples=data)[1]
        h2 = train(cfg, samples=data)[1]
        assert len(h1) == 3
        assert [e.loss for e in h1] == [e.loss for e in h2]

    def test_validation_fires_every_tenth_of_run(self, tmp_path):
        data = generate_dataset(GenConfig(seed=42, size=32), 3)
        val_dir = tmp_path / "val"
        write_dataset(generate_dataset(GenConfig(seed=43, size=32), 2), val_dir)
        seen = []
        train(tiny_config(steps=20, val_dir=str(val_dir)), samples=data,
              on_validate=lambda step, rep: seen.append(step))
        assert seen == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]

    def test_wrong_size_validation_set_fails_before_the_first_step(self, tmp_path):
        val_dir = tmp_path / "val"
        write_dataset(generate_dataset(GenConfig(seed=43, size=16), 2), val_dir)
        data = generate_dataset(GenConfig(seed=42, size=32), 3)
        steps = []
        message = f"validation set {re.escape(repr(str(val_dir)))}: sample .*: mask is 16x16, model expects 32x32"
        with pytest.raises(ShapeError, match=message):
            train(tiny_config(steps=40, val_dir=str(val_dir)), samples=data, on_step=steps.append,
                  on_validate=lambda step, rep: None)
        assert steps == []
        # nothing reads the validation set without on_validate, so it is not loaded
        train(tiny_config(steps=1, val_dir=str(tmp_path / "absent")), samples=data)

    def test_degenerate_block_flag_recorded(self):
        # a mask too small to survive nearest-downsampling to 8x8 marks the step
        data = generate_dataset(GenConfig(seed=63, size=32), 40)
        from harmlab.unet import downsample_mask

        vanished = [s for s in data if downsample_mask(s.mask.values.astype(float), 8).sum() == 0]
        assert vanished, "expected at least one vanishing mask in this seeded stream"
        _, history = train(tiny_config(steps=len(vanished), block="srin"), samples=vanished)
        assert all(e.block_degenerate for e in history)


_HASH_SHORT_RUNS = """
import hashlib, sys
import numpy as np
from harmlab.blocks import srin_forward
from harmlab.synthdata import GenConfig, generate_dataset
from harmlab.tensor import Graph, Tensor
from harmlab.training import TrainConfig, train
from harmlab.unet import UNetConfig, save_checkpoint
from harmlab.verify import random_srin_instance

data = generate_dataset(GenConfig(seed=3, size=32), 4)
for block in ("none", "rain", "srin"):
    cfg = TrainConfig(data_dir="", steps=6, seed=3, block=block, unet=UNetConfig(size=32, stages=2))
    model, history = train(cfg, samples=data)
    save_checkpoint(model, sys.argv[1])
    with open(sys.argv[1], "rb") as f:
        parts = (repr([e.loss for e in history]).encode(), model.flat.data.tobytes(), f.read())
    print(block, *(hashlib.sha256(part).hexdigest()[:16] for part in parts))

# The training corpus's foregrounds hold one semantic colour each (K = 1).
# Odd seeds repaint the semantic map from a 3-colour palette, so K runs
# from 1 to the foreground's site count F over these cases.
digest = hashlib.sha256()
for seed in range(9000, 9200):
    rng = np.random.default_rng(seed)
    feat, mask, sem, params = random_srin_instance(rng, c_max=4, hw_max=6)
    if seed % 2:
        sem = rng.uniform(0.0, 1.0, size=(3, 3))[:, rng.integers(0, 3, size=mask.shape)]
    x = Tensor(feat, requires_grad=True)
    with Graph() as g:
        out = srin_forward(x, mask, sem, params).output
        g.backward(out, rng.normal(size=feat.shape))
    for part in (out.data, x.grad, *(t.grad for _, t in params.named())):
        digest.update(part.tobytes())
print("srin-classes", digest.hexdigest()[:16])
"""


def test_training_is_bit_identical_whatever_the_blas_thread_count(tmp_path):
    # Importing harmlab pins OpenBLAS to one thread. With two, OpenBLAS sums
    # some of the conv backward's GEMM shapes in another order than with one.
    src = str(Path(harmlab.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _HASH_SHORT_RUNS, str(tmp_path / f"threads{threads}.ckpt")],
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    # block, then sha256[:16] of the loss history, the final parameters and the checkpoint;
    # last, sha256[:16] of srin_forward's outputs and gradients over multi-class cases
    print("\n" + outputs[0], end="")


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="minor page-fault counts and the heap policy are glibc-on-Linux specific")
def test_warm_training_keeps_heap_resident():
    # Freed step buffers must stay in the process heap: when glibc returns
    # them to the kernel, every 3-step run at 128 px faults in thousands of
    # pages again. The second warm-up call can still grow the heap past the
    # first call's high-water mark (up to a few MB), so the third is measured.
    import resource

    samples = generate_dataset(GenConfig(size=128, seed=5), 2)
    cfg = TrainConfig(data_dir="", steps=3, seed=0, block="none", unet=UNetConfig(size=128, stages=2))
    for _ in range(2):
        train(cfg, samples)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(cfg, samples)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 100, f"{faults} minor page faults in a warm 3-step train()"


class TestEvaluate:
    def test_identity_model_on_identity_shift(self):
        cfg_gen = GenConfig(seed=35, size=32, gain=(1.0, 1.0), bias=(0.0, 0.0), gamma=(1.0, 1.0))
        data = generate_dataset(cfg_gen, 3)
        model = GeneratorModel.build(TINY_UNET, seed=1)
        model.head[0].data[:] = 0.0
        model.head[1].data[:] = 0.0
        report = evaluate(model, data)
        assert report.overall.mean_mse() == 0.0
        assert report.overall.mean_psnr() == 100.0

    def test_single_sample_bucket_equals_sample(self):
        data = generate_dataset(GenConfig(seed=36, size=32), 1)
        model = GeneratorModel.build(TINY_UNET, seed=2)
        report = evaluate(model, data)
        rec = report.per_sample[0][1]
        from harmlab.imaging import ratio_bucket

        bucket = report.buckets[ratio_bucket(rec.fg_ratio)]
        assert bucket.count == 1
        assert bucket.mean_mse() == rec.mse
        assert report.overall.mean_mse() == rec.mse

    def test_two_sample_aggregation(self):
        data = generate_dataset(GenConfig(seed=37, size=32), 2)
        model = GeneratorModel.build(TINY_UNET, seed=3)
        report = evaluate(model, data)
        mses = [rec.mse for _, rec in report.per_sample]
        assert abs(report.overall.mean_mse() - np.mean(mses)) < 1e-12

    def test_bucket_means_recombine_to_overall(self):
        rng = np.random.default_rng(38)
        buckets = [BucketStats() for _ in range(3)]
        overall = BucketStats()
        for _ in range(60):
            rec = MetricsRecord(
                mse=float(rng.uniform(1, 300)),
                fmse=float(rng.uniform(1, 900)),
                psnr=float(rng.uniform(20, 45)),
                fg_ratio=float(rng.uniform(0.001, 0.9)),
            )
            from harmlab.imaging import ratio_bucket

            buckets[ratio_bucket(rec.fg_ratio)].add(rec)
            overall.add(rec)
        weighted = sum(b.mean_mse() * b.count for b in buckets if b.count) / overall.count
        assert abs(weighted - overall.mean_mse()) <= 1e-9

    def test_report_does_not_depend_on_sample_order(self):
        data = generate_dataset(GenConfig(seed=39, size=32), 6)
        model = GeneratorModel.build(TINY_UNET, seed=4)
        assert evaluate(model, list(reversed(data))).csv_lines() == evaluate(model, data).csv_lines()

    def test_csv_and_summary_shapes(self):
        data = generate_dataset(GenConfig(seed=40, size=32), 3)
        model = GeneratorModel.build(TINY_UNET, seed=5)
        report = evaluate(model, data)
        lines = report.csv_lines()
        assert lines[0] == "id,fg_ratio,bucket,mse,fmse,psnr"
        assert len(lines) == 4
        summary = report.summary_text()
        assert "0-5%" in summary and "overall" in summary
