"""Acceptance suite. Each test prints a single PASS line on success so the
whole gate reads as a checklist under ``pytest -v -s``.

Criteria:
  A1 gradient suite at tol 1e-4 (h = 1e-5), under 60 s
  A2 overfit: srin on 8 synthetic 64x64 samples, 2000 steps, train PSNR >= 35 dB, under 10 min
  A3 ablation direction on a 256-train/64-test corpus over 5 seeds
  A4 semantic-attention block matches the loop-level oracle within 1e-10 (100 instances)
  A5 exact invariants at zero tolerance (pass-through, compose, roundtrips, determinism)
  A6 metric oracle values
  A7 Bradley-Terry closed form, scaling invariance, normalization
  A8 attention row sums within 1e-9 and exact zero foreground key columns (100 instances)
"""

import multiprocessing
import statistics
import time

import numpy as np

from harmlab.blocks import srin_forward
from harmlab.btrank import PairwiseWins, bt_fit
from harmlab.cli import dispatch
from harmlab.imaging import Image, Mask, compose, metrics, read_ppm, write_ppm
from harmlab.synthdata import GenConfig, generate_dataset, load_dataset, write_dataset
from harmlab.tensor import Tensor
from harmlab.training import TrainConfig, evaluate, train
from harmlab.unet import GeneratorModel, UNetConfig, load_checkpoint, save_checkpoint, unet_forward
from harmlab.verify import random_srin_instance, reference_srin, run_suite

# A3 protocol: fixed corpus, five training seeds, identical budgets and
# hyperparameters for every block.
A3_GEN_TRAIN = GenConfig(seed=501, size=32)
A3_GEN_TEST = GenConfig(seed=502, size=32)
A3_UNET = UNetConfig(size=32, stages=2, base_channels=16)
A3_STEPS = 2048
A3_LR = 2e-3
A3_SEEDS = (0, 1, 2, 3, 4)
A3_PROCESSES = 2  # the runs are independent, and each is single-threaded


def a3_load_corpora() -> None:
    """Generate A3's training and test corpora in this process (a pool's initializer)."""
    global A3_TRAIN_SET, A3_TEST_SET
    A3_TRAIN_SET = generate_dataset(A3_GEN_TRAIN, 256)
    A3_TEST_SET = generate_dataset(A3_GEN_TEST, 64)


def a3_mse(job: tuple[str, int]) -> float:
    """Test MSE of the model A3 trains for ``job = (block, seed)``."""
    block, seed = job
    cfg = TrainConfig(data_dir="", steps=A3_STEPS, lr=A3_LR, block=block, seed=seed, unet=A3_UNET)
    model, _ = train(cfg, samples=A3_TRAIN_SET)
    return evaluate(model, A3_TEST_SET).overall.mean_mse()


def a3_map(fn, jobs: list) -> list:
    """``fn`` of each job, in job order, computed on A3_PROCESSES fresh
    processes that each load A3's corpora once, one job per task. A run's
    bits do not depend on the process it runs in: training is
    single-threaded and deterministic."""
    with multiprocessing.get_context("spawn").Pool(A3_PROCESSES, initializer=a3_load_corpora) as pool:
        return pool.map(fn, jobs, chunksize=1)


def test_a1_gradient_suite():
    start = time.time()
    results = run_suite(tol=1e-4)
    elapsed = time.time() - start
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "gradient/invariant suite failures:\n" + "\n".join(failures)
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"
    print(f"\nA1 PASS gradient suite: {len(results)} checks, max err "
          f"{max(r.max_rel_err for r in results):.3e}, {elapsed:.1f}s")


def test_a2_overfit_eight_samples(tmp_path):
    data_dir = tmp_path / "overfit"
    write_dataset(generate_dataset(GenConfig(seed=82, size=64), 8), data_dir)
    ckpt = tmp_path / "overfit.ckpt"
    start = time.time()
    code = dispatch([
        "train", "--data", str(data_dir), "--block", "srin",
        "--steps", "2000", "--seed", "0", "--out", str(ckpt),
    ])
    elapsed = time.time() - start
    assert code == 0
    model = load_checkpoint(ckpt)
    report = evaluate(model, load_dataset(data_dir))
    psnr = report.overall.mean_psnr()
    assert psnr >= 35.0, f"train-set PSNR {psnr:.2f} dB < 35 dB"
    assert elapsed < 600.0, f"training took {elapsed:.0f}s, budget is 600s"
    print(f"\nA2 PASS overfit: train PSNR {psnr:.2f} dB (MSE {report.overall.mean_mse():.2f}) in {elapsed:.0f}s")


def test_a3_ablation_direction():
    jobs = [(block, seed) for block in ("srin", "rain", "none") for seed in A3_SEEDS]  # the longest runs first
    mse = dict(zip(jobs, a3_map(a3_mse, jobs)))

    med = {b: statistics.median(mse[(b, s)] for s in A3_SEEDS) for b in ("none", "rain", "srin")}
    srin_vs_rain = sum(mse[("srin", s)] <= mse[("rain", s)] for s in A3_SEEDS)
    detail = "; ".join(
        f"{b}: " + ", ".join(f"{mse[(b, s)]:.1f}" for s in A3_SEEDS) for b in ("none", "rain", "srin")
    )
    assert med["srin"] < med["none"], f"median srin {med['srin']:.2f} !< median none {med['none']:.2f} ({detail})"
    assert srin_vs_rain >= 3, f"srin <= rain in only {srin_vs_rain}/5 seeds ({detail})"
    print(f"\nA3 PASS ablation: medians none {med['none']:.1f} / rain {med['rain']:.1f} / "
          f"srin {med['srin']:.1f}; srin<=rain in {srin_vs_rain}/5 seeds; per-seed MSEs {detail}")


def test_a4_oracle_equivalence():
    worst = 0.0
    for trial in range(100):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(40_000 + trial))
        got = srin_forward(Tensor(feat), mask, sem, params).output.data
        want = reference_srin(feat, mask, sem, params)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-10, f"max |vectorized - loop oracle| = {worst:.3e}"
    print(f"\nA4 PASS oracle equivalence: 100 instances, max deviation {worst:.3e}")


def test_a5_exact_invariants(tmp_path):
    rng = np.random.default_rng(55)

    # block-level background pass-through, exact
    for trial in range(20):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(500 + trial))
        out = srin_forward(Tensor(feat), mask, sem, params).output.data
        bg = mask == 0.0
        assert np.array_equal(out[:, bg], feat[:, bg])

    # full-model background identity and all-zero-mask identity, exact
    model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="srin"), seed=9)
    sample = generate_dataset(GenConfig(seed=56, size=32), 1)[0]
    out = unet_forward(model, sample.composite, sample.mask, sample.semantic)
    bg_px = ~sample.mask.values.astype(bool)
    assert np.array_equal(out.pixels[bg_px], sample.composite.pixels[bg_px])
    empty = Mask(np.zeros((32, 32), dtype=np.uint8))
    out_empty = unet_forward(model, sample.composite, empty, sample.semantic)
    assert np.array_equal(out_empty.pixels, sample.composite.pixels)

    # compose selects exactly
    composed = compose(out, sample.composite, sample.mask)
    assert np.array_equal(composed.pixels[bg_px], sample.composite.pixels[bg_px])
    assert np.array_equal(
        composed.pixels[~bg_px], out.pixels[~bg_px]
    )

    # PPM/PGM roundtrips bit-exact
    img = Image(np.rint(rng.uniform(0, 1, (16, 16, 3)) * 255) / 255)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(img, p1)
    write_ppm(read_ppm(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    from harmlab.imaging import read_pgm, write_pgm

    m1, m2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(Mask((rng.uniform(size=(16, 16)) < 0.5).astype(np.uint8)), m1)
    write_pgm(read_pgm(m1), m2)
    assert m1.read_bytes() == m2.read_bytes()

    # checkpoint roundtrip bit-exact
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, c1)
    save_checkpoint(load_checkpoint(c1), c2)
    assert c1.read_bytes() == c2.read_bytes()

    # fixed-seed runs bit-identical: dataset bytes, loss history, checkpoints
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for d in (d1, d2):
        write_dataset(generate_dataset(GenConfig(seed=57, size=32), 3), d)
    for name in ("manifest.txt", "000000_comp.ppm", "000002_sem.ppm"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    tcfg = dict(steps=5, block="srin", seed=3, unet=UNetConfig(size=32, stages=2, base_channels=8))
    run1 = train(TrainConfig(data_dir=str(d1), **tcfg))
    run2 = train(TrainConfig(data_dir=str(d1), **tcfg))
    assert [e.loss for e in run1[1]] == [e.loss for e in run2[1]]
    k1, k2 = tmp_path / "r1.ckpt", tmp_path / "r2.ckpt"
    save_checkpoint(run1[0], k1)
    save_checkpoint(run2[0], k2)
    assert k1.read_bytes() == k2.read_bytes()
    print("\nA5 PASS exact invariants: pass-through, composition, roundtrips, determinism")


def test_a6_metric_oracle():
    ref = Image(np.full((8, 8, 3), 0.4))
    shifted = Image(np.full((8, 8, 3), 0.4 + 16.0 / 255.0))
    rec = metrics(shifted, ref, Mask(np.ones((8, 8), dtype=np.uint8)))
    assert abs(rec.mse - 256.0) < 1e-9
    assert abs(rec.psnr - 24.0494) <= 1e-3

    rng = np.random.default_rng(66)
    for _ in range(20):
        base = Image(np.rint(rng.uniform(0, 1, (12, 12, 3)) * 255) / 255)
        mv = (rng.uniform(size=(12, 12)) < rng.uniform(0.1, 0.7)).astype(np.uint8)
        mv[0, 0] = 1
        noisy = base.pixels.copy()
        sel = mv.astype(bool)
        noisy[sel] = np.clip(noisy[sel] + rng.uniform(0.02, 0.2), 0.0, 1.0)
        rec = metrics(Image(noisy), base, Mask(mv))
        assert rec.fmse is not None
        assert abs(rec.mse - rec.fmse * rec.fg_ratio) <= 1e-12 * max(rec.mse, 1.0)
    print("\nA6 PASS metric oracle: offset 16/255 -> MSE 256 / PSNR 24.0494; mse == fmse*fg_ratio exact")


def test_a7_bradley_terry():
    rng = np.random.default_rng(77)
    for _ in range(25):
        wa, wb = int(rng.integers(1, 100)), int(rng.integers(1, 100))
        wins = np.array([[0, wa], [wb, 0]], dtype=np.int64)
        scores = bt_fit(PairwiseWins(labels=["a", "b"], wins=wins)).scores
        assert abs(scores[0] - wa / (wa + wb)) <= 1e-10
        assert abs(scores.sum() - 1.0) <= 1e-12

    w = rng.integers(1, 30, size=(4, 4))
    np.fill_diagonal(w, 0)
    base = bt_fit(PairwiseWins(labels=list("ABCD"), wins=w)).scores
    for k in (2, 5, 11):
        scaled = bt_fit(PairwiseWins(labels=list("ABCD"), wins=w * k)).scores
        assert np.max(np.abs(scaled - base)) <= 1e-9
    assert abs(base.sum() - 1.0) <= 1e-12
    print("\nA7 PASS Bradley-Terry: closed form, count scaling, normalization")


def test_a8_attention_contracts():
    worst_sum = 0.0
    for trial in range(100):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(80_000 + trial))
        res = srin_forward(Tensor(feat), mask, sem, params)
        attn = res.attention.data
        worst_sum = max(worst_sum, float(np.max(np.abs(attn.sum(axis=1) - 1.0))))
        fg_cols = mask.reshape(-1).astype(bool)
        assert np.all(attn[:, fg_cols] == 0.0), f"trial {trial}: foreground key column not exactly 0"
        assert np.all(attn >= 0.0)
    assert worst_sum <= 1e-9, f"row sums off by {worst_sum:.3e}"
    print(f"\nA8 PASS attention contracts: 100 instances, worst row-sum error {worst_sum:.3e}")
