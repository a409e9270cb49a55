"""A3's srin - rain margin as a band over one-ulp moves of the initial weights.

A3 (tests/test_acceptance.py) trains every block from five seeds and asks
for srin <= rain in at least three of them. One seed's test MSE can move by
several units when the initial weights move by one ulp, so after a change
that only rounds differently the verdict alone does not say whether the
change matters. This script reruns A3's rain and srin arms from A3's own
constants three times: with the initial weights as built, with every one of
them moved one ulp up, and with every one moved one ulp down
(``GeneratorModel.build`` wrapped from outside). It prints each seed's
srin - rain test MSE per run and the band they span, then each run's
srin <= rain count.

It trains 30 models and takes about 3 minutes on two processes, so the test
suite does not run it. Run from the repository root:

    python demos/06_a3_margin_band.py
"""

import multiprocessing
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import A3_GEN_TEST, A3_GEN_TRAIN, A3_LR, A3_SEEDS, A3_STEPS, A3_UNET  # noqa: E402

from harmlab import GeneratorModel, TrainConfig, evaluate, generate_dataset, train  # noqa: E402

PROCESSES = 2
RUNS = {"as built": None, "+1 ulp": np.inf, "-1 ulp": -np.inf}  # the direction each initial weight moves
BUILD = GeneratorModel.__dict__["build"]


def nudged_build(toward: float) -> classmethod:
    def build(cls, config, seed=0):
        model = BUILD.__func__(cls, config, seed)
        np.nextafter(model.flat.data, toward, out=model.flat.data)
        return model

    return classmethod(build)


def load_corpora() -> None:
    global TRAIN_SET, TEST_SET
    TRAIN_SET = generate_dataset(A3_GEN_TRAIN, 256)  # the corpus sizes of test_a3_ablation_direction
    TEST_SET = generate_dataset(A3_GEN_TEST, 64)


def arm_mse(job: tuple[str, str, int]) -> float:
    run, block, seed = job
    GeneratorModel.build = BUILD if RUNS[run] is None else nudged_build(RUNS[run])
    cfg = TrainConfig(data_dir="", steps=A3_STEPS, lr=A3_LR, block=block, seed=seed, unet=A3_UNET)
    model, _ = train(cfg, samples=TRAIN_SET)
    return evaluate(model, TEST_SET).overall.mean_mse()


def main() -> None:
    jobs = [(run, block, seed) for run in RUNS for block in ("rain", "srin") for seed in A3_SEEDS]
    with multiprocessing.Pool(PROCESSES, initializer=load_corpora) as pool:
        mse = dict(zip(jobs, pool.map(arm_mse, jobs, chunksize=1)))

    for run in RUNS:
        for block in ("rain", "srin"):
            print(f"{run:>8} {block} MSE: " + ", ".join(f"{mse[(run, block, s)]:.4f}" for s in A3_SEEDS))
    print("\nsrin - rain test MSE per seed:")
    print(f"{'seed':>4} " + " ".join(f"{run:>9}" for run in RUNS) + "   band")
    for s in A3_SEEDS:
        margins = [mse[(run, "srin", s)] - mse[(run, "rain", s)] for run in RUNS]
        print(f"{s:>4} " + " ".join(f"{m:9.4f}" for m in margins) + f"   [{min(margins):.4f}, {max(margins):.4f}]")
    counts = {run: sum(mse[(run, "srin", s)] <= mse[(run, "rain", s)] for s in A3_SEEDS) for run in RUNS}
    print("srin <= rain: " + ", ".join(f"{run} {n}/{len(A3_SEEDS)}" for run, n in counts.items()))


if __name__ == "__main__":
    main()
