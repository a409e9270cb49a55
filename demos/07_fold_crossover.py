"""Where the decoder's folded layout starts to pay: the data behind ``_FOLD_MIN_SITES``.

``tensor.up_conv3x3`` runs one decoder stage in one of two layouts, concat
or folded, and picks the folded one when the region covers at least
``tensor._FOLD_MIN_SITES`` low-res sites. This script times both layouts on
the network's three stage shapes (C_low + C_skip -> C_out at base width 16)
over square regions of growing low-res site counts, calling each layout
directly, and prints the median milliseconds as ``concat / folded``: once
for the forward alone (evaluation) and once for forward + backward
(training). The 16 + 4 stage's skip is the network's input, so it needs no
gradient; the other skips do.

It takes about 40 seconds, so the test suite does not run it. Run from the
repository root with one BLAS thread (importing harmlab pins it):

    python demos/07_fold_crossover.py
"""

import statistics
import time

import numpy as np

from harmlab import tensor as tc

STAGES = [((16, 4, 16), False), ((32, 16, 16), True), ((64, 32, 32), True)]  # (C_low, C_skip, C_out), skip grad
SIDES = [8, 12, 16, 20, 24, 28, 32, 40]  # low-res sites per side
ROUNDS = 60


def stage_ms(shape, skip_grad, side, backward, rng):
    """Median ms of (concat, folded) over ``ROUNDS`` alternated calls on a whole 2*side x 2*side region."""
    c_low, c_skip, c_out = shape
    arrays = [rng.normal(size=(c_low, side, side)), rng.normal(size=(c_skip, 2 * side, 2 * side)),
              0.1 * rng.normal(size=(c_out, c_low + c_skip, 3, 3)), rng.normal(size=c_out)]
    g = rng.normal(size=(c_out, 2 * side, 2 * side))
    region = (0, 2 * side, 0, 2 * side)

    def run(folded):
        low, skip, w, b = (tc.Tensor(a, requires_grad=backward) for a in arrays)
        skip.requires_grad = backward and skip_grad
        t0 = time.perf_counter()
        with tc.Graph() as graph:
            out = tc._up_conv3x3(low, skip, w, b, region, (0, 0), (0, 0), folded)
        if backward:
            graph.backward(out, g)
        return 1000.0 * (time.perf_counter() - t0)

    times = {False: [], True: []}
    for i in range(ROUNDS + 1):
        for folded in (False, True) if i % 2 else (True, False):
            ms = run(folded)
            if i:  # the first round warms up
                times[folded].append(ms)
    return statistics.median(times[False]), statistics.median(times[True])


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"_FOLD_MIN_SITES = {tc._FOLD_MIN_SITES}; median ms of {ROUNDS} alternated rounds, concat / folded")
    for backward, title in ((False, "forward"), (True, "forward + backward")):
        print(f"\n{title}")
        print(f"{'low-res sites':>14} " + " ".join(f"{s * s:>11}" for s in SIDES))
        for shape, skip_grad in STAGES:
            cells = [stage_ms(shape, skip_grad, side, backward, rng) for side in SIDES]
            label = "{} + {} -> {}".format(*shape)
            print(f"{label:>14} " + " ".join(f"{c:5.2f}/{f:<5.2f}" for c, f in cells))


if __name__ == "__main__":
    main()
