"""Bias-corrected Adam with deterministic, in-place updates.

``adam_step`` steps one tensor from its ``.grad``; training steps the model's
flat parameter buffer. The decay rates and epsilon are constants; the
learning rate, which the schedule changes between steps, is state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import OptimizerError, ShapeError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Learning rate, step counter and moment buffers for one tensor.

    The buffers are allocated on the first update, so the state can be
    built before the parameter is.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None


def adam_step(param: Tensor, state: AdamState) -> None:
    """One Adam update of ``param`` from ``param.grad``, applied in place.

    A non-finite gradient aborts the update before the parameter or a moment
    buffer is touched.
    """
    g = param.grad
    if g is None or g.shape != param.shape:
        raise ShapeError(f"adam_step: gradient {None if g is None else g.shape} for a parameter of shape {param.shape}")
    if not np.all(np.isfinite(g)):
        finite = g[np.isfinite(g)]
        peak = float(np.max(np.abs(finite))) if finite.size else float("nan")
        raise OptimizerError(f"adam_step: non-finite gradient (max |g| over finite entries: {peak:.6g})")

    if state.m is None:
        state.m, state.v = np.zeros_like(param.data), np.zeros_like(param.data)
    if state.m.shape != param.shape:
        raise ShapeError(f"adam_step: state was initialized for shape {state.m.shape}, not {param.shape}")

    state.step += 1
    t = state.step
    m, v = state.m, state.v
    # Two scratch arrays hold every intermediate of
    # p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps), op for op.
    a = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += a
    np.multiply(g, g, out=a)
    a *= 1.0 - BETA2
    v *= BETA2
    v += a
    np.divide(m, 1.0 - BETA1 ** t, out=a)
    a *= state.lr
    d = np.divide(v, 1.0 - BETA2 ** t)
    np.sqrt(d, out=d)
    d += EPS
    a /= d
    param.data -= a
