"""Bias-corrected Adam with deterministic, in-place updates."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import OptimizerError, ShapeError
from .tensor import Tensor


class AdamState:
    """Moment buffers and step counter for one parameter set.

    Buffers are allocated lazily on the first update so the state can be
    built before the parameter shapes are known.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        names: Optional[Sequence[str]] = None,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.names = list(names) if names is not None else None
        self.step = 0
        self.m: Optional[list[np.ndarray]] = None
        self.v: Optional[list[np.ndarray]] = None


def adam_step(params: Sequence[Tensor], grads: Sequence[Optional[np.ndarray]], state: AdamState) -> None:
    """One Adam update, applied in place to ``params``.

    ``grads[i]`` may be ``None`` for a parameter that did not participate in
    the step (treated as a zero gradient). Any non-finite gradient aborts the
    whole update, before any parameter or moment buffer is touched.
    """
    if len(params) != len(grads):
        raise ShapeError(f"adam_step: {len(params)} params but {len(grads)} grads")

    def name(i: int) -> str:
        if state.names is not None and i < len(state.names):
            return state.names[i]
        return f"param{i}"

    dense: list[np.ndarray] = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.data)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name(i)}")
        if not np.all(np.isfinite(g)):
            finite = g[np.isfinite(g)]
            peak = float(np.max(np.abs(finite))) if finite.size else float("nan")
            raise OptimizerError(
                f"adam_step: non-finite gradient for {name(i)} "
                f"(max |g| over finite entries: {peak:.6g})"
            )
        dense.append(g)

    if state.m is None:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(state.m) != len(params):
        raise ShapeError("adam_step: state was initialized for a different parameter count")

    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    # Two scratch arrays per parameter hold every intermediate of
    # p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps), op for op.
    for p, g, m, v in zip(params, dense, state.m, state.v):
        a = np.multiply(g, 1.0 - b1)
        m *= b1
        m += a
        np.multiply(g, g, out=a)
        a *= 1.0 - b2
        v *= b2
        v += a
        np.divide(m, 1.0 - b1 ** t, out=a)
        a *= state.lr
        d = np.divide(v, 1.0 - b2 ** t)
        np.sqrt(d, out=d)
        d += state.eps
        a /= d
        p.data -= a
