"""Central-difference gradient verification.

``grad_check`` compares reverse-mode gradients of ``sum(weights * fn(x))``
against (f(x+h) - f(x-h)) / 2h per coordinate. The relative error for a
coordinate is |a - n| / max(1, |a|, |n|); a check passes when the maximum
over all checked coordinates is at or below the tolerance. Reports render as
one plain-text line: ``op=<name> max_rel_err=<value> pass=<bool>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Graph, Tensor

DEFAULT_TOL = 1e-4
DEFAULT_H = 1e-5


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    passed: bool
    worst: Optional[tuple[int, int]] = None  # (input index, flat coordinate)
    note: str = ""

    def line(self) -> str:
        return f"op={self.name} max_rel_err={self.max_rel_err:.6e} pass={self.passed}"


def grad_check(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    h: float = DEFAULT_H,
    tol: float = DEFAULT_TOL,
    name: str = "fn",
    weights: Optional[np.ndarray] = None,
) -> GradCheckResult:
    """Check the reverse-mode gradient of ``sum(weights * fn(inputs))``.

    ``fn`` receives ``inputs`` (each with ``requires_grad=True``) and returns
    a Tensor; ``weights`` is an array of its shape, and may be left out for a
    scalar output. The backward is seeded with ``weights`` (a vector-Jacobian
    product) and the numeric side sums ``weights * fn(inputs)`` in numpy.
    ``fn`` is re-evaluated with nudged coordinates, so it must be
    deterministic and must not mutate its inputs.
    """
    for t in inputs:
        t.zero_grad()
        t.requires_grad = True

    with Graph() as graph:
        graph.backward(fn(inputs), weights)

    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]
    for t in inputs:
        t.zero_grad()
    w = 1.0 if weights is None else np.asarray(weights, dtype=np.float64)

    def eval_scalar() -> float:
        return float(np.sum(w * fn(inputs).data))

    max_err = 0.0
    worst: Optional[tuple[int, int]] = None
    for ti, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        aflat = analytic[ti].reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + h
            f_plus = eval_scalar()
            flat[ci] = orig - h
            f_minus = eval_scalar()
            flat[ci] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(aflat[ci])
            if not (math.isfinite(a) and math.isfinite(numeric)):
                return GradCheckResult(
                    name, float("inf"), False, (ti, ci),
                    note=f"non-finite gradient at input {ti} coordinate {ci}",
                )
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > max_err:
                max_err = err
                worst = (ti, ci)
    return GradCheckResult(name, max_err, max_err <= tol, worst)
