import numpy as np
import pytest

from harmlab.errors import OptimizerError, ShapeError
from harmlab.optim import AdamState, adam_step
from harmlab.tensor import Tensor


def _param(values, grad) -> Tensor:
    p = Tensor(np.array(values, dtype=np.float64))
    p.grad = np.array(grad, dtype=np.float64)
    return p


def test_zero_gradient_leaves_params_and_moments_untouched():
    p = _param([1.0, -2.0, 3.0], np.zeros(3))
    state = AdamState(lr=0.01)
    adam_step(p, state)
    assert np.array_equal(p.data, [1.0, -2.0, 3.0])
    assert np.array_equal(state.m, np.zeros(3))
    assert np.array_equal(state.v, np.zeros(3))
    assert state.step == 1


def test_first_step_matches_hand_evaluation():
    # bias-corrected update with g=0.5: m_hat=0.5, v_hat=0.25,
    # delta = -lr * 0.5 / (0.5 + eps)
    p = _param([0.0], [0.5])
    state = AdamState(lr=0.001)
    adam_step(p, state)
    expected = -0.001 * 0.5 / (0.5 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15


def test_two_steps_match_scalar_oracle_exactly():
    p = _param([0.0], [0.5])
    state = AdamState(lr=0.001)
    for _ in range(2):
        adam_step(p, state)

    b1, b2, lr, eps = 0.9, 0.999, 0.001, 1e-8
    m = v = theta = 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 0.5
        v = b2 * v + (1 - b2) * 0.25
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert p.data[0] == theta


def test_non_finite_gradient_aborts_before_mutation():
    p = _param([1.0, 2.0], [0.1, np.nan])
    state = AdamState()
    with pytest.raises(OptimizerError, match="non-finite gradient"):
        adam_step(p, state)
    assert np.array_equal(p.data, [1.0, 2.0])
    assert state.step == 0
    assert state.m is None


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        adam_step(_param(np.zeros(2), np.zeros(3)), AdamState())
    with pytest.raises(ShapeError):
        adam_step(Tensor(np.zeros(2)), AdamState())  # no gradient attached
    state = AdamState()
    adam_step(_param(np.zeros(2), np.ones(2)), state)
    with pytest.raises(ShapeError, match="state"):
        adam_step(_param(np.zeros(3), np.ones(3)), state)


def test_learning_rate_is_mutable_between_steps():
    p = _param([0.0], [1.0])
    state = AdamState(lr=0.1)
    adam_step(p, state)
    first = p.data[0]
    state.lr = 0.01
    adam_step(p, state)
    assert abs(p.data[0] - first) < 0.02
