import numpy as np

from harmlab import tensor as tc
from harmlab.gradcheck import grad_check
from harmlab.tensor import Tensor


def test_sum_gradient_is_exact():
    result = grad_check(lambda ts: tc.sum_all(ts[0]), [Tensor(np.random.default_rng(0).normal(size=(3, 4)))],
                        name="sum")
    assert result.passed
    assert result.max_rel_err < 1e-9


def test_relu_away_from_kink():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 4))
    x = np.where(np.abs(x) < 0.01, 0.5, x)  # keep coordinates clear of the kink
    result = grad_check(lambda ts: tc.sum_all(tc.relu(ts[0])), [Tensor(x)], name="relu")
    assert result.passed


def test_report_line_format():
    result = grad_check(lambda ts: tc.mean_all(ts[0]), [Tensor(np.ones((2, 2)))], name="mean")
    line = result.line()
    assert line.startswith("op=mean max_rel_err=")
    assert line.endswith("pass=True")


def test_detects_wrong_gradient():
    # forward value scales by 2 but the recorded rule claims identity
    def broken(ts):
        out = Tensor(ts[0].data * 2.0)

        def bwd():
            tc._accum(ts[0], out.grad)

        tc._maybe_record("broken", (out,), (ts[0],), bwd)
        return tc.sum_all(out)

    result = grad_check(broken, [Tensor(np.ones(3))], name="broken")
    assert not result.passed
    assert result.max_rel_err > 0.1
