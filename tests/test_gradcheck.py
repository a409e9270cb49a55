import numpy as np

from harmlab import tensor as tc
from harmlab import verify
from harmlab.gradcheck import grad_check
from harmlab.synthdata import GenConfig, generate_dataset
from harmlab.tensor import Graph, Tensor
from harmlab.training import prepare_sample, sample_loss
from harmlab.unet import GeneratorModel, UNetConfig


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
    result = grad_check(lambda ts: tc.sum_all(ts[0]), [Tensor(np.ones((2, 2)))], name="sum")
    line = result.line()
    assert line.startswith("op=sum max_rel_err=")
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


def test_op_checks_cover_exactly_the_ops_training_records(monkeypatch):
    # Every tape op a training step records has an A1 check, and A1 checks no
    # op that training does not record.
    recorded = set()
    record = tc._maybe_record

    def spy(op, outs, inputs, fn):
        record(op, outs, inputs, fn)
        if outs[0].requires_grad:  # set only when the call appended a record
            recorded.add(op)

    monkeypatch.setattr(tc, "_maybe_record", spy)
    (sample,) = generate_dataset(GenConfig(seed=3, size=32), 1)
    for block in ("none", "rain", "srin"):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, base_channels=8, block=block), seed=0)
        prep = prepare_sample(model, sample)
        assert not prep.degenerate
        with Graph():
            sample_loss(model, prep)
    trained = set(recorded)
    recorded.clear()
    verify.op_grad_checks()
    assert trained == recorded
