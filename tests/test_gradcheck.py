import numpy as np

from harmlab import tensor as tc
from harmlab import verify
from harmlab.gradcheck import grad_check
from harmlab.synthdata import GenConfig, generate_dataset
from harmlab.tensor import Graph, Tensor
from harmlab.training import prepare_sample, sample_loss
from harmlab.unet import GeneratorModel, UNetConfig


def test_sum_gradient_is_exact():
    result = grad_check(lambda ts: ts[0], [Tensor(np.random.default_rng(0).normal(size=(3, 4)))],
                        name="sum", weights=np.ones((3, 4)))
    assert result.passed
    assert result.max_rel_err < 1e-9


def test_relu_away_from_kink():
    # weights seed the backward, a vector-Jacobian product; the numeric side sums weights * relu in numpy
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 4))
    x = np.where(np.abs(x) < 0.01, 0.5, x)  # keep coordinates clear of the kink
    result = grad_check(lambda ts: tc.relu(ts[0]), [Tensor(x)], name="relu", weights=rng.normal(size=(4, 4)))
    assert result.passed


def test_report_line_format():
    result = grad_check(lambda ts: ts[0], [Tensor(np.ones((2, 2)))], name="sum", weights=np.ones((2, 2)))
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
        return out

    result = grad_check(broken, [Tensor(np.ones(3))], name="broken", weights=np.ones(3))
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


def test_op_checks_leave_the_fold_threshold_alone(monkeypatch):
    # A1 checks both of up_conv3x3's layouts without writing the module's
    # threshold, which a decoder stage on another thread reads meanwhile.
    seen = []
    layout = tc._up_conv3x3

    def spy(*args):
        seen.append((tc._FOLD_MIN_SITES, args[-1]))
        return layout(*args)

    monkeypatch.setattr(tc, "_up_conv3x3", spy)
    verify.op_grad_checks()
    assert {threshold for threshold, _ in seen} == {576}
    assert {folded for _, folded in seen} == {False, True}


def test_no_gradient_shares_memory_with_its_output_gradient(monkeypatch):
    # _accum adopts the first gradient a tensor gets as its buffer, so no
    # op's backward may hand over its output gradient or a view of it
    outs, accumulated = [], []
    record, accum = tc._maybe_record, tc._accum

    def record_spy(op, rec_outs, inputs, fn):
        def bwd():
            outs.append(rec_outs)
            fn()
            outs.pop()

        record(op, rec_outs, inputs, bwd)

    def accum_spy(t, g):
        assert outs, "a gradient was accumulated outside a record's backward"
        for out in outs[-1]:
            assert out.grad is None or not np.shares_memory(g, out.grad), "gradient shares its output gradient"
        accumulated.append(g)
        accum(t, g)

    monkeypatch.setattr(tc, "_maybe_record", record_spy)
    monkeypatch.setattr(tc, "_accum", accum_spy)
    (sample,) = generate_dataset(GenConfig(seed=3, size=32), 1)
    for block in ("none", "rain", "srin"):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, base_channels=8, block=block), seed=0)
        with Graph() as g:
            g.backward(sample_loss(model, prepare_sample(model, sample)))
    steps = len(accumulated)
    assert all(r.passed for r in verify.run_suite())
    assert steps > 0 and len(accumulated) > steps
