import threading

import numpy as np
import pytest

from harmlab import tensor as tc
from harmlab.blocks import (
    BlockPlan, SrinParams, _attention, _channel_stats, _modulate, _normalize, rain_forward, srin_forward,
)
from harmlab.errors import ShapeError
from harmlab.gradcheck import grad_check
from harmlab.tensor import EPS_DEFAULT, Graph, Tensor
from harmlab.verify import random_srin_instance


class TestTensorBasics:
    def test_rejects_zero_sized_dims(self):
        with pytest.raises(ShapeError):
            Tensor(np.empty((2, 0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            Tensor(np.array([np.inf]))

    def test_grad_absent_until_backward(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert t.grad is None
        with Graph() as g:
            out = tc.l1_loss(t, np.zeros(3), 0.0, 1.0)
            g.backward(out)
        assert np.array_equal(t.grad, np.ones(3))


class TestConv1x1:
    """The srin block's 1x1 projections, seen through the [C, N] key it keeps:
    ``w_key @ normed + b_key`` at every site of the normalized map."""

    @staticmethod
    def key_and_normed(feat, w, bias):
        c, h, wd = feat.shape
        mask = np.zeros((h, wd))
        mask[0, 0] = 1.0
        params = SrinParams.create(c, np.random.default_rng(0))
        params.w_key.data, params.b_key.data = np.asarray(w, dtype=np.float64), np.asarray(bias, dtype=np.float64)
        res = srin_forward(Tensor(feat), mask, np.zeros((3, h, wd)), params)
        normed = _normalize(feat, *_channel_stats(feat, np.array([0]))[:2])[0]
        return res.key, normed.reshape(c, -1)

    def test_identity_weights(self):
        x = np.random.default_rng(0).normal(size=(3, 4, 5))
        key, normed = self.key_and_normed(x, np.eye(3), np.zeros(3))
        assert np.array_equal(key, normed)

    def test_per_pixel_linear_map(self):
        x = np.random.default_rng(1).normal(size=(2, 1, 2))
        w, bias = np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([0.0, 1.0])
        key, normed = self.key_and_normed(x, w, bias)
        assert np.array_equal(key, [normed[0] + normed[1], 2.0 * normed[0] + 1.0])

    def test_zero_weights_give_bias(self):
        bias = np.array([0.25, -0.5])
        key, _ = self.key_and_normed(np.random.default_rng(2).normal(size=(2, 2, 2)), np.zeros((2, 2)), bias)
        assert np.array_equal(key, np.broadcast_to(bias[:, None], (2, 4)))

    def test_channel_mismatch(self):
        mask = np.array([[1.0, 0.0], [0.0, 0.0]])
        params = SrinParams.create(2, np.random.default_rng(3))
        with pytest.raises(ShapeError, match="for 2 channels, the map has 3"):
            srin_forward(Tensor(np.ones((3, 2, 2))), mask, np.zeros((3, 2, 2)), params)


# The conv op of each stride: the head's stride-1 conv3x3 and an encoder
# stage's down_conv3x3, whose output is the relu of a stride-2 conv.
CONV = {1: tc.conv3x3, 2: tc.down_conv3x3}


class TestConv3x3:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 5))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = tc.conv3x3(Tensor(x), Tensor(w), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, x)

    def test_box_sums_on_ones(self):
        out = tc.conv3x3(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        assert np.array_equal(out.data[0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])

    def test_stride_two_output_size(self):
        out = tc.down_conv3x3(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        assert out.shape == (1, 2, 2)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(2)
        for h, w in [(4, 4), (5, 7), (6, 3)]:
            x = rng.normal(size=(2, h, w))
            k = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            for stride, op in CONV.items():
                got = op(Tensor(x), Tensor(k), Tensor(b)).data
                ho, wo = -(-h // stride), -(-w // stride)
                ref = np.zeros((3, ho, wo))
                for co in range(3):
                    for oy in range(ho):
                        for ox in range(wo):
                            s = 0.0
                            for ci in range(2):
                                for ky in range(3):
                                    for kx in range(3):
                                        iy, ix = oy * stride + ky - 1, ox * stride + kx - 1
                                        if 0 <= iy < h and 0 <= ix < w:
                                            s += k[co, ci, ky, kx] * x[ci, iy, ix]
                            ref[co, oy, ox] = s + b[co]
                if stride == 2:
                    ref = np.maximum(ref, 0.0)
                assert np.allclose(got, ref, atol=1e-12, rtol=0), (h, w, stride)

    @pytest.mark.parametrize("h, w", [(5, 7), (6, 3)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_central_differences(self, h, w, stride):
        rng = np.random.default_rng(3)
        ho, wo = -(-h // stride), -(-w // stride)
        weights = rng.normal(size=(2, ho, wo))
        arrays = rng.normal(size=(3, h, w)), 0.4 * rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)
        # a central difference of step 1e-5 crosses down_conv3x3's relu kink only at pre-activations near 0
        assert np.abs(self.dense_forward(*arrays, stride)).min() > 0.01
        res = grad_check(lambda ts: CONV[stride](*ts), [Tensor(a) for a in arrays], name=f"conv_s{stride}_{h}x{w}",
                         weights=weights)
        assert res.passed, res.line()

    @staticmethod
    def dense_reference(x, k, g, stride):
        """Loop over the nine taps: (dX, dW, dbias) of sum(conv3x3(x, k, b) * g)."""
        _, h, w = x.shape
        ho, wo = g.shape[1:]
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        dpadded = np.zeros_like(padded)
        dk = np.zeros_like(k)
        for ky in range(3):
            for kx in range(3):
                window = np.s_[:, ky : ky + stride * (ho - 1) + 1 : stride, kx : kx + stride * (wo - 1) + 1 : stride]
                dk[:, :, ky, kx] = np.einsum("oyx,iyx->oi", g, padded[window])
                dpadded[window] += np.einsum("oi,oyx->iyx", k[:, :, ky, kx], g)
        return dpadded[:, 1 : h + 1, 1 : w + 1], dk, g.sum(axis=(1, 2))

    @staticmethod
    def backward_of(x, k, b, g, stride, x_grad=True):
        """The op's output and its gradients at x, k and b, and the output gradient through the op's relu."""
        ts = Tensor(x, requires_grad=x_grad), Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        with Graph() as graph:
            out = CONV[stride](*ts)
        graph.backward(out, g)
        return [t.grad for t in ts], g * (out.data > 0.0) if stride == 2 else g

    @pytest.mark.parametrize("c_in, c_out", [(5, 2), (2, 5), (3, 3)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 5), (5, 7)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_gradients_match_dense_reference(self, c_in, c_out, stride, h, w, x_grad):
        rng = np.random.default_rng(c_in * 100 + c_out * 10 + h)
        x, k, b = rng.normal(size=(c_in, h, w)), rng.normal(size=(c_out, c_in, 3, 3)), rng.normal(size=c_out)
        g = rng.normal(size=(c_out, -(-h // stride), -(-w // stride)))
        got, g_pre = self.backward_of(x, k, b, g, stride, x_grad)
        expected = self.dense_reference(x, k, g_pre, stride)
        if not x_grad:
            assert got[0] is None
        for part, ref in zip(got, expected):
            if part is not None:
                assert np.abs(part - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_shared_weight_gradient_is_the_sum(self):
        # one conv takes the stacked backward (C_out < C_in, input needs a
        # gradient), the other the per-tap one (its input needs none)
        rng = np.random.default_rng(11)
        k = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        x1 = Tensor(rng.normal(size=(4, 5, 6)), requires_grad=True)
        x2 = Tensor(rng.normal(size=(4, 7, 3)))
        g1, g2 = rng.normal(size=(2, 5, 6)), rng.normal(size=(2, 4, 2))
        with Graph() as graph1:
            out1 = tc.conv3x3(x1, k, b)
        with Graph() as graph2:
            out2 = tc.down_conv3x3(x2, k, b)
        graph2.backward(out2, g2)
        graph1.backward(out1, g1)
        dx1, dk1, db1 = self.dense_reference(x1.data, k.data, g1, 1)
        _, dk2, db2 = self.dense_reference(x2.data, k.data, g2 * (out2.data > 0.0), 2)
        for got, ref in ((x1.grad, dx1), (k.grad, dk1 + dk2), (b.grad, db1 + db2)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @staticmethod
    def dense_forward(x, k, b, stride=1):
        """The 3x3 conv over the whole map, before any relu, one einsum per tap on the zero-padded input."""
        _, h, w = x.shape
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        return b[:, None, None] + sum(np.einsum("oi,iyx->oyx", k[:, :, ky, kx], padded[:, ky : ky + h : stride,
                                                                                        kx : kx + w : stride])
                                      for ky in range(3) for kx in range(3))

    @staticmethod
    def region_run(x, k, b, g, region, x_at, x_grad=True):
        ts = Tensor(x, requires_grad=x_grad), Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        with Graph() as graph:
            out = tc.conv3x3(*ts, region=region, x_at=x_at)
        assert [r.op for r in graph.records] == ["conv3x3"]
        graph.backward(out, g)
        return [out.data] + [t.grad for t in ts]

    # x is a [C, 5, 6] window at site (3, 7): rows 3:8, columns 7:13
    WINDOW_REGIONS = {
        "top_left": (3, 5, 7, 9), "top_right": (3, 5, 11, 13), "bottom_left": (6, 8, 7, 9),
        "bottom_right": (6, 8, 11, 13), "top": (3, 4, 8, 12), "bottom": (7, 8, 8, 12), "left": (4, 7, 7, 8),
        "right": (4, 7, 12, 13), "inside": (4, 7, 8, 12), "one_pixel": (5, 6, 9, 10),
        "one_pixel_corner": (7, 8, 12, 13), "whole": (3, 8, 7, 13),
    }

    @pytest.mark.parametrize("c_in, c_out", [(5, 2), (2, 5)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_region_matches_dense_reference(self, c_in, c_out, x_grad):
        # the head's case is C_in > C_out; the other takes the per-tap backward.
        # The last case is the empty mask's box: one site of a 1x1 map.
        rng = np.random.default_rng(c_in * 10 + c_out)
        cases = [((c_in, 5, 6), region, (3, 7)) for region in self.WINDOW_REGIONS.values()]
        for shape, region, x_at in cases + [((c_in, 1, 1), (0, 1, 0, 1), (0, 0))]:
            x, k, b = rng.normal(size=shape), rng.normal(size=(c_out, c_in, 3, 3)), rng.normal(size=c_out)
            top, bottom, left, right = region
            cut = np.s_[:, top - x_at[0] : bottom - x_at[0], left - x_at[1] : right - x_at[1]]
            g = rng.normal(size=(c_out, bottom - top, right - left))
            g_full = np.zeros((c_out, *shape[1:]))
            g_full[cut] = g
            want = [self.dense_forward(x, k, b)[cut], *self.dense_reference(x, k, g_full, 1)]
            got = self.region_run(x, k, b, g, region, x_at, x_grad)
            if not x_grad:
                assert got[1] is None
                want[1] = None
            for part, a, ref in zip(("out", "x", "w", "bias"), got, want):
                if ref is not None:
                    assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max(), (part, region)

    def test_whole_map_region_is_the_unregioned_conv_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for c_in, c_out in ((5, 2), (2, 5)):
            x, k, b = rng.normal(size=(c_in, 5, 6)), rng.normal(size=(c_out, c_in, 3, 3)), rng.normal(size=c_out)
            g = rng.normal(size=(c_out, 5, 6))
            plain, _ = self.backward_of(x, k, b, g, 1)
            for region, x_at in (((0, 5, 0, 6), (0, 0)), ((3, 8, 7, 13), (3, 7))):
                got = self.region_run(x, k, b, g, region, x_at)
                assert np.array_equal(got[0], tc.conv3x3(Tensor(x), Tensor(k), Tensor(b)).data)
                assert all(np.array_equal(a, ref) for a, ref in zip(got[1:], plain)), (c_in, region)

    def test_region_backward_adds_into_the_window(self):
        # a delta kernel copies x: the output is x on the region, and the
        # gradient lands in the region's window of x's gradient
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = w[1, 1, 1, 1] = 1.0
        g = rng.normal(size=(2, 2, 3))
        with Graph() as graph:
            window = tc.conv3x3(x, Tensor(w), Tensor(np.zeros(2)), region=(11, 13, 22, 25), x_at=(10, 20))
        assert np.array_equal(window.data, x.data[:, 1:3, 2:5])
        graph.backward(window, g)
        pasted = np.zeros((2, 5, 6))
        pasted[:, 1:3, 2:5] = g
        assert np.array_equal(x.grad, pasted)

    def test_weight_errors(self):
        x = Tensor(np.ones((2, 4, 5)))
        for op in CONV.values():
            for w, b in (((3, 1, 3, 3), 3), ((3, 2, 2, 2), 3), ((3, 2, 3, 3), 2), ((2, 3, 3), 2)):
                with pytest.raises(ShapeError, match="input channels"):
                    op(x, Tensor(np.ones(w)), Tensor(np.zeros(b)))
            with pytest.raises(ShapeError, match=r"need \[C, H, W\] maps"):
                op(Tensor(np.ones((4, 5))), Tensor(np.ones((3, 2, 3, 3))), Tensor(np.zeros(3)))

    def test_region_errors(self):
        x, w, b = Tensor(np.ones((1, 4, 5))), Tensor(np.ones((2, 1, 3, 3))), Tensor(np.zeros(2))
        for region, x_at in (((0, 5, 0, 5), (0, 0)), ((2, 2, 0, 5), (0, 0)), ((0, 3, -1, 2), (0, 0)),
                             ((0, 3, 0, 3), (1, 0)), ((5, 6, 2, 3), (1, 1))):
            with pytest.raises(ShapeError, match="region"):
                tc.conv3x3(x, w, b, region=region, x_at=x_at)


def stage_reference(low, skip, k, bias, region, low_at, skip_at, g):
    """The decoder stage in plain numpy: ``relu(conv3x3(concat(upsample2(low), skip)))`` on
    ``region`` with nine taps over a zero canvas; returns the output and the VJPs of ``g``
    at low, skip, k and bias."""
    (c_low, h, w), (c_skip, hs, ws) = low.shape, skip.shape
    (lt, ll), (st, sl) = low_at, skip_at
    top, bottom, left, right = region
    o_r, o_c = min(2 * lt, st, top - 1), min(2 * ll, sl, left - 1)
    rows = max(2 * (lt + h), st + hs, bottom + 1) - o_r
    cols = max(2 * (ll + w), sl + ws, right + 1) - o_c
    up = np.zeros((c_low, rows, cols))
    up[:, 2 * lt - o_r : 2 * (lt + h) - o_r, 2 * ll - o_c : 2 * (ll + w) - o_c] = np.repeat(np.repeat(low, 2, 1), 2, 2)
    sk = np.zeros((c_skip, rows, cols))
    sk[:, st - o_r : st + hs - o_r, sl - o_c : sl + ws - o_c] = skip
    canvas = np.concatenate([up, sk])
    ho, wo = bottom - top, right - left
    taps = [np.s_[:, top - 1 - o_r + ky : top - 1 - o_r + ky + ho, left - 1 - o_c + kx : left - 1 - o_c + kx + wo]
            for ky in range(3) for kx in range(3)]
    pre = bias[:, None, None] + sum(np.einsum("oi,iyx->oyx", k[:, :, t // 3, t % 3], canvas[s]) for t, s in enumerate(taps))
    g = g * (pre > 0.0)
    dcanvas, dk = np.zeros_like(canvas), np.zeros_like(k)
    for t, s in enumerate(taps):
        dk[:, :, t // 3, t % 3] = np.einsum("oyx,iyx->oi", g, canvas[s])
        dcanvas[s] += np.einsum("oi,oyx->iyx", k[:, :, t // 3, t % 3], g)
    dup = dcanvas[:c_low, 2 * lt - o_r : 2 * (lt + h) - o_r, 2 * ll - o_c : 2 * (ll + w) - o_c]
    dlow = dup.reshape(c_low, h, 2, w, 2).sum(axis=(2, 4))
    dskip = dcanvas[c_low:, st - o_r : st + hs - o_r, sl - o_c : sl + ws - o_c]
    return np.maximum(pre, 0.0), dlow, dskip, dk, g.sum(axis=(1, 2))


class TestUpConv3x3:
    LAYOUTS = {"concat": 1 << 30, "folded": 0}  # tc._FOLD_MIN_SITES forcing each layout

    @staticmethod
    def run(arrays, skip_grad, g, *where):
        low, skip, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        skip.requires_grad = skip_grad
        with Graph() as graph:
            out = tc.up_conv3x3(low, skip, w, b, *where)
        assert [r.op for r in graph.records] == ["up_conv3x3"]
        graph.backward(out, g)
        return [out.data] + [t.grad for t in (low, skip, w, b)]

    def check(self, monkeypatch, arrays, skip_grad, where, seed):
        region = where[0]
        g = np.random.default_rng(seed).normal(size=(arrays[2].shape[0], region[1] - region[0], region[3] - region[2]))
        want = list(stage_reference(*arrays, *where, g))
        want[2] = want[2] if skip_grad else None
        runs = []
        for layout, min_sites in self.LAYOUTS.items():
            monkeypatch.setattr(tc, "_FOLD_MIN_SITES", min_sites)
            runs.append(self.run(arrays, skip_grad, g, *where))
            assert all(np.array_equal(a, b) for a, b in zip(runs[-1], self.run(arrays, skip_grad, g, *where))
                       if a is not None), layout  # two runs are bit-identical
            for part, got, ref in zip(("out", "low", "skip", "w", "bias"), runs[-1], want):
                if ref is None:  # the skip's gradient when it needs none
                    assert got is None, (layout, part)
                else:
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (layout, part, where)

    @staticmethod
    def arrays(c_low, c_skip, c_out, low_shape, skip_shape, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(c_low, *low_shape)), rng.normal(size=(c_skip, *skip_shape)),
                rng.normal(size=(c_out, c_low + c_skip, 3, 3)), rng.normal(size=c_out)]

    @pytest.mark.parametrize("c_low, c_skip, c_out, h, w", [
        (3, 5, 7, 1, 1), (1, 3, 2, 2, 5), (5, 1, 3, 4, 3), (4, 2, 3, 3, 3),
    ])
    @pytest.mark.parametrize("skip_grad", [True, False])
    def test_matches_upsample_concat_conv_chain(self, c_low, c_skip, c_out, h, w, skip_grad, monkeypatch):
        # the whole map: skip [C, 2H, 2W] and low both at the origin
        arrays = self.arrays(c_low, c_skip, c_out, (h, w), (2 * h, 2 * w), h * 10 + w)
        self.check(monkeypatch, arrays, skip_grad, ((0, 2 * h, 0, 2 * w), (0, 0), (0, 0)), h)

    @pytest.mark.parametrize("c_low, c_skip, c_out", [(5, 4, 2), (3, 3, 3), (2, 3, 6), (5, 2, 3), (2, 5, 3)])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (4, 3)])
    @pytest.mark.parametrize("skip_grad", [True, False])
    def test_gradients_match_dense_reference(self, c_low, c_skip, c_out, h, w, skip_grad, monkeypatch):
        # A [C, 2H + 1, 2W + 1] skip map, an odd size, at the origin and low at
        # its region origin, as in the decoder: regions at each edge and
        # corner, one site, and the whole map; then low and skip as windows
        # of a larger map (the ``none`` encoder's).
        hs, ws = 2 * h + 1, 2 * w + 1
        regions = [(0, hs, 0, ws), (0, 1, 0, 1), (hs - 1, hs, ws - 1, ws), (0, hs, ws - 1, ws),
                   (hs // 2, hs, 0, max(ws // 2, 1)), (1, hs, 1, ws)]
        for i, region in enumerate(regions):
            top, bottom, left, right = region
            low_at = (max(top - 1, 0) // 2, max(left - 1, 0) // 2)
            low_shape = (min(bottom // 2 + 1, h + 1) - low_at[0], min(right // 2 + 1, w + 1) - low_at[1])
            arrays = self.arrays(c_low, c_skip, c_out, low_shape, (hs, ws), c_low * 100 + c_skip * 10 + c_out + i)
            self.check(monkeypatch, arrays, skip_grad, (region, low_at, (0, 0)), i)
        arrays = self.arrays(c_low, c_skip, c_out, (h, w), (hs, ws), h + w)
        self.check(monkeypatch, arrays, skip_grad, ((7, 7 + hs - 1, 5, 5 + ws - 1), (3, 2), (7, 5)), 7)

    def test_shape_errors(self):
        low, b = Tensor(np.ones((2, 3, 3))), Tensor(np.zeros(4))
        with pytest.raises(ShapeError, match="region"):
            tc.up_conv3x3(low, Tensor(np.ones((1, 6, 5))), Tensor(np.ones((4, 3, 3, 3))), b, (0, 6, 0, 6))
        with pytest.raises(ShapeError, match="region"):
            tc.up_conv3x3(low, Tensor(np.ones((1, 6, 6))), Tensor(np.ones((4, 3, 3, 3))), b, (0, 2, 0, 2), (0, 0), (1, 0))
        with pytest.raises(ShapeError, match="input channels"):
            tc.up_conv3x3(low, Tensor(np.ones((1, 6, 6))), Tensor(np.ones((4, 2, 3, 3))), b, (0, 6, 0, 6))


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = tc._softmax_rows(np.array([[0.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_log_two_row(self):
        out = tc._softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_rows_sum_to_one_for_extreme_logits(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.uniform(-50.0, 50.0, size=(5, 8))
            y = tc._softmax_rows(z)
            assert np.all(y >= 0.0)
            assert np.max(np.abs(y.sum(axis=1) - 1.0)) <= 1e-9


def attention_instance(seed, c=3, n=16, k=3):
    """[C, K] queries, [C, N] keys and values, and the background sites of a mask holding both regions."""
    rng = np.random.default_rng(seed)
    q, key, value = rng.normal(size=(c, k)), rng.normal(size=(c, n)), rng.normal(size=(c, n))
    mask = rng.uniform(size=n) < 0.4
    mask[0], mask[-1] = True, False
    return (q, key, value), mask


class TestRegionAttention:
    """``blocks._attention``: the ``srin`` block's attention from K queries to the background."""

    def test_matches_per_query_loop(self):
        for seed in range(5):
            (q, k, v), mask = attention_instance(seed)
            bg = np.flatnonzero(~mask)
            out, _ = _attention(q, k, v, bg)
            assert out.shape == q.shape
            for i in range(q.shape[1]):
                logits = np.array([q[:, i] @ k[:, j] for j in bg])
                e = np.exp(logits - logits.max())
                want = sum(a * v[:, j] for a, j in zip(e / e.sum(), bg))
                assert np.max(np.abs(out[:, i] - want)) <= 1e-12

    def test_gradients_vanish_outside_their_region(self):
        (q, k, v), fg = attention_instance(11)
        _, vjp = _attention(q, k, v, np.flatnonzero(~fg))
        dq, dk, dv = vjp(np.random.default_rng(12).normal(size=q.shape))
        assert dq.shape == q.shape and np.all(dq != 0.0)
        assert np.all(dk[:, fg] == 0.0) and np.all(dk[:, ~fg] != 0.0)
        assert np.all(dv[:, fg] == 0.0) and np.all(dv[:, ~fg] != 0.0)

    def test_one_tape_record(self):
        # the attention runs inside the srin block's one record
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(13))
        with Graph() as g:
            res = srin_forward(Tensor(feat), mask, sem, params)
        assert [r.op for r in g.records] == ["srin_block"]
        assert g.records[0].outs == (res.output,)

    def test_shape_errors(self):
        # srin_forward checks its mask and semantic map against the feature map's sites
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(14))
        with pytest.raises(ShapeError, match="mask shape"):
            srin_forward(Tensor(feat), mask[:1], sem, params)
        with pytest.raises(ShapeError, match="semantic map must be"):
            srin_forward(Tensor(feat), mask, sem[:2], params)
        with pytest.raises(ValueError, match="binary"):
            srin_forward(Tensor(feat), 0.5 * mask, sem, params)


def modulate_reference(x, base, scale, shift, index, g):
    """Dense numpy forward and VJPs of ``_modulate`` through per-site scale and shift maps."""
    fg = index >= 0
    site_scale = np.where(fg, scale[:, index], 0.0)
    site_shift = np.where(fg, shift[:, index], 0.0)
    out = np.where(fg, site_scale * x + site_shift, base)
    per_class = [index == k for k in range(scale.shape[1])]
    d_scale = np.stack([(g * x)[:, sel].sum(axis=1) for sel in per_class], axis=1)
    d_shift = np.stack([g[:, sel].sum(axis=1) for sel in per_class], axis=1)
    return out, (np.where(fg, g * site_scale, 0.0), np.where(fg, 0.0, g), d_scale, d_shift)


class TestModulate:
    """``blocks._modulate``: the blocks' per-class scale and shift over a plan's class map."""

    index = np.array([[0, -1, 1], [1, 1, -1], [-1, 0, 1]])

    @pytest.mark.parametrize("index, k", [
        (np.where(np.eye(3, dtype=bool), 0, -1), 1),  # K = 1
        (np.array([[0, -1, 1], [2, 3, -1], [-1, 4, 5]]), 6),  # K = F: one site per class
        (np.array([[0, -1, 1], [1, 1, -1], [-1, 1, 1]]), 2),  # class 0 holds one site
        (np.array([[0, -1, 2], [2, 0, -1], [-1, 2, 2]]), 3),  # class 1 holds no site
        (np.full((3, 3), -1), 2),  # every site at -1
        (np.where(np.eye(3, dtype=bool), 0, -1), None),  # [C] scale and shift: K = 1
    ], ids=["one_class", "class_per_site", "one_site_class", "empty_class", "no_site", "channel_vector"])
    def test_matches_dense_reference(self, index, k):
        rng = np.random.default_rng(9)
        x, base, g = rng.normal(size=(3, 2, 3, 3))
        scale, shift = rng.normal(size=(2, 2) if k is None else (2, 2, k))
        out, vjp = _modulate(x, base, scale, shift, BlockPlan(index))
        want, grads = modulate_reference(x, base, scale.reshape(2, -1), shift.reshape(2, -1), index, g)
        assert np.array_equal(out, want)
        got = vjp(g)
        for d, ref, a in zip(got, grads, (x, base, scale, shift)):
            assert d.shape == a.shape
            assert np.max(np.abs(d - ref.reshape(a.shape))) <= 1e-12
        for cls in set(range(k or 1)) - set(index.reshape(-1)):
            assert np.all(got[2][:, cls] == 0.0) and np.all(got[3][:, cls] == 0.0)

    def test_one_tape_record(self):
        # the modulation runs inside the rain block's one record
        x = Tensor(np.arange(9.0).reshape(1, 3, 3), requires_grad=True)
        with Graph() as g:
            out = rain_forward(x, self.index >= 0)
        assert [r.op for r in g.records] == ["rain_block"]
        assert g.records[0].outs == (out,)

    def test_index_errors(self):
        # the blocks take their classes from a binary mask of the map's sites
        x = Tensor(np.ones((2, 3, 3)))
        with pytest.raises(ShapeError, match="mask shape"):
            rain_forward(x, self.index[:2] >= 0)
        with pytest.raises(ValueError, match="binary"):
            rain_forward(x, self.index)  # -1 .. 1
        with pytest.raises(ValueError, match="binary"):
            rain_forward(x, 0.5 * (self.index >= 0))


class TestMaskedChannelStats:
    """``blocks._channel_stats``: the blocks' per-channel statistics over a region's sites."""

    def test_constant_region(self):
        mean, std, _ = _channel_stats(np.full((2, 3, 3), 5.0), np.array([0, 1]))
        assert np.array_equal(mean, [5.0, 5.0])
        assert np.array_equal(std, [np.sqrt(EPS_DEFAULT)] * 2)

    def test_two_site_region(self):
        f = np.zeros((1, 2, 2))
        f[0, 0, 0] = 1.0
        f[0, 0, 1] = 3.0
        mean, std, _ = _channel_stats(f, np.array([0, 1]))
        assert (mean[0], std[0]) == (2.0, np.sqrt(1.0 + EPS_DEFAULT))

    def test_empty_region_rejected(self):
        with pytest.raises(ShapeError, match="no site"):
            _channel_stats(np.ones((2, 2, 2)), np.array([], dtype=np.intp))

    def test_full_mask_equals_global_stats(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 4, 4))
        mean, std, _ = _channel_stats(f, np.arange(16))
        assert np.allclose(mean, f.mean(axis=(1, 2)), atol=1e-12)
        assert np.allclose(std, np.sqrt(f.var(axis=(1, 2)) + EPS_DEFAULT), atol=1e-12)


class TestTape:
    def test_backward_accumulates_through_shared_input(self):
        # x is both an encoder stage's input and the decoder stage's skip:
        # its gradient is the sum of the two
        rng = np.random.default_rng(22)
        x_data, weights = rng.normal(size=(2, 2, 4, 4))
        w_down, b_down = Tensor(rng.normal(size=(3, 2, 3, 3))), Tensor(rng.normal(size=3))
        w_up, b_up = Tensor(rng.normal(size=(2, 5, 3, 3))), Tensor(rng.normal(size=2))
        x, enc, skip = (Tensor(x_data.copy(), requires_grad=True) for _ in range(3))
        for a, b in ((x, x), (enc, skip)):
            with Graph() as g:
                low = tc.down_conv3x3(a, w_down, b_down)
                g.backward(tc.up_conv3x3(low, b, w_up, b_up, (0, 4, 0, 4)), weights)
        assert np.array_equal(x.grad, enc.grad + skip.grad)
        assert np.any(enc.grad != 0.0) and np.any(skip.grad != 0.0)

    def decoded(self, low, skip, weights):
        """``up_conv3x3`` of ``low`` and ``skip`` on a 3x3 region, backward seeded with ``weights``."""
        rng = np.random.default_rng(5)
        w, bias = Tensor(rng.normal(size=(2, 4, 3, 3))), Tensor(np.full(2, 10.0))  # no output below relu's kink
        with Graph() as g:
            y = tc.up_conv3x3(low, skip, w, bias, (0, 3, 0, 3))
            g.backward(y, weights)
        return y

    def test_gradients_are_private_copies(self):
        rng = np.random.default_rng(6)
        a, b = (Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True) for _ in range(2))
        weights = rng.normal(size=(2, 3, 3))
        y = self.decoded(a, b, weights)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, y.grad) and not np.shares_memory(b.grad, y.grad)
        assert not np.shares_memory(y.grad, weights)  # the seed is copied
        x = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        low, skip = (Tensor(x.data.copy(), requires_grad=True) for _ in range(2))
        self.decoded(low, skip, weights)
        y = self.decoded(x, x, weights)
        assert np.array_equal(x.grad, low.grad + skip.grad)
        assert np.array_equal(y.grad, weights)

    @pytest.mark.parametrize("op", ["add", "add_scalar"])
    def test_identity_and_view_gradients_are_copied(self, op):
        # the residual add inside compose_residual and the offset added inside
        # l1_loss pass the output gradient through unchanged here, yet the
        # input gets a fresh buffer, since _accum adopts what it gets
        rng = np.random.default_rng(7)
        comp = rng.uniform(0.25, 0.75, size=(2, 3, 4))
        a = Tensor(rng.uniform(-0.2, 0.2, size=(2, 3, 4)), requires_grad=True)
        with Graph() as g:
            if op == "add":
                y = tc.compose_residual(a, comp, np.ones((3, 4)))
                seed = rng.normal(size=y.shape)
            else:
                y = tc.l1_loss(a, a.data - 1.0, 0.5, 1.0)
                seed = np.array(rng.normal())
        g.backward(y, seed)
        assert np.array_equal(a.grad, np.broadcast_to(seed, a.shape))
        assert a.grad.flags.c_contiguous and not np.shares_memory(a.grad, y.grad)

    def test_seed_must_match_the_root(self):
        x = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
        with Graph() as g:
            y = tc.compose_residual(x, np.full((1, 2, 3), 0.5), np.ones((2, 3)))
        with pytest.raises(ShapeError, match="seed shape"):
            g.backward(y, np.ones((1, 3, 2)))
        with pytest.raises(ShapeError, match="seed shape"):
            g.backward(y, np.ones(6))
        assert x.grad is None
        g.backward(y, np.full((1, 2, 3), 2.0))
        assert np.array_equal(x.grad, np.full((1, 2, 3), 2.0))

    def test_tape_runs_once(self):
        # backward pops every record, and a second backward raises
        x = Tensor(np.array([[[0.25, -0.75, 0.25]]]), requires_grad=True)
        with Graph() as g:
            y = tc.l1_loss(tc.compose_residual(x, np.full((1, 1, 3), 0.5), np.ones((1, 3))), np.zeros((1, 1, 3)),
                           0.0, 1.0)
        assert [r.op for r in g.records] == ["compose_residual", "l1_loss"]
        g.backward(y)
        assert g.records == []
        assert np.array_equal(x.grad, [[[1.0, 0.0, 1.0]]])
        with pytest.raises(RuntimeError, match="already run"):
            g.backward(y)
        assert np.array_equal(x.grad, [[[1.0, 0.0, 1.0]]])

    def test_no_recording_without_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = tc.l1_loss(x, np.zeros(3), 0.0, 1.0)
        assert not out.requires_grad

    def test_forward_replay_is_bit_identical(self):
        rng = np.random.default_rng(5)
        # C_out > C_in takes the per-tap conv backward, C_out < C_in the stacked one
        for c_in, c_out, stride in ((2, 3, 2), (5, 2, 1), (5, 2, 2)):
            x = rng.normal(size=(c_in, 6, 5))
            w = rng.normal(size=(c_out, c_in, 3, 3))
            b = rng.normal(size=c_out)

            def run():
                with Graph() as g:
                    ts = Tensor(x.copy(), requires_grad=True), Tensor(w, requires_grad=True), Tensor(b)
                    out = CONV[stride](*ts)
                    g.backward(out, np.ones(out.shape))
                    return out.data.copy(), ts[0].grad.copy(), ts[1].grad.copy()

            for first, second in zip(run(), run()):
                assert np.array_equal(first, second), (c_in, c_out, stride)

    def test_threads_record_onto_their_own_tapes(self):
        # Both threads enter their graphs before either runs a forward, and
        # both finish the forward before either exits.
        barrier = threading.Barrier(2, timeout=30)
        results, errors = {}, []

        def work(name):
            try:
                x = Tensor(np.ones((1, 2, 2)), requires_grad=True)
                w, bias = Tensor(np.ones((1, 2, 3, 3))), Tensor(np.ones(1))
                with Graph() as g:
                    barrier.wait()
                    tc.l1_loss(tc.up_conv3x3(x, x, w, bias, (0, 2, 0, 2)), np.zeros((1, 2, 2)), 0.0, 1.0)
                    barrier.wait()
                results[name] = (g, x)
            except Exception as exc:  # surfaced in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for g, x in results.values():
            assert [r.op for r in g.records] == ["up_conv3x3", "l1_loss"]
            assert g.records[0].inputs[:2] == (x, x)

    def test_backward_needs_scalar_root(self):
        x = Tensor(np.zeros((1, 1, 3)), requires_grad=True)
        with Graph() as g:
            y = tc.compose_residual(x, np.full((1, 1, 3), 0.5), np.ones((1, 3)))
            with pytest.raises(ShapeError):
                g.backward(y)


class TestBlendAndMask:
    def test_blend_selects_exactly(self):
        # compose_residual takes the clipped sum at mask=1 sites and the composite itself elsewhere
        rng = np.random.default_rng(8)
        delta = rng.normal(size=(3, 4, 4))
        comp = rng.uniform(size=(3, 4, 4))
        mask = (rng.uniform(size=(4, 4)) < 0.5).astype(np.float64)
        out = tc.compose_residual(Tensor(delta), comp, mask).data
        sel = mask.astype(bool)
        assert np.array_equal(out[:, sel], np.clip(delta + comp, 0.0, 1.0)[:, sel])
        assert np.array_equal(out[:, ~sel], comp[:, ~sel])

    def test_mask_must_be_binary(self):
        with pytest.raises(ValueError):
            tc.compose_residual(Tensor(np.ones((1, 2, 2))), np.zeros((1, 2, 2)), np.full((2, 2), 0.5))


class TestHeadAndLoss:
    """``compose_residual`` and ``l1_loss`` against dense numpy, kinks included."""

    def test_compose_residual_matches_dense_reference(self):
        rng = np.random.default_rng(31)
        comp = rng.choice([0.25, 0.5, 0.75], size=(3, 4, 5))
        delta = rng.uniform(-1.0, 1.0, size=(3, 4, 5))
        delta[:, 0, 0], delta[:, 0, 1] = -comp[:, 0, 0], 1.0 - comp[:, 0, 1]  # delta + comp on the kinks, 0 and 1
        mask = (rng.uniform(size=(4, 5)) < 0.6).astype(np.float64)
        mask[0, :2] = 1.0
        g = rng.normal(size=(3, 4, 5))
        total = delta + comp
        assert np.any(total == 0.0) and np.any(total == 1.0) and np.any(total > 1.0) and np.any(total < 0.0)
        x = Tensor(delta, requires_grad=True)
        with Graph() as graph:
            out = tc.compose_residual(x, comp, mask)
        assert [r.op for r in graph.records] == ["compose_residual"]
        graph.backward(out, g)
        assert np.array_equal(out.data, np.where(mask == 1.0, np.minimum(np.maximum(total, 0.0), 1.0), comp))
        assert np.array_equal(x.grad, g * mask * ((total >= 0.0) & (total <= 1.0)))

    @pytest.mark.parametrize("root_grad", [None, 0.5])
    def test_l1_loss_matches_dense_reference(self, root_grad):
        rng = np.random.default_rng(32)
        real = rng.uniform(size=(3, 4, 5))
        out_data = real + rng.normal(scale=0.3, size=real.shape)
        out_data[:, 1, :] = real[:, 1, :]  # on the kink of |.|
        offset, scale = 0.37, 1.0 / 3072.0
        x = Tensor(out_data, requires_grad=True)
        with Graph() as graph:
            loss = tc.l1_loss(x, real, offset, scale)
        assert [r.op for r in graph.records] == ["l1_loss"] and loss.shape == ()
        graph.backward(loss, root_grad)
        diff = out_data - real
        assert np.any(diff == 0.0) and np.any(diff > 0.0) and np.any(diff < 0.0)
        assert loss.item() == (np.sum(np.abs(diff)) + offset) * scale
        g = 1.0 if root_grad is None else root_grad
        assert np.array_equal(x.grad, np.full(diff.shape, g * scale) * np.sign(diff))

    def test_shape_errors(self):
        x = Tensor(np.ones((1, 2, 2)))
        with pytest.raises(ShapeError, match="compose_residual"):
            tc.compose_residual(x, np.ones((1, 2, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            tc.compose_residual(x, np.ones((1, 2, 2)), np.ones((2, 3)))
        with pytest.raises(ShapeError, match="l1_loss"):
            tc.l1_loss(x, np.ones((2, 2)), 0.0, 1.0)
