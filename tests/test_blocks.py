import numpy as np
import pytest

from harmlab.blocks import SrinParams, _channel_stats, _normalize, rain_forward, srin_forward
from harmlab.errors import ShapeError
from harmlab.tensor import EPS_DEFAULT, Graph, Tensor
from harmlab.verify import random_srin_instance, reference_srin


def split_mask(rng, h, w, p=0.4):
    while True:
        m = (rng.uniform(size=(h, w)) < p).astype(np.float64)
        if 0 < m.sum() < m.size:
            return m


def region_instance_norm(feat, mask):
    """The blocks' first part: every site of ``feat`` standardized by the masked region's per-channel statistics."""
    mean, std, _ = _channel_stats(feat, np.flatnonzero(mask))
    return _normalize(feat, mean, std)[0]


class TestRegionInstanceNorm:
    """``_channel_stats`` and ``_normalize``: the blocks' per-channel statistics over a region's sites."""

    def test_constant_region_normalizes_to_zero(self):
        mask = np.zeros((3, 3))
        mask[0] = 1.0
        feat = np.full((2, 3, 3), 5.0)
        mean, std, _ = _channel_stats(feat, np.flatnonzero(mask))
        assert np.array_equal(mean, [5.0, 5.0]) and np.array_equal(std, [np.sqrt(EPS_DEFAULT)] * 2)
        assert np.array_equal(region_instance_norm(feat, mask), np.zeros_like(feat))

    def test_two_value_region(self):
        # mean 2, biased variance 1: every site becomes (x - 2) / sqrt(1 + 1e-5)
        feat = np.zeros((1, 2, 2))
        feat[0, 0, 0] = 1.0
        feat[0, 0, 1] = 3.0
        mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        mean, std, _ = _channel_stats(feat, np.flatnonzero(mask))
        assert (mean[0], std[0]) == (2.0, np.sqrt(1.0 + EPS_DEFAULT))
        normed = region_instance_norm(feat, mask)
        assert np.array_equal(normed, (feat - 2.0) / np.sqrt(1.0 + 1e-5))
        assert abs(normed[0, 0, 0] + 1.0) < 1e-5
        assert abs(normed[0, 0, 1] - 1.0) < 1e-5

    def test_empty_region_rejected(self):
        feat = np.random.default_rng(0).normal(size=(2, 3, 3))
        with pytest.raises(ShapeError, match="no site"):
            region_instance_norm(feat, np.zeros((3, 3)))

    def test_whole_map_is_normalized(self):
        # statistics come from the masked region, the whole map's for a full
        # mask, but apply at every site
        rng = np.random.default_rng(1)
        feat = rng.normal(size=(1, 4, 4))
        for mask in (split_mask(rng, 4, 4), np.ones((4, 4))):
            normed = region_instance_norm(feat, mask)
            region = feat[:, mask.astype(bool)]
            mean, std = region.mean(axis=1), np.sqrt(region.var(axis=1) + 1e-5)
            expected = (feat - mean[:, None, None]) / std[:, None, None]
            assert np.allclose(normed, expected, atol=1e-12)


class TestRainForward:
    def test_constant_map_is_fixed_point(self):
        rng = np.random.default_rng(2)
        mask = split_mask(rng, 4, 4)
        out = rain_forward(Tensor(np.full((3, 4, 4), 2.5)), mask)
        assert np.allclose(out.data, 2.5, atol=1e-9)

    def test_matching_stats_is_near_identity(self):
        # foreground and background drawn from the same values
        rng = np.random.default_rng(3)
        row = rng.normal(size=4)
        feat = np.tile(row, (1, 4, 1))  # every row identical: fg stats == bg stats
        mask = np.zeros((4, 4))
        mask[:2] = 1.0
        out = rain_forward(Tensor(feat), mask)
        assert np.allclose(out.data, feat, rtol=1e-3, atol=1e-6)

    def test_scalar_renormalization_oracle(self):
        feat = np.zeros((1, 2, 2))
        feat[0, 0] = [0.0, 2.0]  # foreground
        feat[0, 1] = [4.0, 8.0]  # background
        mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        out = rain_forward(Tensor(feat), mask).data

        eps = 1e-5
        mu_f, var_f = 1.0, 1.0
        mu_b, var_b = 6.0, 4.0
        sd_f, sd_b = np.sqrt(var_f + eps), np.sqrt(var_b + eps)
        expect_fg = [sd_b * (0.0 - mu_f) / sd_f + mu_b, sd_b * (2.0 - mu_f) / sd_f + mu_b]
        assert np.allclose(out[0, 0], expect_fg, atol=1e-12)
        assert np.array_equal(out[0, 1], feat[0, 1])

    def test_background_passthrough_exact(self):
        rng = np.random.default_rng(4)
        feat = rng.normal(size=(2, 5, 5))
        mask = split_mask(rng, 5, 5)
        out = rain_forward(Tensor(feat), mask).data
        bg = mask == 0.0
        assert np.array_equal(out[:, bg], feat[:, bg])

    def test_empty_regions_pass_through(self):
        feat = Tensor(np.random.default_rng(5).normal(size=(2, 3, 3)))
        assert rain_forward(feat, np.zeros((3, 3))) is feat
        assert rain_forward(feat, np.ones((3, 3))) is feat

    def test_tail_is_one_modulate_record(self):
        # statistics, normalization and modulation are one rain_block record
        rng = np.random.default_rng(6)
        mask = split_mask(rng, 4, 4)
        with Graph() as g:
            out = rain_forward(Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True), mask)
        assert [r.op for r in g.records] == ["rain_block"]
        assert g.records[0].outs == (out,)


class TestSrinForward:
    def test_zero_modulation_heads_zero_foreground(self):
        rng = np.random.default_rng(6)
        feat, mask, sem, params = random_srin_instance(rng)
        for t in (params.w_gamma, params.b_gamma, params.w_beta, params.b_beta):
            t.data[:] = 0.0
        res = srin_forward(Tensor(feat), mask, sem, params)
        fg = mask.astype(bool)
        assert np.array_equal(res.output.data[:, fg], np.zeros_like(res.output.data[:, fg]))
        assert np.array_equal(res.output.data[:, ~fg], feat[:, ~fg])

    def test_background_passthrough_for_random_params(self):
        for trial in range(10):
            feat, mask, sem, params = random_srin_instance(np.random.default_rng(100 + trial))
            res = srin_forward(Tensor(feat), mask, sem, params)
            bg = mask == 0.0
            assert np.array_equal(res.output.data[:, bg], feat[:, bg])

    def test_attention_rows_and_masked_columns(self):
        for trial in range(10):
            feat, mask, sem, params = random_srin_instance(np.random.default_rng(200 + trial))
            res = srin_forward(Tensor(feat), mask, sem, params)
            attn = res.attention.data
            assert np.max(np.abs(attn.sum(axis=1) - 1.0)) <= 1e-9
            fg_cols = mask.reshape(-1).astype(bool)
            assert np.all(attn[:, fg_cols] == 0.0)

    def test_attention_reads_the_query_weights_of_its_forward_pass(self):
        # the per-site query is computed on read, from copies of w_query,
        # b_query and the semantic map
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(201))
        res = srin_forward(Tensor(feat), mask, sem, params)
        before = res.attention.data
        params.w_query.data += 1.0
        params.b_query.data -= 1.0
        sem += 0.5
        assert np.array_equal(res.attention.data, before)

    def test_modulation_nonnegative_and_masked(self):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(7))
        res = srin_forward(Tensor(feat), mask, sem, params)
        for m in (res.modulation.gamma.data, res.modulation.beta.data):
            assert np.all(m >= 0.0)
            assert np.all(m[:, mask == 0.0] == 0.0)

    def test_single_foreground_site_matches_hand_loop(self):
        # C=1, 2x2 map, one foreground site, unit-ish weights
        feat = np.array([[[0.5, -1.0], [2.0, 0.25]]])
        mask = np.array([[1.0, 0.0], [0.0, 0.0]])
        sem = np.stack([np.full((2, 2), 0.3), np.full((2, 2), 0.6), np.full((2, 2), 0.9)])
        rng = np.random.default_rng(0)
        params = SrinParams.create(1, rng)
        for t, v in (
            (params.w_query, [[1.0, 1.0, 1.0]]), (params.b_query, [0.0]),
            (params.w_key, [[1.0]]), (params.b_key, [0.0]),
            (params.w_value, [[1.0]]), (params.b_value, [0.0]),
            (params.w_gamma, [[1.0]]), (params.b_gamma, [0.1]),
            (params.w_beta, [[1.0]]), (params.b_beta, [0.2]),
        ):
            t.data = np.asarray(v, dtype=np.float64)
        got = srin_forward(Tensor(feat), mask, sem, params).output.data
        want = reference_srin(feat, mask, sem, params)
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_loop_oracle_on_random_instances(self):
        for trial in range(25):
            feat, mask, sem, params = random_srin_instance(np.random.default_rng(300 + trial))
            got = srin_forward(Tensor(feat), mask, sem, params).output.data
            want = reference_srin(feat, mask, sem, params)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_degenerate_masks_return_input(self):
        rng = np.random.default_rng(8)
        feat, _, sem, params = random_srin_instance(rng)
        c, h, w = feat.shape
        for mask in (np.zeros((h, w)), np.ones((h, w))):
            res = srin_forward(Tensor(feat), mask, sem, params)
            assert res.degenerate
            assert res.attention is None and res.modulation is None
            assert np.array_equal(res.output.data, feat)

    def test_permutation_equivariance(self):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(9))
        c, h, w = feat.shape
        n = h * w
        out = srin_forward(Tensor(feat), mask, sem, params).output.data
        perm = np.random.default_rng(10).permutation(n)
        out_p = srin_forward(
            Tensor(feat.reshape(c, n)[:, perm].reshape(c, h, w)),
            mask.reshape(n)[perm].reshape(h, w),
            sem.reshape(3, n)[:, perm].reshape(3, h, w),
            params,
        ).output.data
        assert np.allclose(out_p, out.reshape(c, n)[:, perm].reshape(c, h, w), atol=1e-12)

    def test_fully_differentiable(self):
        from harmlab.gradcheck import grad_check

        feat, mask, sem, params = random_srin_instance(np.random.default_rng(424242))
        weights = np.random.default_rng(5).normal(size=feat.shape)
        tensors = [Tensor(feat.copy())] + [t for _, t in params.named()]

        result = grad_check(lambda ts: srin_forward(ts[0], mask, sem, params).output, tensors, name="srin",
                            weights=weights)
        assert result.passed, result.line()

    def test_tape_holds_no_site_by_site_buffer(self):
        # attention is computed over foreground x background sites only; an
        # [N, N] buffer on the tape would cost O(N^2) memory per step
        rng = np.random.default_rng(11)
        c, hw = 4, 32
        n = hw * hw
        mask = np.zeros((hw, hw))
        mask[10:16, 12:20] = 1.0
        params = SrinParams.create(c, rng)
        feat = Tensor(rng.normal(size=(c, hw, hw)), requires_grad=True)
        with Graph() as g:
            res = srin_forward(feat, mask, rng.uniform(size=(3, hw, hw)), params)
        assert g.records
        assert max(out.size for rec in g.records for out in rec.outs) < n * n
        attn = res.attention.data
        assert attn.shape == (n, n)
        assert np.max(np.abs(attn.sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(attn >= 0.0)
        assert np.all(attn[:, mask.reshape(-1).astype(bool)] == 0.0)

    def test_tail_writes_one_site_map(self):
        # after the attention everything runs per class, [C, K], and the one
        # srin_block record's output is the only site map it writes
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(16), c_max=4, hw_max=6)
        with Graph() as g:
            res = srin_forward(Tensor(feat, requires_grad=True), mask, sem, params)
        assert [r.op for r in g.records] == ["srin_block"]
        assert g.records[0].outs == (res.output,) and res.output.shape == feat.shape
        k = np.unique(sem[:, mask == 1.0], axis=1).shape[1]
        assert res.gamma.shape == res.beta.shape == (feat.shape[0], k)


def attention_query_shape(sem, mask, c=4, seed=12):
    """Shape [C, K] of the per-class queries, one per foreground colour, of
    the one ``srin_block`` record of a taped srin forward: the shape of the
    per-class gamma that the K attention rows give."""
    rng = np.random.default_rng(seed)
    params = SrinParams.create(c, rng)
    feat = Tensor(rng.normal(size=(c, *mask.shape)), requires_grad=True)
    with Graph() as g:
        res = srin_forward(feat, mask, sem, params)
    assert [r.op for r in g.records] == ["srin_block"]
    return res.gamma.shape


class TestSrinPerClass:
    def test_attention_runs_once_per_foreground_colour(self):
        hw = 32
        mask = np.zeros((hw, hw))
        mask[10:16, 12:20] = 1.0
        sem = np.random.default_rng(13).uniform(size=(3, hw, hw))
        sem[:, 10:16, 12:20] = np.array([0.2, 0.5, 0.7])[:, None, None]
        assert attention_query_shape(sem, mask) == (4, 1)
        sem[:, 10:13, 12:20] = np.array([0.9, 0.1, 0.4])[:, None, None]
        assert attention_query_shape(sem, mask) == (4, 2)

    def test_colours_one_ulp_apart_stay_two_classes(self):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(14), c_max=3, hw_max=4)
        fg = np.flatnonzero(mask.reshape(-1))
        assert fg.size >= 2
        colour = np.array([0.3, 0.6, 0.9])
        flat = sem.reshape(3, -1)
        flat[:, fg] = colour[:, None]
        flat[1, fg[0]] = np.nextafter(colour[1], 1.0)
        assert attention_query_shape(sem, mask, c=params.channels) == (params.channels, 2)
        got = srin_forward(Tensor(feat), mask, sem, params).output.data
        assert np.max(np.abs(got - reference_srin(feat, mask, sem, params))) <= 1e-10
