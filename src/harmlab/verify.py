"""Gradient and invariant suite: every differentiable operation, the
normalization blocks, and a tiny end-to-end network, checked against central
differences; plus the value-level invariants (exact selections, attention
contracts, the loop-level reference implementation).

``run_suite`` is what the ``gradcheck`` CLI subcommand executes; each entry
renders as ``op=<name> max_rel_err=<value> pass=<bool>``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tc
from .blocks import SrinParams, _channel_stats, block_plan, rain_block, rain_forward, srin_block, srin_forward
from .gradcheck import DEFAULT_TOL, GradCheckResult, grad_check
from .imaging import Image, Mask
from .synthdata import Sample
from .tensor import EPS_DEFAULT, Tensor
from .training import prepare_sample, sample_loss
from .unet import GeneratorModel, UNetConfig


# ---------------------------------------------------------------------------
# loop-level reference for the semantic-attention block (kept deliberately
# naive and independent of the vectorized path it validates)


def reference_srin(feat: np.ndarray, mask: np.ndarray, sem: np.ndarray, params: SrinParams) -> np.ndarray:
    c_dim, h, w = feat.shape
    n = h * w
    x = feat.reshape(c_dim, n)
    sm = sem.reshape(3, n)
    flat = mask.reshape(n)
    fg = [i for i in range(n) if flat[i] == 1]
    bg = [i for i in range(n) if flat[i] == 0]
    if not fg or not bg:
        return feat.copy()

    mean = []
    std = []
    for c in range(c_dim):
        s = 0.0
        for i in fg:
            s += x[c, i]
        mu = s / len(fg)
        v = 0.0
        for i in fg:
            v += (x[c, i] - mu) ** 2
        v /= len(fg)
        mean.append(mu)
        std.append(math.sqrt(v + EPS_DEFAULT))
    normed = [[(x[c, i] - mean[c]) / std[c] for i in range(n)] for c in range(c_dim)]

    def project(wmat, bvec, src, k_dim):
        out = [[0.0] * n for _ in range(c_dim)]
        for c in range(c_dim):
            for i in range(n):
                s = 0.0
                for k in range(k_dim):
                    s += wmat[c, k] * src[k][i]
                out[c][i] = s + bvec[c]
        return out

    query = project(params.w_query.data, params.b_query.data, [sm[r] for r in range(3)], 3)
    key = project(params.w_key.data, params.b_key.data, normed, c_dim)
    value = project(params.w_value.data, params.b_value.data, [x[r] for r in range(c_dim)], c_dim)

    attn = [[0.0] * n for _ in range(n)]
    for i in range(n):
        logits = []
        for j in bg:
            s = 0.0
            for c in range(c_dim):
                s += query[c][i] * key[c][j]
            logits.append(s)
        top = max(logits)
        exps = [math.exp(t - top) for t in logits]
        z = sum(exps)
        for pos, j in enumerate(bg):
            attn[i][j] = exps[pos] / z

    pooled = [[0.0] * n for _ in range(c_dim)]
    for c in range(c_dim):
        for i in range(n):
            s = 0.0
            for j in bg:
                s += attn[i][j] * value[c][j]
            pooled[c][i] = s

    gamma = project(params.w_gamma.data, params.b_gamma.data, pooled, c_dim)
    beta = project(params.w_beta.data, params.b_beta.data, pooled, c_dim)

    out = x.copy()
    for c in range(c_dim):
        for i in fg:
            g = max(gamma[c][i], 0.0)
            b = max(beta[c][i], 0.0)
            out[c, i] = g * normed[c][i] + b
    return out.reshape(c_dim, h, w)


def random_srin_instance(rng: np.random.Generator, c_max: int = 3, hw_max: int = 4):
    """Random small feature map, mask with both regions nonempty, semantic map, params."""
    c = int(rng.integers(1, c_max + 1))
    hw = int(rng.integers(2, hw_max + 1))
    feat = rng.normal(size=(c, hw, hw))
    while True:
        mask = (rng.uniform(size=(hw, hw)) < 0.4).astype(np.float64)
        if 0 < mask.sum() < mask.size:
            break
    sem = rng.uniform(0.0, 1.0, size=(3, hw, hw))
    params = SrinParams.create(c, rng)
    return feat, mask, sem, params


# ---------------------------------------------------------------------------
# helpers


def _value_check(name: str, violation: float, limit: float) -> GradCheckResult:
    return GradCheckResult(name=name, max_rel_err=violation, passed=violation <= limit)


# ---------------------------------------------------------------------------
# gradient checks per operation


def op_grad_checks(tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    """Checks of every tape op a training step records, each of ``sum(W * op(x))`` for random weights ``W``."""
    rng = np.random.default_rng(20240521)
    results = []

    def check(name: str, fn: Callable[[Sequence[Tensor]], Tensor], arrays: Sequence[np.ndarray],
              weights: Optional[np.ndarray] = None):
        results.append(grad_check(fn, [Tensor(a.copy()) for a in arrays], tol=tol, name=name, weights=weights))

    # keep inputs clear of the kinks: l1_loss's where out equals real, and
    # compose_residual's where delta + comp is 0 or 1
    out, real = rng.normal(size=(2, 3, 4))
    out = np.where(np.abs(out - real) < 0.05, real + 0.25, out)
    check("l1_loss", lambda ts: tc.l1_loss(ts[0], real, 0.37, 0.25), [out])

    site_mask = (rng.uniform(size=(3, 3)) < 0.5).astype(np.float64)
    site_mask[0, 0] = 1.0
    site_mask[2, 2] = 0.0
    w233 = rng.normal(size=(2, 3, 3))
    comp = rng.uniform(0.2, 0.8, size=(2, 3, 3))
    delta = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
    delta = np.where(np.minimum(np.abs(delta + comp), np.abs(delta + comp - 1.0)) < 0.05, 0.5 - comp, delta)
    check("compose_residual", lambda ts: tc.compose_residual(ts[0], comp, site_mask), [delta], w233)

    x355 = rng.normal(size=(3, 5, 5))
    k233 = 0.4 * rng.normal(size=(2, 3, 3, 3))
    bias2 = rng.normal(size=2)
    check("conv3x3_s1", lambda ts: tc.conv3x3(*ts), [x355, k233, bias2], rng.normal(size=(2, 5, 5)))
    check("down_conv3x3_narrowing", lambda ts: tc.down_conv3x3(*ts), [x355, k233, bias2], rng.normal(size=(2, 3, 3)))

    x245 = rng.normal(size=(2, 4, 5))
    # the head's case: a narrowing stride-1 region, rows 0:2 and columns 2:5 of x355
    check("conv3x3_s1_region", lambda ts: tc.conv3x3(*ts, region=(2, 4, 3, 6), x_at=(2, 1)), [x355, k233, bias2],
          rng.normal(size=(2, 2, 3)))

    # The conv backward stacks the output gradient for each phase grid that
    # needs a gradient and has more channels than C_out, and makes per-tap
    # products for every other grid. The conv checks above stack
    # (C_out < C_in); these widen (C_out > C_in). up_conv3x3 runs each of its
    # layouts narrowing (every grid stacked) and widening (none), on a region
    # at the skip map's bottom and left edges with an odd top row.
    k323 = 0.4 * rng.normal(size=(3, 2, 3, 3))
    bias3 = rng.normal(size=3)
    check("conv3x3_s1_widening", lambda ts: tc.conv3x3(*ts), [x245, k323, bias3], rng.normal(size=(3, 4, 5)))
    check("down_conv3x3_widening", lambda ts: tc.down_conv3x3(*ts), [x245, k323, bias3], rng.normal(size=(3, 2, 3)))
    for layout, folded in (("concat", False), ("folded", True)):
        for shape, (c_low, c_skip, c_out) in (("narrowing", (3, 2, 1)), ("widening", (2, 1, 3))):
            check(f"up_conv3x3_{layout}_{shape}",
                  lambda ts: tc._up_conv3x3(*ts, (1, 6, 0, 4), (0, 0), (0, 0), folded),
                  [rng.normal(size=(c_low, 3, 3)), rng.normal(size=(c_skip, 6, 5)),
                   0.4 * rng.normal(size=(c_out, c_low + c_skip, 3, 3)), rng.normal(size=c_out)],
                  rng.normal(size=(c_out, 5, 4)))

    # The blocks against their input and every parameter: srin with K > 1
    # and K = 1 classes (rain always has one) on a mask with both regions,
    # on a background of one site, and on an all-foreground mask, which
    # passes the input through.
    block_mask = (rng.uniform(size=(4, 4)) < 0.5).astype(np.float64)
    block_mask[0, :2], block_mask[3, 3] = 1.0, 0.0
    one_bg = np.ones((4, 4))
    one_bg[3, 3] = 0.0
    palette = rng.uniform(size=(3, 3))[:, np.arange(16).reshape(4, 4) % 3]  # sites 0 and 1 differ
    feat, wmap = rng.normal(size=(2, 3, 4, 4))
    params = [t.data for _, t in SrinParams.create(3, rng).named()]
    for case, mask, sem in (("", block_mask, palette), ("_one_class", block_mask, np.full((3, 4, 4), 0.5)),
                            ("_one_site_background", one_bg, palette), ("_degenerate", np.ones((4, 4)), palette)):
        plan, rain_plan = block_plan(mask, sem), block_plan(mask)
        check(f"srin_block{case}", lambda ts: srin_block(ts[0], plan, SrinParams(*ts[1:])).output,
              [feat, *params], wmap)
        if case != "_one_class":
            check(f"rain_block{case}", lambda ts: rain_block(ts[0], rain_plan), [feat], wmap)
    return results


def block_grad_checks(tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    rng = np.random.default_rng(7151)
    results = []

    mask = (rng.uniform(size=(4, 4)) < 0.5).astype(np.float64)
    mask[0, 0] = 1.0
    mask[3, 3] = 0.0
    wmap = rng.normal(size=(3, 4, 4))
    feat = rng.normal(size=(3, 4, 4))

    results.append(grad_check(lambda ts: rain_forward(ts[0], mask), [Tensor(feat.copy())],
                              tol=tol, name="rain_forward", weights=wmap))

    feat2, mask2, sem2, params = random_srin_instance(np.random.default_rng(424242), c_max=3, hw_max=4)
    wout = np.random.default_rng(5).normal(size=feat2.shape)
    tensors = [Tensor(feat2.copy())] + [t for _, t in params.named()]

    results.append(grad_check(lambda ts: srin_forward(ts[0], mask2, sem2, params).output, tensors,
                              tol=tol, name="srin_forward", weights=wout))
    return results


def network_grad_check(tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    """End-to-end checks of the training loss over the parameters on the
    tiny configuration: one whose decode window is the whole map, one whose
    window is a strict sub-rectangle of it, and the same window without a
    bottleneck block, whose encoder then runs on a strict sub-rectangle too."""
    config = UNetConfig(size=16, stages=1, base_channels=4, block="srin")
    model = GeneratorModel.build(config, seed=11)
    plain = GeneratorModel.build(replace(config, block="none"), seed=11)
    rng = np.random.default_rng(311)
    comp = Image.from_planar(rng.uniform(0.25, 0.75, size=(3, 16, 16)))
    mask = (rng.uniform(size=(16, 16)) < 0.45).astype(np.float64)
    mask[0, 0] = 1.0
    mask[15, 15] = 0.0
    sem = Image.from_planar(rng.uniform(0.0, 1.0, size=(3, 16, 16)))
    ref = Image.from_planar(rng.uniform(0.2, 0.8, size=(3, 16, 16)))
    blob = np.zeros((16, 16))
    blob[5:10, 6:9] = 1.0  # decode window: pixel rows 2:12, columns 4:12; encoder window (none) 0:12, 2:12

    def check(name: str, net: GeneratorModel, m: np.ndarray) -> GradCheckResult:
        prep = prepare_sample(net, Sample(ref, comp, Mask(m), sem, name))
        return grad_check(lambda _: sample_loss(net, prep), net.parameters(), tol=tol, name=name)

    return [
        check("unet_l1_end_to_end", model, mask),
        check("unet_l1_window_end_to_end", model, blob),
        check("unet_none_window_end_to_end", plain, blob),
    ]


# ---------------------------------------------------------------------------
# value-level invariants


def invariant_checks() -> list[GradCheckResult]:
    results = []
    rng = np.random.default_rng(97)

    # softmax rows (attention's softmax): nonnegative, sum to 1 within 1e-9 for logits in [-50, 50]
    worst = 0.0
    neg = 0.0
    for _ in range(20):
        z = rng.uniform(-50.0, 50.0, size=(6, 7))
        y = tc._softmax_rows(z)
        worst = max(worst, float(np.max(np.abs(y.sum(axis=1) - 1.0))))
        neg = max(neg, float(max(0.0, -y.min())))
    results.append(_value_check("softmax_row_sums", worst, 1e-9))
    results.append(_value_check("softmax_nonnegative", neg, 0.0))

    # all-ones mask reproduces plain per-channel statistics
    feat = rng.normal(size=(3, 5, 5))
    mean, std, _ = _channel_stats(feat, np.arange(25))
    ref_std = np.sqrt(feat.var(axis=(1, 2)) + EPS_DEFAULT)
    err = max(float(np.max(np.abs(mean - feat.mean(axis=(1, 2))))), float(np.max(np.abs(std - ref_std))))
    results.append(_value_check("masked_stats_full_mask", err, 1e-12))

    # attention contracts + oracle agreement + exact pass-through, random instances
    row_sum_err = 0.0
    fg_col_max = 0.0
    mod_neg = 0.0
    mod_bg = 0.0
    passthrough = 0.0
    oracle_err = 0.0
    perm_err = 0.0
    for trial in range(30):
        feat, mask, sem, params = random_srin_instance(np.random.default_rng(1000 + trial))
        res = srin_forward(Tensor(feat), mask, sem, params)
        flat = mask.reshape(-1).astype(bool)
        attn = res.attention.data
        row_sum_err = max(row_sum_err, float(np.max(np.abs(attn.sum(axis=1) - 1.0))))
        fg_col_max = max(fg_col_max, float(np.max(np.abs(attn[:, flat]))) if flat.any() else 0.0)
        gamma = res.modulation.gamma.data
        beta = res.modulation.beta.data
        mod_neg = max(mod_neg, float(max(0.0, -min(gamma.min(), beta.min()))))
        mod_bg = max(mod_bg, float(np.max(np.abs(gamma[:, mask == 0]))), float(np.max(np.abs(beta[:, mask == 0]))))
        out = res.output.data
        passthrough = max(passthrough, float(np.max(np.abs(out[:, mask == 0] - feat[:, mask == 0]))))
        oracle_err = max(oracle_err, float(np.max(np.abs(out - reference_srin(feat, mask, sem, params)))))

        # permuting the flattened site order must permute the output identically
        c, hh, ww = feat.shape
        n = hh * ww
        perm = np.random.default_rng(2000 + trial).permutation(n)
        feat_p = feat.reshape(c, n)[:, perm].reshape(c, hh, ww)
        mask_p = mask.reshape(n)[perm].reshape(hh, ww)
        sem_p = sem.reshape(3, n)[:, perm].reshape(3, hh, ww)
        out_p = srin_forward(Tensor(feat_p), mask_p, sem_p, params).output.data
        expected = out.reshape(c, n)[:, perm].reshape(c, hh, ww)
        perm_err = max(perm_err, float(np.max(np.abs(out_p - expected))))
    results.append(_value_check("attention_row_sums", row_sum_err, 1e-9))
    results.append(_value_check("attention_fg_columns_zero", fg_col_max, 0.0))
    results.append(_value_check("modulation_nonnegative", mod_neg, 0.0))
    results.append(_value_check("modulation_zero_on_background", mod_bg, 0.0))
    results.append(_value_check("srin_background_passthrough", passthrough, 0.0))
    results.append(_value_check("srin_matches_loop_oracle", oracle_err, 1e-10))
    results.append(_value_check("srin_permutation_equivariance", perm_err, 1e-10))
    return results


def run_suite(tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    results = []
    results += op_grad_checks(tol)
    results += block_grad_checks(tol)
    results += network_grad_check(tol)
    results += invariant_checks()
    return results
