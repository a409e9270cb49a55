"""Region-restricted normalization blocks for the generator bottleneck.

Two blocks over a [C, H, W] feature map with a binary foreground mask at
feature resolution, each one tape op:

* ``rain_block`` (``rain_forward``) standardizes the map by the foreground's
  per-channel statistics, re-dresses the foreground with the background's,
  ``std_bg * normed + mean_bg``, and passes background sites through exactly.
* ``srin_block`` (``srin_forward``) derives spatially varying scale/shift
  modulation from cross-attention: queries come from a color-coded semantic
  map, keys from the normalized features, and each foreground query attends
  over background key sites only, so it aggregates background features from
  semantically related regions. A query depends only on its site's semantic
  colour, so the foreground sites are grouped into their K distinct colours
  and the query, the attention over the background and the gamma/beta heads
  run once per class, [K, background] cells in all; the modulation is
  written onto each class's sites, and the per-site maps and [N, N] matrix
  are built on read.

A block's constants depend only on the mask and the semantic map, so
``block_plan`` builds them once per sample (``BlockPlan``). Each op's forward
is numpy over the plan, and its backward applies the VJPs of its parts
(``_channel_stats``, ``_normalize``, ``_attention``, ``_modulate``) in reverse
order. Every standard deviation is ``sqrt(var + EPS_DEFAULT)``. Both blocks
pass their input through unchanged when either region is empty; they are
pure, reentrant, and differentiable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import tensor as tc
from .errors import ShapeError
from .tensor import EPS_DEFAULT, Tensor


def uniform_init(shapes: Sequence[tuple[int, ...]], rng: np.random.Generator) -> list[np.ndarray]:
    """Initial values of parameters given in order, each weight followed by its bias.

    A weight of shape [C_out, fan_in...] is drawn from uniform(-a, a) with
    ``a = sqrt(1 / fan_in)``, and the bias after it shares ``a``.
    """
    arrays = []
    for shape in shapes:
        if len(shape) > 1:
            bound = np.sqrt(1.0 / math.prod(shape[1:]))
        arrays.append(rng.uniform(-bound, bound, size=shape))
    return arrays


@dataclass
class SrinParams:
    """Weights of the five 1x1 convolutions of the semantic-attention block:
    the query's from the 3-channel semantic map, the others' over the C
    feature channels (``shapes``)."""

    w_query: Tensor
    b_query: Tensor
    w_key: Tensor
    b_key: Tensor
    w_value: Tensor
    b_value: Tensor
    w_gamma: Tensor
    b_gamma: Tensor
    w_beta: Tensor
    b_beta: Tensor

    @property
    def channels(self) -> int:
        return self.w_key.shape[0]

    @staticmethod
    def shapes(channels: int) -> list[tuple[str, tuple[int, ...]]]:
        """``(field, shape)`` of every parameter in field order, each weight before its bias."""
        c = channels
        parts = (("query", 3), ("key", c), ("value", c), ("gamma", c), ("beta", c))
        return [pair for part, fan_in in parts for pair in ((f"w_{part}", (c, fan_in)), (f"b_{part}", (c,)))]

    @classmethod
    def create(cls, channels: int, rng: np.random.Generator) -> "SrinParams":
        """Parameters drawn from ``rng`` with ``uniform_init``'s law, in field order."""
        shapes = cls.shapes(channels)
        arrays = uniform_init([shape for _, shape in shapes], rng)
        return cls(**{name: Tensor(a, requires_grad=True) for (name, _), a in zip(shapes, arrays)})

    def named(self) -> list[tuple[str, Tensor]]:
        """``("block.<field>", tensor)`` in field order, which is the checkpoint order."""
        return [(f"block.{f.name}", getattr(self, f.name)) for f in fields(self)]


@dataclass
class Modulation:
    """Per-site, per-channel scale and shift as [C, H, W] maps; nonnegative, zero at background sites."""

    gamma: Tensor
    beta: Tensor


@dataclass
class SrinResult:
    output: Tensor
    degenerate: bool
    # [C, K] per-class gamma and beta, the [3, N] semantic map, copies of
    # the query projection's weight and bias as the forward pass read them,
    # the [C, N] key projection and the [H, W] class index (-1 on the
    # background), kept to rebuild ``modulation`` and ``attention``; None when degenerate
    gamma: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    sem: Optional[np.ndarray] = None
    w_query: Optional[np.ndarray] = None
    b_query: Optional[np.ndarray] = None
    key: Optional[np.ndarray] = None
    index: Optional[np.ndarray] = None

    @property
    def modulation(self) -> Optional[Modulation]:
        """Each site's gamma and beta, its class's columns and exactly 0 on the background; None when degenerate."""
        if self.index is None:
            return None
        return Modulation(*(Tensor(v[:, self.index] * (self.index >= 0)) for v in (self.gamma, self.beta)))

    @property
    def attention(self) -> Optional[Tensor]:
        """[N, N] attention over flattened sites (N = H*W), built on each read.

        Every row, background query sites included, is a softmax over the
        background key columns; foreground key columns are exactly 0. Rows
        of sites with the same semantic colour are equal; the forward pass
        computes one row per foreground colour. None when degenerate.
        """
        if self.index is None:
            return None
        bg = self.index.reshape(-1) < 0
        query = self.w_query @ self.sem + self.b_query[:, None]  # [C, N], one column per site
        full = np.zeros((bg.size, bg.size), dtype=np.float64)
        full[:, bg] = tc._softmax_rows(query.T @ self.key[:, bg])
        return Tensor(full)


def degenerate_mask(mask_f: np.ndarray) -> bool:
    """True when the binary site mask ``mask_f`` has an empty foreground or an
    empty background; the ``rain`` and ``srin`` blocks then pass their input
    through unchanged."""
    fg = np.count_nonzero(mask_f)
    return fg == 0 or fg == mask_f.size


class BlockPlan:
    """The constants of a block for one sample, built by ``block_plan``.

    ``index`` is the [H, W] class of every site, -1 on the background. ``fg``
    and ``bg`` are the flat sites of class >= 0 and of -1, ascending;
    ``order`` lists ``fg`` class by class, ascending within a class, ``cls``
    holds their classes, and ``present`` and ``starts`` each class that holds
    a site and its first position in ``order``. ``srin``'s plan also holds
    the class ``colours`` [3, K] of the semantic map ``sem`` [3, N].

    ``rain_forward`` and ``srin_forward`` take a plan in place of its mask,
    so a training run builds it once per sample (``GeneratorModel.windows``).
    Like the mask, a plan has a ``size``, its site count, and a ``sum()``,
    its foreground site count: perfbench's tracer reads both off the mask
    argument of those calls.
    """

    def __init__(self, index: np.ndarray, colours: Optional[np.ndarray] = None, sem: Optional[np.ndarray] = None):
        flat = index.reshape(-1)
        self.index, self.colours, self.sem = index, colours, sem
        self.fg, self.bg = np.flatnonzero(flat >= 0), np.flatnonzero(flat < 0)
        self.order = np.argsort(flat, kind="stable")[self.bg.size:]
        self.cls = flat[self.order]
        self.present, self.starts = np.unique(self.cls, return_index=True)

    @property
    def degenerate(self) -> bool:
        return self.fg.size == 0 or self.bg.size == 0

    @property
    def size(self) -> int:
        return self.index.size

    def sum(self) -> int:
        return self.fg.size


def block_plan(mask_f: np.ndarray, sem_f: Optional[np.ndarray] = None) -> BlockPlan:
    """The plan of the binary [H, W] site mask ``mask_f``: ``rain``'s, whose
    foreground is class 0, or given a [3, H, W] semantic map ``sem_f``,
    ``srin``'s, with one class per distinct foreground colour."""
    index = mask_f.astype(np.intp) - 1
    if sem_f is None or degenerate_mask(mask_f):
        return BlockPlan(index)
    # The K distinct foreground colours, compared by bit pattern so two one
    # ulp apart stay two classes. With the rows reversed the last row is the
    # primary sort key, so classes are numbered in np.lexsort's order.
    sem = np.asarray(sem_f, dtype=np.float64).reshape(3, -1)
    fg = np.flatnonzero(mask_f)
    fg_sem = sem[:, fg]
    _, first, classes = np.unique(fg_sem.view(np.uint64)[::-1], axis=1, return_index=True, return_inverse=True)
    index.flat[fg] = classes
    return BlockPlan(index, fg_sem[:, first], sem)


def _channel_stats(x: np.ndarray, sites: np.ndarray):
    """Per-channel mean and ``sqrt(var + EPS_DEFAULT)`` (``var`` biased) of
    the [C, H, W] map ``x`` over its flat ``sites``, and their VJP to ``x``,
    which is exactly 0 off ``sites``. No site is a ``ShapeError``."""
    if sites.size == 0:
        raise ShapeError("channel statistics: the region holds no site")
    c, count = x.shape[0], sites.size
    cols = x.reshape(c, -1)[:, sites]
    mean = cols.sum(axis=1) / count
    centered = cols - mean[:, None]
    std = np.sqrt((centered * centered).sum(axis=1) / count + EPS_DEFAULT)

    def vjp(d_mean: np.ndarray, d_std: np.ndarray) -> np.ndarray:
        d_cols = np.zeros_like(cols)
        d_cols += d_mean[:, None] / count
        d_cols += (d_std / (2.0 * std))[:, None] * (2.0 / count) * centered
        d = np.zeros((c, x[0].size), dtype=np.float64)
        d[:, sites] = d_cols
        return d.reshape(x.shape)

    return mean, std, vjp


def _normalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray):
    """``(x[c] - mean[c]) / std[c]`` over a [C, H, W] map, and its VJP to (x, mean, std)."""
    y = (x - mean[:, None, None]) / std[:, None, None]
    inv = 1.0 / std
    return y, lambda g: (g * inv[:, None, None], -g.sum(axis=(1, 2)) * inv, -(g * y).sum(axis=(1, 2)) * inv)


def _attention(query: np.ndarray, key: np.ndarray, value: np.ndarray, bg: np.ndarray):
    """Cross-attention from the K columns of ``query`` [C, K] to the
    background sites ``bg`` of the [C, N] maps ``key`` and ``value``.

    Query i's weights are a softmax over its products with the background
    keys, and column i of the [C, K] output is the background values summed
    with those weights. The weights are held in a [K, N] matrix whose
    foreground columns are exactly 0, so every product runs over whole [C, N]
    maps, O(K * N * C), with no row per foreground site and no gather or
    scatter of [C, B] columns. Also returns the VJP to (query, key, value),
    whose key and value parts are exactly 0 at foreground sites.
    """
    attn = np.zeros((query.shape[1], key.shape[1]), dtype=np.float64)
    attn[:, bg] = tc._softmax_rows((query.T @ key)[:, bg])

    # np.dot for the products whose inner dimension is K: at K = 1 numpy's
    # matmul takes a loop about 4x slower than BLAS (120 vs 28 us at 32 x 1024)
    def vjp(g: np.ndarray):
        d_logits = tc._softmax_rows_grad(attn, g.T @ value)  # [K, N], 0 at foreground columns
        return key @ d_logits.T, np.dot(query, d_logits), np.dot(g, attn)

    return value @ attn.T, vjp


def _modulate(x: np.ndarray, base: np.ndarray, scale: np.ndarray, shift: np.ndarray, plan: BlockPlan):
    """``scale[:, k] * x + shift[:, k]`` at every class-k site of ``plan`` and exactly ``base`` elsewhere.

    ``x`` and ``base`` are [C, H, W] maps and ``scale`` and ``shift`` [C, K]
    class columns or [C] vectors (K = 1). Also returns the VJP to (x, base,
    scale, shift), which sums the scale and shift gradients over each
    class's sites.
    """
    c = x.shape[0]
    site_scale = scale.reshape(c, -1)[:, plan.cls]
    x_cols = x.reshape(c, -1)[:, plan.order]
    out = base.copy()
    out.reshape(c, -1)[:, plan.order] = site_scale * x_cols + shift.reshape(c, -1)[:, plan.cls]

    def per_class(cols: np.ndarray) -> np.ndarray:
        d = np.zeros((c, scale.size // c), dtype=np.float64)
        d[:, plan.present] = np.add.reduceat(cols, plan.starts, axis=1)
        return d.reshape(scale.shape)

    def vjp(g: np.ndarray):
        g_cols = g.reshape(c, -1)[:, plan.order]
        d_x = np.zeros((c, g[0].size), dtype=np.float64)
        d_x[:, plan.order] = g_cols * site_scale
        return d_x.reshape(x.shape), g * (plan.index < 0), per_class(g_cols * x_cols), per_class(g_cols)

    return out, vjp


def rain_block(feat: Tensor, plan: BlockPlan) -> Tensor:
    """One tape op: ``feat``'s foreground standardized by its own
    per-channel statistics and re-dressed with the background's,
    ``std_bg * normed + mean_bg``; background sites pass through exactly.
    ``feat`` itself when ``plan`` is degenerate."""
    if plan.degenerate:
        return feat
    mean, std, fg_vjp = _channel_stats(feat.data, plan.fg)
    normed, norm_vjp = _normalize(feat.data, mean, std)
    bg_mean, bg_std, bg_vjp = _channel_stats(feat.data, plan.bg)
    data, mod_vjp = _modulate(normed, feat.data, bg_std, bg_mean, plan)
    out = tc._wrap(data, None, False)

    def bwd():  # the parts in reverse order, each adding into feat's gradient in turn
        d_normed, d_base, d_std, d_mean = mod_vjp(out.grad)
        tc._accum(feat, d_base)
        tc._accum(feat, bg_vjp(d_mean, d_std))
        d_feat, d_mean, d_std = norm_vjp(d_normed)
        tc._accum(feat, d_feat)
        tc._accum(feat, fg_vjp(d_mean, d_std))

    tc._maybe_record("rain_block", (out,), (feat,), bwd)
    return out


def rain_forward(feat: Tensor, mask_f) -> Tensor:
    """Re-dress foreground-normalized features with global background statistics.

    ``rain_block`` on the plan of the binary site mask ``mask_f``, or on
    ``mask_f`` when it is a ``BlockPlan``: foreground sites become
    ``std_bg * normed + mean_bg``, and background sites pass through exactly.
    Identity when either region is empty.
    """
    if not isinstance(mask_f, BlockPlan):
        mask_f = block_plan(tc.as_site_mask(mask_f, feat.shape[1], feat.shape[2]))
    return rain_block(feat, mask_f)


def srin_block(feat: Tensor, plan: BlockPlan, params: SrinParams) -> SrinResult:
    """One tape op: ``srin_forward``'s modulation of ``feat`` on a plan with
    colours; ``SrinResult(feat, True)`` when ``plan`` is degenerate."""
    if plan.degenerate:
        return SrinResult(feat, True)
    p = params
    c = feat.shape[0]
    mean, std, stats_vjp = _channel_stats(feat.data, plan.fg)
    normed, norm_vjp = _normalize(feat.data, mean, std)
    flat = normed.reshape(c, -1)
    query = p.w_query.data @ plan.colours + p.b_query.data[:, None]  # [C, K]
    key = p.w_key.data @ flat + p.b_key.data[:, None]  # [C, N]
    # Each attention row sums to 1, so the value projection commutes with the
    # weighted sum: projecting the K sums of the raw map costs C*C*K
    # multiply-adds where projecting the map first costs C*C*N.
    pooled, attn_vjp = _attention(query, key, feat.data.reshape(c, -1), plan.bg)
    value = p.w_value.data @ pooled + p.b_value.data[:, None]
    pre_gamma = p.w_gamma.data @ value + p.b_gamma.data[:, None]
    pre_beta = p.w_beta.data @ value + p.b_beta.data[:, None]
    gamma, beta = np.maximum(pre_gamma, 0.0), np.maximum(pre_beta, 0.0)  # [C, K]
    data, mod_vjp = _modulate(normed, feat.data, gamma, beta, plan)
    out = tc._wrap(data, None, False)

    def linear(w: Tensor, b: Tensor, x_in: np.ndarray, g: np.ndarray) -> np.ndarray:
        """A 1x1 projection's VJP: accumulates ``w``'s and ``b``'s gradients and returns ``x_in``'s."""
        tc._accum(w, g @ x_in.T)
        tc._accum(b, g.sum(axis=1))
        return w.data.T @ g

    def bwd():  # the parts in reverse order, each adding into feat's gradient in turn
        d_normed, d_base, d_gamma, d_beta = mod_vjp(out.grad)
        tc._accum(feat, d_base)
        d_value = linear(p.w_beta, p.b_beta, value, d_beta * (pre_beta > 0.0))
        d_value += linear(p.w_gamma, p.b_gamma, value, d_gamma * (pre_gamma > 0.0))
        d_query, d_key, d_x = attn_vjp(linear(p.w_value, p.b_value, pooled, d_value))
        tc._accum(feat, d_x.reshape(feat.shape))
        d_normed += linear(p.w_key, p.b_key, flat, d_key).reshape(feat.shape)
        linear(p.w_query, p.b_query, plan.colours, d_query)
        d_feat, d_mean, d_std = norm_vjp(d_normed)
        tc._accum(feat, d_feat)
        tc._accum(feat, stats_vjp(d_mean, d_std))

    tc._maybe_record("srin_block", (out,), (feat, *(t for _, t in p.named())), bwd)
    return SrinResult(out, False, gamma, beta, plan.sem, p.w_query.data.copy(), p.b_query.data.copy(), key,
                      plan.index)


def srin_forward(feat: Tensor, mask_f, sem_f: np.ndarray, params: SrinParams) -> SrinResult:
    """Semantic-guided modulation of region-normalized features.

    Pipeline over sites: normalize by foreground stats; project the
    normalized map to keys; group the foreground sites by semantic colour
    and project each of the K colours to a query; for each query, softmax
    its products with the background keys and take the weighted sum of the
    background features, without an [N, N] or per-site matrix, then project
    the K sums to values; pass each value through gated 1x1 heads to get
    nonnegative per-class gamma/beta; write ``gamma * normed + beta`` onto
    each class's foreground sites and pass the background through exactly.
    Degenerate (empty) regions return the input unchanged. The semantic map
    ``sem_f`` is a constant [3, H, W] array. ``srin_block`` computes it all
    on ``block_plan``'s plan of ``mask_f`` and ``sem_f``; when ``mask_f`` is
    that ``BlockPlan`` already, ``sem_f`` is not read.
    """
    if isinstance(mask_f, BlockPlan):
        return srin_block(feat, mask_f, params)
    c, h, w = feat.shape
    m = tc.as_site_mask(mask_f, h, w)
    if degenerate_mask(m):
        return SrinResult(feat, True)
    sem = np.asarray(sem_f, dtype=np.float64)
    if sem.shape != (3, h, w):
        raise ShapeError(f"semantic map must be (3, {h}, {w}), got {sem.shape}")
    if params.channels != c:
        raise ShapeError(f"srin parameters are for {params.channels} channels, the map has {c}")
    return srin_block(feat, block_plan(m, sem), params)
