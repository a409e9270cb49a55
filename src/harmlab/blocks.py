"""Region-restricted normalization blocks for the generator bottleneck.

Three variants over a [C, H, W] feature map with a binary foreground mask at
feature resolution:

* ``region_instance_norm`` standardizes every site by the foreground region's
  per-channel statistics.
* ``rain_forward`` re-dresses the normalized foreground with the background
  region's global statistics and passes background sites through untouched:
  ``srin``'s modulation (``tensor.modulate``) with one class whose scale and
  shift are the background's per-channel std and mean.
* ``srin_forward`` derives spatially varying scale/shift modulation from
  cross-attention: queries come from a color-coded semantic map, keys from the
  normalized features, and each foreground query attends over background key
  sites only, so it aggregates background features from semantically related
  regions. A query depends only on its site's semantic colour, so the
  foreground sites are grouped into their K distinct colours and the query,
  the attention over the background and the gamma/beta heads run once per
  class, [K, background] cells in all; one op writes the modulation onto the
  class's sites, and the per-site maps and [N, N] matrix are built on read.

Every standard deviation is ``sqrt(var + EPS_DEFAULT)``, as
``tensor.masked_channel_stats`` returns it. All blocks are pure, reentrant,
and differentiable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import tensor as tc
from .errors import ShapeError
from .tensor import Tensor


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
    # [C, K, 1] per-class gamma and beta, the [3, N] semantic map, copies of
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
        return Modulation(*(Tensor(v[:, self.index, 0] * (self.index >= 0)) for v in (self.gamma, self.beta)))

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


def region_instance_norm(feat: Tensor, mask_f) -> Tensor:
    """Standardize all sites by the masked region's per-channel mean and std.

    The region must hold a site: ``tensor.masked_channel_stats`` raises
    ``ShapeError`` on an empty one.
    """
    return tc.normalize_channels(feat, *tc.masked_channel_stats(feat, mask_f))


def degenerate_mask(mask_f: np.ndarray) -> bool:
    """True when the binary site mask ``mask_f`` has an empty foreground or an
    empty background; the ``rain`` and ``srin`` blocks then pass their input
    through unchanged."""
    fg = np.count_nonzero(mask_f)
    return fg == 0 or fg == mask_f.size


def rain_forward(feat: Tensor, mask_f) -> Tensor:
    """Re-dress foreground-normalized features with global background statistics.

    Foreground sites become ``std_bg * normed + mean_bg``, one class of
    ``tensor.modulate``; background sites pass through exactly. Identity when
    either region is empty.
    """
    m = tc.as_site_mask(mask_f, feat.shape[1], feat.shape[2])
    if degenerate_mask(m):
        return feat
    normed = region_instance_norm(feat, m)
    bg_mean, bg_std = tc.masked_channel_stats(feat, 1.0 - m)
    return tc.modulate(normed, feat, bg_std, bg_mean, m.astype(np.intp) - 1)


def srin_forward(feat: Tensor, mask_f, sem_f: np.ndarray, params: SrinParams) -> SrinResult:
    """Semantic-guided modulation of region-normalized features.

    Pipeline over sites: normalize by foreground stats; project the
    normalized map to keys; group the foreground sites by semantic colour
    and project each of the K colours to a query; for each query, softmax
    its products with the background keys and take the weighted sum of the
    background features (``tensor.region_attention``, which never forms an
    [N, N] or per-site matrix), then project the K sums to values; pass each
    value through gated 1x1 heads to get nonnegative per-class gamma/beta;
    write ``gamma * normed + beta`` onto each class's foreground sites and
    pass the background through exactly (``tensor.modulate``). Degenerate
    (empty) regions return the input unchanged. The semantic map ``sem_f``
    is a constant [3, H, W] array.
    """
    c, h, w = feat.shape
    m = tc.as_site_mask(mask_f, h, w)
    n = h * w
    fg_sites = np.flatnonzero(m)
    if degenerate_mask(m):
        return SrinResult(feat, True)

    sem = np.asarray(sem_f, dtype=np.float64)
    if sem.shape != (3, h, w):
        raise ShapeError(f"semantic map must be (3, {h}, {w}), got {sem.shape}")
    sem = sem.reshape(3, n)

    normed = region_instance_norm(feat, m)

    # The K distinct foreground colours, compared by bit pattern so two one
    # ulp apart stay two classes. With the rows reversed the last row is the
    # primary sort key, so classes are numbered in np.lexsort's order.
    fg_sem = sem[:, fg_sites]
    _, first, classes = np.unique(fg_sem.view(np.uint64)[::-1], axis=1, return_index=True, return_inverse=True)
    colours = fg_sem[:, first]
    index = np.full((h, w), -1, dtype=np.intp)
    index.flat[fg_sites] = classes
    query = tc.conv1x1(Tensor(colours[:, :, None]), params.w_query, params.b_query)  # [C, K, 1]
    key = tc.conv1x1(normed, params.w_key, params.b_key)
    # Each attention row sums to 1, so the value projection commutes with the
    # weighted sum: projecting the K sums of the raw map costs C*C*K
    # multiply-adds where projecting the map first costs C*C*N.
    pooled = tc.region_attention(query, key, feat, m)  # [C, K, 1]
    value = tc.conv1x1(pooled, params.w_value, params.b_value)

    gamma = tc.relu(tc.conv1x1(value, params.w_gamma, params.b_gamma))  # [C, K, 1]
    beta = tc.relu(tc.conv1x1(value, params.w_beta, params.b_beta))
    out = tc.modulate(normed, feat, gamma, beta, index)
    return SrinResult(out, False, gamma.data, beta.data, sem, params.w_query.data.copy(), params.b_query.data.copy(),
                      key.data.reshape(c, n), index)
