"""Harmonization generator: a small U-Net with a normalization block at the bottleneck.

The network maps a 4-channel stack (composite RGB + foreground mask) through
the encoder, applies the configured bottleneck block with the mask and
semantic map resampled to feature resolution, then decodes. Each layer is one
tape op: each encoder stage is one ``tensor.down_conv3x3``, the relu of a
stride-2 3x3 conv; each decoder stage is one ``tensor.up_conv3x3``, the relu of
a 3x3 conv over the nearest x2 upsample of the deeper map concatenated with
the skip, which never builds either map; and the 3-channel output head is one
``tensor.head_conv3x3``. The head is residual: that op adds its stride-1 3x3
conv to the composite and clamps the sum to [0, 1] on the foreground, and
passes background pixels through exactly.

The composite, the mask and the semantic map are constants; only the
parameters learn. ``GeneratorModel.windows`` checks a sample and builds every
per-sample input of the forward pass once (``Windows``), so the tape of
``forward_box`` holds only what the parameters reach.

Since that composition keeps only the foreground, the decoder and the head
compute only what the foreground's pixels read (``decode_regions``). ``F`` is
the bounding box of the foreground's pixels; the head, a 3x3 conv, needs its
input on ``need[0]``, ``F`` grown by one pixel, and the stage from level k to
k - 1 (level k has 2^k x 2^k pixel sites) writes ``need[k - 1]`` from its
low-res input on ``need[k]``, whose nearest x2 upsample covers ``need[k - 1]``
grown by one site, every interval clipped to its map. Each stage reads its
low-res input (the bottleneck, for the first) and its skip in place, so it
reads true values on the ring around its region and zeros only outside the
map. The head computes and composes ``F`` alone from its input on
``need[0]``; evaluation (``forward_tensor``) pastes that box into a copy of
the composite in numpy.

``need[stages]`` is the decode window: the bottleneck cells, each the 2^stages
x 2^stages pixel block under one bottleneck site, that hold any foreground
pixel, grown by one cell on each side. The ``rain`` and ``srin`` blocks make
every foreground site read statistics and attention from the whole background,
so with them the encoder runs on the whole frame. Without a block the encoder
runs on the encoder window: the decode window grown by one cell at the top and
left only, clipped to the map, so every skip and the bottleneck is a window of
its map at that window's origin. The margin is one-sided and exact: a stride-2
3x3 conv with padding 1 computes output i from inputs 2i - 1 .. 2i + 1, so at a
cell-aligned crop edge only index 0 of each encoder stage reads the false zero
padding, and index 0 lies in the added cell; at the bottom and right the last
output reads only rows inside the crop. The gradient reaches less than one cell
above and left of the decode window at every stage and never index 0, so the
weight gradients are exact too.

Checkpoints are a flat binary format (documented in docs/checkpoint-format.md):
magic ``SRN1``, the configuration as little-endian u32 fields, then every
parameter tensor in enumeration order as (rank, dims..., float64 payload).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tc
from .blocks import BlockPlan, SrinParams, block_plan, rain_forward, srin_forward, uniform_init
from .errors import CheckpointError, ConfigError, ShapeError
from .imaging import Image, Mask, PathLike
from .tensor import Tensor

BLOCK_KINDS = ("none", "rain", "srin")

_MAGIC = b"SRN1"

@dataclass(frozen=True)
class UNetConfig:
    size: int = 64
    stages: int = 3
    base_channels: int = 16
    block: str = "none"

    def __post_init__(self):
        if self.size < 16 or (self.size & (self.size - 1)) != 0:
            raise ConfigError(f"size must be a power of two >= 16, got {self.size}")
        if self.stages < 1:
            raise ConfigError("need at least one encoder stage")
        if self.base_channels < 1:
            raise ConfigError("base_channels must be positive")
        if self.size >> self.stages < 4:
            raise ConfigError(
                f"bottleneck resolution {self.size >> self.stages} < 4; reduce stages or enlarge size"
            )
        if self.block not in BLOCK_KINDS:
            raise ConfigError(f"block must be one of {BLOCK_KINDS}, got {self.block!r}")

    def stage_channels(self) -> list[int]:
        return [self.base_channels * (1 << i) for i in range(self.stages)]


def nearest_indices(src: int, dst: int) -> np.ndarray:
    """Index map for nearest-neighbor downsampling by the integer factor src/dst."""
    f = src // dst
    return np.arange(dst) * f + f // 2


def downsample_mask(mask: np.ndarray, dst: int) -> np.ndarray:
    idx = nearest_indices(mask.shape[0], dst)
    return mask[np.ix_(idx, idx)]


def downsample_planar(arr: np.ndarray, dst: int) -> np.ndarray:
    idx = nearest_indices(arr.shape[1], dst)
    return arr[:, idx][:, :, idx]


# ``(top, bottom, left, right)``: half-open rows and columns of one level's map
Box = tuple[int, int, int, int]


@dataclass(frozen=True)
class Windows:
    """The per-sample constants of a forward pass (``GeneratorModel.windows``).

    ``box`` and ``need`` are ``decode_regions``' foreground box and
    per-level regions, ``enc`` the encoder window in bottleneck sites, and
    ``block`` the ``rain`` or ``srin`` block's plan (``blocks.block_plan``)
    of the mask and semantic map at the bottleneck's resolution, None
    without a block. ``stack`` is the encoder's input, the composite and the
    mask over the encoder window, and ``comp_box`` and ``mask_box`` the
    composite and the mask on ``box``, the mask as a bool array, the form
    ``tensor.head_conv3x3`` takes. All are constants: no gradient reaches
    them.
    """

    box: Box
    need: tuple[Box, ...]
    enc: Box
    block: Optional[BlockPlan]
    stack: Tensor
    comp_box: np.ndarray
    mask_box: np.ndarray


class GeneratorModel:
    """Convolution weights plus optional attention-block parameters.

    All parameters live in one float64 buffer, ``flat``, and all their
    gradients in ``flat.grad``: each parameter ``Tensor`` is a view of its
    slice of ``flat.data`` and its ``.grad`` the same slice of ``flat.grad``,
    so ``zero_grad`` is one fill and an optimizer can step ``flat`` as one
    tensor. The buffer order is ``param_shapes``' enumeration order (encoder
    shallow to deep, block parameters, decoder deep to shallow, output head),
    which is the checkpoint's tensor order.
    """

    def __init__(self, config: UNetConfig, flat: Tensor):
        """Wrap ``flat`` (as built by ``from_arrays``: 1-D, ``param_count`` long, with a ``.grad``)."""
        self.config = config
        self.flat = flat
        self._named: list[tuple[str, Tensor]] = []
        pos = 0
        for name, shape in self.param_shapes(config):
            end = pos + math.prod(shape)
            # ``flat`` passed Tensor's finiteness check, so its views skip it
            view = tc._wrap(flat.data[pos:end].reshape(shape), flat.grad[pos:end].reshape(shape), True)
            self._named.append((name, view))
            pos = end
        named = dict(self._named)

        def conv(stem: str) -> tuple[Tensor, Tensor]:
            return named[f"{stem}.w"], named[f"{stem}.b"]

        self.encoder = [conv(f"enc{i}") for i in range(1, config.stages + 1)]
        self.decoder = [conv(f"dec{i}") for i in range(config.stages, 0, -1)]  # deep-to-shallow order
        self.head = conv("head")
        self.block_params: Optional[SrinParams] = None
        if config.block == "srin":
            self.block_params = SrinParams(
                **{name[len("block."):]: t for name, t in self._named if name.startswith("block.")}
            )

    # -- construction -------------------------------------------------------

    @staticmethod
    def param_shapes(config: UNetConfig) -> list[tuple[str, tuple[int, ...]]]:
        """``(name, shape)`` of every parameter in enumeration order, without allocating any."""
        chans = [4] + config.stage_channels()  # chans[0] is the RGB + mask input stack

        def conv(name: str, c_in: int, c_out: int) -> list[tuple[str, tuple[int, ...]]]:
            return [(f"{name}.w", (c_out, c_in, 3, 3)), (f"{name}.b", (c_out,))]

        out = []
        for i in range(1, config.stages + 1):
            out += conv(f"enc{i}", chans[i - 1], chans[i])
        if config.block == "srin":
            out += [(f"block.{name}", shape) for name, shape in SrinParams.shapes(chans[-1])]
        for i in range(config.stages, 0, -1):
            # upsampled features plus the skip in; the shallowest decoder outputs base_channels
            out += conv(f"dec{i}", chans[i] + chans[i - 1], chans[max(i - 1, 1)])
        return out + conv("head", chans[1], 3)

    @classmethod
    def build(cls, config: UNetConfig, seed: int = 0) -> "GeneratorModel":
        # Block parameters come from their own stream so the convolution init
        # is identical across block settings (ablations compare blocks, not
        # accidental init shifts). Each stream draws its parameters in order.
        named = cls.param_shapes(config)
        streams = [np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, part]))) for part in (0, 1)]
        part_of = [int(name.startswith("block.")) for name, _ in named]
        draws = [iter(uniform_init([shape for (_, shape), p in zip(named, part_of) if p == part], stream))
                 for part, stream in enumerate(streams)]
        return cls.from_arrays(config, [next(draws[p]) for p in part_of])

    @classmethod
    def from_arrays(cls, config: UNetConfig, arrays: list[np.ndarray]) -> "GeneratorModel":
        """Model whose parameters are a copy of ``arrays``, given in enumeration order with ``param_shapes``' shapes."""
        want = [shape for _, shape in cls.param_shapes(config)]
        got = [np.shape(a) for a in arrays]
        if got != want:
            raise ShapeError(f"parameter shapes {got}, expected {want}")
        flat = Tensor(np.concatenate([np.ravel(a) for a in arrays]), requires_grad=True)
        flat.grad = np.zeros(flat.size)
        return cls(config, flat)

    # -- parameters ----------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._named]

    def param_count(self) -> int:
        return self.flat.size

    def zero_grad(self) -> None:
        self.flat.grad.fill(0.0)

    # -- forward -------------------------------------------------------------

    def windows(self, composite: np.ndarray, mask: np.ndarray, semantic: np.ndarray) -> Windows:
        """Check a sample's [3, S, S] ``composite``, [S, S] ``mask`` and
        [3, S, S] ``semantic`` map and build the constants of its forward pass."""
        size, stages = self.config.size, self.config.stages
        for arr, what in ((mask, "mask"), (semantic, "semantic")):
            if np.shape(arr)[-2:] != (size, size):
                raise ShapeError(f"{what} is {'x'.join(map(str, np.shape(arr)[-2:]))}, model expects {size}x{size}")
        m = tc.as_site_mask(mask, size, size)
        sem = np.asarray(semantic, dtype=np.float64)
        if sem.shape != (3, size, size):
            raise ShapeError(f"semantic shape {sem.shape}, expected (3, {size}, {size})")
        comp = np.asarray(composite, dtype=np.float64)
        if comp.shape != (3, size, size):
            raise ShapeError(f"composite shape {comp.shape}, expected (3, {size}, {size})")
        box, need = decode_regions(self.config, m)
        feat_size = size >> stages
        if self.config.block == "none":  # the decode window grown by one cell at the top and left
            top, bottom, left, right = need[stages]
            enc = (max(top - 1, 0), bottom, max(left - 1, 0), right)
        else:  # the block reads every region
            enc = (0, feat_size, 0, feat_size)
        plan = None
        if self.config.block != "none":
            sem_f = downsample_planar(sem, feat_size) if self.config.block == "srin" else None
            plan = block_plan(downsample_mask(m, feat_size), sem_f)
        top, bottom, left, right = (v << stages for v in enc)
        stack = Tensor(np.concatenate([comp[:, top:bottom, left:right], m[None, top:bottom, left:right]]))
        on_box = np.s_[..., box[0] : box[1], box[2] : box[3]]
        return Windows(box, tuple(need), enc, plan, stack, comp[on_box], m[on_box] == 1.0)

    def forward_box(self, win: Windows) -> Tensor:
        """The composed output on the foreground's box ``win.box``, [3, h, w].

        Every decoder stage and the head run on the regions of ``win.need``
        (see the module docstring); the tape holds only what the parameters reach.
        """
        stages = self.config.stages
        e_top, _, e_left, _ = win.enc
        skips = [win.stack]
        cur = win.stack
        for w, b in self.encoder:
            cur = tc.down_conv3x3(cur, w, b)
            skips.append(cur)

        if self.config.block == "rain":
            cur = rain_forward(cur, win.block)
        elif self.config.block == "srin":
            cur = srin_forward(cur, win.block, None, self.block_params).output

        low_at = e_top, e_left  # level k's site (0, 0) of the stage's low-res input
        for k, (w, b) in zip(range(stages, 0, -1), self.decoder):
            scale = 2 << (stages - k)  # the skip's resolution over the bottleneck's
            cur = tc.up_conv3x3(cur, skips[k - 1], w, b, win.need[k - 1], low_at, (e_top * scale, e_left * scale))
            low_at = win.need[k - 1][0], win.need[k - 1][2]

        return tc.head_conv3x3(cur, *self.head, win.comp_box, win.mask_box, win.box, low_at)

    def forward_tensor(self, composite: np.ndarray, mask: np.ndarray, semantic: np.ndarray) -> np.ndarray:
        """Run the network; returns the composed [3, S, S] output as an array.

        This is ``forward_box`` pasted into a copy of the composite: outside
        the foreground's box the output is the composite. It is not
        differentiable; training differentiates ``forward_box`` through
        ``training.sample_loss``.
        """
        win = self.windows(composite, mask, semantic)
        top, bottom, left, right = win.box
        out = np.array(composite, dtype=np.float64)
        out[:, top:bottom, left:right] = self.forward_box(win).data
        return out


def decode_regions(config: UNetConfig, mask: np.ndarray) -> tuple[Box, list[Box]]:
    """The foreground's pixel box ``F`` and the region ``need[k]`` that the
    decoder must produce at each level k = 0 .. stages, for the [S, S] binary
    ``mask``.

    Per axis, with half-open intervals clipped to each level's map:
    ``need[0]`` is ``F`` grown by one pixel, the head's input, and
    ``need[k] = [floor((lo - 1) / 2), ceil((hi + 1) / 2))`` for
    ``need[k - 1] = [lo, hi)``. ``need[stages]`` is the decode window, which the
    bottleneck is cropped to and the ``none`` encoder's window is derived
    from. An empty mask has no foreground to decode; it gets the single site
    ``(0, 1, 0, 1)`` as its box and at every level.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return (0, 1, 0, 1), [(0, 1, 0, 1)] * (config.stages + 1)
    cols = np.flatnonzero(mask.any(axis=0))

    def spans(lo: int, hi: int) -> list[tuple[int, int]]:
        out = [(max(lo - 1, 0), min(hi + 1, config.size))]
        for k in range(1, config.stages + 1):
            lo, hi = out[-1]
            out.append((max((lo - 1) // 2, 0), min(-(-(hi + 1) // 2), config.size >> k)))
        return out

    box = (int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1)
    return box, [(*r, *c) for r, c in zip(spans(*box[:2]), spans(*box[2:]))]


def unet_forward(model: GeneratorModel, composite: Image, mask: Mask, semantic: Image) -> Image:
    """Image-level forward pass (no gradient recording).

    Raises ``CheckpointError`` when the composed output is not finite: the
    model's weights, though finite, overflow float64 on this input. Tensor
    ops do not check their outputs, so this is the serving path's check.
    """
    size = model.config.size
    if (composite.height, composite.width) != (size, size):
        raise ShapeError(f"composite is {composite.height}x{composite.width}, model expects {size}x{size}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as one error
        out = model.forward_tensor(composite.planar(), mask.values, semantic.planar())
    if not np.all(np.isfinite(out)):
        raise CheckpointError("model output is not finite: the weights overflow float64 on this input")
    return Image.from_planar(out)


# ---------------------------------------------------------------------------
# checkpoints


_BLOCK_CODES = {name: i for i, name in enumerate(BLOCK_KINDS)}


def save_checkpoint(model: GeneratorModel, path: PathLike) -> None:
    cfg = model.config
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        # the last field is 1: the head is always residual
        fh.write(struct.pack("<5I", cfg.size, cfg.stages, cfg.base_channels, _BLOCK_CODES[cfg.block], 1))
        for _, t in model.named_parameters():
            dims = t.shape
            fh.write(struct.pack("<I", len(dims)))
            fh.write(struct.pack(f"<{len(dims)}I", *dims))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: PathLike) -> GeneratorModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 4 + 20:
        raise CheckpointError(f"{path}: truncated header")
    size, stages, base_channels, block_code, residual = struct.unpack_from("<5I", blob, 4)
    if block_code >= len(BLOCK_KINDS):
        raise CheckpointError(f"{path}: unknown block code {block_code}")
    if residual != 1:
        raise CheckpointError(f"{path}: residual field is {residual}, expected 1 (the head is always residual)")
    try:
        config = UNetConfig(size=size, stages=stages, base_channels=base_channels, block=BLOCK_KINDS[block_code])
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid configuration: {exc}") from exc

    # Validate every record against the shapes the header implies before
    # allocating anything, so a corrupt header cannot request more memory
    # than the file holds.
    arrays = []
    pos = 24
    for idx, (name, want) in enumerate(GeneratorModel.param_shapes(config)):
        if pos + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated at tensor {idx} ({name}): missing rank")
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if rank != len(want):
            raise CheckpointError(f"{path}: tensor {idx} ({name}): bad rank {rank}, expected {len(want)}")
        if pos + 4 * rank > len(blob):
            raise CheckpointError(f"{path}: truncated at tensor {idx} ({name}): dims short")
        dims = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        if tuple(dims) != want:
            raise CheckpointError(f"{path}: tensor {idx} ({name}): shape {dims}, expected {want}")
        count = math.prod(dims)
        if pos + 8 * count > len(blob):
            raise CheckpointError(f"{path}: truncated at tensor {idx} ({name}): payload short")
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(want))
        if not np.all(np.isfinite(arrays[-1])):
            raise CheckpointError(f"{path}: tensor {idx} ({name}): non-finite values")
        pos += 8 * count
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes after last tensor")
    return GeneratorModel.from_arrays(config, arrays)
