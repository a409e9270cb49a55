import math

import numpy as np
import pytest

from harmlab import tensor as tc
from harmlab import unet
from harmlab.blocks import degenerate_mask
from harmlab.errors import CheckpointError, ShapeError
from harmlab.gradcheck import grad_check
from harmlab.imaging import Image, Mask
from harmlab.synthdata import GenConfig, Sample, generate_sample
from harmlab.training import prepare_sample, sample_loss
from harmlab.unet import (
    BLOCK_KINDS, GeneratorModel, UNetConfig, downsample_mask, downsample_planar,
    load_checkpoint, save_checkpoint, unet_forward,
)


def formula_param_count(config: UNetConfig) -> int:
    """Hand-derived parameter count (see docs/checkpoint-format.md)."""
    chans = [4] + config.stage_channels()
    total = 0
    for i in range(1, len(chans)):
        total += chans[i] * chans[i - 1] * 9 + chans[i]  # encoder convs
    if config.block == "srin":
        c = chans[-1]
        total += 4 * c * c + 8 * c
    for i in range(config.stages, 0, -1):
        c_i = chans[i]
        skip = chans[i - 1]
        out = chans[i - 1] if i >= 2 else config.base_channels
        total += out * (c_i + skip) * 9 + out  # decoder convs
    total += 3 * config.base_channels * 9 + 3  # output head
    return total


def sample_inputs(size=32, seed=0):
    s = generate_sample(GenConfig(seed=seed, size=size), 0)
    return s


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            UNetConfig(size=48)

    def test_rejects_too_deep(self):
        with pytest.raises(ValueError):
            UNetConfig(size=16, stages=3)

    def test_rejects_unknown_block(self):
        with pytest.raises(ValueError):
            UNetConfig(block="other")


class TestForward:
    def test_zero_head_is_identity(self):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="srin"), seed=1)
        model.head[0].data[:] = 0.0
        model.head[1].data[:] = 0.0
        s = sample_inputs()
        out = unet_forward(model, s.composite, s.mask, s.semantic)
        assert np.array_equal(out.pixels, s.composite.pixels)

    def test_zero_mask_returns_composite(self):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="rain"), seed=2)
        s = sample_inputs()
        empty = Mask(np.zeros((32, 32), dtype=np.uint8))
        out = unet_forward(model, s.composite, empty, s.semantic)
        assert np.array_equal(out.pixels, s.composite.pixels)

    def test_background_identity_for_any_parameters(self):
        for block in ("none", "rain", "srin"):
            model = GeneratorModel.build(UNetConfig(size=32, stages=2, block=block), seed=3)
            s = sample_inputs(seed=4)
            out = unet_forward(model, s.composite, s.mask, s.semantic)
            bg = ~s.mask.values.astype(bool)
            assert np.array_equal(out.pixels[bg], s.composite.pixels[bg])

    def test_forward_is_deterministic(self):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="srin"), seed=5)
        s = sample_inputs(seed=6)
        a = unet_forward(model, s.composite, s.mask, s.semantic)
        b = unet_forward(model, s.composite, s.mask, s.semantic)
        assert np.array_equal(a.pixels, b.pixels)

    def test_same_seed_builds_identical_models(self):
        cfg = UNetConfig(size=32, stages=2, block="srin")
        m1 = GeneratorModel.build(cfg, seed=7)
        m2 = GeneratorModel.build(cfg, seed=7)
        for (n1, t1), (n2, t2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    @pytest.mark.parametrize("block", ["none", "rain", "srin"])
    def test_decoder_layouts_agree(self, block, monkeypatch):
        model = GeneratorModel.build(UNetConfig(size=128, stages=2, block=block), seed=15)
        s = sample_inputs(size=128, seed=16)
        # foreground at two opposite corners makes the decode window the whole
        # map, so both stages see their full low-res size
        mask = s.mask.values.astype(np.float64)
        mask[0, 0] = mask[-1, -1] = 1.0
        assert unet.decode_regions(model.config, mask)[1][-1] == (0, 32, 0, 32)
        args = (s.composite.planar(), mask, s.semantic.planar())
        assert 32 * 32 >= tc._FOLD_MIN_SITES  # both stages (32x32 and 64x64 low-res sites) run folded
        folded = model.forward_tensor(*args)
        monkeypatch.setattr(tc, "_FOLD_MIN_SITES", 1 << 30)
        concat = model.forward_tensor(*args)
        assert np.abs(folded - concat).max() <= 1e-12 * np.abs(concat).max()

    @pytest.mark.parametrize("block", ["none", "rain", "srin"])
    def test_one_record_per_decoder_stage(self, block):
        # a training step: one down_conv3x3 per encoder stage, one up_conv3x3
        # per decoder stage, writing need[k - 1], and no other record between
        # the bottleneck block and the head; relu runs only in srin's heads
        model = GeneratorModel.build(UNetConfig(size=64, stages=3, block=block), seed=19)
        sample = generate_sample(GenConfig(seed=20, size=64), 0)
        prep = prepare_sample(model, sample)
        with tc.Graph() as g:
            sample_loss(model, prep)
        ops = [r.op for r in g.records]
        assert ops[:3] == ["down_conv3x3"] * 3
        assert [r.inputs[1] for r in g.records[:3]] == [w for w, _ in model.encoder]
        assert ops.count("relu") == (2 if block == "srin" else 0)
        head = next(i for i, r in enumerate(g.records) if r.op == "conv3x3" and r.inputs[1] is model.head[0])
        first = ops.index("up_conv3x3")
        assert ops[first:head] == ["up_conv3x3"] * 3
        # the head computes the foreground's box alone, straight into the composition
        assert ops[head:] == ["conv3x3", "compose_residual", "l1_loss"]
        top, bottom, left, right = prep.windows.box
        assert g.records[head].outs[0].shape == (3, bottom - top, right - left)
        need = prep.windows.need
        assert [g.records[first + i].outs[0].shape for i in range(3)] == [
            (w.shape[0], b - t, r - l) for (w, _), (t, b, l, r) in zip(model.decoder, need[2::-1])]

    def test_forward_writes_no_model_state(self):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="srin"), seed=17)
        s = sample_inputs()
        vanishing = np.zeros((32, 32))
        vanishing[0, 0] = 1.0  # no 8x8 feature site samples pixel (0, 0)
        assert degenerate_mask(downsample_mask(vanishing, 8))
        state = dict(vars(model))
        values = model.flat.data.copy()
        with tc.Graph():
            model.forward_tensor(s.composite.planar(), vanishing, s.semantic.planar())
        assert vars(model) == state
        assert np.array_equal(model.flat.data, values)

    def test_size_mismatch_raises(self):
        model = GeneratorModel.build(UNetConfig(size=64), seed=0)
        s = sample_inputs(size=32)
        with pytest.raises(ShapeError):
            unet_forward(model, s.composite, s.mask, s.semantic)

    def test_output_in_unit_range(self):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="none"), seed=8)
        s = sample_inputs(seed=9)
        out = unet_forward(model, s.composite, s.mask, s.semantic)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


def window_masks(size: int, seed: int) -> dict[str, np.ndarray]:
    """Masks whose decode windows cover the cases the window rule treats differently."""
    masks = {"synthetic": generate_sample(GenConfig(seed=seed, size=size), 0).mask.values.astype(np.float64)}
    for name, (r, c) in {"top_left": (0, 0), "top_right": (0, -1), "bottom_left": (-1, 0),
                         "bottom_right": (-1, -1)}.items():
        masks[name] = np.zeros((size, size))
        masks[name][r, c] = 1.0
    q = size // 4
    bands = {
        "band_top": (slice(0, 3), slice(q, 2 * q + 1)),
        "band_right": (slice(q + 1, 2 * q), slice(size - 2, size)),
        "band_bottom_row": (slice(size - 1, size), slice(None)),
        "band_left_column": (slice(None), slice(0, 1)),
    }
    for name, region in bands.items():
        masks[name] = np.zeros((size, size))
        masks[name][region] = 1.0
    masks["empty"] = np.zeros((size, size))
    masks["full"] = np.ones((size, size))
    return masks


def _within(got: np.ndarray, want: np.ndarray, rel: float = 1e-12) -> bool:
    return float(np.abs(got - want).max()) <= rel * float(np.abs(want).max())


class TestDecodeWindow:
    def test_window_rule(self):
        config = UNetConfig(size=64, stages=3)  # 8x8 cells of 8x8 pixels
        mask = np.zeros((64, 64))
        assert unet.decode_regions(config, mask)[1][-1] == (0, 1, 0, 1)  # one cell, no zero-size map
        mask[63, 63] = 1.0  # cell (7, 7): grown to 6:9, clipped to 6:8
        assert unet.decode_regions(config, mask)[1][-1] == (6, 8, 6, 8)
        mask[63, 63] = 0.0
        mask[20, 40] = 1.0  # cell (2, 5): grown to 1:4 and 4:7
        assert unet.decode_regions(config, mask)[1][-1] == (1, 4, 4, 7)
        mask[20, 40] = 0.0
        mask[20:22, 33] = mask[28, 38] = 1.0  # cells 2:4 and 4:5: grown to 1:5 and 3:6
        assert unet.decode_regions(config, mask)[1][-1] == (1, 5, 3, 6)
        mask[:] = 0.0
        mask[20, 40] = 1.0
        mask[63, 0] = 1.0  # cell (7, 0): clipped at the bottom and left edges
        assert unet.decode_regions(config, mask)[1][-1] == (1, 8, 0, 7)
        assert unet.decode_regions(config, np.ones((64, 64)))[1][-1] == (0, 8, 0, 8)

    def test_one_pixel_foreground_decodes_three_cells(self):
        # the first stage reads the pixel's 3x3 bottleneck cells and each
        # stage writes only the sites the pixel reads, so the head conv, once
        # the largest map the decoder built (3x3 cells of 4x4 pixels), reads
        # the pixel grown by one and computes the pixel alone
        model = GeneratorModel.build(UNetConfig(size=128, stages=2), seed=25)
        s = sample_inputs(size=128, seed=26)
        mask = np.zeros((128, 128))
        mask[61, 66] = 1.0  # cell (15, 16) of 32x32 cells of 4x4 pixels
        with tc.Graph() as g:
            model.forward_box(model.windows(s.composite.planar(), mask, s.semantic.planar()))
        stages = [r for r in g.records if r.op == "up_conv3x3"]
        assert [r.outs[0].shape for r in stages] == [(16, 3, 3), (16, 3, 3)]  # need[1] and need[0]
        head = [r for r in g.records if r.op == "conv3x3" and r.inputs[1] is model.head[0]]
        assert len(head) == 1
        assert head[0].inputs[0].shape == (16, 3, 3) and head[0].outs[0].shape == (3, 1, 1)

    @pytest.mark.parametrize("block, shape", [("none", (4, 16, 16)), ("rain", (4, 128, 128)), ("srin", (4, 128, 128))])
    def test_one_pixel_foreground_encodes_its_window(self, block, shape):
        # without a bottleneck block the encoder runs on the decode window's
        # 3x3 cells plus one cell above and to the left; a block reads every
        # region, so its encoder keeps the whole frame
        model = GeneratorModel.build(UNetConfig(size=128, stages=2, block=block), seed=25)
        s = sample_inputs(size=128, seed=26)
        mask = np.zeros((128, 128))
        mask[61, 66] = 1.0  # cell (15, 16): decode window 14:17 x 15:18, encoder window 13:17 x 14:18
        with tc.Graph() as g:
            model.forward_box(model.windows(s.composite.planar(), mask, s.semantic.planar()))
        enc1 = [r for r in g.records if r.op == "down_conv3x3" and r.inputs[1] is model.encoder[0][0]]
        assert len(enc1) == 1
        assert enc1[0].inputs[0].shape == shape

    @pytest.mark.parametrize("size,stages", [(32, 2), (64, 3), (128, 2)])
    @pytest.mark.parametrize("block", BLOCK_KINDS)
    def test_matches_full_frame_decoding(self, block, size, stages, monkeypatch):
        config = UNetConfig(size=size, stages=stages, block=block)
        model = GeneratorModel.build(config, seed=21)
        s = sample_inputs(size=size, seed=22)
        comp, sem = s.composite.planar(), s.semantic.planar()
        real = Image.from_planar(np.random.default_rng(23).uniform(0.2, 0.8, size=(3, size, size)))
        regions = unet.decode_regions

        def full_frame(c, m):
            return (0, size, 0, size), [(0, size >> k, 0, size >> k) for k in range(stages + 1)]

        def run(mask):
            out = model.forward_tensor(comp, mask, sem)
            prep = prepare_sample(model, Sample(real, s.composite, Mask(mask), s.semantic, ""))
            model.zero_grad()
            with tc.Graph() as g:
                loss = sample_loss(model, prep)
            frame = any(o.shape == (3, size, size) for r in g.records for o in r.outs)
            ops = {r.op for r in g.records}
            g.backward(loss)
            return out, model.flat.grad.copy(), ops, frame

        masks = window_masks(size, seed=24)
        wholes = {name for name, mask in masks.items() if regions(config, mask) == full_frame(config, mask)}
        # only the all-ones mask, and perhaps a large synthetic one, decodes the whole map
        assert "full" in wholes and wholes <= {"full", "synthetic"}
        for name, mask in masks.items():
            out, grad, ops, frame = run(mask)
            monkeypatch.setattr(unet, "decode_regions", full_frame)
            ref_out, ref_grad, ref_ops, ref_frame = run(mask)
            monkeypatch.setattr(unet, "decode_regions", regions)
            where = f"{block} {size}/{stages} {name}"
            assert _within(out, ref_out), where
            bg = mask == 0.0
            assert np.array_equal(out[:, bg], ref_out[:, bg]) and np.array_equal(out[:, bg], comp[:, bg]), where
            assert _within(grad, ref_grad), where
            assert ref_frame and ops == ref_ops, where
            assert (name in wholes) == frame, where


def _one_cell_window(config: UNetConfig, mask: np.ndarray) -> tuple[int, int, int, int]:
    """The decode window's rule spelled out: the bottleneck cells holding any
    foreground pixel, grown by one cell and clipped to the map."""
    cells = config.size >> config.stages
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return 0, 1, 0, 1
    return (max((rows[0] >> config.stages) - 1, 0), min((rows[-1] >> config.stages) + 2, cells),
            max((cols[0] >> config.stages) - 1, 0), min((cols[-1] >> config.stages) + 2, cells))


class TestDecodeRegions:
    CONFIG = UNetConfig(size=64, stages=3)  # levels of 64, 32, 16 and 8 sites

    def regions(self, *pixels, mask=None):
        if mask is None:
            mask = np.zeros((64, 64))
            for r, c in pixels:
                mask[r, c] = 1.0
        return unet.decode_regions(self.CONFIG, mask)

    def test_one_pixel(self):
        box, need = self.regions((20, 40))
        assert box == (20, 21, 40, 41)
        assert need == [(19, 22, 39, 42), (9, 12, 19, 22), (4, 7, 9, 12), (1, 4, 4, 7)]

    def test_corners(self):
        assert self.regions((0, 0)) == ((0, 1, 0, 1), [(0, 2, 0, 2)] * 4)
        assert self.regions((63, 63)) == ((63, 64, 63, 64), [(62, 64, 62, 64), (30, 32, 30, 32),
                                                             (14, 16, 14, 16), (6, 8, 6, 8)])
        assert self.regions((0, 63))[1][-1] == (0, 2, 6, 8)

    def test_rectangle_and_edges(self):
        mask = np.zeros((64, 64))
        mask[10:14, 33:39] = 1.0
        assert self.regions(mask=mask) == ((10, 14, 33, 39), [(9, 15, 32, 40), (4, 8, 15, 21),
                                                              (1, 5, 7, 11), (0, 3, 3, 6)])
        mask[:] = 0.0
        mask[:, 0] = 1.0  # the left column: every row at every level, two columns
        assert self.regions(mask=mask) == ((0, 64, 0, 1), [(0, 64 >> k, 0, 2) for k in range(4)])

    def test_empty_and_full(self):
        assert self.regions() == ((0, 1, 0, 1), [(0, 1, 0, 1)] * 4)
        assert self.regions(mask=np.ones((64, 64))) == ((0, 64, 0, 64), [(0, 64 >> k, 0, 64 >> k) for k in range(4)])

    @pytest.mark.parametrize("size,stages", [(32, 2), (64, 3), (128, 2)])
    def test_bottleneck_region_is_the_one_cell_window(self, size, stages):
        config = UNetConfig(size=size, stages=stages)
        masks = list(window_masks(size, seed=24).values())
        rng = np.random.default_rng(size)
        for _ in range(200):  # random rectangles
            (r0, r1), (c0, c1) = (np.sort(rng.integers(0, size + 1, 2)) for _ in range(2))
            masks.append(np.zeros((size, size)))
            masks[-1][r0:r1, c0:c1] = 1.0
        for mask in masks:
            need = unet.decode_regions(config, mask)[1]
            assert need[-1] == unet.decode_regions(config, mask)[1][-1] == _one_cell_window(config, mask)


class TestResampling:
    def test_mask_downsample_keeps_binary(self):
        rng = np.random.default_rng(0)
        mask = (rng.uniform(size=(32, 32)) < 0.5).astype(np.float64)
        small = downsample_mask(mask, 8)
        assert small.shape == (8, 8)
        assert set(np.unique(small)) <= {0.0, 1.0}

    def test_site_takes_nearest_source_pixel(self):
        mask = np.zeros((8, 8))
        mask[2:4, 2:4] = 1.0  # factor 4: site (0,0) samples source (2,2)
        small = downsample_mask(mask, 2)
        assert small[0, 0] == 1.0
        assert small[1, 1] == 0.0

    def test_planar_downsample_keeps_flat_colors(self):
        sem = np.zeros((3, 16, 16))
        sem[:, :8] = np.array([0.25, 0.5, 0.75])[:, None, None]
        small = downsample_planar(sem, 4)
        values = {tuple(small[:, y, x]) for y in range(4) for x in range(4)}
        assert values <= {(0.25, 0.5, 0.75), (0.0, 0.0, 0.0)}


class TestParamCount:
    @pytest.mark.parametrize(
        "config",
        [
            UNetConfig(size=16, stages=1, base_channels=4, block="srin"),
            UNetConfig(size=32, stages=2, base_channels=16, block="none"),
            UNetConfig(size=64, stages=3, base_channels=16, block="srin"),
            UNetConfig(size=64, stages=3, base_channels=16, block="rain"),
        ],
    )
    def test_matches_hand_formula(self, config):
        model = GeneratorModel.build(config, seed=0)
        assert model.param_count() == formula_param_count(config)

    @pytest.mark.parametrize("block", ["none", "srin"])
    def test_param_shapes_match_built_model(self, block):
        config = UNetConfig(size=32, stages=2, base_channels=4, block=block)
        model = GeneratorModel.build(config, seed=0)
        assert GeneratorModel.param_shapes(config) == [(n, t.shape) for n, t in model.named_parameters()]

    def test_block_params_name_themselves_in_checkpoint_order(self):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, base_channels=4, block="srin"), seed=0)
        block = [(n, t) for n, t in model.named_parameters() if n.startswith("block.")]
        named = model.block_params.named()
        assert [n for n, _ in named] == [n for n, _ in block]
        assert all(t1 is t2 for (_, t1), (_, t2) in zip(named, block))

    def test_rain_and_none_have_equal_counts(self):
        rain = GeneratorModel.build(UNetConfig(size=32, stages=2, block="rain"), seed=0)
        none = GeneratorModel.build(UNetConfig(size=32, stages=2, block="none"), seed=0)
        assert rain.param_count() == none.param_count()


def _offset(view: np.ndarray, base: np.ndarray) -> int:
    """Element offset of ``view``'s first element within the float64 buffer ``base``."""
    assert np.shares_memory(view, base)
    return (view.ctypes.data - base.ctypes.data) // base.itemsize


class TestFlatBuffer:
    @pytest.mark.parametrize("block", BLOCK_KINDS)
    def test_parameters_are_views_at_enumeration_offsets(self, block):
        config = UNetConfig(size=32, stages=2, base_channels=4, block=block)
        model = GeneratorModel.build(config, seed=0)
        flat = model.flat
        assert model.param_count() == flat.size
        pos = 0
        groups = []
        for (name, shape), (got, t) in zip(GeneratorModel.param_shapes(config), model.named_parameters()):
            assert got == name and t.shape == shape
            assert _offset(t.data, flat.data) == pos and _offset(t.grad, flat.grad) == pos
            pos += math.prod(shape)
            group = name.split(".")[0].rstrip("0123456789")
            if not groups or groups[-1] != group:
                groups.append(group)
        assert pos == flat.size
        # each group is one contiguous slice, in checkpoint order
        assert groups == (["enc", "block", "dec", "head"] if block == "srin" else ["enc", "dec", "head"])

    def test_grad_check_leaves_gradients_attached(self):
        model = GeneratorModel.build(UNetConfig(size=16, stages=1, base_channels=2, block="none"), seed=18)
        s = sample_inputs(size=16, seed=19)
        prep = prepare_sample(model, s)
        result = grad_check(lambda _: sample_loss(model, prep), model.parameters())
        assert result.passed
        model.zero_grad()
        assert not model.flat.grad.any()
        with tc.Graph() as g:
            g.backward(sample_loss(model, prep))
        assert model.flat.grad.any()
        for _, t in model.named_parameters():
            assert np.shares_memory(t.grad, model.flat.grad)


class TestCheckpoints:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="srin"), seed=10)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        for (n1, t1), (n2, t2) in zip(model.named_parameters(), back.named_parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
        s = sample_inputs()
        a = unet_forward(model, s.composite, s.mask, s.semantic)
        b = unet_forward(back, s.composite, s.mask, s.semantic)
        assert np.array_equal(a.pixels, b.pixels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_names_tensor_index(self, tmp_path):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="none"), seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match=r"tensor \d+"):
            load_checkpoint(path)

    def test_every_cut_reports_truncation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = GeneratorModel.build(UNetConfig(size=16, stages=1, base_channels=2, block="srin"), seed=15)
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="magic" if cut < 4 else "truncated"):
                load_checkpoint(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(GeneratorModel.build(UNetConfig(size=16, stages=1), seed=14), path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = (0x7FFFFFFF).to_bytes(4, "little")  # base_channels
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=r"tensor 0"):
            load_checkpoint(path)

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="srin"), seed=16)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        class NoDraws(np.random.Generator):
            def uniform(self, *args, **kwargs):
                raise AssertionError("load_checkpoint drew a random initialisation")

        monkeypatch.setattr(np.random, "Generator", NoDraws)
        back = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(model.named_parameters(), back.named_parameters()):
            assert n1 == n2 and np.array_equal(t1.data, t2.data) and t2.requires_grad

    def test_trailing_bytes_rejected(self, tmp_path):
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, block="none"), seed=13)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)
