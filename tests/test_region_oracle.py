"""Differential oracle for the decoder's region rule.

The network decodes only the regions ``decode_regions`` gives (and, without
a bottleneck block, encodes only the encoder window derived from them). Over
drawn configurations and masks, ``forward_tensor``'s output and the training
loss's parameter gradients must match full-frame decoding within 1e-12, and
two runs must be bit-identical.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from harmlab import tensor as tc
from harmlab import unet
from harmlab.imaging import Image, Mask
from harmlab.synthdata import Sample
from harmlab.training import prepare_sample, sample_loss
from harmlab.unet import BLOCK_KINDS, GeneratorModel, UNetConfig

# every legal (size, stages) pair: the bottleneck keeps at least 4x4 sites
DEPTHS = [(size, stages) for size in (16, 32, 64, 128) for stages in range(1, size.bit_length() - 2)]


@st.composite
def boxes(draw, size, kind):
    """A foreground box of ``kind``: one pixel, anywhere, on an edge or in a corner."""
    h, w = (1, 1) if kind == "pixel" else (draw(st.integers(1, size)), draw(st.integers(1, size)))
    top, left = draw(st.integers(0, size - h)), draw(st.integers(0, size - w))
    if kind == "corner":
        top, left = draw(st.sampled_from((0, size - h))), draw(st.sampled_from((0, size - w)))
    elif kind == "edge" and draw(st.booleans()):
        top = draw(st.sampled_from((0, size - h)))
    elif kind == "edge":
        left = draw(st.sampled_from((0, size - w)))
    mask = np.zeros((size, size))
    mask[top : top + h, left : left + w] = 1.0
    return mask


@st.composite
def cases(draw, size, stages):
    """A configuration, one mask of each box kind, and a seed for the weights and images."""
    config = UNetConfig(size=size, stages=stages, base_channels=draw(st.integers(2, 4)),
                        block=draw(st.sampled_from(BLOCK_KINDS)))
    masks = [draw(boxes(size, kind)) for kind in ("pixel", "box", "edge", "corner")]
    return config, masks, draw(st.integers(0, 2**32 - 1))


def full_frame(config, mask):
    size = config.size
    return (0, size, 0, size), [(0, size >> k, 0, size >> k) for k in range(config.stages + 1)]


def run(model, mask, seed):
    rng = np.random.default_rng(seed)
    size = model.config.size
    comp = rng.uniform(0.0, 1.0, size=(3, size, size))
    sem = rng.uniform(0.0, 1.0, size=(3, 3))[:, rng.integers(0, 3, size=(size, size))]  # three classes
    real = rng.uniform(0.2, 0.8, size=(3, size, size))
    out = model.forward_tensor(comp, mask, sem)
    sample = Sample(*(Image.from_planar(a) for a in (real, comp)), Mask(mask), Image.from_planar(sem), "")
    model.zero_grad()
    with tc.Graph() as g:
        g.backward(sample_loss(model, prepare_sample(model, sample)))
    return out, model.flat.grad.copy()


def within(got, want):
    return float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max())


@pytest.mark.parametrize("size, stages", DEPTHS)
def test_regions_match_full_frame_decoding(size, stages):
    whole = [np.ones((size, size)), np.zeros((size, size))]

    @settings(max_examples=3, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases(size, stages))
    @example((UNetConfig(size, stages, 2, "none"), whole, 1))
    @example((UNetConfig(size, stages, 3, "rain"), whole, 2))
    @example((UNetConfig(size, stages, 4, "srin"), whole, 3))
    def check(case):
        config, masks, seed = case
        model = GeneratorModel.build(config, seed=seed % 1000)
        for mask in masks:
            got = run(model, mask, seed)
            with patch.object(unet, "decode_regions", full_frame):
                want = run(model, mask, seed)
            for part, g, w in zip(("output", "parameter gradient"), got, want):
                assert within(g, w), part
        assert all(np.array_equal(a, b) for a, b in zip(got, run(model, mask, seed)))  # bit-identical runs

    check()
