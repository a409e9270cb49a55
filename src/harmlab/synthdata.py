"""Deterministic synthetic harmonization samples with exact ground truth.

Each sample is a pure function of ``(seed, index)`` via a counter-based
(Philox) generator: a smooth background gradient, a few flat-colored shapes,
a color-coded semantic map, and a composite whose foreground region has a
per-channel gain/bias/gamma color shift applied. All pixel values are kept on
the 8-bit grid (k/255) so dataset write/load roundtrips are value-identical.

The scenes are built so that harmonization is actually inferable from
context: the foreground object belongs to a class with "twin" instances left
untouched in the background. Twins carry near-identical real colors (distinct
by a tiny offset) and share the class's semantic color, so a model that finds
semantically matching background regions can recover the foreground's true
appearance. Semantic colors are appearance codes: each class is labeled with
its base color, and the background region gets its own label color.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DatasetError, GenerationError
from .imaging import Image, Mask, PathLike, read_pgm, read_ppm, write_pgm, write_ppm

_MAX_SHAPE_RETRIES = 20
_FG_RATIO_RANGE = (0.01, 0.6)
SHAPE_KINDS = ("rectangle", "ellipse")  # each shape is one of these, drawn uniformly


@dataclass
class Sample:
    """One harmonization instance: ground truth, composite, mask, semantic map."""

    real: Image
    composite: Image
    mask: Mask
    semantic: Image
    id: str


# Seeds of the generator and of training are integers in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 63


def check_seed(seed: int) -> None:
    """Raise ``ConfigError`` unless ``seed`` is an integer in [0, 2**63)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise ConfigError(f"seed must be an integer in [0, 2**63), got {seed}")


@dataclass(frozen=True)
class GenConfig:
    size: int = 64
    min_objects: int = 2
    max_objects: int = 5
    gain: tuple[float, float] = (0.6, 1.4)
    bias: tuple[float, float] = (-30.0 / 255.0, 30.0 / 255.0)
    gamma: tuple[float, float] = (0.7, 1.4)
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        if self.size < 16:
            raise ConfigError(f"image size must be >= 16, got {self.size}")
        if 3 * 8 * int(self.size) ** 2 > np.iinfo(np.intp).max:  # the bytes of a [size, size, 3] float64 image
            raise ConfigError(f"image size {self.size} is beyond numpy's largest [size, size, 3] float64 array")
        if not (1 <= self.min_objects <= self.max_objects):
            raise ConfigError("object count range must satisfy 1 <= min <= max")
        for name, (lo, hi) in (("gain", self.gain), ("bias", self.bias), ("gamma", self.gamma)):
            if not math.isfinite(hi - lo):  # non-finite bounds, or a width beyond float range
                raise ConfigError(f"{name} range ({lo}, {hi}) must have finite bounds and width")
            if not lo <= hi:
                raise ConfigError(f"{name} range ({lo}, {hi}) is empty")


def _quantize(px: np.ndarray) -> np.ndarray:
    """Snap [0, 1] floats to the 8-bit grid so PPM roundtrips are exact."""
    return np.rint(px * 255.0) / 255.0


def _distinct_color(rng: np.random.Generator, taken: set[tuple[int, int, int]]) -> tuple[int, int, int]:
    while True:
        c = tuple(int(v) for v in rng.integers(0, 256, size=3))
        if c not in taken:
            taken.add(c)
            return c


def _shape_support(rng: np.random.Generator, kind: str, size: int, area_frac: float) -> np.ndarray:
    """Boolean support of one randomly placed shape covering roughly area_frac of the image."""
    area = max(1.0, area_frac * size * size)
    aspect = rng.uniform(0.5, 2.0)
    if kind == "rectangle":
        h = int(round(np.sqrt(area * aspect)))
        w = int(round(area / max(h, 1)))
        h = min(max(h, 1), size)
        w = min(max(w, 1), size)
        y0 = int(rng.integers(0, size - h + 1))
        x0 = int(rng.integers(0, size - w + 1))
        sup = np.zeros((size, size), dtype=bool)
        sup[y0 : y0 + h, x0 : x0 + w] = True
        return sup
    ry = np.sqrt(area * aspect / np.pi)
    rx = area / (np.pi * ry)
    ry = min(max(ry, 0.8), size / 2.0 - 0.5)
    rx = min(max(rx, 0.8), size / 2.0 - 0.5)
    cy = rng.uniform(ry, size - 1 - ry)
    cx = rng.uniform(rx, size - 1 - rx)
    yy, xx = np.mgrid[0:size, 0:size]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def generate_sample(cfg: GenConfig, index: int) -> Sample:
    """Build sample ``index`` of the stream keyed by ``(cfg.seed, index)``."""
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, index]))
    size = cfg.size

    # Smooth per-channel background gradient.
    yy, xx = np.mgrid[0:size, 0:size]
    u = xx / (size - 1) - 0.5
    v = yy / (size - 1) - 0.5
    real = np.empty((size, size, 3), dtype=np.float64)
    for c in range(3):
        level = rng.uniform(0.2, 0.8)
        real[:, :, c] = np.clip(level + rng.uniform(-0.35, 0.35) * u + rng.uniform(-0.35, 0.35) * v, 0.0, 1.0)

    n_objects = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    n_twins = min(2, max(n_objects - 1, 0))
    n_clutter = n_objects - 1 - n_twins

    taken_fill: set[tuple[int, int, int]] = set()
    taken_sem: set[tuple[int, int, int]] = set()
    sem_background = _distinct_color(rng, taken_sem)

    # Foreground-class base color; twins are tinted with tiny distinct offsets
    # so real-image colors stay pairwise distinct while remaining informative.
    base = rng.integers(20, 236, size=3)
    fg_fill = tuple(int(v) for v in base)
    taken_fill.add(fg_fill)
    taken_sem.add(fg_fill)
    twin_fills = []
    for t in range(n_twins):
        while True:
            delta = rng.integers(-2, 3, size=3)
            cand = tuple(int(np.clip(base[c] + delta[c], 0, 255)) for c in range(3))
            if cand not in taken_fill:
                taken_fill.add(cand)
                twin_fills.append(cand)
                break

    labels = np.zeros((size, size), dtype=np.int32)
    fill_colors: list[tuple[int, int, int]] = []
    sem_colors: list[tuple[int, int, int]] = []

    # Clutter first, then twins, then the foreground: later paint wins, so the
    # foreground keeps its full support and twins can only be hidden by it.
    for i in range(1, n_clutter + 1):
        kind = SHAPE_KINDS[int(rng.integers(0, len(SHAPE_KINDS)))]
        frac = float(np.exp(rng.uniform(np.log(0.01), np.log(0.15))))
        labels[_shape_support(rng, kind, size, frac)] = i
        # clutter stays chromatically clear of the foreground class so the
        # twins are the unambiguous appearance reference
        while True:
            fill = _distinct_color(rng, taken_fill)
            if np.max(np.abs(np.asarray(fill) - base)) >= 24:
                break
        fill_colors.append(fill)
        sem_colors.append(fill if fill not in taken_sem else _distinct_color(rng, taken_sem))
        taken_sem.add(sem_colors[-1])

    lo, hi = _FG_RATIO_RANGE
    fg_label = n_objects
    pre_class = labels.copy()
    min_twin_visible = max(8, (size * size) // 256)
    for attempt in range(_MAX_SHAPE_RETRIES):
        labels = pre_class.copy()
        twin_label = n_clutter + 1
        for t in range(n_twins):
            kind = SHAPE_KINDS[int(rng.integers(0, len(SHAPE_KINDS)))]
            frac = float(rng.uniform(0.05, 0.14))
            labels[_shape_support(rng, kind, size, frac)] = twin_label + t
        kind = SHAPE_KINDS[int(rng.integers(0, len(SHAPE_KINDS)))]
        frac = float(np.exp(rng.uniform(np.log(0.012), np.log(0.45))))
        sup = _shape_support(rng, kind, size, frac)
        ratio = sup.sum() / (size * size)
        labels[sup] = fg_label
        twins_visible = all(
            int((labels == twin_label + t).sum()) >= min_twin_visible for t in range(n_twins)
        )
        if lo <= ratio <= hi and twins_visible:
            break
    else:
        raise GenerationError(
            f"could not place foreground (ratio in [{lo}, {hi}]) and visible twins "
            f"after {_MAX_SHAPE_RETRIES} attempts"
        )
    for t in range(n_twins):
        fill_colors.append(twin_fills[t])
        sem_colors.append(fg_fill)  # twins share the foreground class label color
    fill_colors.append(fg_fill)
    sem_colors.append(fg_fill)

    semantic = np.empty((size, size, 3), dtype=np.float64)
    semantic[:, :] = np.asarray(sem_background, dtype=np.float64) / 255.0
    for i in range(1, n_objects + 1):
        region = labels == i
        real[region] = np.asarray(fill_colors[i - 1], dtype=np.float64) / 255.0
        semantic[region] = np.asarray(sem_colors[i - 1], dtype=np.float64) / 255.0
    real = _quantize(real)

    mask = (labels == fg_label).astype(np.uint8)

    # Per-channel gamma curve plus affine shift inside the foreground.
    gain = rng.uniform(cfg.gain[0], cfg.gain[1], size=3)
    bias = rng.uniform(cfg.bias[0], cfg.bias[1], size=3)
    gamma = rng.uniform(cfg.gamma[0], cfg.gamma[1], size=3)
    composite = real.copy()
    fg = mask.astype(bool)
    shifted = np.clip(gain * np.power(real[fg], gamma) + bias, 0.0, 1.0)
    composite[fg] = _quantize(shifted)

    return Sample(
        real=Image(real),
        composite=Image(composite),
        mask=Mask(mask),
        semantic=Image(semantic),
        id=f"{index:06d}",
    )


def generate_dataset(cfg: GenConfig, count: int) -> list[Sample]:
    """Generate samples ``0 .. count-1``; each depends only on ``(cfg, index)``."""
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    return [generate_sample(cfg, i) for i in range(count)]


# ---------------------------------------------------------------------------
# dataset directory layout


def sample_paths(directory: PathLike, sample_id: str) -> dict[str, Path]:
    d = Path(directory)
    return {
        "real": d / f"{sample_id}_real.ppm",
        "comp": d / f"{sample_id}_comp.ppm",
        "mask": d / f"{sample_id}_mask.pgm",
        "sem": d / f"{sample_id}_sem.ppm",
    }


def write_dataset(samples: Sequence[Sample], directory: PathLike) -> None:
    d = Path(directory)
    os.makedirs(d, exist_ok=True)
    for s in samples:
        paths = sample_paths(d, s.id)
        write_ppm(s.real, paths["real"])
        write_ppm(s.composite, paths["comp"])
        write_pgm(s.mask, paths["mask"])
        write_ppm(s.semantic, paths["sem"])
    ids = sorted(s.id for s in samples)
    with open(d / "manifest.txt", "w", encoding="ascii") as fh:
        for sid in ids:
            fh.write(sid + "\n")


def load_dataset(directory: PathLike) -> list[Sample]:
    d = Path(directory)
    manifest = d / "manifest.txt"
    if not manifest.exists():
        raise DatasetError(f"missing manifest: {manifest}")
    try:
        with open(manifest, "r", encoding="ascii") as fh:
            ids = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {manifest}: {exc}") from exc
    samples = []
    for sid in ids:
        paths = sample_paths(d, sid)
        for p in paths.values():
            if not p.exists():
                raise DatasetError(f"manifest lists {sid} but {p} is missing")
        samples.append(
            Sample(
                real=read_ppm(paths["real"]),
                composite=read_ppm(paths["comp"]),
                mask=read_pgm(paths["mask"]),
                semantic=read_ppm(paths["sem"]),
                id=sid,
            )
        )
    return samples
