"""Bit-exact PPM/PGM I/O, mask-guided composition, and evaluation metrics.

Images hold float64 pixels in [0, 1], shaped (H, W, 3) with RGB interleaved
row-major to mirror the file layout. Masks are strictly binary (H, W) uint8
maps. The interchange formats are binary Netpbm: P6 for images, P5 for masks,
maxval 255, one whitespace byte after each header token.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ParseError, ShapeError

PathLike = Union[str, os.PathLike]

PSNR_CAP_DB = 100.0


@dataclass
class Image:
    """RGB image, float64 pixels in [0, 1], shape (H, W, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ShapeError(f"image pixels must be (H, W, 3), got {px.shape}")
        if not np.all(np.isfinite(px)) or px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("image pixels must lie in [0, 1]")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def planar(self) -> np.ndarray:
        """Channel-first copy, shape (3, H, W)."""
        return np.ascontiguousarray(self.pixels.transpose(2, 0, 1))

    @classmethod
    def from_planar(cls, arr: np.ndarray) -> "Image":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ShapeError(f"planar image must be (3, H, W), got {arr.shape}")
        return cls(arr.transpose(1, 2, 0).copy())


@dataclass
class Mask:
    """Binary (H, W) map; 1 marks the foreground region."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeError(f"mask must be (H, W), got {v.shape}")
        if not np.all((v == 0) | (v == 1)):
            raise ValueError("mask values must be 0 or 1")
        self.values = v.astype(np.uint8)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def count(self) -> int:
        return int(self.values.sum())

    def ratio(self) -> float:
        return self.count() / (self.height * self.width)


@dataclass
class MetricsRecord:
    """Per-sample evaluation on the 0-255 scale; ``fmse`` is None for an empty mask."""

    mse: float
    fmse: Optional[float]
    psnr: float
    fg_ratio: float


# ---------------------------------------------------------------------------
# Netpbm parsing


class _ByteScanner:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def fail(self, message: str) -> ParseError:
        return ParseError(f"{self.path}: {message}", self.pos)

    def token(self) -> bytes:
        # Skip whitespace and '#' comment lines between header tokens.
        blob = self.blob
        while self.pos < len(blob):
            ch = blob[self.pos : self.pos + 1]
            if ch in b" \t\r\n":
                self.pos += 1
            elif ch == b"#":
                nl = blob.find(b"\n", self.pos)
                self.pos = len(blob) if nl < 0 else nl + 1
            else:
                break
        start = self.pos
        while self.pos < len(blob) and blob[self.pos : self.pos + 1] not in b" \t\r\n":
            self.pos += 1
        if start == self.pos:
            raise self.fail("unexpected end of header")
        return blob[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise self.fail(f"invalid {what} token {tok!r}") from None

    def payload(self, n: int) -> bytes:
        # Exactly one whitespace byte separates the maxval token from the payload.
        if self.pos >= len(self.blob) or self.blob[self.pos : self.pos + 1] not in b" \t\r\n":
            raise self.fail("missing whitespace before payload")
        self.pos += 1
        body = self.blob[self.pos : self.pos + n]
        if len(body) < n:
            self.pos = len(self.blob)
            raise self.fail(f"truncated payload: expected {n} bytes, found {len(body)}")
        self.pos += n
        if self.pos != len(self.blob):
            raise self.fail(f"trailing data: {len(self.blob) - self.pos} extra bytes")
        return body


def _read_netpbm(path: PathLike, magic: bytes, samples_per_pixel: int) -> tuple[int, int, bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    sc = _ByteScanner(blob, str(path))
    got = sc.token()
    if got != magic:
        sc.pos = 0
        raise sc.fail(f"bad magic {got!r}, expected {magic!r}")
    width = sc.int_token("width")
    height = sc.int_token("height")
    if width < 1 or height < 1:
        raise sc.fail(f"invalid dimensions {width}x{height}")
    maxval = sc.int_token("maxval")
    if maxval != 255:
        raise sc.fail(f"unsupported maxval {maxval}, expected 255")
    body = sc.payload(width * height * samples_per_pixel)
    return width, height, body


def read_ppm(path: PathLike) -> Image:
    width, height, body = _read_netpbm(path, b"P6", 3)
    raw = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)
    return Image(raw.astype(np.float64) / 255.0)


def _write_netpbm(path: PathLike, magic: bytes, raw: np.ndarray) -> None:
    height, width = raw.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raw.tobytes())


def write_ppm(image: Image, path: PathLike) -> None:
    _write_netpbm(path, b"P6", np.rint(image.pixels * 255.0).astype(np.uint8))


def read_pgm(path: PathLike) -> Mask:
    """Read a P5 file as a mask, binarizing at threshold 128."""
    width, height, body = _read_netpbm(path, b"P5", 1)
    raw = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    return Mask((raw >= 128).astype(np.uint8))


def write_pgm(mask: Mask, path: PathLike) -> None:
    _write_netpbm(path, b"P5", (mask.values * np.uint8(255)).astype(np.uint8))


# ---------------------------------------------------------------------------
# composition and metrics


def _check_same_size(a, b, what: str) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeError(f"{what}: sizes ({a.height}, {a.width}) and ({b.height}, {b.width}) differ")


def compose(generated: Image, composite: Image, mask: Mask) -> Image:
    """Take generated pixels where mask=1 and composite pixels where mask=0, exactly."""
    _check_same_size(generated, composite, "compose")
    _check_same_size(generated, mask, "compose")
    sel = mask.values.astype(bool)[:, :, None]
    return Image(np.where(sel, generated.pixels, composite.pixels))


def metrics(harmonized: Image, reference: Image, mask: Mask) -> MetricsRecord:
    """MSE / foreground MSE / PSNR on the 0-255 scale, plus the foreground ratio.

    ``fmse`` averages squared error over foreground pixels only (all channels)
    and is ``None`` when the mask is empty. PSNR is 10*log10(255^2 / mse) for
    mse > 0 and ``PSNR_CAP_DB`` for an exact match.
    """
    _check_same_size(harmonized, reference, "metrics")
    _check_same_size(harmonized, mask, "metrics")
    diff = (harmonized.pixels - reference.pixels) * 255.0
    sq = diff * diff
    mse = float(sq.mean())
    fg = mask.values.astype(bool)
    fg_count = int(fg.sum())
    fmse = float(sq[fg].mean()) if fg_count else None
    psnr = PSNR_CAP_DB if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)
    return MetricsRecord(mse=mse, fmse=fmse, psnr=psnr, fg_ratio=fg_count / (mask.height * mask.width))


def ratio_bucket(fg_ratio: float) -> int:
    """Foreground-ratio bin: 0 for (0, 5%], 1 for (5%, 15%], 2 above."""
    if not 0.0 <= fg_ratio <= 1.0:
        raise ValueError(f"foreground ratio {fg_ratio} outside [0, 1]")
    if fg_ratio <= 0.05:
        return 0
    if fg_ratio <= 0.15:
        return 1
    return 2


BUCKET_LABELS = ("0-5%", "5-15%", "15-100%")
