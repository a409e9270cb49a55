"""Tape-based reverse-mode autodiff over dense float64 arrays.

A ``Tensor`` wraps a flat row-major numpy buffer; operations are module-level
functions that compute forward values eagerly and, when a ``Graph`` is active
and an operand requires gradients, append a record to the tape. ``Graph.backward``
seeds the root's gradient (1 for a scalar, or given weights) and walks the
tape once, in exact reverse execution order, accumulating gradients into
``Tensor.grad`` buffers and dropping each record as it runs.

There are no generic arithmetic ops. Each U-Net layer is one op, chosen by
its role: ``down_conv3x3`` is an encoder stage (a stride-2 3x3 conv and its
relu), ``up_conv3x3`` a decoder stage (upsample, skip concat, 3x3 conv and
relu) and ``conv3x3`` the head (a stride-1 3x3 conv on one region).
``compose_residual`` is the head's residual composition onto the composite
and ``l1_loss`` the training loss. The bottleneck blocks, ``rain_block`` and
``srin_block``, are one op each too and record onto the same tape from
``blocks``, which holds their arithmetic.

Everything is float64 and single-threaded: importing ``harmlab`` pins the
BLAS pool to one thread, so identical inputs produce bit-identical outputs
across runs whatever thread count the environment asks for. There is no
broadcasting beyond the handful of channel-wise patterns the operations below
need. ``Tensor(...)`` rejects non-finite values in the tensors callers build;
op outputs skip that pass (``_wrap``), and callers check finiteness where
values leave a computation.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError

EPS_DEFAULT = 1e-5  # added to variances before the square root


class Tensor:
    """Dense N-dimensional float64 array with an optional gradient buffer.

    ``grad`` is ``None`` until the tensor participates in a backward pass or
    an owner attaches a buffer; backward accumulates into it in place.
    Zero-sized dimensions are rejected at construction, and all values must
    be finite.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and min(arr.shape) == 0:
            raise ShapeError(f"degenerate tensor shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Zero the gradient buffer in place, keeping it attached; no-op when there is none."""
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(data: np.ndarray, grad: Optional[np.ndarray], requires_grad: bool) -> Tensor:
    """Tensor around a non-empty float64 array, without ``Tensor``'s checks.

    Ops build their outputs with it: an op's output is non-empty by its
    shape checks, and its values are checked where they leave the library
    (the training loss, ``adam_step``, the serving output), not once per op.
    """
    t = Tensor.__new__(Tensor)
    t.data, t.grad, t.requires_grad = data, grad, requires_grad
    return t


class _Record:
    """One tape entry: op kind, operand identities, and the gradient closure."""

    __slots__ = ("op", "inputs", "outs", "fn")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], outs: tuple[Tensor, ...],
                 fn: Callable[[], None]):
        self.op = op
        self.inputs = inputs
        self.outs = outs
        self.fn = fn


# The tape that ops record onto, if any. A context variable rather than a
# global, so a forward pass on one thread never records onto another's tape.
_active: ContextVar[Optional["Graph"]] = ContextVar("harmlab_active_graph", default=None)


class Graph:
    """Execution tape. Use as a context manager around a differentiable forward pass.

    Records are appended in execution order; ``backward`` visits them in exact
    reverse order, so gradient accumulation is deterministic. Entering a graph
    makes it the active tape of the current thread (or context) until exit,
    which restores the tape that was active before.
    """

    def __init__(self):
        self.records: list[_Record] = []
        self._token = None
        self._spent = False

    def __enter__(self) -> "Graph":
        self._token = _active.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.reset(self._token)
        return False

    def backward(self, root: Tensor, grad=None) -> None:
        """Seed d(root)/d(root) with ``grad`` and accumulate gradients along the tape.

        ``grad`` is an array of ``root``'s shape, copied into ``root.grad``;
        left out, it is 1 for a scalar root. Seeding with weights ``W`` gives
        every input the gradient of ``sum(W * root)``.

        The tape runs once, popping and dropping each record as it goes, which
        frees the buffers the record holds; a second call raises.
        """
        if self._spent:
            raise RuntimeError("backward: this tape has already run")
        if grad is None:
            if root.data.size != 1:
                raise ShapeError(f"backward needs a seed for a non-scalar root, got shape {root.shape}")
            grad = np.ones_like(root.data)
        seed = np.array(grad, dtype=np.float64)
        if seed.shape != root.shape:
            raise ShapeError(f"backward: seed shape {seed.shape} does not match root shape {root.shape}")
        root.grad = seed
        self._spent = True
        while self.records:
            rec = self.records.pop()
            if any(o.grad is not None for o in rec.outs):
                rec.fn()


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; the first touch adopts ``g`` as the buffer,
    copying it only to make it C-contiguous float64. No op hands over its
    output gradient or a view of it, so an adopted buffer is never shared."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def _maybe_record(op: str, outs: tuple[Tensor, ...], inputs: Sequence[Tensor], fn: Callable[[], None]) -> None:
    graph = _active.get()
    if graph is not None and any(t.requires_grad for t in inputs):
        for out in outs:
            out.requires_grad = True
        graph.records.append(_Record(op, tuple(inputs), outs, fn))


def _op(op: str, inputs: tuple[Tensor, ...], data: np.ndarray, *grads: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Wrap ``data`` as the output of a single-output op and record it on the active tape.

    On backward, ``grads[i]`` maps the output gradient to the gradient of
    ``inputs[i]``, in input order; it is skipped for inputs that do not
    require a gradient. No ``grads[i]`` returns the output gradient or a
    view of it (``_accum`` adopts what it gets).
    """
    out = _wrap(np.asarray(data, dtype=np.float64), None, False)

    def bwd():
        g = out.grad
        for t, grad in zip(inputs, grads):
            if t.requires_grad:
                _accum(t, grad(g))

    _maybe_record(op, (out,), inputs, bwd)
    return out


def as_site_mask(mask, h: int, w: int) -> np.ndarray:
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != (h, w):
        raise ShapeError(f"mask shape {m.shape} does not match sites ({h}, {w})")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask must be binary")
    return m


# ---------------------------------------------------------------------------
# the training loss and the head's composition (the mask is a constant site selector)


def l1_loss(out: Tensor, real, offset: float, scale: float) -> Tensor:
    """The scalar ``(sum |out - real| + offset) * scale``, summed and scaled in that order.

    ``real`` is a constant array of ``out``'s shape. ``out``'s gradient is
    ``g * scale`` times sign(out - real), with sign(0) = 0.
    """
    real = np.asarray(real, dtype=np.float64)
    if real.shape != out.shape:
        raise ShapeError(f"l1_loss: shapes {out.shape} and {real.shape} differ")
    diff = out.data - real
    total = (np.sum(np.abs(diff)) + offset) * scale
    return _op("l1_loss", (out,), total, lambda g: np.full_like(diff, float(g * scale)) * np.sign(diff))


def compose_residual(delta: Tensor, comp, mask) -> Tensor:
    """``clip(delta + comp, 0, 1)`` at mask=1 sites and exactly ``comp`` at mask=0 sites.

    ``delta`` and the constant ``comp`` are [C, H, W] maps. ``delta``'s
    gradient is ``g`` where the mask is 1 and ``delta + comp`` lies in
    [0, 1], and 0 elsewhere.
    """
    comp = np.asarray(comp, dtype=np.float64)
    if comp.shape != delta.shape or delta.data.ndim != 3:
        raise ShapeError(f"compose_residual: shapes {delta.shape} and {comp.shape} must be equal [C, H, W]")
    sel = as_site_mask(mask, delta.shape[1], delta.shape[2]).astype(bool)[None]
    total = delta.data + comp
    keep = sel & (total >= 0.0) & (total <= 1.0)
    return _op("compose_residual", (delta,), np.where(sel, np.clip(total, 0.0, 1.0), comp), lambda g: g * keep)


# ---------------------------------------------------------------------------
# contractions


def _check_conv(op: str, w: Tensor, bias: Tensor, kernel: tuple[int, ...], *maps: Tensor) -> None:
    """Raise unless every map is [C, H, W], ``w`` is [C_out, C_in, *kernel]
    with C_in the maps' channel total, and ``bias`` is [C_out]."""
    if any(m.data.ndim != 3 for m in maps):
        raise ShapeError(f"{op}: need [C, H, W] maps, got {', '.join(str(m.shape) for m in maps)}")
    c_in = sum(m.shape[0] for m in maps)
    if w.shape[1:] != (c_in, *kernel) or bias.shape != w.shape[:1]:
        raise ShapeError(f"{op}: weight {w.shape} and bias {bias.shape} do not fit {c_in} input channels")


_OFFSETS_3X3 = [(ky, kx) for ky in range(3) for kx in range(3)]


def _window(top: int, n: int, size: int) -> tuple[slice, slice]:
    """The positions ``i`` of ``0:n`` whose site ``top + i`` lies in ``0:size``, and those sites."""
    i0 = min(max(-top, 0), n)
    i1 = max(min(size - top, n), i0)
    return slice(i0, i1), slice(top + i0, top + i1)


def _fill_window(dst: np.ndarray, x: np.ndarray, top: int, left: int) -> None:
    """Set ``dst[:, i, j]`` to site ``(top + i, left + j)`` of the [C, H, W] map ``x`` wherever that lies in ``x``."""
    (rd, rx), (cd, cx) = _window(top, dst.shape[1], x.shape[1]), _window(left, dst.shape[2], x.shape[2])
    dst[:, rd, cd] = x[:, rx, cx]


def _add_window(dst: np.ndarray, g: np.ndarray, top: int, left: int) -> None:
    """Adjoint of ``_fill_window``: add ``g[:, i, j]`` into site ``(top + i, left + j)`` of ``dst`` where it has one."""
    (rg, rd), (cg, cd) = _window(top, g.shape[1], dst.shape[1]), _window(left, g.shape[2], dst.shape[2])
    dst[:, rd, cd] += g[:, rg, cg]


def _grad_buffer(t: Tensor) -> np.ndarray:
    """``t``'s gradient buffer, attaching a zero one first when there is none."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _phase_grids(x: np.ndarray, stride: int, rows: int, pitch: int, top: int, left: int) -> np.ndarray:
    """Split the window of a [C, h, w] map at (top, left) into flat phase grids [stride * stride, C, rows * pitch].

    Grid ``py * stride + px`` holds site ``(top + stride * r + py, left + stride * c + px)``
    of ``x`` at (r, c), with its rows ``pitch`` apart, and zero where that site
    lies outside ``x``.
    """
    grids = np.zeros((stride * stride, x.shape[0], rows, pitch), dtype=np.float64)
    for j, grid in enumerate(grids):
        q, s = top + j // stride, left + j % stride
        _fill_window(grid, x[:, q % stride :: stride, s % stride :: stride], q // stride, s // stride)
    return grids.reshape(stride * stride, x.shape[0], rows * pitch)


def _from_phase_grids(grids: Sequence[np.ndarray], dst: np.ndarray, pitch: int, top: int, left: int) -> None:
    """Adjoint of ``_phase_grids``: add the flat grids' values into the sites of ``dst`` they hold."""
    stride = math.isqrt(len(grids))
    for j, grid in enumerate(grids):
        q, s = top + j // stride, left + j % stride
        _add_window(dst[:, q % stride :: stride, s % stride :: stride], grid.reshape(dst.shape[0], -1, pitch),
                    q // stride, s // stride)


def _tap_sums(grids: Sequence[np.ndarray], taps, shape: tuple[int, ...], pitch: int) -> np.ndarray:
    """Output blocks of ``shape`` [..., C_out, H, W], each a sum over its taps.

    Each grid is a flat [C_in, L] phase grid with rows ``pitch`` apart, and
    the leading axes of ``shape`` number the blocks in C order. A tap
    ``(block, grid, w, offset)`` adds ``w @ grids[grid][:, offset : offset + n]``
    with ``n = H * pitch`` into its block, so every tap reads one contiguous
    slice and the last ``pitch - W`` columns of each row are cropped. A
    block's first tap is assigned and the rest are added in tap order.
    """
    c_out, h, w = shape[-3:]
    n = h * pitch
    acc = np.empty((math.prod(shape[:-3]), c_out, n), dtype=np.float64)
    prod = np.empty((c_out, n), dtype=np.float64)
    for b, acc_b in enumerate(acc):
        (_, j, wt, o), *rest = [tap for tap in taps if tap[0] == b]
        np.matmul(wt, grids[j][:, o : o + n], out=acc_b)
        for _, j, wt, o in rest:
            acc_b += np.matmul(wt, grids[j][:, o : o + n], out=prod)
    return acc.reshape(*shape[:-1], pitch)[..., :w]


def _tap_sums_backward(g: np.ndarray, grids: Sequence[np.ndarray], taps, pitch: int, grad_grids: Sequence[bool],
                       dws: Optional[Sequence[np.ndarray]]) -> list[Optional[np.ndarray]]:
    """Backward of ``_tap_sums`` for the gradient ``g`` of its output.

    Writes tap k's weight gradient [C_out, C_in] into ``dws[k]`` when
    ``dws`` is given. Returns each grid's flat gradient, or None where
    ``grad_grids`` says it needs none.

    A grid that needs a gradient and has more channels than C_out stacks
    the gradient, shifted by each of its taps' offsets, into one
    [taps * C_out, L] buffer ``S``: the grid's gradient is one GEMM
    ``W_grid^T @ S`` and its taps' weight gradients one GEMM ``S @ grid^T``.
    ``S`` copies the gradient once per tap, which pays only where it is the
    narrower operand, so every other grid makes per-tap products: a weight
    gradient ``g @ slice^T`` and an input gradient added into the slice.
    """
    c_out, h, w = g.shape[-3:]
    n = h * pitch
    wide = np.zeros((*g.shape[:-1], pitch), dtype=np.float64)  # zeros in the cropped columns
    wide[..., :w] = g
    wide = wide.reshape(-1, c_out, n)
    dgrids: list[Optional[np.ndarray]] = [None] * len(grids)
    per_tap = []
    for j, grid in enumerate(grids):
        ks = [k for k, tap in enumerate(taps) if tap[1] == j]
        c_in, length = grid.shape
        if not (grad_grids[j] and c_in > c_out):
            per_tap += ks
            continue
        stack = np.zeros((len(ks), c_out, length), dtype=np.float64)
        for i, k in enumerate(ks):
            b, _, _, o = taps[k]
            stack[i, :, o : o + n] = wide[b]
        stack = stack.reshape(-1, length)
        dgrids[j] = np.concatenate([taps[k][2] for k in ks]).T @ stack
        if dws is not None:
            for k, dw in zip(ks, (stack @ grid.T).reshape(len(ks), c_out, c_in)):
                dws[k][...] = dw
    # Every weight gradient before any input gradient: interleaved, the
    # buffers of a 64x64 layer overflowed the cache.
    if dws is not None:
        for k in per_tap:
            b, j, _, o = taps[k]
            np.matmul(wide[b], grids[j][:, o : o + n].T, out=dws[k])
    for k in per_tap:
        b, j, wt, o = taps[k]
        if grad_grids[j]:
            if dgrids[j] is None:
                dgrids[j] = np.zeros_like(grids[j])
            dgrids[j][:, o : o + n] += wt.T @ wide[b]
    return dgrids


def _tap_major(w: np.ndarray) -> np.ndarray:
    """[C_out, C_in, 3, 3] weights as contiguous [9, C_out, C_in]: tap k is (ky, kx) = divmod(k, 3)."""
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(9, *w.shape[:2])


def _from_tap_major(d: np.ndarray) -> np.ndarray:
    """Inverse of ``_tap_major``: [9, C_out, C_in] as [C_out, C_in, 3, 3]."""
    return d.reshape(3, 3, *d.shape[1:]).transpose(2, 3, 0, 1)


def _conv3x3_core(x: Tensor, w: Tensor, bias: Tensor, stride: int, origin: tuple[int, int],
                  ho: int, wo: int) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """The [C_out, ho, wo] output of a 3x3 conv whose padded window's corner is site ``origin`` of ``x``,
    and the function that takes its gradient and accumulates those of ``x``, ``w`` and ``bias``.

    The window is split into stride x stride flat phase grids of row pitch
    ``p = wo + 2 // stride``. Tap (ky, kx) of every output site then reads
    one contiguous slice of one grid, so the forward is ``_tap_sums`` over
    nine taps: nine [C_out, C_in] @ [C_in, ho * p] GEMMs whose last
    ``2 // stride`` columns per row are cropped, with no im2col buffer. The
    backward is ``_tap_sums_backward``, which stacks the output gradient per
    phase grid when the input needs a gradient and ``C_out < C_in``.
    """
    s = stride
    reach = 2 // s  # rows and columns a tap reaches past an output site's grid position
    p = wo + reach
    # One spare grid row: the last tap's slice runs ``reach`` elements past the grid.
    grids = _phase_grids(x.data, s, ho + reach + 1, p, *origin)
    wk = _tap_major(w.data)
    taps = [(0, (ky % s) * s + kx % s, wk[k], (ky // s) * p + kx // s) for k, (ky, kx) in enumerate(_OFFSETS_3X3)]

    def backward(g: np.ndarray) -> None:
        dwk = np.empty(wk.shape, dtype=np.float64) if w.requires_grad else None
        dgrids = _tap_sums_backward(g, grids, taps, p, [x.requires_grad] * (s * s), dwk)
        if dwk is not None:
            _accum(w, _from_tap_major(dwk))
        _accum(bias, g.reshape(g.shape[0], -1).sum(axis=1))
        if x.requires_grad:
            _from_phase_grids(dgrids, _grad_buffer(x), p, *origin)

    return _tap_sums(grids, taps, (w.shape[0], ho, wo), p) + bias.data[:, None, None], backward


def conv3x3(x: Tensor, w: Tensor, bias: Tensor, region: Optional[tuple[int, int, int, int]] = None,
            x_at: tuple[int, int] = (0, 0)) -> Tensor:
    """3x3 cross-correlation with zero padding 1 and stride 1: the output head.

    ``region`` = (top, bottom, left, right) computes only those output
    sites, numbered as sites of ``x`` whose site (0, 0) is ``x_at``; it lies
    in ``x``, which is read in place with zeros only outside it. Left out,
    the region is the whole map. ``_conv3x3_core`` says how it is computed.
    """
    _check_conv("conv3x3", w, bias, (3, 3), x)
    _, h, wd = x.shape
    xt, xl = x_at
    top, bottom, left, right = (xt, xt + h, xl, xl + wd) if region is None else region
    if not (xt <= top < bottom <= xt + h and xl <= left < right <= xl + wd):
        raise ShapeError(f"conv3x3: region {region} is not inside the input's sites, {x.shape} at {x_at}")
    pre, backward = _conv3x3_core(x, w, bias, 1, (top - 1 - xt, left - 1 - xl), bottom - top, right - left)
    out = _wrap(pre, None, False)
    _maybe_record("conv3x3", (out,), (x, w, bias), lambda: backward(out.grad))
    return out


def down_conv3x3(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """One U-Net encoder stage: ``relu`` of the 3x3 cross-correlation of the
    whole of ``x`` with zero padding 1 and stride 2, [C_out, ceil(H / 2), ceil(W / 2)].

    ``_conv3x3_core`` computes the conv; the backward masks the output
    gradient with ``out > 0`` before it.
    """
    _check_conv("down_conv3x3", w, bias, (3, 3), x)
    _, h, wd = x.shape
    pre, backward = _conv3x3_core(x, w, bias, 2, (-1, -1), -(-h // 2), -(-wd // 2))
    out = _wrap(np.maximum(pre, 0.0), None, False)
    _maybe_record("down_conv3x3", (out,), (x, w, bias), lambda: backward(out.grad * (out.data > 0.0)))
    return out


# _FOLD[k, 2a + t] = 1 when, at output phase a of a nearest x2 upsample, kernel
# tap k reads low-res offset a + t of the padded low-res grid (offset 0 is the
# row or column above or left of the output site's own low-res site).
_FOLD = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _fold_taps(w: np.ndarray) -> np.ndarray:
    """Fold [C_out, C_in, 3, 3] weights into [2, 2, 4, C_out, C_in]: phase (a, b), 2x2 tap (t, u)."""
    c_out, c_in = w.shape[:2]
    f = (w @ _FOLD).swapaxes(2, 3) @ _FOLD  # [C_out, C_in, (b, u), (a, t)]
    return np.ascontiguousarray(f.reshape(c_out, c_in, 2, 2, 2, 2).transpose(4, 2, 5, 3, 0, 1)).reshape(
        2, 2, 4, c_out, c_in
    )


def _unfold_taps(d: np.ndarray) -> np.ndarray:
    """Adjoint of ``_fold_taps``: sums each folded-tap gradient back onto its 3x3 taps."""
    c_out, c_in = d.shape[3:]
    d = d.reshape(2, 2, 2, 2, c_out, c_in).transpose(4, 5, 1, 3, 0, 2).reshape(c_out, c_in, 4, 4)
    return (d @ _FOLD.T).swapaxes(2, 3) @ _FOLD.T


# Regions over at least this many low-res sites run ``up_conv3x3``'s folded
# layout, smaller ones its concat layout. Forward plus backward ms, concat /
# folded, median of 60 alternated rounds, 2-CPU box, one BLAS thread, per
# C_low + C_skip -> C_out (``python demos/07_fold_crossover.py``):
#   low-res sites   256        400        576        784        1024
#   16 + 4 -> 16    1.69/1.95  2.41/2.47  3.46/3.11  4.90/3.83  6.47/4.71
#   32 + 16 -> 16   2.60/3.69  3.99/4.53  6.07/6.40  8.31/7.99  10.4/8.85
#   64 + 32 -> 32   7.35/8.13  11.0/11.0  15.6/14.2  22.2/18.8  29.0/25.9
_FOLD_MIN_SITES = 576


def up_conv3x3(low: Tensor, skip: Tensor, w: Tensor, bias: Tensor, region: tuple[int, int, int, int],
               low_at: tuple[int, int] = (0, 0), skip_at: tuple[int, int] = (0, 0)) -> Tensor:
    """One U-Net decoder stage, ``relu(conv3x3(concat(up, skip), w, bias))``, on ``region`` only.

    ``up`` is the nearest x2 upsample of ``low`` and ``concat`` stacks
    channels, ``up``'s first. Sites are numbered on the
    skip's level: ``skip``'s site (0, 0) is site ``skip_at``, ``low``'s site
    (0, 0) is site ``low_at`` of the level above, and low-res site (i, j)
    covers sites (2i + a, 2j + b). The conv reads zero at sites outside
    ``skip`` and at sites whose low-res site is outside ``low``, so the output
    is the whole map's wherever ``skip`` and ``low`` hold the map's sites
    within one site of ``region`` = (top, bottom, left, right), which lies in
    ``skip``. ``w`` is [C_out, C_low + C_skip, 3, 3], upsampled channels first.

    Both layouts are ``_tap_sums`` over flat grids; the count of low-res sites
    under ``region`` picks one. Concat: ``up`` and ``skip`` over ``region``
    grown by one are stacked into one grid for ``conv3x3``'s nine stride-1
    taps. Folded: at output phase (a, b), ``up`` then a 3x3 conv is a 2x2
    conv of ``low`` whose taps are the 3x3 taps folded per axis (phase 0:
    taps {0} and {1, 2}; phase 1: taps {0, 1} and {2}), 16 GEMMs with 16/36
    of the upsampled channels' multiply-adds, and the skip channels read the
    skip's 2x2 phase grids, nine GEMMs per phase; the phases cover whole 2x2
    blocks and are interleaved and cut to ``region``. The backward is
    ``_tap_sums_backward`` over the same taps, and ``skip`` gets a gradient
    only when it requires one.
    """
    top, bottom, left, right = region
    low_sites = ((bottom + 1) // 2 - top // 2) * ((right + 1) // 2 - left // 2)
    return _up_conv3x3(low, skip, w, bias, region, low_at, skip_at, low_sites >= _FOLD_MIN_SITES)


def _up_conv3x3(low: Tensor, skip: Tensor, w: Tensor, bias: Tensor, region: tuple[int, int, int, int],
                low_at: tuple[int, int], skip_at: tuple[int, int], folded: bool) -> Tensor:
    """``up_conv3x3`` in the layout that ``folded`` names."""
    _check_conv("up_conv3x3", w, bias, (3, 3), low, skip)
    c_low, c_skip, c_out = low.shape[0], skip.shape[0], w.shape[0]
    c_in = c_low + c_skip
    top, bottom, left, right = region
    (lt, ll), (st, sl) = low_at, skip_at
    if not (st <= top < bottom <= st + skip.shape[1] and sl <= left < right <= sl + skip.shape[2]):
        raise ShapeError(f"up_conv3x3: region {region} is not inside the skip's sites, {skip.shape} at {skip_at}")
    h, wd = bottom - top, right - left
    l0, m0 = top // 2, left // 2  # the first low-res site under the region
    hl, wl = (bottom + 1) // 2 - l0, (right + 1) // 2 - m0
    phases = [(a, b) for a in range(2) for b in range(2)]
    if folded:
        p = wl + 2
        # Grid 0 is low's window, grids 1-4 the skip's phase grids. Each has
        # one spare row: the last tap's slice runs past the window.
        grids = [*_phase_grids(low.data, 1, hl + 3, p, l0 - 1 - lt, m0 - 1 - ll),
                 *_phase_grids(skip.data, 2, hl + 2, p, 2 * l0 - 1 - st, 2 * m0 - 1 - sl)]
        w_low = _fold_taps(w.data[:, :c_low])
        w_skip = _tap_major(w.data[:, c_low:])
        # Phase (a, b) is block 2a + b. Its low taps (t, u) come before its
        # skip taps (ky, kx), and skip tap (ky, kx) reads skip grid site
        # (2i + a + ky, 2j + b + kx).
        taps = [(2 * a + b, 0, w_low[a, b, 2 * t + u], (a + t) * p + b + u)
                for a, b in phases for t in range(2) for u in range(2)]
        taps += [(2 * a + b, 1 + ((a + ky) % 2) * 2 + (b + kx) % 2, w_skip[k], ((a + ky) // 2) * p + (b + kx) // 2)
                 for a, b in phases for k, (ky, kx) in enumerate(_OFFSETS_3X3)]
        cut = np.s_[:, top - 2 * l0 : bottom - 2 * l0, left - 2 * m0 : right - 2 * m0]
        acc = _tap_sums(grids, taps, (2, 2, c_out, hl, wl), p)
        acc = acc.transpose(2, 3, 0, 4, 1).reshape(c_out, 2 * hl, 2 * wl)[cut]
    else:
        p = wd + 2
        ut, ul = top - 1 - 2 * lt, left - 1 - 2 * ll  # the window's corner as a site of up(low)
        grid = np.zeros((c_in, h + 3, p), dtype=np.float64)  # the window, then a spare row
        for a, b in phases:  # the window's sites of row and column parity (a, b) hold low's sites in order
            _fill_window(grid[:c_low, a::2, b::2], low.data, (ut + a) // 2, (ul + b) // 2)
        _fill_window(grid[c_low:], skip.data, top - 1 - st, left - 1 - sl)
        grids = [grid.reshape(c_in, -1)]
        wk = _tap_major(w.data)
        taps = [(0, 0, wk[k], ky * p + kx) for k, (ky, kx) in enumerate(_OFFSETS_3X3)]
        acc = _tap_sums(grids, taps, (c_out, h, wd), p)
    out = _wrap(np.maximum(acc + bias.data[:, None, None], 0.0), None, False)

    def bwd():
        g = out.grad * (out.data > 0.0)
        if folded:
            full = np.zeros((c_out, hl, 2, wl, 2), dtype=np.float64)
            full.reshape(c_out, 2 * hl, 2 * wl)[cut] = g
            # two separate buffers: each tap's slot stays a contiguous GEMM output
            dw_low = np.empty((2, 2, 4, c_out, c_low), dtype=np.float64)
            dw_skip = np.empty((4, 9, c_out, c_skip), dtype=np.float64)
            dws = [*dw_low.reshape(16, c_out, c_low), *dw_skip.reshape(36, c_out, c_skip)] if w.requires_grad else None
            dgrids = _tap_sums_backward(full.transpose(2, 4, 0, 1, 3), grids, taps, p,
                                        [low.requires_grad] + [skip.requires_grad] * 4, dws)
            if w.requires_grad:
                _accum(w, np.concatenate([_unfold_taps(dw_low), _from_tap_major(dw_skip.sum(axis=0))], axis=1))
            if low.requires_grad:
                _from_phase_grids(dgrids[:1], _grad_buffer(low), p, l0 - 1 - lt, m0 - 1 - ll)
            if skip.requires_grad:
                _from_phase_grids(dgrids[1:], _grad_buffer(skip), p, 2 * l0 - 1 - st, 2 * m0 - 1 - sl)
        else:
            dwk = np.empty((9, c_out, c_in), dtype=np.float64) if w.requires_grad else None
            (dgrid,) = _tap_sums_backward(g, grids, taps, p, [low.requires_grad or skip.requires_grad], dwk)
            if dwk is not None:
                _accum(w, _from_tap_major(dwk))
            for a, b in phases if low.requires_grad else ():
                d_up = dgrid.reshape(c_in, -1, p)[:c_low, a::2, b::2]
                _add_window(_grad_buffer(low), d_up, (ut + a) // 2, (ul + b) // 2)
            if skip.requires_grad:
                _add_window(_grad_buffer(skip), dgrid.reshape(c_in, -1, p)[c_low:], top - 1 - st, left - 1 - sl)
        _accum(bias, g.reshape(c_out, -1).sum(axis=1))

    _maybe_record("up_conv3x3", (out,), (low, skip, w, bias), bwd)
    return out


# ---------------------------------------------------------------------------
# softmax, for the ``srin`` block's attention (``blocks._attention``)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``y = _softmax_rows(z)`` given ``g`` at ``y``."""
    return y * (g - (g * y).sum(axis=1, keepdims=True))
