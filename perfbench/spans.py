"""Span recorder and per-layer accounting for traced benchmark runs.

A traced run wraps the public entry points of each harmlab module, and every
tensor op, from the outside; the library itself is not modified. Spans
(name, start, end, parent) are kept in memory and written once at the end.
Tensor ops are too many to keep one span each (the gradcheck suite alone
runs several hundred thousand), so they are summed per op kind instead: call
count, forward and backward seconds, output bytes, tape records, and forward
flops computed from operand shapes.

With tracing off the workload code talks to ``NullTracer``, whose markers do
nothing and which patches nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# Op kinds reported on their own; every other tensor op is summed as "other".
OP_KINDS = ("conv3x3", "matmul", "softmax_rows")

TENSOR_OPS = (
    "add", "sub", "mul", "scale", "add_scalar", "relu", "absolute", "sqrt", "clamp01",
    "sum_all", "mean_all", "reshape", "transpose", "concat_channels", "upsample2", "blend",
    "mask_sites", "channel_affine", "normalize_channels", "matmul", "conv1x1", "conv3x3",
    "softmax_rows", "masked_channel_stats",
)

# Phases whose work is the model serving or learning (the verify phase also
# runs blocks and forwards, on toy shapes, and is kept out of these metrics).
MODEL_PHASES = ("train", "serve")


def _conv3x3_flops(args, out) -> int:
    # 2 flops per multiply-add: every output site sums c_in * 9 products
    return 2 * args[1].data.size * out.shape[1] * out.shape[2]


def _matmul_flops(args, out) -> int:
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


FLOPS = {"conv3x3": _conv3x3_flops, "matmul": _matmul_flops}


class OpStats:
    __slots__ = ("calls", "fwd", "bwd", "flops", "out_bytes")

    def __init__(self):
        self.calls = 0
        self.fwd = 0.0
        self.bwd = 0.0
        self.flops = 0
        self.out_bytes = 0


class NullTracer:
    """Tracing off: every marker is a no-op."""

    enabled = False
    _null = nullcontext()

    def phase(self, name: str):
        return self._null

    def span(self, name: str):
        return self._null

    def count(self, key: str, n: int = 1) -> None:
        pass

    def mark(self) -> None:
        pass

    def step(self, keep: bool) -> None:
        pass


class Tracer:
    """Spans around calls into each harmlab module, plus per-op-kind sums."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.phase_name = "none"
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])  # (phase, name) -> [s, calls]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.ops: dict[str, dict[str, OpStats]] = defaultdict(lambda: {k: OpStats() for k in (*OP_KINDS, "other")})
        self._ops = self.ops[self.phase_name]  # the current phase's sums
        self.records = 0  # tape records appended by wrapped ops
        self.tape_bytes = 0  # output bytes of ops run while a tape is recording
        self.steps: list[dict] = []  # per measured training step: deltas of the sums below
        self._mark: dict = {}
        self._graphs: list = []
        self._patches: list = []

    # -- spans and counters -------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            tot = self.totals[(self.phase_name, name)]
            tot[0] += rec[2] - rec[1]
            tot[1] += 1

    @contextmanager
    def phase(self, name: str):
        outer = self.phase_name
        self.phase_name, self._ops = name, self.ops[name]
        try:
            yield
        finally:
            self.phase_name, self._ops = outer, self.ops[outer]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.phase_name, key)] += n

    def _snapshot(self) -> dict:
        return {
            "t": time.perf_counter(),
            "fwd": self.totals[("train", "unet.forward")][0],
            "bwd": self.totals[("train", "tensor.backward")][0],
            "adam": self.totals[("train", "optim.adam_step")][0],
            "records": self.records,
            "tape_bytes": self.tape_bytes,
        }

    def mark(self) -> None:
        """Start the next training step's accounting window."""
        self._mark = self._snapshot()

    def step(self, keep: bool) -> None:
        """Close one training step (called from ``train``'s ``on_step``)."""
        now = self._snapshot()
        if keep:
            self.steps.append({k: now[k] - self._mark[k] for k in now})
        self._mark = now

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _tensor_op(self, kind: str, flops):
        perf = time.perf_counter

        def timed_backward(stats, fn):
            def bwd():
                t0 = perf()
                fn()
                stats.bwd += perf() - t0

            return bwd

        def make(fn):
            def op(*args, **kwargs):
                graph = self._graphs[-1] if self._graphs else None
                n0 = len(graph.records) if graph is not None else 0
                t0 = perf()
                out = fn(*args, **kwargs)
                stats = self._ops[kind]
                stats.fwd += perf() - t0
                stats.calls += 1
                first = out[0] if isinstance(out, tuple) else out
                nbytes = sum(t.data.nbytes for t in out[:2]) if isinstance(out, tuple) else out.data.nbytes
                stats.out_bytes += nbytes
                if flops is not None:
                    stats.flops += flops(args, first)
                if graph is not None:
                    self.tape_bytes += nbytes
                    new = graph.records[n0:]
                    self.records += len(new)
                    for rec in new:
                        rec.fn = timed_backward(stats, rec.fn)
                return out

            return op

        return make

    def _block(self, name: str):
        """Span a bottleneck block and count the attention cells it computes."""

        def make(fn):
            def wrapper(feat, mask_f, *args, **kwargs):
                n = mask_f.size
                fg = int(mask_f.sum())
                self.count("block.calls")
                if fg == 0 or fg == n:
                    self.count("block.degenerate")
                elif name == "blocks.srin_forward":
                    self.count("srin.cells_computed", n * n)
                    self.count("srin.cells_useful", fg * (n - fg))
                with self.span(name):
                    return fn(feat, mask_f, *args, **kwargs)

            return wrapper

        return make

    def install(self, hl) -> None:
        """Wrap harmlab's public entry points; ``hl`` maps module names to modules."""
        tensor, graph_cls = hl["tensor"], hl["tensor"].Graph

        def enter(fn):
            def wrapper(graph):
                self._graphs.append(graph)
                return fn(graph)

            return wrapper

        def leave(fn):
            def wrapper(graph, *exc):
                try:
                    return fn(graph, *exc)
                finally:
                    self._graphs.pop()

            return wrapper

        self._patch(graph_cls, "__enter__", enter)
        self._patch(graph_cls, "__exit__", leave)
        self._patch(graph_cls, "backward", self._spanned("tensor.backward"))
        for name in TENSOR_OPS:
            kind = name if name in OP_KINDS else "other"
            self._patch(tensor, name, self._tensor_op(kind, FLOPS.get(name)))

        unet, training, cli, synthdata, verify = (hl[m] for m in ("unet", "training", "cli", "synthdata", "verify"))
        self._patch(unet.GeneratorModel, "forward_tensor", self._spanned("unet.forward"))
        self._patch(unet, "srin_forward", self._block("blocks.srin_forward"))
        self._patch(unet, "rain_forward", self._block("blocks.rain_forward"))
        self._patch(hl["blocks"], "attention_bias", self._spanned("blocks.attention_bias"))
        self._patch(training, "adam_step", self._spanned("optim.adam_step"))
        self._patch(training, "unet_forward", self._spanned("unet.unet_forward"))
        self._patch(training, "compose", self._spanned("imaging.compose"))
        self._patch(training, "metrics", self._spanned("imaging.metrics"))
        for owner in (cli, synthdata):
            for fn in ("read_ppm", "read_pgm", "write_ppm", "write_pgm"):
                self._patch(owner, fn, self._spanned(f"imaging.{fn}"))
        self._patch(cli, "load_checkpoint", self._spanned("unet.load_checkpoint"))
        self._patch(cli, "unet_forward", self._spanned("unet.unet_forward"))
        for fn in ("op_grad_checks", "block_grad_checks", "network_grad_check", "invariant_checks"):
            self._patch(verify, fn, self._spanned(f"verify.{fn}"))
        self._patch(verify, "grad_check", self._spanned("gradcheck.grad_check"))

    # -- derived numbers ------------------------------------------------------

    def _total(self, name: str, phases=None) -> tuple[float, int]:
        s, n = 0.0, 0
        for (phase, key), (sec, calls) in self.totals.items():
            if key == name and (phases is None or phase in phases):
                s += sec
                n += calls
        return s, n

    def _mean_ms(self, name: str, phases=None) -> float:
        s, n = self._total(name, phases)
        return 1000.0 * s / n if n else 0.0

    def _count(self, key: str, phases=None) -> int:
        return sum(v for (phase, k), v in self.counts.items() if k == key and (phases is None or phase in phases))

    def self_seconds(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children, summed per name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def layer_metrics(self, suite_untraced_s: float) -> dict[str, tuple[float, str]]:
        m: dict[str, tuple[float, str]] = {}
        for kind in (*OP_KINDS, "other"):
            phase_stats = [self.ops[phase][kind] for phase in MODEL_PHASES]
            m[f"tensor.{kind}.fwd_ms"] = (1000.0 * sum(st.fwd for st in phase_stats), "ms")
            m[f"tensor.{kind}.bwd_ms"] = (1000.0 * sum(st.bwd for st in phase_stats), "ms")
            if kind in FLOPS:
                m[f"tensor.{kind}.flops"] = (sum(st.flops for st in phase_stats), "count")
        steps = self.steps
        m["tensor.records_per_step"] = (statistics.fmean(s["records"] for s in steps), "count")
        m["tensor.backward_ms"] = (1000.0 * self._total("tensor.backward", MODEL_PHASES)[0], "ms")
        m["tensor.out_bytes"] = (max(s["tape_bytes"] for s in steps), "bytes")

        for name in ("srin_forward", "rain_forward", "attention_bias"):
            m[f"blocks.{name}_ms"] = (1000.0 * self._total(f"blocks.{name}", MODEL_PHASES)[0], "ms")
        computed = self._count("srin.cells_computed", MODEL_PHASES)
        m["blocks.srin.useful_frac"] = (self._count("srin.cells_useful", MODEL_PHASES) / computed, "frac")
        m["blocks.srin.cells_computed"] = (computed, "count")
        m["blocks.degenerate_frac"] = (
            self._count("block.degenerate", MODEL_PHASES) / self._count("block.calls", MODEL_PHASES), "frac")

        m["unet.forward_ms.train"] = (self._mean_ms("unet.forward", ("train",)), "ms")
        m["unet.forward_ms.eval"] = (self._mean_ms("unet.forward", ("serve",)), "ms")
        m["unet.save_checkpoint_ms"] = (self._mean_ms("unet.save_checkpoint"), "ms")
        m["unet.load_checkpoint_ms"] = (self._mean_ms("unet.load_checkpoint"), "ms")

        def step_ms(key: str) -> float:
            return 1000.0 * statistics.fmean(s[key] for s in steps)

        fwd, bwd, adam, total = step_ms("fwd"), step_ms("bwd"), step_ms("adam"), step_ms("t")
        m["training.step.fwd_ms"] = (fwd, "ms")
        m["training.step.bwd_ms"] = (bwd, "ms")
        m["training.step.adam_ms"] = (adam, "ms")
        m["training.step.other_ms"] = (total - fwd - bwd - adam, "ms")
        m["optim.adam_step_ms"] = (self._mean_ms("optim.adam_step"), "ms")
        m["training.evaluate_ms_per_sample"] = (
            1000.0 * self._total("training.evaluate")[0] / self._count("eval.samples"), "ms")

        for fn in ("read_ppm", "read_pgm", "write_ppm", "compose", "metrics"):
            m[f"imaging.{fn}_ms"] = (self._mean_ms(f"imaging.{fn}"), "ms")

        m["synthdata.generate_ms_per_sample"] = (
            1000.0 * self._total("synthdata.generate_dataset")[0] / self._count("synthdata.samples"), "ms")
        m["synthdata.write_dataset_ms"] = (self._mean_ms("synthdata.write_dataset"), "ms")
        m["synthdata.load_dataset_ms"] = (self._mean_ms("synthdata.load_dataset"), "ms")

        for fn in ("op_grad_checks", "block_grad_checks", "network_grad_check", "invariant_checks"):
            m[f"verify.{fn}_s"] = (self._mean_ms(f"verify.{fn}") / 1000.0, "s")
        suites = self._total("verify.run_suite")
        m["gradcheck.grad_check.calls"] = (self._total("gradcheck.grad_check")[1] / suites[1], "count")

        selfs = self.self_seconds()
        m["cli.dispatch_self_ms"] = (1000.0 * selfs.get("cli.dispatch", 0.0) / self._total("cli.dispatch")[1], "ms")
        m["trace_overhead_frac"] = (suites[0] / suites[1] / suite_untraced_s - 1.0, "frac")
        return m

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "self_s": self.self_seconds(),
            "ops": {
                phase: {k: {s: getattr(v, s) for s in OpStats.__slots__} for k, v in kinds.items()}
                for phase, kinds in self.ops.items()
            },
        }
        path.write_text(json.dumps(doc))
