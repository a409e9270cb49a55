"""Command-line entry point.

Subcommands: ``gen-data``, ``train``, ``eval``, ``harmonize``, ``gradcheck``,
``bt-rank``. Every subcommand accepts ``--config <path>`` pointing at a flat
``key = value`` file (``#`` comments); command-line flags override file values,
unknown keys are rejected, and the fully resolved configuration is logged to
stderr. Machine-readable artifacts go to stdout or the named output file;
human summaries go to stderr (or ``--summary``).

Exit codes: 0 success, 1 usage error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, Optional, Sequence

from .btrank import bt_fit, read_pairs_csv, scores_csv
from .errors import ConfigError, HarmlabError
from .gradcheck import DEFAULT_TOL
from .imaging import read_pgm, read_ppm, write_ppm
from .synthdata import GenConfig, generate_dataset, load_dataset, write_dataset
from .training import TrainConfig, evaluate, train
from .unet import BLOCK_KINDS, UNetConfig, load_checkpoint, unet_forward
from .verify import run_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        # inf would pass every check, and nan or a non-positive one fail every gradient check
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text}")
    return value


# dotted key -> value parser; this is the set of addressable configuration fields
CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    "gen.seed": int,
    "gen.count": int,
    "gen.out": str,
    "gen.size": int,
    "gen.min_objects": int,
    "gen.max_objects": int,
    "gen.gain_min": float,
    "gen.gain_max": float,
    "gen.bias_min": float,
    "gen.bias_max": float,
    "gen.gamma_min": float,
    "gen.gamma_max": float,
    "train.data": str,
    "train.steps": int,
    "train.batch_size": int,
    "train.lr": float,
    "train.milestone1": float,
    "train.milestone2": float,
    "train.decay": float,
    "train.seed": int,
    "train.block": str,
    "train.out": str,
    "train.log": str,
    "train.val_data": str,
    "unet.size": int,
    "unet.stages": int,
    "unet.base_channels": int,
}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


class Resolved:
    """Config-file values overlaid with command-line flags; logs what was used."""

    def __init__(self, file_values: dict[str, str], overrides: dict[str, object]):
        self.file_values = file_values
        self.overrides = {k: v for k, v in overrides.items() if v is not None}
        for key in self.overrides:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"internal: unregistered key {key}")
        self.used: dict[str, object] = {}

    def get(self, key: str, default=None):
        if key in self.overrides:
            value = self.overrides[key]
        elif key in self.file_values:
            try:
                value = CONFIG_KEYS[key](self.file_values[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        else:
            value = default
        self.used[key] = value
        return value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required setting {key} (flag or config file)")
        return value

    def log(self, stream=None) -> None:
        out = stream if stream is not None else sys.stderr
        for key in sorted(self.used):
            print(f"config: {key} = {self.used[key]}", file=out)


def _resolved(args: argparse.Namespace, overrides: dict[str, object]) -> Resolved:
    file_values = parse_config_file(args.config) if args.config else {}
    return Resolved(file_values, overrides)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args: argparse.Namespace) -> int:
    res = _resolved(args, {
        "gen.seed": args.seed, "gen.count": args.count, "gen.out": args.out, "gen.size": args.size,
    })
    cfg = GenConfig(
        size=res.get("gen.size", GenConfig.size),
        min_objects=res.get("gen.min_objects", GenConfig.min_objects),
        max_objects=res.get("gen.max_objects", GenConfig.max_objects),
        gain=(res.get("gen.gain_min", GenConfig.gain[0]), res.get("gen.gain_max", GenConfig.gain[1])),
        bias=(res.get("gen.bias_min", GenConfig.bias[0]), res.get("gen.bias_max", GenConfig.bias[1])),
        gamma=(res.get("gen.gamma_min", GenConfig.gamma[0]), res.get("gen.gamma_max", GenConfig.gamma[1])),
        seed=res.require("gen.seed"),
    )
    count = res.require("gen.count")
    out_dir = res.require("gen.out")
    res.log()
    samples = generate_dataset(cfg, count)
    write_dataset(samples, out_dir)
    print(f"wrote {count} samples to {out_dir}", file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    res = _resolved(args, {
        "train.data": args.data, "train.block": args.block, "train.steps": args.steps,
        "train.seed": args.seed, "train.out": args.out,
    })
    unet = UNetConfig(
        size=res.get("unet.size", UNetConfig.size),
        stages=res.get("unet.stages", UNetConfig.stages),
        base_channels=res.get("unet.base_channels", UNetConfig.base_channels),
    )
    out_path = res.require("train.out")
    milestones = TrainConfig.milestones
    cfg = TrainConfig(
        data_dir=res.require("train.data"),
        steps=res.get("train.steps", TrainConfig.steps),
        batch_size=res.get("train.batch_size", TrainConfig.batch_size),
        lr=res.get("train.lr", TrainConfig.lr),
        milestones=(res.get("train.milestone1", milestones[0]), res.get("train.milestone2", milestones[1])),
        decay=res.get("train.decay", TrainConfig.decay),
        seed=res.get("train.seed", TrainConfig.seed),
        block=res.get("train.block", TrainConfig.block),
        unet=unet,
        val_dir=res.get("train.val_data", TrainConfig.val_dir),
        checkpoint_out=out_path,
    )
    log_path = res.get("train.log", f"{out_path}.log")
    res.log()

    def report_val(step: int, rep) -> None:
        print(f"validation step {step}: MSE {rep.overall.mean_mse():.4f} "
              f"PSNR {rep.overall.mean_psnr():.4f}", file=sys.stderr)

    with open(log_path, "w", encoding="ascii") as log:
        _, history = train(cfg, on_step=lambda e: log.write(e.line() + "\n"), on_validate=report_val)
    degenerate = sum(e.block_degenerate for e in history)
    if degenerate:
        print(f"note: bottleneck block degenerate (empty region at feature "
              f"resolution) on {degenerate} of {len(history)} steps", file=sys.stderr)
    print(f"trained {cfg.steps} steps; final loss {history[-1].loss:.6g}; "
          f"checkpoint {out_path}; log {log_path}", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    res = _resolved(args, {})
    res.log()
    model = load_checkpoint(args.ckpt)
    samples = load_dataset(args.data)
    report = evaluate(model, samples)
    csv_text = "\n".join(report.csv_lines()) + "\n"
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = report.summary_text()
    if args.summary:
        with open(args.summary, "w", encoding="ascii") as fh:
            fh.write(summary + "\n")
    else:
        print(summary, file=sys.stderr)
    return 0


def _cmd_harmonize(args: argparse.Namespace) -> int:
    res = _resolved(args, {})
    res.log()
    model = load_checkpoint(args.ckpt)
    composite = read_ppm(args.comp)
    mask = read_pgm(args.mask)
    semantic = read_ppm(args.sem)
    out = unet_forward(model, composite, mask, semantic)
    write_ppm(out, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    res = _resolved(args, {})
    res.log()
    results = run_suite(tol=args.tol)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed", file=sys.stderr)
    return 0


def _cmd_bt_rank(args: argparse.Namespace) -> int:
    res = _resolved(args, {})
    res.log()
    data = read_pairs_csv(args.pairs)
    result = bt_fit(data)
    sys.stdout.write(scores_csv(result))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="harmlab", description="image harmonization lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="flat key = value configuration file")
        return p

    p = add("gen-data", _cmd_gen_data, "generate a synthetic dataset")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--out")
    p.add_argument("--size", type=int)

    p = add("train", _cmd_train, "train a generator")
    p.add_argument("--data")
    p.add_argument("--block", choices=BLOCK_KINDS)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("eval", _cmd_eval, "evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", help="CSV output path (default: stdout)")
    p.add_argument("--summary", help="summary table path (default: stderr)")

    p = add("harmonize", _cmd_harmonize, "harmonize one composite image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--comp", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--sem", required=True)
    p.add_argument("--out", required=True)

    p = add("gradcheck", _cmd_gradcheck, "run the gradient/invariant suite")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = add("bt-rank", _cmd_bt_rank, "fit pairwise-preference scores")
    p.add_argument("--pairs", required=True)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (HarmlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
