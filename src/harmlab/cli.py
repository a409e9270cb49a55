"""Command-line entry point.

Subcommands: ``gen-data``, ``train``, ``eval``, ``harmonize``, ``gradcheck``,
``bt-rank``. Each accepts ``--config <path>``, a flat ``key = value`` file
(``#`` comments) whose every key has a row in ``SETTINGS``. A row gives a key's
parser, default and flag, if any; ``gen-data`` and ``train`` resolve their rows
in order (flag, else file, else default) and log them to stderr once their
config objects are built. The other subcommands only check the file. Artifacts
go to stdout or the named file; human summaries go to stderr (or ``--summary``).

Exit codes: 0 success, 1 usage error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, NamedTuple, Optional, Sequence

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


class Setting(NamedTuple):
    key: str
    parse: Callable[[str], object]
    default: object = None  # a value, or a function of the settings resolved before it
    flag: Optional[str] = None
    choices: Optional[tuple[str, ...]] = None  # the flag's; a file value is checked by the config class
    required: bool = False  # the flag or the config file must give it


# subcommand -> its settings, resolved in row order: of two unparsable or missing settings the first is reported
SETTINGS: dict[str, tuple[Setting, ...]] = {
    "gen-data": (
        Setting("gen.min_objects", int, GenConfig.min_objects),
        Setting("gen.max_objects", int, GenConfig.max_objects),
        Setting("gen.gain_min", float, GenConfig.gain[0]),
        Setting("gen.gain_max", float, GenConfig.gain[1]),
        Setting("gen.bias_min", float, GenConfig.bias[0]),
        Setting("gen.bias_max", float, GenConfig.bias[1]),
        Setting("gen.gamma_min", float, GenConfig.gamma[0]),
        Setting("gen.gamma_max", float, GenConfig.gamma[1]),
        Setting("gen.seed", int, flag="--seed", required=True),
        Setting("gen.count", int, flag="--count", required=True),
        Setting("gen.out", str, flag="--out", required=True),
        Setting("gen.size", int, GenConfig.size, "--size"),  # after --seed: argparse lists flags in row order
    ),
    "train": (
        Setting("unet.size", int, UNetConfig.size),
        Setting("unet.stages", int, UNetConfig.stages),
        Setting("unet.base_channels", int, UNetConfig.base_channels),
        Setting("train.out", str, flag="--out", required=True),
        Setting("train.data", str, flag="--data", required=True),
        Setting("train.steps", int, TrainConfig.steps, "--steps"),
        Setting("train.batch_size", int, TrainConfig.batch_size),
        Setting("train.lr", float, TrainConfig.lr),
        Setting("train.milestone1", float, TrainConfig.milestones[0]),
        Setting("train.milestone2", float, TrainConfig.milestones[1]),
        Setting("train.decay", float, TrainConfig.decay),
        Setting("train.seed", int, TrainConfig.seed, "--seed"),
        Setting("train.block", str, TrainConfig.block, "--block", BLOCK_KINDS),
        Setting("train.val_data", str, TrainConfig.val_dir),
        Setting("train.log", str, lambda settings: f"{settings['train.out']}.log"),
    ),
}
_KEYS = {row.key for rows in SETTINGS.values() for row in rows}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
                if key in set_on:
                    raise ConfigError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
                values[key], set_on[key] = value, lineno
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _settings(args: argparse.Namespace) -> dict[str, object]:
    """The subcommand's settings in row order: the flag if given, else the config file, else the default."""
    file_values = parse_config_file(args.config) if args.config else {}
    settings: dict[str, object] = {}
    for row in SETTINGS.get(args.command, ()):
        if row.flag and getattr(args, row.flag[2:]) is not None:
            settings[row.key] = getattr(args, row.flag[2:])
        elif row.key in file_values:
            try:
                settings[row.key] = row.parse(file_values[row.key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {row.key}: {exc}") from exc
        elif row.required:
            raise ConfigError(f"missing required setting {row.key} (flag or config file)")
        else:
            settings[row.key] = row.default(settings) if callable(row.default) else row.default
    return settings


def _log(settings: dict[str, object]) -> None:
    for key in sorted(settings):
        print(f"config: {key} = {settings[key]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args: argparse.Namespace, settings: dict[str, object]) -> int:
    cfg = GenConfig(
        size=settings["gen.size"],
        min_objects=settings["gen.min_objects"],
        max_objects=settings["gen.max_objects"],
        gain=(settings["gen.gain_min"], settings["gen.gain_max"]),
        bias=(settings["gen.bias_min"], settings["gen.bias_max"]),
        gamma=(settings["gen.gamma_min"], settings["gen.gamma_max"]),
        seed=settings["gen.seed"],
    )
    _log(settings)
    samples = generate_dataset(cfg, settings["gen.count"])
    write_dataset(samples, settings["gen.out"])
    print(f"wrote {settings['gen.count']} samples to {settings['gen.out']}", file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace, settings: dict[str, object]) -> int:
    cfg = TrainConfig(
        data_dir=settings["train.data"],
        steps=settings["train.steps"],
        batch_size=settings["train.batch_size"],
        lr=settings["train.lr"],
        milestones=(settings["train.milestone1"], settings["train.milestone2"]),
        decay=settings["train.decay"],
        seed=settings["train.seed"],
        block=settings["train.block"],
        unet=UNetConfig(
            size=settings["unet.size"],
            stages=settings["unet.stages"],
            base_channels=settings["unet.base_channels"],
        ),
        val_dir=settings["train.val_data"],
        checkpoint_out=settings["train.out"],
    )
    _log(settings)

    def report_val(step: int, rep) -> None:
        print(f"validation step {step}: MSE {rep.overall.mean_mse():.4f} "
              f"PSNR {rep.overall.mean_psnr():.4f}", file=sys.stderr)

    with open(settings["train.log"], "w", encoding="ascii") as log:
        _, history = train(cfg, on_step=lambda e: log.write(e.line() + "\n"), on_validate=report_val)
    degenerate = sum(e.block_degenerate for e in history)
    if degenerate:
        print(f"note: bottleneck block degenerate (empty region at feature "
              f"resolution) on {degenerate} of {len(history)} steps", file=sys.stderr)
    print(f"trained {cfg.steps} steps; final loss {history[-1].loss:.6g}; "
          f"checkpoint {cfg.checkpoint_out}; log {settings['train.log']}", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace, settings: dict[str, object]) -> int:
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


def _cmd_harmonize(args: argparse.Namespace, settings: dict[str, object]) -> int:
    model = load_checkpoint(args.ckpt)
    composite = read_ppm(args.comp)
    mask = read_pgm(args.mask)
    semantic = read_ppm(args.sem)
    out = unet_forward(model, composite, mask, semantic)
    write_ppm(out, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_gradcheck(args: argparse.Namespace, settings: dict[str, object]) -> int:
    results = run_suite(tol=args.tol)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed", file=sys.stderr)
    return 0


def _cmd_bt_rank(args: argparse.Namespace, settings: dict[str, object]) -> int:
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
        for row in SETTINGS.get(name, ()):
            if row.flag:
                p.add_argument(row.flag, type=row.parse, choices=row.choices)
        return p

    add("gen-data", _cmd_gen_data, "generate a synthetic dataset")
    add("train", _cmd_train, "train a generator")

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
        return args.fn(args, _settings(args))
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
