import argparse
import filecmp
import os
import struct
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import harmlab
from harmlab import cli, unet
from harmlab.cli import build_parser, dispatch, parse_config_file
from harmlab.errors import ConfigError
from harmlab.imaging import Image, Mask, read_ppm, write_pgm, write_ppm
from harmlab.synthdata import GenConfig, generate_dataset, sample_paths, write_dataset
from harmlab.training import LossEntry, TrainConfig
from harmlab.unet import GeneratorModel, UNetConfig, save_checkpoint


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def run_cli_process(*argv, timeout=60):
    """``python -m harmlab.cli *argv`` in a child process that imports this source tree."""
    src = Path(harmlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "harmlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)


class TestGenData:
    def test_deterministic_directories(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert dispatch(["gen-data", "--seed", "7", "--count", "6", "--out", str(d1), "--size", "32"]) == 0
        assert dispatch(["gen-data", "--seed", "7", "--count", "6", "--out", str(d2), "--size", "32"]) == 0
        assert same_tree(d1, d2)

    def test_missing_required_setting(self, tmp_path, capsys):
        assert dispatch(["gen-data", "--count", "2", "--out", str(tmp_path / "x")]) == 2
        assert "gen.seed" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen.seed = 1\ngen.count = 2\ngen.size = 32\n# comment\ngen.out = IGNORED\n")
        out = tmp_path / "d"
        assert dispatch(["gen-data", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        assert (out / "manifest.txt").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen.sead = 1\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_file(str(cfg))

    def test_residual_is_not_a_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unet.residual = false\n")
        with pytest.raises(ConfigError, match="unknown configuration key 'unet.residual'"):
            parse_config_file(str(cfg))

    def test_unknown_key_is_runtime_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nope = 1\n")
        assert dispatch(["gradcheck", "--config", str(cfg)]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_key_set_twice_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen.seed = 1\n# comment\ngen.count = 2\ngen.seed = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: gen\.seed is already set on line 1$"):
            parse_config_file(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen.seed 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(cfg))

    def test_resolved_config_logged(self, tmp_path, capsys):
        out = tmp_path / "d"
        dispatch(["gen-data", "--seed", "3", "--count", "1", "--out", str(out), "--size", "32"])
        err = capsys.readouterr().err
        assert "config: gen.seed = 3" in err
        assert "config: gen.size = 32" in err

    def test_unset_keys_log_their_class_defaults(self, tmp_path, capsys):
        def defaults(cls):
            return {f.name: f.default for f in fields(cls) if f.default is not MISSING}

        gen, train, net = defaults(GenConfig), defaults(TrainConfig), defaults(UNetConfig)
        expected = {
            **{f"gen.{name}": gen[name] for name in ("size", "min_objects", "max_objects")},
            **{f"gen.{name}_{end}": gen[name][i] for name in ("gain", "bias", "gamma")
               for i, end in enumerate(("min", "max"))},
            **{f"train.{name}": train[name] for name in ("batch_size", "lr", "decay", "seed", "block")},
            "train.milestone1": train["milestones"][0],
            "train.milestone2": train["milestones"][1],
            "train.val_data": train["val_dir"],
            **{f"unet.{name}": net[name] for name in ("size", "stages", "base_channels")},
        }
        data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
        assert dispatch(["gen-data", "--seed", "3", "--count", "2", "--out", str(data)]) == 0
        assert dispatch(["train", "--data", str(data), "--out", str(ckpt), "--steps", "1"]) == 0
        logged = dict(line.removeprefix("config: ").split(" = ", 1)
                      for line in capsys.readouterr().err.splitlines() if line.startswith("config: "))
        flagged = {"gen.seed", "gen.count", "gen.out", "train.data", "train.out", "train.steps"}
        assert logged.pop("train.log") == f"{ckpt}.log"
        unset = {key: value for key, value in logged.items() if key not in flagged}
        assert unset == {key: str(value) for key, value in expected.items()}


FLAGGED = [(command, row) for command, rows in cli.SETTINGS.items() for row in rows if row.flag]
# key -> (config-file value, flag value) for every key that has a flag
OVERRIDES = {
    "gen.seed": ("1", "2"),
    "gen.count": ("3", "4"),
    "gen.out": ("file-data", "flag-data"),
    "gen.size": ("32", "16"),
    "train.out": ("file.ckpt", "flag.ckpt"),
    "train.data": ("file-data", "flag-data"),
    "train.steps": ("3", "4"),
    "train.seed": ("5", "6"),
    "train.block": ("none", "rain"),
}


def subcommand_actions(command):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {s: a for a in sub.choices[command]._actions for s in a.option_strings if s not in ("-h", "--help")}


class TestSettingsTable:
    @pytest.mark.parametrize("command, row", FLAGGED, ids=[row.key for _, row in FLAGGED])
    def test_flag_overrides_file_and_is_logged(self, tmp_path, capsys, monkeypatch, command, row):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "generate_dataset", lambda cfg, count: [])
        monkeypatch.setattr(cli, "write_dataset", lambda samples, out: None)
        monkeypatch.setattr(cli, "train", lambda cfg, on_step, on_validate: (None, [LossEntry(1, 1e-3, 0.5)]))
        keys = [r.key for r in cli.SETTINGS[command] if r.flag]
        (tmp_path / "run.cfg").write_text("".join(f"{key} = {OVERRIDES[key][0]}\n" for key in keys))
        assert dispatch([command, "--config", "run.cfg", row.flag, OVERRIDES[row.key][1]]) == 0
        logged = dict(line.removeprefix("config: ").split(" = ", 1)
                      for line in capsys.readouterr().err.splitlines() if line.startswith("config: "))
        file_values = {key: OVERRIDES[key][0] for key in keys}
        assert {key: logged[key] for key in keys} == file_values | {row.key: OVERRIDES[row.key][1]}

    @pytest.mark.parametrize("command, flags", [
        ("gen-data", ["--config", "--seed", "--count", "--out", "--size"]),
        ("train", ["--config", "--data", "--block", "--steps", "--seed", "--out"]),
    ])
    def test_flag_sets_are_pinned(self, command, flags):
        assert sorted(subcommand_actions(command)) == sorted(flags)

    def test_block_flag_keeps_its_choices(self):
        assert subcommand_actions("train")["--block"].choices == ("none", "rain", "srin")

    @pytest.mark.parametrize("command, config, message", [
        ("gen-data", "gen.gamma_max = high\ngen.min_objects = few\n",
         "bad value for gen.min_objects: invalid literal for int() with base 10: 'few'"),
        ("train", "train.out = m.ckpt\ntrain.data = d\ntrain.decay = slow\ntrain.lr = fast\n",
         "bad value for train.lr: could not convert string to float: 'fast'"),
        ("train", "train.lr = fast\nunet.stages = two\n",
         "bad value for unet.stages: invalid literal for int() with base 10: 'two'"),
        ("train", "train.data = d\ntrain.steps = many\n", "missing required setting train.out (flag or config file)"),
    ], ids=["gen-data", "train", "unet-before-train", "missing-before-bad"])
    def test_first_bad_setting_in_row_order_is_reported(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert dispatch([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_readme_table_matches_settings(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = readme.index("| key | default | flag |") + 2
        end = readme.index("", start)
        documented = [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")) for line in readme[start:end]]

        def default(row, rows):
            if row.required:
                return "required"
            return str(row.default({r.key: f"<{r.key}>" for r in rows}) if callable(row.default) else row.default)

        expected = [(row.key, default(row, rows), row.flag or "") for rows in cli.SETTINGS.values() for row in rows]
        assert documented == expected


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    samples = generate_dataset(GenConfig(seed=50, size=32), 6)
    write_dataset(samples, data)
    cfg = root / "train.cfg"
    cfg.write_text("unet.size = 32\nunet.stages = 2\nunet.base_channels = 8\n")
    ckpt = root / "model.ckpt"
    code = dispatch([
        "train", "--config", str(cfg), "--data", str(data), "--block", "rain",
        "--steps", "4", "--seed", "1", "--out", str(ckpt),
    ])
    assert code == 0
    return root, data, ckpt


class TestTrainEvalHarmonize:
    def test_train_writes_checkpoint_and_log(self, workspace):
        root, data, ckpt = workspace
        assert ckpt.exists()
        log_lines = (root / "model.ckpt.log").read_text().splitlines()
        assert len(log_lines) == 4
        step, lr, loss = log_lines[0].split(",")
        assert step == "1"
        assert float(lr) == 0.001
        float(loss)

    def test_train_is_reproducible(self, workspace, tmp_path):
        root, data, ckpt = workspace
        cfg = root / "train.cfg"
        ckpt2 = tmp_path / "again.ckpt"
        code = dispatch([
            "train", "--config", str(cfg), "--data", str(data), "--block", "rain",
            "--steps", "4", "--seed", "1", "--out", str(ckpt2),
        ])
        assert code == 0
        assert ckpt.read_bytes() == ckpt2.read_bytes()
        assert (root / "model.ckpt.log").read_text() == (tmp_path / "again.ckpt.log").read_text()

    def test_eval_writes_report_and_summary(self, workspace, tmp_path, capsys):
        root, data, ckpt = workspace
        report = tmp_path / "report.csv"
        code = dispatch(["eval", "--data", str(data), "--ckpt", str(ckpt), "--report", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "id,fg_ratio,bucket,mse,fmse,psnr"
        assert len(lines) == 7
        err = capsys.readouterr().err
        assert "overall" in err

    @staticmethod
    def harmonize_windows(ckpt, tmp_path, monkeypatch, fill):
        """Run ``harmonize`` on a random composite and a constant mask; returns the decode windows and the paths."""
        windows = []
        regions = unet.decode_regions

        def observed(*args):
            box, need = regions(*args)
            windows.append(need[-1])
            return box, need

        monkeypatch.setattr(unet, "decode_regions", observed)
        rng = np.random.default_rng(0)
        comp = Image(np.rint(rng.uniform(0, 1, (32, 32, 3)) * 255) / 255)
        write_ppm(comp, tmp_path / "comp.ppm")
        write_pgm(Mask(np.full((32, 32), fill, dtype=np.uint8)), tmp_path / "mask.pgm")
        write_ppm(comp, tmp_path / "sem.ppm")
        out = tmp_path / "out.ppm"
        code = dispatch([
            "harmonize", "--ckpt", str(ckpt), "--comp", str(tmp_path / "comp.ppm"),
            "--mask", str(tmp_path / "mask.pgm"), "--sem", str(tmp_path / "sem.ppm"),
            "--out", str(out),
        ])
        assert code == 0
        return windows, tmp_path / "comp.ppm", out

    def test_harmonize_zero_mask_copies_composite(self, workspace, tmp_path, monkeypatch):
        root, data, ckpt = workspace
        windows, comp, out = self.harmonize_windows(ckpt, tmp_path, monkeypatch, 0)
        assert windows == [(0, 1, 0, 1)]  # one cell, no zero-size map
        assert out.read_bytes() == comp.read_bytes()

    def test_harmonize_full_mask_decodes_the_whole_map(self, workspace, tmp_path, monkeypatch):
        root, data, ckpt = workspace
        windows, comp, out = self.harmonize_windows(ckpt, tmp_path, monkeypatch, 1)
        assert windows == [(0, 8, 0, 8)]  # 32 px, 2 stages: 8x8 cells
        assert read_ppm(out).pixels.shape == (32, 32, 3)

    def test_harmonize_size_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        root, data, ckpt = workspace
        rng = np.random.default_rng(1)
        big = Image(np.rint(rng.uniform(0, 1, (64, 64, 3)) * 255) / 255)
        write_ppm(big, tmp_path / "big.ppm")
        write_pgm(Mask(np.ones((64, 64), dtype=np.uint8)), tmp_path / "big.pgm")
        code = dispatch([
            "harmonize", "--ckpt", str(ckpt), "--comp", str(tmp_path / "big.ppm"),
            "--mask", str(tmp_path / "big.pgm"), "--sem", str(tmp_path / "big.ppm"),
            "--out", str(tmp_path / "o.ppm"),
        ])
        assert code == 2


class TestOneProcess:
    def test_calls_in_one_process_match_separate_processes(self, workspace, tmp_path, capsys):
        assert build_parser() is build_parser()
        root, data, ckpt = workspace
        sample = sample_paths(data, (data / "manifest.txt").read_text().split()[0])
        out = tmp_path / "out"

        def argvs(tag):
            return [
                ["frobnicate"],
                ["gen-data", "--seed", "3", "--count", "2", "--size", "32", "--out", str(out / tag / "gen")],
                ["harmonize", "--ckpt", str(ckpt), "--comp", str(sample["comp"]),
                 "--mask", str(sample["mask"]), "--sem", str(sample["sem"]),
                 "--out", str(out / tag / "h.ppm")],
                ["eval", "--data", str(data), "--ckpt", str(ckpt)],
            ]

        one = []
        for argv in argvs("one"):
            code = dispatch(argv)
            cap = capsys.readouterr()
            one.append((code, cap.out, cap.err.replace("/one/", "/<tag>/")))
        separate = []
        for argv in argvs("sep"):
            proc = run_cli_process(*argv, timeout=120)
            separate.append((proc.returncode, proc.stdout, proc.stderr.replace("/sep/", "/<tag>/")))
        assert [c for c, _, _ in one] == [1, 0, 0, 0]
        assert one == separate
        assert same_tree(out / "one" / "gen", out / "sep" / "gen")
        assert (out / "one" / "h.ppm").read_bytes() == (out / "sep" / "h.ppm").read_bytes()


class TestBtRank:
    def test_closed_form_scores_on_stdout(self, tmp_path, capsys):
        pairs = tmp_path / "p.csv"
        pairs.write_text("winner,loser,count\nA,B,3\nB,A,1\n")
        assert dispatch(["bt-rank", "--pairs", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["method,score", "A,0.75", "B,0.25"]

    def test_missing_file_is_data_error(self, tmp_path):
        assert dispatch(["bt-rank", "--pairs", str(tmp_path / "absent.csv")]) == 2

    def test_undefeated_method_is_named(self, tmp_path, capsys):
        pairs = tmp_path / "p.csv"
        pairs.write_text("A,B,3\nA,C,2\nB,C,1\nC,B,1\n")
        assert dispatch(["bt-rank", "--pairs", str(pairs)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "{A}" in errors[0]

    def test_long_chain_is_ranked(self, tmp_path, capsys):
        rows = [f"m{i:03d},m{i + 1:03d},2\nm{i + 1:03d},m{i:03d},1\n" for i in range(120)]
        pairs = tmp_path / "p.csv"
        pairs.write_text("".join(rows))
        assert dispatch(["bt-rank", "--pairs", str(pairs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,score"
        assert [line.split(",")[0] for line in lines[1:]] == [f"m{i:03d}" for i in range(121)]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert dispatch(["eval", "--data", "somewhere"]) == 1

    def test_missing_data_is_runtime_error(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(GeneratorModel.build(UNetConfig(size=32, stages=2), seed=0), ckpt)
        assert dispatch(["eval", "--data", str(tmp_path / "absent"), "--ckpt", str(ckpt)]) == 2

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_undecodable_manifest_is_one_error_line(self, tmp_path, capsys, command):
        data = tmp_path / "d"
        data.mkdir()
        manifest = data / "manifest.txt"
        manifest.write_bytes(b"000000\n\xff\n")
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(GeneratorModel.build(UNetConfig(size=32, stages=2), seed=0), ckpt)
        flag = "--ckpt" if command == "eval" else "--out"
        assert dispatch([command, "--data", str(data), flag, str(ckpt)]) == 2
        (err,) = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert err.startswith(f"error: cannot read manifest {manifest}: ") and "decode" in err

    @pytest.mark.parametrize("flags, config, message", [
        (["--steps", "0"], "", "steps and batch_size must be positive"),
        ([], "unet.size = 48\n", "size must be a power of two >= 16, got 48"),
        ([], "train.lr = nan\n", "learning rate must be positive and finite, got nan"),
        ([], "train.lr = inf\n", "learning rate must be positive and finite, got inf"),
        ([], "train.decay = nan\n", "decay must be non-negative and finite, got nan"),
        ([], "train.decay = -0.5\n", "decay must be non-negative and finite, got -0.5"),
    ])
    def test_invalid_setting_is_one_error_line(self, tmp_path, capsys, flags, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = ["train", "--config", str(cfg), "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt")]
        assert dispatch(argv + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_size_mismatch_at_train_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(generate_dataset(GenConfig(seed=51, size=32), 1), data)
        assert dispatch(["train", "--data", str(data), "--steps", "1", "--out", str(tmp_path / "m.ckpt")]) == 2
        err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert err == ["error: mask is 32x32, model expects 64x64"]

    def test_wrong_size_validation_set_is_one_error_line_before_any_step(self, tmp_path, capsys):
        data, val = tmp_path / "data", tmp_path / "val"
        write_dataset(generate_dataset(GenConfig(seed=51, size=32), 1), data)
        write_dataset(generate_dataset(GenConfig(seed=52, size=16), 1), val)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"unet.size = 32\nunet.stages = 2\ntrain.val_data = {val}\n")
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(cfg), "--data", str(data), "--steps", "40", "--out", str(ckpt)]
        assert dispatch(argv) == 2
        (err,) = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert err.startswith(f"error: validation set {str(val)!r}: sample ")
        assert err.endswith(": mask is 16x16, model expects 32x32")
        assert (tmp_path / "m.ckpt.log").read_text() == ""  # no step ran

    def test_empty_validation_set_is_one_error_line_before_any_step(self, tmp_path, capsys):
        data, val = tmp_path / "data", tmp_path / "val"
        write_dataset(generate_dataset(GenConfig(seed=51, size=32), 1), data)
        write_dataset([], val)  # a manifest that lists no sample
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"unet.size = 32\nunet.stages = 2\ntrain.val_data = {val}\n")
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(cfg), "--data", str(data), "--steps", "40", "--out", str(ckpt)]
        assert dispatch(argv) == 2
        err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert err == [f"error: validation set {str(val)!r} holds no sample"]
        assert (tmp_path / "m.ckpt.log").read_text() == ""  # no step ran

    @pytest.mark.parametrize("size", ["4294967296", "3037000500"])
    def test_unrepresentable_size_is_one_error_line(self, tmp_path, capsys, size):
        # rejected before any image is allocated: numpy cannot hold a [size, size, 3] float64 array
        out = tmp_path / "data"
        assert dispatch(["gen-data", "--seed", "1", "--count", "1", "--size", size, "--out", str(out)]) == 2
        err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert err == [f"error: image size {size} is beyond numpy's largest [size, size, 3] float64 array"]
        assert not out.exists()

    @pytest.mark.parametrize("command, seed", [
        ("train", "-3"), ("gen-data", "-5"), ("gen-data", "99999999999999999999999"),
    ])
    def test_out_of_range_seed_is_one_error_line(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        argv = (["train", "--data", str(tmp_path), "--out", str(out)] if command == "train"
                else ["gen-data", "--count", "1", "--size", "32", "--out", str(out)])
        assert dispatch(argv + ["--seed", seed]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: seed must be an integer in [0, 2**63), got {seed}"]
        assert not out.exists()

    def test_zero_count_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert dispatch(["gen-data", "--seed", "1", "--count", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [l for l in err if not l.startswith("config: ")] == ["error: count must be positive, got 0"]
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ("gen.gain_max = inf\n", "gain range (0.6, inf) must have finite bounds and width"),
        ("gen.bias_min = nan\n", "bias range (nan, 0.11764705882352941) must have finite bounds and width"),
        ("gen.gamma_min = -1e308\ngen.gamma_max = 1e308\n",
         "gamma range (-1e+308, 1e+308) must have finite bounds and width"),
    ])
    def test_unbounded_generator_range_is_one_error_line(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(config)
        out = tmp_path / "data"
        assert dispatch(["gen-data", "--config", str(cfg), "--seed", "1", "--count", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("config, pairs", [
        (b"# note \xff\n", b"a,b,1\nb,a,2\n"),
        (b"", b"a,b,1\n\xfe,a,2\n"),
    ])
    def test_non_utf8_input_is_one_error_line(self, tmp_path, capsys, config, pairs):
        (tmp_path / "run.cfg").write_bytes(config)
        (tmp_path / "pairs.csv").write_bytes(pairs)
        argv = ["bt-rank", "--config", str(tmp_path / "run.cfg"), "--pairs", str(tmp_path / "pairs.csv")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("offset, patch", [
        (12, (0x7FFFFFFF).to_bytes(4, "little")),  # base_channels far beyond the file's payload
        (20, (0).to_bytes(4, "little")),  # residual field: the head is always residual
        (20, (7).to_bytes(4, "little")),
        (44, struct.pack("<d", float("nan"))),  # first value of enc1.w
    ])
    def test_corrupt_checkpoint_is_one_error_line(self, tmp_path, capsys, offset, patch):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(GeneratorModel.build(UNetConfig(size=16, stages=1), seed=0), ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[offset:offset + len(patch)] = patch
        ckpt.write_bytes(bytes(blob))
        assert dispatch(["eval", "--data", str(tmp_path), "--ckpt", str(ckpt)]) == 2
        err = capsys.readouterr().err.splitlines()
        # the checkpoint is rejected before the (empty) data directory is read
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")

    @pytest.mark.parametrize("command", ["harmonize", "eval"])
    def test_overflowing_checkpoint_is_one_error_line(self, tmp_path, capsys, command):
        # finite weights, every one scaled by 1e155: the convolutions overflow
        model = GeneratorModel.build(UNetConfig(size=32, stages=2, base_channels=8, block="srin"), seed=0)
        model.flat.data *= 1e155
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        data = tmp_path / "data"
        write_dataset(generate_dataset(GenConfig(seed=50, size=32), 2), data)
        sample = sample_paths(data, (data / "manifest.txt").read_text().split()[0])
        argv = {
            "harmonize": ["harmonize", "--ckpt", str(ckpt), "--comp", str(sample["comp"]), "--mask",
                          str(sample["mask"]), "--sem", str(sample["sem"]), "--out", str(tmp_path / "o.ppm")],
            "eval": ["eval", "--data", str(data), "--ckpt", str(ckpt)],
        }[command]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: model output is not finite: the weights overflow float64 on this input"
        ]

    def test_diverging_training_is_one_error_line(self, workspace, tmp_path):
        # a separate process: pytest would capture numpy's RuntimeWarnings before stderr sees them
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unet.size = 32\nunet.stages = 2\ntrain.lr = 1e300\n")
        proc = run_cli_process("train", "--config", str(cfg), "--data", str(data), "--steps", "3", "--seed", "0",
                               "--out", str(tmp_path / "m.ckpt"), timeout=120)
        assert proc.returncode == 2
        err = [l for l in proc.stderr.splitlines() if not l.startswith("config: ")]
        assert len(err) == 1 and err[0].startswith("error: non-finite loss"), proc.stderr

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(tol):
            raise MemoryError("Unable to allocate 26.8 GiB")

        monkeypatch.setattr(cli, "run_suite", exhausted)
        assert dispatch(["gradcheck"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: out of memory: Unable to allocate 26.8 GiB"]

    def test_module_entry_point_dispatches(self):
        proc = run_cli_process("frobnicate")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error:")


class TestGradcheckCommand:
    def test_passes_and_prints_lines(self, capsys):
        assert dispatch(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("op=")]
        assert len(lines) > 30
        assert all("max_rel_err=" in l and "pass=" in l for l in lines)

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "abc"])
    def test_meaningless_tolerance_is_usage_error(self, capsys, monkeypatch, tol):
        monkeypatch.setattr(cli, "run_suite", lambda tol: pytest.fail("the suite ran"))
        assert dispatch(["gradcheck", "--tol", tol]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: argument --tol: tolerance must be positive and finite, got {tol}"
        ]

    def test_impossible_tolerance_fails(self, capsys):
        assert dispatch(["gradcheck", "--tol", "1e-18"]) == 2
        assert "failed" in capsys.readouterr().err
