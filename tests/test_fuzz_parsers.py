"""Random bytes fed to the parsers of outside input: only HarmlabError may escape."""

import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmlab.btrank import read_pairs_csv
from harmlab.cli import parse_config_file
from harmlab.errors import HarmlabError
from harmlab.imaging import read_pgm, read_ppm
from harmlab.synthdata import load_dataset
from harmlab.unet import GeneratorModel, UNetConfig, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(GeneratorModel.build(UNetConfig(size=16, stages=1, base_channels=2, block="srin"), seed=0), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def parse(reader, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        reader(str(path))
    except HarmlabError:
        pass


def read_manifest(path: str) -> None:
    """``load_dataset`` on a directory whose manifest holds the bytes at ``path``."""
    data = Path(path).with_name("dataset")
    data.mkdir(exist_ok=True)
    shutil.copyfile(path, data / "manifest.txt")
    load_dataset(data)


@pytest.mark.parametrize("reader, prefix", [
    (read_ppm, b"P6\n"),
    (read_pgm, b"P5\n"),
    (read_pairs_csv, b"a,b,1\n"),
    (parse_config_file, b"train.steps = "),
    (read_manifest, b"000000\n"),
])
@FUZZ
@given(tail=st.binary(max_size=64))
def test_random_tail_raises_only_package_errors(scratch, reader, prefix, tail):
    parse(reader, scratch, prefix + tail)


@FUZZ
@given(tail=st.binary(max_size=64))
def test_checkpoint_random_tail_raises_only_package_errors(scratch, valid_checkpoint, tail):
    parse(load_checkpoint, scratch, valid_checkpoint[:24] + tail)


@FUZZ
@given(data=st.data())
def test_checkpoint_byte_mutation_raises_only_package_errors(scratch, valid_checkpoint, data):
    # half the draws land in the 24-byte header, where a byte decides the shapes
    offset = data.draw(st.one_of(st.integers(0, 23), st.integers(0, len(valid_checkpoint) - 1)))
    value = data.draw(st.integers(0, 255))
    blob = bytearray(valid_checkpoint)
    blob[offset] = value
    parse(load_checkpoint, scratch, bytes(blob))
