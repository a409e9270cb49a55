import numpy as np
import pytest

from harmlab.errors import DatasetError
from harmlab.imaging import ratio_bucket
from harmlab.synthdata import GenConfig, generate_dataset, generate_sample, load_dataset, write_dataset


def test_same_key_is_bit_exact():
    cfg = GenConfig(seed=3, size=32)
    a = generate_sample(cfg, 5)
    b = generate_sample(cfg, 5)
    assert np.array_equal(a.real.pixels, b.real.pixels)
    assert np.array_equal(a.composite.pixels, b.composite.pixels)
    assert np.array_equal(a.mask.values, b.mask.values)
    assert np.array_equal(a.semantic.pixels, b.semantic.pixels)


def test_different_indices_differ():
    cfg = GenConfig(seed=3, size=32)
    a = generate_sample(cfg, 0)
    b = generate_sample(cfg, 1)
    assert not np.array_equal(a.real.pixels, b.real.pixels)


def test_identity_shift_reproduces_real():
    cfg = GenConfig(seed=1, size=32, gain=(1.0, 1.0), bias=(0.0, 0.0), gamma=(1.0, 1.0))
    s = generate_sample(cfg, 2)
    assert np.array_equal(s.composite.pixels, s.real.pixels)


@pytest.mark.parametrize("index", range(8))
def test_background_equality_is_exact(index):
    s = generate_sample(GenConfig(seed=11, size=32), index)
    bg = ~s.mask.values.astype(bool)
    assert np.array_equal(s.composite.pixels[bg], s.real.pixels[bg])


def test_mask_is_flat_semantic_region():
    s = generate_sample(GenConfig(seed=4, size=48), 1)
    fg = s.mask.values.astype(bool)
    assert fg.any()
    sem_fg = s.semantic.pixels[fg].reshape(-1, 3)
    assert len(np.unique(sem_fg, axis=0)) == 1


def test_foreground_class_has_visible_background_twin():
    s = generate_sample(GenConfig(seed=4, size=32), 3)
    fg = s.mask.values.astype(bool)
    fg_sem = s.semantic.pixels[fg][0]
    same_class = np.all(s.semantic.pixels == fg_sem, axis=2)
    twin = same_class & ~fg
    assert twin.sum() >= 8
    # twin real color is within a couple of 8-bit steps of the foreground's
    fg_color = s.real.pixels[fg][0]
    twin_color = s.real.pixels[twin][0]
    assert np.max(np.abs(fg_color - twin_color)) <= 3.0 / 255.0


def test_foreground_ratio_stays_in_bounds():
    cfg = GenConfig(seed=21, size=32)
    for i in range(50):
        s = generate_sample(cfg, i)
        assert 0.01 <= s.mask.ratio() <= 0.6


def test_ratio_buckets_all_covered():
    cfg = GenConfig(seed=77, size=32)
    counts = [0, 0, 0]
    for i in range(1000):
        counts[ratio_bucket(generate_sample(cfg, i).mask.ratio())] += 1
    assert all(c >= 50 for c in counts), counts


def test_pixels_stay_on_8bit_grid():
    s = generate_sample(GenConfig(seed=6, size=32), 0)
    for img in (s.real, s.composite, s.semantic):
        steps = img.pixels * 255.0
        assert np.allclose(steps, np.rint(steps), atol=1e-9)


class TestDatasetIO:
    def test_write_load_is_value_identical(self, tmp_path):
        samples = generate_dataset(GenConfig(seed=8, size=32), 4)
        write_dataset(samples, tmp_path)
        back = load_dataset(tmp_path)
        assert [s.id for s in back] == [s.id for s in samples]
        for a, b in zip(samples, back):
            assert np.array_equal(a.real.pixels, b.real.pixels)
            assert np.array_equal(a.composite.pixels, b.composite.pixels)
            assert np.array_equal(a.mask.values, b.mask.values)
            assert np.array_equal(a.semantic.pixels, b.semantic.pixels)

    def test_manifest_is_sorted(self, tmp_path):
        samples = generate_dataset(GenConfig(seed=8, size=32), 3)
        write_dataset(samples, tmp_path)
        ids = (tmp_path / "manifest.txt").read_text().split()
        assert ids == sorted(ids)

    def test_missing_file_named_in_error(self, tmp_path):
        samples = generate_dataset(GenConfig(seed=8, size=32), 2)
        write_dataset(samples, tmp_path)
        victim = tmp_path / "000001_mask.pgm"
        victim.unlink()
        with pytest.raises(DatasetError, match="000001_mask.pgm"):
            load_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            load_dataset(tmp_path)

    def test_external_layout_loads_unchanged(self, tmp_path):
        # a dataset written by other tooling in the same layout loads as-is
        from harmlab.imaging import Image, Mask, write_pgm, write_ppm

        rng = np.random.default_rng(0)
        img = Image(np.rint(rng.uniform(0, 1, (16, 16, 3)) * 255) / 255)
        mask = Mask((rng.uniform(size=(16, 16)) < 0.3).astype(np.uint8))
        for suffix, writer, data in (
            ("real", write_ppm, img), ("comp", write_ppm, img),
            ("sem", write_ppm, img),
        ):
            writer(data, tmp_path / f"ext0_{suffix}.ppm")
        write_pgm(mask, tmp_path / "ext0_mask.pgm")
        (tmp_path / "manifest.txt").write_text("ext0\n")
        back = load_dataset(tmp_path)
        assert back[0].id == "ext0"
        assert np.array_equal(back[0].mask.values, mask.values)
