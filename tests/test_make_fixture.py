"""`scripts/make_fixture.py` run as a command, its corpus read back by the
loaders."""

import os
import subprocess
import sys
from pathlib import Path

import numpy.testing as npt
import pytest

from resemotenet.data import load_fer_csv, load_image_dir
from resemotenet.synthetic import make_synthetic_manifest

ROOT = Path(__file__).resolve().parents[1]


def run_make_fixture(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "make_fixture.py"), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def make_fixture(*args) -> str:
    proc = run_make_fixture(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_csv_format_holds_both_splits(tmp_path):
    stdout = make_fixture(str(tmp_path), "--format", "csv", "--per-class", "2")
    path = tmp_path / "fer2013.csv"
    assert stdout == f"wrote 28 rows to {path}\n"
    for split in ("train", "test"):
        loaded = load_fer_csv(path, split)
        npt.assert_array_equal(loaded.class_counts, [2] * 7)
        assert {s.pixels.shape for s in loaded.samples} == {(1, 48, 48)}


def test_csv_format_takes_a_file_path(tmp_path):
    path = tmp_path / "nested" / "corpus.csv"
    make_fixture(str(path), "--format", "csv", "--per-class", "1", "--seed", "3")
    assert len(load_fer_csv(path, "train")) == len(load_fer_csv(path, "test")) == 7


def test_dir_format_writes_one_pixmap_tree_per_split(tmp_path):
    stdout = make_fixture(str(tmp_path), "--format", "dir", "--per-class", "2",
                          "--size", "16")
    assert stdout.splitlines() == [f"wrote 14 images to {tmp_path / split}"
                                   for split in ("train", "test")]
    for split in ("train", "test"):
        loaded = load_image_dir(tmp_path / split, split, target_size=16, channels=3)
        npt.assert_array_equal(loaded.class_counts, [2] * 7)
        assert {s.pixels.shape for s in loaded.samples} == {(3, 16, 16)}


@pytest.mark.parametrize("fmt, flag, arg", [
    ("dir", "--per-class", "per_class"), ("csv", "--per-class", "per_class"),
    ("dir", "--size", "size"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_an_impossible_size_is_a_usage_error_before_any_file(tmp_path, fmt, flag, arg,
                                                             value):
    """An empty corpus or 0x0 images would only fail later, in `train`."""
    root = tmp_path / "corpus"
    proc = run_make_fixture(str(root), "--format", fmt, flag, value)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: {arg} must be >= 1, got {value}")
    assert not root.exists()


@pytest.mark.parametrize("arg", ["per_class", "size", "channels"])
@pytest.mark.parametrize("value", [0, -1])
def test_the_manifest_refuses_an_impossible_size_naming_it(arg, value):
    with pytest.raises(ValueError, match=f"^{arg} must be >= 1, got {value}$"):
        make_synthetic_manifest(**{arg: value})
