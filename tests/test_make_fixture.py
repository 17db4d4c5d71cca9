"""`scripts/make_fixture.py` run as a command, its corpus read back by the
loaders."""

import os
import subprocess
import sys
from pathlib import Path

import numpy.testing as npt

from resemotenet.data import load_fer_csv, load_image_dir

ROOT = Path(__file__).resolve().parents[1]


def make_fixture(*args) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_fixture.py"), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
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
