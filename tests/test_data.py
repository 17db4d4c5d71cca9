"""Loader, augmentation, and batching behavior, including the on-disk
layout round trips."""

import codecs
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet import data as D
from resemotenet.autodiff import using_dtype
from resemotenet.data import (
    CLASS_NAMES,
    FER_NATIVE_REMAP,
    MANIFEST,
    DatasetManifest,
    Sample,
    adapt_manifest,
    bilinear_resize,
    count_report,
    decode_pixmap,
    fisher_yates_permutation,
    load_fer_csv,
    load_image_dir,
    make_batches,
    published_counts,
    random_horizontal_flip,
)
from resemotenet.errors import ConfigError, DataError
from resemotenet.synthetic import make_synthetic_manifest, write_fer_csv, write_pixmap_dir

import oracles

rng = np.random.default_rng(2024)


def zero_row(native_label, usage="Training"):
    return f"{native_label},{' '.join(['0'] * 2304)},{usage}"


def write_csv(tmp_path, rows, name="mini.csv"):
    path = tmp_path / name
    path.write_text("emotion,pixels,Usage\n" + "\n".join(rows) + "\n")
    return path


class TestLabelMap:
    def test_canonical_order(self):
        assert CLASS_NAMES == ("Angry", "Disgust", "Fear", "Happy",
                               "Neutral", "Sad", "Surprise")

    def test_remap_is_bijective(self):
        assert sorted(FER_NATIVE_REMAP) == list(range(7))
        assert sorted(FER_NATIVE_REMAP.values()) == list(range(7))

    def test_remap_fixed_points_and_swaps(self):
        # native order is Angry,Disgust,Fear,Happy,Sad,Surprise,Neutral
        assert FER_NATIVE_REMAP[3] == 3        # Happy stays
        assert FER_NATIVE_REMAP[4] == 5        # native Sad -> canonical Sad
        assert FER_NATIVE_REMAP[5] == 6        # native Surprise
        assert FER_NATIVE_REMAP[6] == 4        # native Neutral


class TestFerCsv:
    def test_zero_row_gives_happy_zero_tensor(self, tmp_path):
        path = write_csv(tmp_path, [zero_row(3)])
        manifest = load_fer_csv(path, "train")
        assert len(manifest) == 1
        sample = manifest.samples[0]
        assert sample.label == 3
        assert sample.pixels.shape == (1, 48, 48)
        npt.assert_array_equal(sample.pixels, 0.0)

    def test_native_labels_are_remapped(self, tmp_path):
        path = write_csv(tmp_path, [zero_row(4), zero_row(5), zero_row(6)])
        manifest = load_fer_csv(path, "train")
        assert [s.label for s in manifest.samples] == [5, 6, 4]

    def test_pixel_scaling(self, tmp_path):
        pixels = " ".join(str(v % 256) for v in range(2304))
        path = write_csv(tmp_path, [f"0,{pixels},Training"])
        sample = load_fer_csv(path, "train").samples[0]
        npt.assert_allclose(sample.pixels.reshape(-1)[255], 255 / 255.0)
        npt.assert_allclose(sample.pixels.reshape(-1)[100], 100 / 255.0)
        assert sample.pixels.min() >= 0.0 and sample.pixels.max() <= 1.0

    def test_usage_column_routes_splits(self, tmp_path):
        rows = [zero_row(0, "Training"), zero_row(1, "PublicTest"),
                zero_row(2, "PrivateTest")]
        path = write_csv(tmp_path, rows)
        train = load_fer_csv(path, "train")
        test = load_fer_csv(path, "test")
        assert len(train) == 1 and train.samples[0].label == 0
        assert len(test) == 2  # both held-out usages land in the test split
        assert [s.label for s in test.samples] == [1, 2]

    def test_class_counts_tally(self, tmp_path):
        path = write_csv(tmp_path, [zero_row(3), zero_row(3), zero_row(0)])
        manifest = load_fer_csv(path, "train")
        npt.assert_array_equal(manifest.class_counts, [1, 0, 0, 2, 0, 0, 0])
        assert manifest.class_counts.sum() == len(manifest)

    def test_short_pixel_row_names_line(self, tmp_path):
        bad = f"2,{' '.join(['0'] * 2303)},Training"
        path = write_csv(tmp_path, [zero_row(0), bad])
        with pytest.raises(DataError, match="line 3.*2304.*2303"):
            load_fer_csv(path, "train")

    def test_bad_label_names_line(self, tmp_path):
        path = write_csv(tmp_path, [zero_row(7)])
        with pytest.raises(DataError, match="line 2.*outside 0-6"):
            load_fer_csv(path, "train")

    def test_unknown_usage_names_line(self, tmp_path):
        path = write_csv(tmp_path, [zero_row(0, "Validation")])
        with pytest.raises(DataError, match="line 2.*Validation"):
            load_fer_csv(path, "train")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DataError, match="header"):
            load_fer_csv(path, "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_fer_csv(tmp_path / "nope.csv", "train")

    def test_pixel_out_of_range_rejected(self, tmp_path):
        row = f"0,{'300 ' * 2303}300,Training"
        path = write_csv(tmp_path, [row])
        with pytest.raises(DataError, match="0-255"):
            load_fer_csv(path, "train")

    def test_round_trip_through_writer(self, tmp_path):
        made = make_synthetic_manifest(per_class=2, size=48, channels=1,
                                       num_classes=7, seed=5)
        path = write_fer_csv(tmp_path / "rt.csv", {"train": made})
        loaded = load_fer_csv(path, "train")
        npt.assert_array_equal(loaded.class_counts, made.class_counts)
        # pixel data survives up to 8-bit quantization
        for a, b in zip(made.samples, loaded.samples):
            assert a.label == b.label
            npt.assert_allclose(a.pixels, b.pixels, atol=0.5 / 255 + 1e-12)


def _random_rows(n, seed, usages=("Training", "PublicTest", "PrivateTest")):
    """`n` CSV rows of random 8-bit pixels, labels 0-6 and `usages` in turn."""
    r = np.random.default_rng(seed)
    return [f"{i % 7},{' '.join(map(str, r.integers(0, 256, 2304)))},{usages[i % len(usages)]}"
            for i in range(n)]


def _outcome(load, path, split):
    """What a loader makes of `path`: its error text, or each sample's
    label, source id, element type and pixel bytes."""
    try:
        rows = load(path, split)
    except DataError as err:
        return str(err)
    return [(label, sid, pixels.dtype, pixels.tobytes()) for label, sid, pixels in rows]


def _streamed(path, split):
    return [(s.label, s.source_id, s.pixels) for s in load_fer_csv(path, split).samples]


_HEAD = b"emotion,pixels,Usage"
_ROWS = [row.encode() for row in _random_rows(4, seed=36)]
_LATE_BAD = _ROWS[3][:-20] + b"\xff" + _ROWS[3][-20:]
_SHORT = b"2," + b" ".join([b"7"] * 2303) + b",Training"
#: files whose lines a whole-file `splitlines` and the stream must agree on
FILE_SHAPES = {
    "crlf": b"\r\n".join([_HEAD, *_ROWS]) + b"\r\n",
    "lone-cr": b"\r".join([_HEAD, *_ROWS]) + b"\r",
    "bom": codecs.BOM_UTF8 + b"\n".join([_HEAD, *_ROWS]) + b"\n",
    "blank-lines": b"\n".join([_HEAD, b"", _ROWS[0], b"  ", b"\r", *_ROWS[1:], b""]) + b"\n",
    "no-final-newline": b"\n".join([_HEAD, *_ROWS]),
    "late-invalid-utf8": b"\n".join([_HEAD, *_ROWS[:3], _LATE_BAD]) + b"\n",
    "late-invalid-utf8-after-bom": codecs.BOM_UTF8 + b"\n".join([_HEAD, *_ROWS[:3], _LATE_BAD]),
    "cut-multibyte-at-end": b"\n".join([_HEAD, *_ROWS]) + b"\n\xe2\x82",
    "short-row-after-crlf-blanks": b"\r\n".join([_HEAD, _ROWS[0], b"", b"", _SHORT]) + b"\r\n",
    "splitlines-breaks": b"\n".join([_HEAD, _ROWS[0], _ROWS[1].replace(b" 1", b"\x0c1", 1),
                                      "\u2028".encode()]) + b"\n",
    "empty": b"",
    "bom-only": codecs.BOM_UTF8,
    "part-of-a-bom": codecs.BOM_UTF8[:2],
    "blank-header": b"\r\n" + b"\n".join([_HEAD, *_ROWS]),
}


class TestFerCsvStream:
    """The line-at-a-time reader against a whole-file read of the same bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", FILE_SHAPES)
    def test_the_stream_reads_as_the_whole_file(self, tmp_path, shape, dtype):
        path = tmp_path / "shape.csv"
        path.write_bytes(FILE_SHAPES[shape])
        with using_dtype(dtype):
            for split in ("train", "test"):
                want = _outcome(oracles.fer_csv_whole_file, path, split)
                assert _outcome(_streamed, path, split) == want

    def test_a_late_bad_byte_names_its_position_in_the_file(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_bytes(FILE_SHAPES["late-invalid-utf8-after-bom"])
        at = FILE_SHAPES["late-invalid-utf8-after-bom"].index(b"\xff") - len(codecs.BOM_UTF8)
        with pytest.raises(DataError, match=rf"^cannot read dataset file \S*late\.csv: 'utf-8' "
                           rf"codec can't decode byte 0xff in position {at}: invalid start byte$"):
            load_fer_csv(path, "train")

    def test_a_fault_is_reported_in_file_order(self, tmp_path):
        # the whole-file read met the bad byte first, wherever it was
        path = tmp_path / "two.csv"
        path.write_bytes(b"\n".join([_HEAD, _ROWS[0], _SHORT, _LATE_BAD]) + b"\n")
        with pytest.raises(DataError, match=r"line 3: expected 2304 pixels, got 2303$"):
            load_fer_csv(path, "train")
        with pytest.raises(DataError, match=r"cannot read dataset file"):
            oracles.fer_csv_whole_file(path, "train")


class TestFerCsvMemory:
    def test_a_load_holds_rasters_and_no_whole_text(self, tmp_path):
        path = tmp_path / "fer.csv"
        rows = _random_rows(300, seed=7, usages=("Training",))
        path.write_text("emotion,pixels,Usage\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            loaded = load_fer_csv(path, "train")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 300
        # a whole-text read alone peaked above the file's size (2.6 MB)
        assert peak < 0.5 * path.stat().st_size
        assert held < 1.5 * 300 * 2304  # one byte a pixel, plus bookkeeping

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adapting_to_64x64x3_fits_nothing(self, tmp_path, dtype):
        made = make_synthetic_manifest(per_class=30, size=48, channels=1, seed=4)
        path = write_fer_csv(tmp_path / "fer.csv", {"train": made})
        with using_dtype(dtype):
            loaded = load_fer_csv(path, "train")
            tracemalloc.start()
            try:
                adapted = adapt_manifest(loaded, target_size=64, channels=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        fitted_bytes = len(loaded) * 3 * 64 * 64 * np.dtype(dtype).itemsize
        assert peak <= 0.05 * fitted_bytes
        for a, b in zip(loaded.samples, adapted.samples):
            assert b.raster is a.raster
            assert b.pixels.shape == (3, 64, 64) and b.pixels.dtype == dtype


class TestRasterFit:
    """Batches of raster samples against the eager pipeline they replace."""

    @pytest.mark.parametrize("augment", [False, True], ids=["plain", "flipped"])
    @pytest.mark.parametrize("size, channels", [(48, 1), (64, 3)])
    @pytest.mark.parametrize("load_type, fit_type", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32)])
    def test_batches_have_the_eager_pipelines_bits(self, tmp_path, load_type, fit_type,
                                                   size, channels, augment):
        path = tmp_path / "fer.csv"
        path.write_text("emotion,pixels,Usage\n" + "\n".join(_random_rows(30, seed=8)) + "\n")
        with using_dtype(load_type):
            loaded = load_fer_csv(path, "test")
            rows = oracles.fer_csv_whole_file(path, "test")
        r = np.random.default_rng(5)
        flip = (lambda s: random_horizontal_flip(s, r)) if augment else None
        with using_dtype(fit_type):
            split = adapt_manifest(loaded, size, channels)
            fitted = [oracles.fer_eager_fit(pixels, size, channels) for _, _, pixels in rows]
            got = list(make_batches(split, 4, r, shuffle=True, transform=flip))
        # the eager pipeline: scale, resize, cast, replicate, then flip
        r = np.random.default_rng(5)
        order = fisher_yates_permutation(len(rows), r)
        want = [fitted[i][:, :, ::-1] if augment and r.random() < 0.5 else fitted[i]
                for i in order]
        pixels = np.concatenate([batch.data for batch, _ in got])
        assert pixels.dtype == fit_type and pixels.shape == (20, channels, size, size)
        assert pixels.tobytes() == np.stack(want).tobytes()
        labels = np.concatenate([labels for _, labels in got])
        assert labels.tolist() == [rows[i][0] for i in order]


class TestOnePixelRule:
    """Both loaders make pixels by one rule, whatever container held the
    image and whatever element type was in effect at load."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size, channels", [(48, 1), (64, 3)])
    def test_a_csv_row_and_a_pixmap_of_one_image_give_the_same_pixels(
            self, tmp_path, dtype, size, channels):
        raster = np.random.default_rng(41).integers(0, 256, (48, 48), dtype=np.uint8)
        csv = write_csv(tmp_path, [f"3,{' '.join(map(str, raster.ravel()))},Training"])
        (tmp_path / "imgs").mkdir()
        (tmp_path / "imgs" / "a.pgm").write_bytes(b"P5\n48 48\n255\n" + raster.tobytes())
        (tmp_path / "imgs" / MANIFEST).write_text("a.pgm\tHappy\n")
        with using_dtype(dtype):
            from_csv = adapt_manifest(load_fer_csv(csv, "train"), size, channels)
            from_pixmap = load_image_dir(tmp_path / "imgs", "train", size, channels)
        got, want = from_csv.samples[0].pixels, from_pixmap.samples[0].pixels
        assert got.dtype == want.dtype == dtype and got.shape == (channels, size, size)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fit_type", [np.float32, np.float64])
    @pytest.mark.parametrize("size, channels", [(48, 1), (64, 3)])
    def test_a_csv_splits_pixels_do_not_depend_on_the_type_at_load(
            self, tmp_path, fit_type, size, channels):
        path = write_csv(tmp_path, _random_rows(6, seed=41, usages=("Training",)))
        fitted = []
        for load_type in (np.float32, np.float64):
            with using_dtype(load_type):
                loaded = load_fer_csv(path, "train")
            with using_dtype(fit_type):
                split = adapt_manifest(loaded, size, channels)
                fitted.append(np.stack([s.pixels for s in split.samples]))
        assert fitted[0].dtype == fit_type
        assert fitted[0].tobytes() == fitted[1].tobytes()


def _tie(k, dtype):
    """A pixel value whose scaled value ``p * 255`` is exactly ``k + 0.5``
    in `dtype`: a rounding tie, which `rint` sends to the even neighbour."""
    target, p = dtype(k + 0.5), dtype((k + 0.5) / 255)
    for _ in range(8):
        if p * dtype(255) == target:
            return p
        p = np.nextafter(p, dtype(1) if p * dtype(255) < target else dtype(0))
    raise AssertionError(f"no tie at {k} + 0.5 in {dtype.__name__}")


def _edge_manifest(dtype, split="train"):
    """Two 48x48 samples whose first pixels are the values 0, 9, 10, 99,
    100, 254 and 255, then ties at k + 0.5, then each tie's neighbours; the
    pattern repeats to fill the image."""
    exact = [dtype(v) / dtype(255) for v in (0, 9, 10, 99, 100, 254, 255)]
    ties = [_tie(k, dtype) for k in (0, 1, 9, 10, 99, 100, 253, 254)]
    near = [np.nextafter(t, dtype(side)) for t in ties for side in (0, 1)]
    row = np.array(exact + ties + near, dtype=dtype)
    samples = [Sample(pixels=np.resize(row[::step], (1, 48, 48)), label=label,
                      source_id=f"edge/{label}")
               for step, label in ((1, 4), (-1, 6))]
    return DatasetManifest.from_samples("edge", split, samples)


class TestFerCsvWriter:
    """`write_fer_csv`'s bytes against the per-value oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_per_value_oracle(self, tmp_path, dtype):
        manifests = {"train": _edge_manifest(dtype),
                     "test": _edge_manifest(dtype, "test")}
        path = write_fer_csv(tmp_path / "edge.csv", manifests)
        assert path.read_bytes() == oracles.fer_csv_text(manifests).encode()
        pixels = path.read_text().splitlines()[1].split(",")[1].split()
        assert pixels[:15] == ["0", "9", "10", "99", "100", "254", "255",
                               "0", "2", "10", "10", "100", "100", "254", "254"]

    def test_each_sample_is_quantized_in_its_own_type(self, tmp_path):
        # a float32 tie is no tie once widened: rint(float64(p) * 255) differs
        wide = _edge_manifest(np.float64).samples
        manifests = {"train": DatasetManifest.from_samples(
            "mixed", "train", _edge_manifest(np.float32).samples + wide)}
        path = write_fer_csv(tmp_path / "mixed.csv", manifests)
        assert path.read_bytes() == oracles.fer_csv_text(manifests).encode()

    def test_an_empty_split_writes_no_rows(self, tmp_path):
        empty = DatasetManifest.from_samples("none", "train", [])
        path = write_fer_csv(tmp_path / "empty.csv", {"train": empty})
        assert path.read_text() == "emotion,pixels,Usage\n"
        manifests = {"train": empty, "test": _edge_manifest(np.float32, "test")}
        path = write_fer_csv(tmp_path / "half.csv", manifests)
        assert path.read_bytes() == oracles.fer_csv_text(manifests).encode()
        assert len(load_fer_csv(path, "test")) == 2
        assert len(load_fer_csv(path, "train")) == 0

    def test_rows_are_written_one_at_a_time(self, tmp_path):
        made = make_synthetic_manifest(per_class=43, size=48, channels=1, seed=6)
        tracemalloc.start()
        try:
            path = write_fer_csv(tmp_path / "big.csv", {"train": made})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole text, built before writing, was above the file's size
        assert peak < 0.1 * path.stat().st_size

    def test_a_bad_sample_in_a_later_split_writes_no_file(self, tmp_path):
        bad = Sample(pixels=np.zeros((1, 47, 48)), label=0, source_id="bad/0")
        manifests = {"train": _edge_manifest(np.float32),
                     "test": DatasetManifest.from_samples("bad", "test", [bad])}
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="bad/0 is 1x47x48"):
            write_fer_csv(path, manifests)
        assert not path.exists()


class TestPixmaps:
    def test_p6_max_pixels_decode_to_ones(self, tmp_path):
        blob = b"P6\n2 2\n255\n" + bytes([255] * 12)
        raw = decode_pixmap(blob)
        assert raw.shape == (2, 2, 3)
        npt.assert_array_equal(raw, 255)

    def test_p5_shape_and_values(self):
        blob = b"P5\n3 2\n255\n" + bytes([0, 64, 128, 192, 255, 32])
        raw = decode_pixmap(blob)
        assert raw.shape == (2, 3)
        npt.assert_array_equal(raw, [[0, 64, 128], [192, 255, 32]])

    def test_header_comments_are_skipped(self):
        blob = b"P5 # magic\n# a comment line\n2 # width\n2\n255\n" + bytes(4)
        assert decode_pixmap(blob).shape == (2, 2)

    def test_bad_magic(self):
        with pytest.raises(DataError, match="P5/P6"):
            decode_pixmap(b"P3\n1 1\n255\n0")

    def test_truncated_raster_reports_sizes(self):
        blob = b"P6\n2 2\n255\n" + bytes(11)
        with pytest.raises(DataError, match="11 bytes.*needs 12"):
            decode_pixmap(blob)

    def test_unsupported_maxval(self):
        with pytest.raises(DataError, match="maxval"):
            decode_pixmap(b"P5\n1 1\n65535\n\x00\x00")

    @pytest.mark.parametrize("header", [b"P5\n1_0 +1\n0255\n", b"P5\n10 +1\n255\n",
                                        b"P5\n10 1\n2_55\n"],
                             ids=["underscored-width", "signed-height", "underscored-maxval"])
    def test_header_tokens_are_ascii_digit_runs(self, header):
        # int() reads b"1_0" as 10 and b"+1" as 1: the first header decoded
        # as a 1x10 image
        with pytest.raises(DataError, match="bad header token"):
            decode_pixmap(header + bytes(10))


class TestBilinear:
    def test_checkerboard_2x2_to_4x4_matches_oracle(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = bilinear_resize(img, 4, 4)
        want = oracles.bilinear_resize_loops(img, 4, 4)
        npt.assert_allclose(got, want, atol=1e-12)
        # corner alignment: the four corners survive exactly
        assert got[0, 0] == 1.0 and got[0, 3] == 0.0
        assert got[3, 0] == 0.0 and got[3, 3] == 1.0

    def test_matches_oracle_on_random_images(self):
        img = rng.random((7, 5))
        for out_h, out_w in [(3, 9), (14, 2), (1, 4), (5, 7)]:
            npt.assert_allclose(bilinear_resize(img, out_h, out_w),
                                oracles.bilinear_resize_loops(img, out_h, out_w),
                                atol=1e-12)

    def test_same_size_is_identity(self):
        img = rng.random((6, 6))
        npt.assert_allclose(bilinear_resize(img, 6, 6), img, atol=1e-12)

    def test_constant_image_stays_constant(self):
        img = np.full((5, 3), 0.7)
        npt.assert_allclose(bilinear_resize(img, 11, 9), 0.7, atol=1e-12)

    def test_single_output_samples_center(self):
        img = np.arange(9.0).reshape(3, 3)
        out = bilinear_resize(img, 1, 1)
        npt.assert_allclose(out, [[4.0]], atol=1e-12)  # the center pixel


class TestImageDir:
    def _write_fixture(self, tmp_path, color=True, per_class=2, num_classes=3):
        manifest = make_synthetic_manifest(per_class=per_class, size=10,
                                           channels=3 if color else 1,
                                           num_classes=num_classes, seed=1)
        index = write_pixmap_dir(tmp_path / "imgs", manifest, color=color)
        return manifest, index

    def test_loads_and_resizes(self, tmp_path):
        made, index = self._write_fixture(tmp_path)
        loaded = load_image_dir(tmp_path / "imgs", "train", 16, 3)
        assert len(loaded) == len(made)
        for sample in loaded.samples:
            assert sample.pixels.shape == (3, 16, 16)
            assert 0.0 <= sample.pixels.min() and sample.pixels.max() <= 1.0
        npt.assert_array_equal(loaded.class_counts[:3], made.class_counts[:3])

    def test_grayscale_replicates_to_three_channels(self, tmp_path):
        _, index = self._write_fixture(tmp_path, color=False)
        loaded = load_image_dir(tmp_path / "imgs", "train", 10, 3)
        for sample in loaded.samples:
            npt.assert_array_equal(sample.pixels[0], sample.pixels[1])
            npt.assert_array_equal(sample.pixels[0], sample.pixels[2])

    def test_order_follows_manifest(self, tmp_path):
        made, index = self._write_fixture(tmp_path)
        loaded = load_image_dir(tmp_path / "imgs", "train", 10, 3)
        listed = [line.split("\t")[0] for line in
                  index.read_text().strip().splitlines()]
        assert [s.source_id for s in loaded.samples] == listed

    def test_unknown_class_names_line(self, tmp_path):
        (tmp_path / MANIFEST).write_text("a.pgm\tHappiness\n")
        with pytest.raises(DataError, match="line 1.*Happiness"):
            load_image_dir(tmp_path, "train", 64, 3)

    def test_manifest_that_is_not_utf8_rejected(self, tmp_path):
        (tmp_path / MANIFEST).write_bytes(b"a\xff.pgm\tHappy\n")
        with pytest.raises(DataError, match="cannot read manifest.*utf-8"):
            load_image_dir(tmp_path, "train", 64, 3)

    def test_a_manifest_with_a_bom_loads(self, tmp_path):
        made, index = self._write_fixture(tmp_path)
        index.write_bytes(codecs.BOM_UTF8 + index.read_bytes())
        loaded = load_image_dir(tmp_path / "imgs", "train", 10, 3)
        assert [s.source_id for s in loaded.samples] == \
            [line.split("\t")[0] for line in index.read_text("utf-8-sig").splitlines()]
        npt.assert_array_equal(loaded.class_counts, made.class_counts)

    def test_missing_tab_names_line(self, tmp_path):
        (tmp_path / MANIFEST).write_text("a.pgm Happy\n")
        with pytest.raises(DataError, match="line 1"):
            load_image_dir(tmp_path, "train", 64, 3)

    def test_absolute_image_path_names_the_manifest_line(self, tmp_path):
        _, index = self._write_fixture(tmp_path)
        outside = tmp_path / "imgs" / index.read_text().split("\t")[0]
        split = tmp_path / "split"
        split.mkdir()
        (split / MANIFEST).write_text(f"{outside}\tHappy\n")
        with pytest.raises(DataError, match=re.escape(
                f"{split / MANIFEST}: line 1: image path '{outside}' must be "
                "relative to the split directory")):
            load_image_dir(split, "train", 10, 3)

    def test_a_path_up_to_a_shared_pool_loads(self, tmp_path):
        made, index = self._write_fixture(tmp_path)
        split = tmp_path / "split"
        split.mkdir()
        (split / MANIFEST).write_text("".join(
            f"../imgs/{line}\n" for line in index.read_text().splitlines()))
        loaded = load_image_dir(split, "train", 10, 3)
        assert len(loaded) == len(made)

    def test_color_image_for_a_single_channel_model_rejected(self, tmp_path):
        _, index = self._write_fixture(tmp_path)
        first = tmp_path / "imgs" / index.read_text().split("\t")[0]
        for load in (lambda: load_image_dir(tmp_path / "imgs", "train", 10, 1),
                     lambda: D.load_single_image(first, 10, 1)):
            with pytest.raises(DataError, match=r"\.ppm: color image cannot feed a "
                               r"single-channel model$"):
                load()

    def test_missing_image_names_the_file(self, tmp_path):
        (tmp_path / MANIFEST).write_text("Happy/absent.pgm\tHappy\n")
        with pytest.raises(DataError, match=r"^cannot read image \S*absent\.pgm: "):
            load_image_dir(tmp_path, "train", 16, 3)

    def test_round_trip_pixel_fidelity(self, tmp_path):
        made, index = self._write_fixture(tmp_path)
        loaded = load_image_dir(tmp_path / "imgs", "train", 10, 3)
        for a, b in zip(made.samples, loaded.samples):
            npt.assert_allclose(a.pixels, b.pixels, atol=0.5 / 255 + 1e-12)


class TestResizeRefusal:
    """A target size numpy cannot allocate is a data error naming the
    source; `bilinear_resize`'s own refusals pass through unchanged."""

    def _image(self, tmp_path):
        made = make_synthetic_manifest(per_class=1, size=10, num_classes=2, seed=5)
        index = write_pixmap_dir(tmp_path, made)
        return made, tmp_path / index.read_text().split("\t")[0]

    def test_a_size_beyond_numpy_is_a_data_error(self, tmp_path):
        _, image = self._image(tmp_path)
        refusal = r": cannot resize to 10{20}x10{20}: "
        with pytest.raises(DataError, match=rf"^\S*\.ppm{refusal}"):
            D.load_single_image(image, 10**20, 3)
        made = make_synthetic_manifest(per_class=1, size=48, channels=1, num_classes=2,
                                       seed=5)
        loaded = load_fer_csv(write_fer_csv(tmp_path / "fer.csv", {"train": made}), "train")
        adapted = adapt_manifest(loaded, 10**20, 3)  # re-tags; the fit refuses
        with pytest.raises(DataError, match=r"^fer\.csv#L2" + refusal):
            adapted.samples[0].pixels

    def test_numpy_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch):
        _, image = self._image(tmp_path)

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(D, "bilinear_resize", out_of_memory)
        with pytest.raises(DataError, match=r"\.ppm: cannot resize to 16x16: Unable to "
                           r"allocate 8\.00 TiB$"):
            D.load_single_image(image, 16, 3)

    def test_the_resizer_refusal_is_not_rewrapped(self, tmp_path):
        _, image = self._image(tmp_path)
        with pytest.raises(DataError, match=r"^bilinear_resize target must be positive"):
            D.load_single_image(image, 0, 3)


class TestAdaptManifest:
    def test_grayscale_small_to_color_large(self, tmp_path):
        made = make_synthetic_manifest(per_class=1, size=48, channels=1,
                                       num_classes=3, seed=2)
        path = write_fer_csv(tmp_path / "fer.csv", {"train": made})
        adapted = adapt_manifest(load_fer_csv(path, "train"), target_size=64, channels=3)
        for sample in adapted.samples:
            assert sample.pixels.shape == (3, 64, 64)
            npt.assert_array_equal(sample.pixels[0], sample.pixels[2])
            assert 0.0 <= sample.pixels.min() and sample.pixels.max() <= 1.0
        npt.assert_array_equal(adapted.class_counts, made.class_counts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fitting_csv_samples_are_not_copied(self, tmp_path, dtype):
        # a 48-px grayscale CSV feeding a 48/1 model: a copy here held the
        # whole split twice during the load
        made = make_synthetic_manifest(per_class=30, size=48, channels=1, seed=4)
        path = write_fer_csv(tmp_path / "fer.csv", {"train": made})
        with using_dtype(dtype):
            loaded = load_fer_csv(path, "train")
            tracemalloc.start()
            try:
                adapted = adapt_manifest(loaded, target_size=48, channels=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        dataset_bytes = sum(s.pixels.nbytes for s in loaded.samples)
        assert peak <= 0.05 * dataset_bytes
        for a, b in zip(loaded.samples, adapted.samples):
            assert b.pixels.dtype == dtype
            npt.assert_array_equal(a.pixels, b.pixels)


class TestFlip:
    def test_forced_flip_reverses_columns(self):
        s = Sample(pixels=np.array([[[0.1, 0.9]]]), label=0, source_id="t")
        flipped = random_horizontal_flip(s, np.random.default_rng(0), p=1.0)
        npt.assert_allclose(flipped.pixels, [[[0.9, 0.1]]])

    def test_double_flip_is_identity(self):
        s = Sample(pixels=rng.random((3, 4, 5)), label=2, source_id="t")
        r = np.random.default_rng(0)
        twice = random_horizontal_flip(random_horizontal_flip(s, r, p=1.0), r, p=1.0)
        npt.assert_array_equal(twice.pixels, s.pixels)

    def test_symmetric_image_unchanged(self):
        sym = np.array([[[0.2, 0.5, 0.2], [0.7, 0.1, 0.7]]])
        s = Sample(pixels=sym, label=1, source_id="t")
        flipped = random_horizontal_flip(s, np.random.default_rng(0), p=1.0)
        npt.assert_array_equal(flipped.pixels, sym)

    def test_p_zero_never_flips(self):
        s = Sample(pixels=rng.random((1, 3, 3)), label=0, source_id="t")
        out = random_horizontal_flip(s, np.random.default_rng(0), p=0.0)
        npt.assert_array_equal(out.pixels, s.pixels)

    def test_always_consumes_one_draw(self):
        # the per-sample RNG budget is part of the resume contract
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        s = Sample(pixels=rng.random((1, 2, 2)), label=0, source_id="t")
        random_horizontal_flip(s, r1, p=0.0)
        random_horizontal_flip(s, r1, p=1.0)
        r2.random()
        r2.random()
        assert r1.integers(0, 1 << 30) == r2.integers(0, 1 << 30)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_row_multisets_preserved(self, seed):
        r = np.random.default_rng(seed)
        s = Sample(pixels=r.random((2, 3, 4)), label=0, source_id="t")
        flipped = random_horizontal_flip(s, r, p=1.0)
        npt.assert_array_equal(np.sort(flipped.pixels, axis=2),
                               np.sort(s.pixels, axis=2))


class TestBatching:
    def _manifest(self, n, size=4):
        samples = [Sample(pixels=np.full((1, size, size), i / max(n, 1)),
                          label=i % 7, source_id=str(i)) for i in range(n)]
        return DatasetManifest.from_samples("t", "train", samples)

    def test_batch_sizes_35_by_16(self):
        batches = list(make_batches(self._manifest(35), 16,
                                    np.random.default_rng(0), shuffle=True))
        assert [b[0].shape[0] for b in batches] == [16, 16, 3]

    def test_no_shuffle_preserves_order(self):
        batches = list(make_batches(self._manifest(10), 4,
                                    np.random.default_rng(0), shuffle=False))
        ids = np.concatenate([labels for _, labels in batches])
        npt.assert_array_equal(ids, [i % 7 for i in range(10)])

    def test_same_seed_same_composition(self):
        m = self._manifest(23)
        a = [labels.tolist() for _, labels in
             make_batches(m, 5, np.random.default_rng(42), shuffle=True)]
        b = [labels.tolist() for _, labels in
             make_batches(m, 5, np.random.default_rng(42), shuffle=True)]
        assert a == b

    def test_epoch_covers_manifest_exactly(self):
        m = self._manifest(29)
        seen = []
        for pixels, labels in make_batches(m, 8, np.random.default_rng(1), True):
            seen.extend(pixels.data[:, 0, 0, 0].tolist())
        want = sorted(s.pixels[0, 0, 0] for s in m.samples)
        npt.assert_allclose(sorted(seen), want, atol=1e-12)

    def test_empty_manifest_rejected(self):
        with pytest.raises(DataError, match="empty"):
            next(make_batches(self._manifest(0), 4, np.random.default_rng(0), True))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            next(make_batches(self._manifest(4), 0, np.random.default_rng(0), True))

    def test_transform_hook_applies_per_sample(self):
        m = self._manifest(6)
        negate = lambda s: Sample(pixels=1.0 - s.pixels, label=s.label,
                                  source_id=s.source_id)
        plain = list(make_batches(m, 3, np.random.default_rng(3), False))
        mapped = list(make_batches(m, 3, np.random.default_rng(3), False, negate))
        for (pa, _), (pb, _) in zip(plain, mapped):
            npt.assert_allclose(pb.data, 1.0 - pa.data, atol=1e-12)

    def test_fisher_yates_draw_budget(self):
        # exactly n-1 bounded integer draws, highest index first: the resume
        # logic reconstructs RNG streams from this contract
        r1 = np.random.default_rng(11)
        perm = fisher_yates_permutation(10, r1)
        assert sorted(perm.tolist()) == list(range(10))
        r2 = np.random.default_rng(11)
        for i in range(9, 0, -1):
            r2.integers(0, i + 1)
        assert r1.integers(0, 1 << 30) == r2.integers(0, 1 << 30)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40), st.integers(1, 17), st.integers(0, 10 ** 6))
def test_batches_partition_any_manifest(n, batch_size, seed):
    samples = [Sample(pixels=np.full((1, 2, 2), float(i)), label=i % 7,
                      source_id=str(i)) for i in range(n)]
    m = DatasetManifest.from_samples("h", "train", samples)
    seen = []
    for pixels, labels in make_batches(m, batch_size, np.random.default_rng(seed), True):
        assert pixels.shape[0] == labels.shape[0] <= batch_size
        seen.extend(pixels.data[:, 0, 0, 0].astype(int).tolist())
    assert sorted(seen) == list(range(n))


class TestPublishedCounts:
    def test_reference_rows(self):
        assert published_counts("FER2013", "train") == \
            (3995, 436, 4097, 7215, 4965, 4830, 3171)
        assert sum(published_counts("fer2013", "train")) == 28709
        assert published_counts("RAF-DB", "test") == \
            (162, 160, 74, 1185, 680, 478, 329)
        assert sum(published_counts("rafdb", "test")) == 3068
        assert published_counts("AffectNet", "test") == (500,) * 7
        assert published_counts("unknown-set", "train") is None

    def test_count_report_marks_agreement(self):
        samples = [Sample(np.zeros((1, 2, 2)), label, "x")
                   for label in range(7) for _ in range(500)]
        m = DatasetManifest.from_samples("affectnet", "test", samples)
        report = count_report(m)
        assert all("ok" in line for line in report[1:])

    def test_count_report_marks_differences(self):
        samples = [Sample(np.zeros((1, 2, 2)), 0, "x")]
        m = DatasetManifest.from_samples("fer2013", "train", samples)
        report = count_report(m)
        assert any("DIFFERS" in line for line in report)


class TestSyntheticFixture:
    def test_deterministic(self):
        a = make_synthetic_manifest(per_class=2, size=12, seed=9)
        b = make_synthetic_manifest(per_class=2, size=12, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            npt.assert_array_equal(sa.pixels, sb.pixels)

    def test_counts_and_range(self):
        m = make_synthetic_manifest(per_class=3, size=12, num_classes=7, seed=0)
        npt.assert_array_equal(m.class_counts, [3] * 7)
        for s in m.samples:
            assert 0.0 <= s.pixels.min() and s.pixels.max() <= 1.0

    def test_class_patterns_are_flip_symmetric(self):
        # the prototype images must survive mirroring so flip augmentation
        # keeps samples in-distribution
        from resemotenet.synthetic import class_pattern
        for label in range(7):
            pattern = class_pattern(label, 16)
            npt.assert_allclose(pattern, pattern[:, ::-1], atol=1e-12)


def test_class_names_are_canonical_then_numbered():
    assert D.class_names_for(3) == CLASS_NAMES[:3]
    assert D.class_names_for(7) == CLASS_NAMES
    assert D.class_names_for(9) == tuple(f"class{i}" for i in range(9))


# --- guard fuzzers: malformed input may only end in DataError ---------------

def _pixmap(color: bool) -> bytes:
    raster = bytes(range(3 * 2 * (3 if color else 1)))
    return (b"P6" if color else b"P5") + b"\n# fixture\n3 2\n255\n" + raster


#: header-shaped junk: separators, comment starts, signs, oversized numbers
PIXMAP_JUNK = st.sampled_from([b" ", b"\n", b"#", b"-1", b"0", b"255", b"P5",
                               b"99999999999999999999", b"\x00", b"\xff"]) | \
    st.binary(min_size=1, max_size=6)

#: field-shaped junk for a CSV row
FER_JUNK = st.sampled_from(["", " ", "3", "7", "-1", "3.0", "1e2", "256", "nan",
                            "inf", "0x10", "Training", "PublicTest", "Validation",
                            "\u0663", ",", "\r"]) | st.text(max_size=8)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestGuardFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_pixmap_raises_only_data_error(self, data):
        blob = bytearray(_pixmap(data.draw(st.booleans(), label="color")))
        header_end = blob.index(b"255\n") + 4
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            kind = data.draw(st.sampled_from(["flip", "truncate", "junk"]))
            if kind == "flip" and blob:
                i = data.draw(st.integers(0, len(blob) - 1), label="offset")
                blob[i] ^= data.draw(st.integers(1, 255), label="xor")
            elif kind == "truncate":
                del blob[data.draw(st.integers(0, len(blob)), label="length"):]
            else:
                at = data.draw(st.integers(0, min(header_end, len(blob))), label="at")
                blob[at:at] = data.draw(PIXMAP_JUNK, label="junk")
        try:
            image = decode_pixmap(bytes(blob))
        except DataError:
            return
        assert image.dtype == np.uint8 and min(image.shape[:2]) >= 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_fer_row_raises_only_data_error(self, fuzz_dir, data):
        label = str(data.draw(st.integers(0, 6), label="label"))
        pixels = [str(v % 256) for v in range(2304)]
        usage = data.draw(st.sampled_from(["Training", "PublicTest"]), label="usage")
        keep, extra = 3, []
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            kind = data.draw(st.sampled_from(
                ["label", "usage", "pixel", "drop pixel", "fewer fields", "more fields"]))
            if kind == "label":
                label = data.draw(FER_JUNK, label="label")
            elif kind == "usage":
                usage = data.draw(FER_JUNK, label="usage")
            elif kind == "pixel":
                i = data.draw(st.integers(0, len(pixels) - 1), label="pixel index")
                pixels[i] = data.draw(FER_JUNK, label="pixel")
            elif kind == "drop pixel":
                del pixels[data.draw(st.integers(0, len(pixels) - 1), label="dropped")]
            elif kind == "fewer fields":
                keep = data.draw(st.integers(1, 2), label="fields kept")
            else:
                extra.append(data.draw(FER_JUNK, label="extra field"))
        row = ",".join([label, " ".join(pixels), usage][:keep] + extra)
        blob = bytearray(row.encode("utf-8"))
        if data.draw(st.booleans(), label="flip a byte") and blob:
            i = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[i] ^= data.draw(st.integers(1, 255), label="xor")
        path = fuzz_dir / "mutant.csv"
        path.write_bytes(b"emotion,pixels,Usage\n" + zero_row(3).encode() + b"\n"
                         + bytes(blob) + b"\n")
        try:
            manifest = load_fer_csv(path, data.draw(st.sampled_from(["train", "test"])))
        except DataError:
            return
        for sample in manifest.samples:
            assert sample.pixels.shape == (1, 48, 48)
            assert 0.0 <= sample.pixels.min() and sample.pixels.max() <= 1.0
