"""Dataset ingestion, augmentation, and batching.

Three corpus schemas are supported through two loaders:

* `load_fer_csv` — the single-file CSV layout (header ``emotion,pixels,Usage``,
  2304 space-separated 8-bit pixels per row forming a 48x48 grayscale image).
* `load_image_dir` — a directory of binary portable pixmaps (P5 grayscale /
  P6 color, maxval 255) indexed by a tab-separated `MANIFEST` file of
  ``relative-path<TAB>class-name`` lines.

Every loader emits samples with pixels scaled to [0, 1] under the canonical
seven-class label order; batching is deterministic given an RNG seed.  The
loaders trust a checked `ModelConfig` for the geometry they fit samples to
(its `input_size`, and an `input_channels` of 1 or 3) and re-check neither.

A CSV split is read one line at a time and held as uint8 rasters
(`RasterSample`), one byte a pixel, which `adapt_manifest` re-tags with the
model's geometry; a sample is fitted each time its `pixels` is read, so
`make_batches` fits a batch at a time.  Pixmap samples are fitted at load.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError

#: Canonical class order; index i <-> CLASS_NAMES[i] everywhere in the package.
CLASS_NAMES = ("Angry", "Disgust", "Fear", "Happy", "Neutral", "Sad", "Surprise")
CLASS_INDEX = {name: i for i, name in enumerate(CLASS_NAMES)}


def class_names_for(num_classes: int) -> tuple[str, ...]:
    """Names of a k-class model's outputs: the first k of `CLASS_NAMES`, or
    ``class0`` ... ``class{k-1}`` when k exceeds them."""
    if num_classes <= len(CLASS_NAMES):
        return CLASS_NAMES[:num_classes]
    return tuple(f"class{i}" for i in range(num_classes))


#: The CSV corpus encodes labels in its own order (0 Angry, 1 Disgust, 2 Fear,
#: 3 Happy, 4 Sad, 5 Surprise, 6 Neutral); this table translates each native
#: label to the canonical index above.
FER_NATIVE_REMAP = {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 4}

FER_HEADER = "emotion,pixels,Usage"
FER_PIXELS = 48 * 48
#: The index file at the root of a pixmap directory (`load_image_dir`).
MANIFEST = "manifest.tsv"

#: Published per-class train/test counts for the three reference corpora,
#: in canonical class order.  Loaders report agreement; they never enforce it.
PUBLISHED_CLASS_COUNTS = {
    ("fer2013", "train"): (3995, 436, 4097, 7215, 4965, 4830, 3171),
    ("fer2013", "test"): (491, 416, 626, 594, 528, 879, 55),
    ("rafdb", "train"): (705, 717, 281, 4772, 2524, 1982, 1290),
    ("rafdb", "test"): (162, 160, 74, 1185, 680, 478, 329),
    ("affectnet", "train"): (24882, 3803, 6378, 134415, 74874, 25459, 14090),
    ("affectnet", "test"): (500, 500, 500, 500, 500, 500, 500),
}


@dataclass
class Sample:
    """One labeled image: channel-first pixels in [0, 1] plus provenance."""

    pixels: np.ndarray  # (C, H, W)
    label: int
    source_id: str


class RasterSample(Sample):
    """A sample held as its uint8 raster, fitted each time `pixels` is read.

    `pixels` is ``_fit_planes(levels[raster], size, channels, source_id,
    dtype)``: `levels` maps each 8-bit value to its scaled pixel, and the fit
    resizes and replicates to the target geometry in `dtype`.  Nothing is
    cached, so the sample holds one byte a pixel whatever its geometry."""

    def __init__(self, raster: np.ndarray, levels: np.ndarray, size: int,
                 channels: int, dtype, label: int, source_id: str):
        self.raster = raster      # (C, H, W) uint8
        self.levels = levels      # (256,) pixel value of each 8-bit level
        self.size = size
        self.channels = channels
        self.dtype = dtype
        self.label = label
        self.source_id = source_id

    @property
    def pixels(self) -> np.ndarray:
        return _fit_planes(self.levels[self.raster], self.size, self.channels,
                           self.source_id, self.dtype)


@dataclass
class DatasetManifest:
    """A loaded split: samples, their per-class tally, and identity."""

    name: str
    split: str
    samples: list[Sample]
    class_counts: np.ndarray

    @classmethod
    def from_samples(cls, name: str, split: str,
                     samples: list[Sample]) -> "DatasetManifest":
        counts = np.bincount([s.label for s in samples],
                             minlength=len(CLASS_NAMES))
        return cls(name=name, split=split, samples=samples,
                   class_counts=counts.astype(np.int64))

    def __len__(self) -> int:
        return len(self.samples)


def _check_split(split: str) -> str:
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    return split


# ---------------------------------------------------------------------------
# CSV corpus
# ---------------------------------------------------------------------------

def _decode_error(err: UnicodeDecodeError, offset: int) -> str:
    """`err`'s text, worded as ``str(err)``, with its byte positions moved
    on by `offset`."""
    first, last = offset + err.start, offset + err.end - 1
    where = (f"byte 0x{err.object[err.start]:02x} in position {first}" if first == last
             else f"bytes in position {first}-{last}")
    return f"'{err.encoding}' codec can't decode {where}: {err.reason}"


def _text_lines(path: Path):
    """Yield (line number, line) of a UTF-8 file, a leading BOM dropped,
    holding one line of it at a time.

    The lines, their numbers and a decode error's text are those of
    ``path.read_text(encoding="utf-8-sig").splitlines()``: the bytes are cut
    at each LF, which no multibyte character holds, and each piece is split
    again where `str.splitlines` splits (CR, CRLF, form feed, ...).  A byte
    position counts from the first byte after the BOM.  A read or decode
    error is a `DataError`."""
    ln = done = 0  # lines yielded; bytes decoded before this piece
    try:
        with open(path, "rb") as handle:
            for piece, raw in enumerate(handle):
                if piece == 0 and codecs.BOM_UTF8.startswith(raw[:3]):
                    raw = raw[3:]  # a BOM, or a file of part of one (read as empty)
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise DataError(f"cannot read dataset file {path}: "
                                    f"{_decode_error(err, done)}") from None
                done += len(raw)
                for line in text.splitlines():
                    ln += 1
                    yield ln, line
    except OSError as err:
        raise DataError(f"cannot read dataset file {path}: {err}") from None


def load_fer_csv(path, split_filter: str) -> DatasetManifest:
    """Load one split of the CSV corpus.

    Rows carry ``native-label,pixel-string,usage``; usage ``Training`` feeds
    the train split, ``PublicTest`` and ``PrivateTest`` both feed the test
    split.  Native labels are translated through `FER_NATIVE_REMAP`.  Any
    malformed row fails the load with its line number.

    The file is read one line at a time.  Each row of the split is kept as
    a `RasterSample` of its (1, 48, 48) uint8 raster, which reads as 48x48x1
    pixels in the element type in effect here until `adapt_manifest`
    re-tags it: the 8-bit values times ``1/255`` in float64, cast to that
    type, the bits a whole-file read gave.  Faults are reported in file
    order, so a malformed header or row is reported before a decode error in
    a later line.
    """
    _check_split(split_filter)
    path = Path(path)
    lines = _text_lines(path)
    first = next(lines, None)
    if first is None or first[1].strip() != FER_HEADER:
        got = first[1].strip() if first else "<empty file>"
        raise DataError(f"{path}: line 1: expected header {FER_HEADER!r}, got {got!r}")

    dtype = ad.default_dtype()
    levels = (np.arange(256) * (1.0 / 255.0)).astype(dtype)
    samples: list[Sample] = []
    for ln, line in lines:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}: line {ln}: expected 3 fields, got {len(parts)}")
        raw_label, pixel_field, usage = parts[0].strip(), parts[1], parts[2].strip()
        if usage == "Training":
            row_split = "train"
        elif usage in ("PublicTest", "PrivateTest"):
            row_split = "test"
        else:
            raise DataError(f"{path}: line {ln}: unknown usage value {usage!r}")
        if row_split != split_filter:
            continue
        try:
            native = int(raw_label)
        except ValueError:
            raise DataError(f"{path}: line {ln}: label {raw_label!r} is not an integer")
        if native not in FER_NATIVE_REMAP:
            raise DataError(f"{path}: line {ln}: label {native} outside 0-6")
        try:
            values = np.array(pixel_field.split(), dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}: line {ln}: non-numeric pixel value")
        if values.size != FER_PIXELS:
            raise DataError(
                f"{path}: line {ln}: expected {FER_PIXELS} pixels, got {values.size}")
        if ((values < 0) | (values > 255)).any() or (values != np.floor(values)).any():
            raise DataError(f"{path}: line {ln}: pixels must be integers in 0-255")
        samples.append(RasterSample(values.reshape(1, 48, 48).astype(np.uint8), levels,
                                    48, 1, dtype, label=FER_NATIVE_REMAP[native],
                                    source_id=f"{path.name}#L{ln}"))
    return DatasetManifest.from_samples(path.stem, split_filter, samples)


# ---------------------------------------------------------------------------
# Pixmap corpus
# ---------------------------------------------------------------------------

def decode_pixmap(data: bytes, source: str = "<bytes>") -> np.ndarray:
    """Decode a binary portable pixmap into (H, W) or (H, W, 3) uint8.

    Accepts P5 (grayscale) and P6 (color) with maxval 255.  Header tokens may
    be separated by any whitespace and interleaved with ``#`` comments; the
    raster starts one byte after the maxval token.
    """
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise DataError(f"{source}: not a binary pixmap (P5/P6 magic missing)")
    color = data[:2] == b"P6"

    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise DataError(f"{source}: truncated pixmap header")
        byte = data[pos]
        if byte in b" \t\r\n":
            pos += 1
        elif byte in b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and data[pos] not in b" \t\r\n#":
                pos += 1
            token = data[start:pos]
            if not token.isdigit():
                raise DataError(f"{source}: bad header token {token!r}")
            tokens.append(int(token))
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise DataError(f"{source}: bad pixmap dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{source}: unsupported maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise DataError(f"{source}: missing whitespace after pixmap header")
    pos += 1  # exactly one separator byte, then the raster

    channels = 3 if color else 1
    expected = width * height * channels
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise DataError(
            f"{source}: raster holds {len(raster)} bytes but header "
            f"{width}x{height}x{channels} needs {expected}")
    array = np.frombuffer(raster, dtype=np.uint8)
    if color:
        return array.reshape(height, width, 3)
    return array.reshape(height, width)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear interpolation of an (H, W) float image.

    Source coordinate for output index i is ``i * (in - 1) / (out - 1)``;
    a single-row/column output samples the center ``(in - 1) / 2``.  Corner
    pixels map exactly onto corner pixels, which keeps the operation
    reproducible from the formula alone.
    """
    if image.ndim != 2:
        raise DataError(f"bilinear_resize expects a 2-D image, got shape {image.shape}")
    if out_h < 1 or out_w < 1:
        raise DataError(f"bilinear_resize target must be positive, got {out_h}x{out_w}")
    h, w = image.shape
    sy = (np.arange(out_h) * (h - 1) / (out_h - 1)) if out_h > 1 else \
        np.array([(h - 1) / 2.0])
    sx = (np.arange(out_w) * (w - 1) / (out_w - 1)) if out_w > 1 else \
        np.array([(w - 1) / 2.0])
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[:, None]
    fx = (sx - x0)[None, :]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bottom = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


def _fit_planes(planes: np.ndarray, target_size: int, channels: int,
                source: str, dtype) -> np.ndarray:
    """(C, H, W) planes -> (channels, target, target) in `dtype`.  Each plane
    is resized once, in float64; grayscale is then replicated when color is
    asked.  Planes that already fit are returned uncopied: nothing writes
    sample pixels in place (the flip builds a new array, `make_batches`
    stacks copies).  A target size numpy refuses to allocate is a `DataError`.
    Pixmaps are fitted here once, at load; a `RasterSample` at each read of
    its `pixels`, so in `make_batches` one batch at a time."""
    if planes.shape[0] == 3 and channels == 1:
        raise DataError(f"{source}: color image cannot feed a single-channel model")
    if planes.shape[1:] != (target_size, target_size):
        try:
            planes = np.stack([
                bilinear_resize(plane.astype(np.float64), target_size, target_size)
                for plane in planes
            ])
        except DataError:
            raise
        except (ValueError, MemoryError) as err:  # numpy's refusal of an array size
            raise DataError(f"{source}: cannot resize to {target_size}x{target_size}: "
                            f"{err}") from None
    pixels = planes.astype(dtype, order="C", copy=False)
    if len(pixels) < channels:
        pixels = np.repeat(pixels, channels, axis=0)
    return pixels


def _read_image(path: Path, target_size: int, channels: int, dtype) -> np.ndarray:
    """One pixmap file -> (channels, target, target) pixels in [0, 1]."""
    try:
        blob = path.read_bytes()
    except OSError as err:
        raise DataError(f"cannot read image {path}: {err}") from None
    scaled = decode_pixmap(blob, source=str(path)).astype(np.float64) / 255.0
    planes = scaled[None] if scaled.ndim == 2 else scaled.transpose(2, 0, 1)
    return _fit_planes(planes, target_size, channels, str(path), dtype)


def load_image_dir(root, split: str, target_size: int, channels: int) -> DatasetManifest:
    """Load the pixmap samples listed in ``root / MANIFEST``.

    Each manifest line is ``relative-path<TAB>class-name`` (UTF-8, LF).
    Images are decoded in manifest order, rescaled to [0, 1], bilinearly
    resized to ``target_size``, and grayscale images are replicated across
    channels when a color model is configured.

    Unlike a CSV row, each image is fitted here, at load, and kept fitted:
    a pixmap's native raster can outweigh its fitted array (a 224x224x3
    image is 150 KB as uint8, 49 KB fitted to 64x64x3 in float32).
    """
    _check_split(split)
    root = Path(root)
    manifest_file = root / MANIFEST
    try:
        lines = manifest_file.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read manifest {manifest_file}: {err}") from None

    entries: list[tuple[str, int]] = []
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(
                f"{manifest_file}: line {ln}: expected 'path<TAB>class-name'")
        rel, class_name = line.split("\t", 1)
        rel, class_name = rel.strip(), class_name.strip()
        if Path(rel).is_absolute():
            raise DataError(f"{manifest_file}: line {ln}: image path {rel!r} must be "
                            f"relative to the split directory")
        if class_name not in CLASS_INDEX:
            raise DataError(
                f"{manifest_file}: line {ln}: unknown class name {class_name!r}")
        entries.append((rel, CLASS_INDEX[class_name]))

    dtype = ad.default_dtype()
    samples = [Sample(pixels=_read_image(root / rel, target_size, channels, dtype),
                      label=label, source_id=rel)
               for rel, label in entries]
    return DatasetManifest.from_samples(root.name, split, samples)


def load_single_image(path, target_size: int, channels: int) -> Sample:
    """Decode one pixmap file into a model-ready sample (label -1: unknown)."""
    path = Path(path)
    pixels = _read_image(path, target_size, channels, ad.default_dtype())
    return Sample(pixels=pixels, label=-1, source_id=str(path))


def adapt_manifest(manifest: DatasetManifest, target_size: int,
                   channels: int) -> DatasetManifest:
    """A `load_fer_csv` manifest at a model's input geometry (resize +
    channel replication) in the element type in effect.  Each `RasterSample`
    is only re-tagged, sharing its raster, label and provenance, and is
    fitted when its `pixels` is read."""
    dtype = ad.default_dtype()
    samples = [RasterSample(s.raster, s.levels, target_size, channels, dtype,
                            s.label, s.source_id)
               for s in manifest.samples]
    return DatasetManifest(name=manifest.name, split=manifest.split,
                           samples=samples,
                           class_counts=manifest.class_counts.copy())


# ---------------------------------------------------------------------------
# Augmentation and batching
# ---------------------------------------------------------------------------

def random_horizontal_flip(sample: Sample, rng: np.random.Generator,
                           p: float = 0.5) -> Sample:
    """Mirror the image left-right with probability p (always one RNG draw)."""
    if rng.random() >= p:
        return sample
    flipped = np.ascontiguousarray(sample.pixels[:, :, ::-1])
    return Sample(pixels=flipped, label=sample.label, source_id=sample.source_id)


def fisher_yates_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform permutation, built by explicit backward swaps
    (n - 1 integer draws)."""
    order = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def make_batches(manifest: DatasetManifest, batch_size: int,
                 rng: np.random.Generator | None, shuffle: bool, transform=None):
    """Yield (pixels Tensor[B,C,H,W], labels int array) covering the manifest
    exactly once.

    Shuffling applies a Fisher-Yates permutation drawn from `rng`, which is
    not read (and may be None) without shuffling; the final short batch is
    kept.  `transform`, when given, maps each Sample just before stacking
    (the hook the flip augmentation uses).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(manifest.samples)
    if n == 0:
        raise DataError(f"dataset {manifest.name!r} ({manifest.split}) is empty")
    order = fisher_yates_permutation(n, rng) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        chosen = [manifest.samples[i] for i in order[start:start + batch_size]]
        if transform is not None:
            chosen = [transform(s) for s in chosen]
        pixels = Tensor(np.stack([s.pixels for s in chosen]))
        labels = np.array([s.label for s in chosen], dtype=np.int64)
        yield pixels, labels


# ---------------------------------------------------------------------------
# Published-count reporting
# ---------------------------------------------------------------------------

def published_counts(name: str, split: str) -> tuple[int, ...] | None:
    """Reference per-class counts for a known corpus/split, if any; a name
    matches by its lowercased letters and digits ("RAF-DB" is "rafdb")."""
    key = "".join(ch for ch in name.lower() if ch.isalnum())
    return PUBLISHED_CLASS_COUNTS.get((key, split))


def count_report(manifest: DatasetManifest) -> list[str]:
    """Human-readable comparison of loaded counts against the reference
    table; differences are reported, never enforced."""
    lines = [f"{manifest.name} ({manifest.split}): "
             f"{int(manifest.class_counts.sum())} samples"]
    reference = published_counts(manifest.name, manifest.split)
    for i, name in enumerate(CLASS_NAMES[:len(manifest.class_counts)]):
        loaded = int(manifest.class_counts[i])
        if reference is None:
            lines.append(f"  {name:<9} {loaded}")
        else:
            mark = "ok" if loaded == reference[i] else \
                f"DIFFERS (published {reference[i]})"
            lines.append(f"  {name:<9} {loaded:>7}  {mark}")
    return lines
