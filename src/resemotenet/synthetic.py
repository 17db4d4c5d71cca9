"""Deterministic synthetic image fixtures.

Each class is a radial sinusoid with its own frequency and phase, measured
from the image center, plus seeded pixel noise.  Radial patterns are invariant
under left-right mirroring, so horizontal-flip augmentation keeps every sample
inside its own class distribution — the fixture stays learnable with the
training-time augmentation enabled.

These fixtures feed unit tests, the acceptance suite, and the demo scripts;
`write_fer_csv` / `write_pixmap_dir` serialize them into the two on-disk
layouts the loaders understand.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import (CLASS_NAMES, FER_HEADER, FER_NATIVE_REMAP, MANIFEST,
                   DatasetManifest, Sample)

#: canonical -> native CSV label (inverse of the loader's remap table)
_CANONICAL_TO_NATIVE = {canon: native for native, canon in FER_NATIVE_REMAP.items()}
#: the decimal text of every 8-bit pixel value, indexed by the value
_PIXEL_TEXT = [str(v) for v in range(256)]


def class_pattern(label: int, size: int) -> np.ndarray:
    """The noise-free prototype image for one class, values in [0.1, 0.9]."""
    center = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    radius = np.hypot(yy - center, xx - center)
    freq = 0.35 + 0.28 * label
    phase = 0.9 * label
    return 0.5 + 0.4 * np.sin(freq * radius + phase)


def make_synthetic_manifest(per_class: int = 8, size: int = 64, channels: int = 3,
                            num_classes: int = 7, seed: int = 0,
                            split: str = "train",
                            name: str = "synthetic") -> DatasetManifest:
    """Build an in-memory dataset of radial-pattern classes.

    Per-sample variation is additive seeded noise (sigma 0.04) plus a small
    brightness offset, clipped back into [0, 1].  A count or size below 1
    raises `ValueError` naming the argument.
    """
    if num_classes < 2 or num_classes > len(CLASS_NAMES):
        raise ValueError(f"num_classes must be in [2, {len(CLASS_NAMES)}]")
    for arg, value in (("per_class", per_class), ("size", size), ("channels", channels)):
        if value < 1:
            raise ValueError(f"{arg} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    dtype = ad.default_dtype()
    samples = []
    for label in range(num_classes):
        base = class_pattern(label, size)
        for k in range(per_class):
            image = base + 0.04 * rng.standard_normal((size, size))
            image += rng.uniform(-0.05, 0.05)
            image = np.clip(image, 0.0, 1.0)
            pixels = np.repeat(image[None, :, :], channels, axis=0).astype(dtype)
            samples.append(Sample(pixels=pixels, label=label,
                                  source_id=f"{name}/{CLASS_NAMES[label]}/{k}"))
    return DatasetManifest.from_samples(name, split, samples)


def write_fer_csv(path, manifests: dict[str, DatasetManifest]) -> Path:
    """Serialize manifests into the CSV corpus layout.

    `manifests` maps split name to manifest; train rows get usage
    ``Training``, test rows ``PublicTest``.  Pixels are quantized to 8 bits;
    samples must be single-channel 48x48 (the layout's fixed geometry).

    The text is UTF-8: the header ``emotion,pixels,Usage``, then one row
    per sample, ``<native label>,<pixels>,<usage>``, where the pixels are
    the 2304 values in row-major order, in decimal without padding, one
    space apart.  Every line, the last included, ends in ``\n``.  A bad
    sample raises `ValueError` before any file is written; the rows are then
    written one at a time.
    """
    path = Path(path)
    usage_of = {"train": "Training", "test": "PublicTest"}
    splits = [(usage_of[split], manifest) for split, manifest in manifests.items()]
    for _, manifest in splits:
        for sample in manifest.samples:
            c, h, w = sample.pixels.shape
            if (c, h, w) != (1, 48, 48):
                raise ValueError(
                    f"CSV layout is 1x48x48; sample {sample.source_id} is "
                    f"{c}x{h}x{w}")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(FER_HEADER + "\n")
        for usage, manifest in splits:
            for sample in manifest.samples:
                quantized = np.rint(sample.pixels * 255).astype(np.uint8).reshape(-1)
                text = " ".join([_PIXEL_TEXT[v] for v in quantized.tolist()])
                out.write(f"{_CANONICAL_TO_NATIVE[sample.label]},{text},{usage}\n")
    return path


def write_pixmap_dir(root, manifest: DatasetManifest, color: bool = True) -> Path:
    """Serialize a manifest into a pixmap directory plus index file.

    Writes one binary P6 (or P5 when ``color=False``) file per sample under
    per-class subdirectories, and a tab-separated `MANIFEST` file mapping
    each relative path to its class name.  Returns the index path.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for label in {sample.label for sample in manifest.samples}:
        (root / CLASS_NAMES[label]).mkdir(exist_ok=True)
    index_lines = []
    for i, sample in enumerate(manifest.samples):
        c, h, w = sample.pixels.shape
        class_name = CLASS_NAMES[sample.label]
        if color:
            if c == 1:
                planes = np.repeat(sample.pixels, 3, axis=0)
            else:
                planes = sample.pixels
            raster = np.rint(planes * 255).astype(np.uint8)
            body = raster.transpose(1, 2, 0).tobytes()  # interleaved RGB
            rel = f"{class_name}/{i:05d}.ppm"
            header = f"P6\n{w} {h}\n255\n".encode()
        else:
            raster = np.rint(sample.pixels[0] * 255).astype(np.uint8)
            body = raster.tobytes()
            rel = f"{class_name}/{i:05d}.pgm"
            header = f"P5\n{w} {h}\n255\n".encode()
        (root / rel).write_bytes(header + body)
        index_lines.append(f"{rel}\t{class_name}")
    index = root / MANIFEST
    index.write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    return index
