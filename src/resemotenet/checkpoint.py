"""Versioned binary checkpoints.

Layout (documented byte-exactly in docs/checkpoint-format.md):

    bytes 0..3    magic ``REMN``
    bytes 4..7    format version, little-endian u32 (currently 1)
    bytes 8..15   JSON header length H, little-endian u64
    bytes 16..    UTF-8 JSON header (H bytes)
    then          payload: concatenated raw little-endian tensor buffers

The JSON header carries the architecture config snapshot, epoch counter, best
metric, optimizer/scheduler state, the data-order RNG state, and a tensor
directory of (name, dtype, shape, offset, length, crc32) entries.  Offsets are
relative to the payload start.  Every buffer is CRC-checked on load, so any
flipped byte surfaces as an integrity error naming the tensor.

Saving is atomic: the bytes land in a temporary sibling file which is then
renamed over the target.  A tensor holding NaN or infinity is refused before
any file is created.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CheckpointError
# `build_model` is not called here, but stays a name of this module:
# perfbench's span tracer wraps `checkpoint.build_model`
from .model import ModelConfig, ResEmoteNetModel, build_model  # noqa: F401
from .optim import PlateauScheduler, SgdState

MAGIC = b"REMN"
FORMAT_VERSION = 1

_DTYPE_CODES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}


def _little_endian(arr: np.ndarray) -> tuple[np.ndarray, str]:
    if arr.dtype == np.float64:
        code = "<f8"
    elif arr.dtype == np.float32:
        code = "<f4"
    else:
        raise CheckpointError(f"unsupported tensor dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.dtype(code)), code


def _bytes_of(arr: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, without a copy."""
    return memoryview(arr.reshape(-1)).cast("B")


@dataclass
class LoadedCheckpoint:
    """Everything a checkpoint restores.  `optimizer`, `scheduler`, and
    `rng_state` are None for inference-only files."""

    model: ResEmoteNetModel
    optimizer: SgdState | None
    scheduler: PlateauScheduler | None
    epoch: int
    best_metric: float
    rng_state: dict | None


def save(model: ResEmoteNetModel, optimizer: SgdState | None,
         scheduler: PlateauScheduler | None, epoch: int, path,
         rng_state: dict | None = None, best_metric: float | None = None) -> None:
    """Write the full training state (or just the model, for inference
    checkpoints) to `path` atomically.  A non-finite tensor (model or
    velocity) raises `CheckpointError` naming it and its first bad flat index;
    nothing is written then."""
    path = Path(path)
    tensors: list[tuple[str, np.ndarray]] = [
        (f"model.{name}", arr) for name, arr in model.state_tensors().items()
    ]
    if optimizer is not None:
        tensors.extend(
            (f"velocity.{name}", arr) for name, arr in sorted(optimizer.velocity.items())
        )

    # each buffer is the tensor's own memory (copied only when it is not
    # contiguous little-endian), checked finite, checksummed and written
    # through a memoryview
    directory = []
    buffers = []
    offset = 0
    for name, arr in tensors:
        buf, code = _little_endian(arr)
        if not (np.isfinite(buf.min()) and np.isfinite(buf.max())):
            flat = buf.reshape(-1)
            bad = int(np.flatnonzero(~np.isfinite(flat))[0])
            raise CheckpointError(
                f"refusing to write checkpoint {path}: tensor {name!r} is "
                f"non-finite (flat index {bad} is {flat[bad]})")
        view = _bytes_of(buf)
        directory.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "length": view.nbytes,
            "crc32": zlib.crc32(view) & 0xFFFFFFFF,
        })
        buffers.append(view)
        offset += view.nbytes

    header: dict[str, Any] = {
        "config": dataclasses.asdict(model.config),
        "epoch": int(epoch),
        "best_metric": float(best_metric) if best_metric is not None else None,
        "optimizer": _section(optimizer, _OPTIMIZER_FIELDS),
        "scheduler": _section(scheduler, _SCHEDULER_FIELDS),
        "rng_state": rng_state,
        "tensors": directory,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", FORMAT_VERSION))
                fh.write(struct.pack("<Q", len(header_bytes)))
                fh.write(header_bytes)
                for view in buffers:
                    fh.write(view)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as err:
        raise CheckpointError(f"cannot write checkpoint {path}: {err}") from None


# JSON types a header field may take; true/false never count as integers
_INT, _STR, _LIST, _NUMBER = (int,), (str,), (list,), (int, float)
_OBJECT_OR_NULL, _NUMBER_OR_NULL = (dict, type(None)), (int, float, type(None))
_JSON_NAMES = {dict: "an object", list: "an array", int: "an integer",
               float: "a number", str: "a string", bool: "a boolean",
               type(None): "null"}
_HEADER_FIELDS = {"config": (dict,), "epoch": _INT, "best_metric": _NUMBER_OR_NULL,
                  "optimizer": _OBJECT_OR_NULL, "scheduler": _OBJECT_OR_NULL,
                  "rng_state": _OBJECT_OR_NULL, "tensors": _LIST}
_OPTIMIZER_FIELDS = {"lr": _NUMBER, "momentum": _NUMBER, "weight_decay": _NUMBER}
_SCHEDULER_FIELDS = {"factor": _NUMBER, "patience": _INT, "min_lr": _NUMBER,
                     "mode": _STR, "best_metric": _NUMBER_OR_NULL,
                     "epochs_since_improve": _INT}
_TENSOR_FIELDS = {"name": _STR, "dtype": _STR, "shape": _LIST, "offset": _INT,
                  "length": _INT, "crc32": _INT}


def _section(state, field_names) -> dict | None:
    """An optimizer or scheduler as its header object (None stays null);
    an unset scheduler best metric (-inf) is written as null."""
    if state is None:
        return None
    return {key: None if getattr(state, key) == -np.inf else getattr(state, key)
            for key in field_names}


def _from_section(section: dict | None, cls, field_names):
    """The inverse of `_section`: null reads back as -inf."""
    if section is None:
        return None
    return cls(**{key: -np.inf if section[key] is None else section[key]
                  for key in field_names})


def _is(value, kinds: tuple) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _like(value, default, nested: bool = False) -> bool:
    """Whether a JSON value has the form of a config default: an integer, or
    an array of values like the default's first item.  An array inside an
    array (a residual triple) must also have that item's length."""
    if isinstance(default, tuple):
        return (isinstance(value, list)
                and (not nested or len(value) == len(default))
                and all(_like(v, default[0], nested=True) for v in value))
    return _is(value, _INT)


def _check_header(header, path: Path) -> None:
    """Reject a header of the wrong form before any of its fields is used;
    each error names the offending field."""
    def fail(field: str, problem: str):
        raise CheckpointError(f"{path}: header field '{field}' {problem}")

    def check_fields(obj, fields: dict, where: str) -> None:
        if not isinstance(obj, dict):
            what = f"header field '{where[:-1]}'" if where else "header"
            raise CheckpointError(
                f"{path}: {what} must be a JSON object, got {_JSON_NAMES[type(obj)]}")
        for key, kinds in fields.items():
            if key not in obj:
                fail(where + key, "is missing")
            if not _is(obj[key], kinds):
                fail(where + key, f"must be {' or '.join(_JSON_NAMES[k] for k in kinds)}, "
                     f"got {_JSON_NAMES[type(obj[key])]}")

    check_fields(header, _HEADER_FIELDS, "")
    config = header["config"]
    for f in dataclasses.fields(ModelConfig):
        if f.name not in config:
            fail(f"config.{f.name}", "is missing")
        if not _like(config[f.name], f.default):
            form = (f"an array like {json.dumps(f.default)}"
                    if isinstance(f.default, tuple) else "an integer")
            fail(f"config.{f.name}", f"must be {form}, got {json.dumps(config[f.name])}")
    for section, fields in (("optimizer", _OPTIMIZER_FIELDS),
                            ("scheduler", _SCHEDULER_FIELDS)):
        if header[section] is not None:
            check_fields(header[section], fields, f"{section}.")
    if header["rng_state"] is not None:
        try:  # training restores it into a PCG64 generator
            np.random.PCG64().state = header["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            fail("rng_state", f"is not a PCG64 generator state "
                 f"({type(err).__name__}: {err})")
    for i, entry in enumerate(header["tensors"]):
        check_fields(entry, _TENSOR_FIELDS, f"tensors[{i}].")
        if not all(_is(d, _INT) and d >= 0 for d in entry["shape"]):
            fail(f"tensors[{i}].shape", "must list non-negative integers, got "
                 f"{json.dumps(entry['shape'])}")


def _validate_directory(directory: list[dict], payload_size: int, path: Path) -> None:
    seen = set()
    spans = []
    for entry in directory:
        name = entry["name"]
        if name in seen:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice in the directory")
        seen.add(name)
        dtype = _DTYPE_CODES.get(entry["dtype"])
        if dtype is None:
            raise CheckpointError(
                f"{path}: tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        shape = tuple(entry["shape"])
        if math.prod(shape) * dtype.itemsize != entry["length"]:
            raise CheckpointError(
                f"{path}: tensor {name!r} length {entry['length']} does not "
                f"match shape {shape}")
        off, length = entry["offset"], entry["length"]
        if off < 0 or off + length > payload_size:
            raise CheckpointError(
                f"{path}: tensor {name!r} spans [{off}, {off + length}) outside the "
                f"{payload_size}-byte payload")
        spans.append((off, off + length, name))
    spans.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise CheckpointError(
                f"{path}: tensors {name_a!r} and {name_b!r} overlap in the payload")


def _read_tensor(fh, payload_start: int, entry: dict, dest: np.ndarray,
                 path: Path) -> None:
    """Stream one tensor from the file into `dest`, checking its CRC.

    The bytes land in `dest` itself when it is contiguous in the file's
    dtype, else in a fresh array of that dtype which is then converted into
    `dest`."""
    name = entry["name"]
    dtype = _DTYPE_CODES[entry["dtype"]]
    in_place = dest.dtype == dtype and dest.flags.c_contiguous
    buf = dest if in_place else np.empty(dest.shape, dtype=dtype)
    view = _bytes_of(buf)
    fh.seek(payload_start + entry["offset"])
    got = fh.readinto(view)
    if got != entry["length"]:
        raise CheckpointError(
            f"{path}: tensor {name!r} is truncated: read {got} of "
            f"{entry['length']} bytes")
    if (zlib.crc32(view) & 0xFFFFFFFF) != entry["crc32"]:
        raise CheckpointError(f"{path}: checksum mismatch for tensor {name!r}")
    if not in_place:
        dest[...] = buf


def load(path, expected_config: ModelConfig | None = None) -> LoadedCheckpoint:
    """Read a checkpoint back into a freshly built model plus training state.

    When `expected_config` is given, every architecture field must match the
    file's snapshot; the first differing field is named in the error.  Without
    it the file's own config is used.  Files written without optimizer state
    load fine for inference; their `optimizer`/`scheduler` are None.

    Only the preamble and header are read before validation: the header's
    form, the tensor directory, and every tensor's name and shape against the
    model built from the embedded config.  That model's weights are not
    drawn, only allocated.  Tensors then stream straight into the model's
    own arrays (velocity into fresh ones, in the parameter's dtype), each
    CRC-checked as it lands; no model is returned unless every check passes.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _load_from(fh, path, expected_config)
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from None


def _load_from(fh, path: Path,
               expected_config: ModelConfig | None) -> LoadedCheckpoint:
    preamble = fh.read(16)
    if len(preamble) < 16 or preamble[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (magic mismatch)")
    (version,) = struct.unpack("<I", preamble[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected "
            f"{FORMAT_VERSION})")
    (header_len,) = struct.unpack("<Q", preamble[8:16])
    payload_start = 16 + header_len
    file_size = os.fstat(fh.fileno()).st_size
    if payload_start > file_size:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: corrupt header: {err}") from None
    _check_header(header, path)
    directory = header["tensors"]
    _validate_directory(directory, file_size - payload_start, path)

    file_config = ModelConfig(**{f.name: header["config"][f.name]
                                 for f in dataclasses.fields(ModelConfig)})
    if expected_config is not None:
        for field in dataclasses.fields(ModelConfig):
            a = getattr(file_config, field.name)
            b = getattr(expected_config, field.name)
            if a != b:
                raise CheckpointError(
                    f"{path}: config field '{field.name}' is {a!r} in the "
                    f"file but {b!r} was expected")

    optimizer = _from_section(header["optimizer"], SgdState, _OPTIMIZER_FIELDS)
    scheduler = _from_section(header["scheduler"], PlateauScheduler,
                              _SCHEDULER_FIELDS)

    # no initial draw: the checks above and below run before any read, and
    # every model tensor must be in the file, so each one is overwritten
    model = ResEmoteNetModel(file_config, rng=None)
    # where each stored tensor goes; velocity only when there is an optimizer
    slots = {f"model.{name}": arr for name, arr in model.state_tensors().items()}
    expected_names = set(slots)
    if optimizer is not None:
        slots.update((f"velocity.{name}", p.data) for name, p in model.named_parameters())
    for entry in directory:
        name = entry["name"]
        if name not in slots:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        shape = tuple(entry["shape"])
        if shape != slots[name].shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape} but the "
                f"model expects {slots[name].shape}")
    missing = expected_names - {entry["name"] for entry in directory}
    if missing:
        raise CheckpointError(
            f"{path}: missing model tensors: {sorted(missing)[:3]}"
            + ("..." if len(missing) > 3 else ""))

    for entry in directory:
        name = entry["name"]
        dest = slots[name]
        if name.startswith("velocity."):
            dest = optimizer.velocity[name[len("velocity."):]] = np.empty_like(dest)
        _read_tensor(fh, payload_start, entry, dest, path)

    best = header["best_metric"]
    return LoadedCheckpoint(
        model=model,
        optimizer=optimizer,
        scheduler=scheduler,
        epoch=header["epoch"],
        best_metric=-np.inf if best is None else float(best),
        rng_state=header["rng_state"],
    )
