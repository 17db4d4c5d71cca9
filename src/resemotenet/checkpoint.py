"""Versioned binary checkpoints.

Layout (documented byte-exactly in docs/checkpoint-format.md):

    bytes 0..3    magic ``REMN``
    bytes 4..7    format version, little-endian u32 (currently 1)
    bytes 8..15   JSON header length H, little-endian u64
    bytes 16..    UTF-8 JSON header (H bytes)
    then          payload: concatenated raw little-endian tensor buffers

The JSON header carries the architecture config snapshot, epoch counter, best
metric, optimizer/scheduler state, the data-order RNG state, and a tensor
directory of (name, dtype, shape, offset, length, crc32) entries, all of one
dtype.  Offsets are relative to the payload start.  Every buffer is CRC-checked
on load, so any flipped byte surfaces as an integrity error naming the tensor.
Tensors are stored in their declared shapes.  A conv whose outer taps read
only padding at the configured input size is built as the smaller conv it
computes (`ResEmoteNetModel.live_windows`); its weight and velocity are
written as the declared (Cout, Cin, kh, kw) tensor, with +0.0 on the taps
outside the window, and `load` keeps the window alone.  Every tensor, in
both directions, streams through `_blocks` in blocks of rows of its
declared shape: views of its own array, or for such a conv one reused
buffer, so no second copy of a tensor is ever held.

Saving is atomic: the bytes land in a temporary sibling file which is then
renamed over the target.  A tensor holding NaN or infinity, or a header value
`load` would refuse, is refused before any file is created.
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

from .autodiff import using_dtype
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, ResEmoteNetModel, build_model
from .optim import PlateauScheduler, SgdState, zero_velocity

MAGIC = b"REMN"
FORMAT_VERSION = 1

_DTYPE_CODES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}

#: elements per block in which `save` and `load` stream every tensor
#: (256 KiB in float32): small beside the model, so the one buffer a conv
#: built smaller goes through holds no second copy of its weight
WINDOW_BLOCK = 1 << 16


def _little_endian(arr: np.ndarray) -> tuple[np.ndarray, str]:
    code = arr.dtype.newbyteorder("<").str
    if code not in _DTYPE_CODES:
        raise CheckpointError(f"unsupported tensor dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]), code


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
    checkpoints) to `path` atomically.  Nothing is written when a tensor is
    non-finite or a header value is one `load` refuses: `CheckpointError`
    names the tensor and its first bad flat index, or the field."""
    path = Path(path)
    # each tensor streams in blocks of its declared shape (`_blocks`), from
    # its own memory (copied only when it is not contiguous little-endian);
    # each block is checked finite and checksummed, and written through a
    # memoryview, so a non-finite index is already the declared one
    stored = _stored(model, {} if optimizer is None else optimizer.velocity)
    directory = []
    streams = []
    offset = 0
    for name, (arr, shape, window) in stored.items():
        buf, code = _little_endian(arr)
        crc = length = 0
        for block in _blocks(buf, shape, window):
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                bad = int(np.flatnonzero(~np.isfinite(block))[0])
                raise CheckpointError(
                    f"refusing to write checkpoint {path}: tensor {name!r} is "
                    f"non-finite (flat index {length // buf.itemsize + bad} is "
                    f"{block.reshape(-1)[bad]})")
            view = _bytes_of(block)
            crc = zlib.crc32(view, crc)
            length += view.nbytes
        directory.append({
            "name": name,
            "dtype": code,
            "shape": list(shape),
            "offset": offset,
            "length": length,
            "crc32": crc & 0xFFFFFFFF,
        })
        streams.append((buf, shape, window))
        offset += length

    header: dict[str, Any] = {
        "config": _section(model.config),
        "epoch": int(epoch),
        "best_metric": None if best_metric in (None, -math.inf) else float(best_metric),
        "optimizer": _section(optimizer),
        "scheduler": _section(scheduler),
        "rng_state": rng_state,
        "tensors": directory,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    # what is written is what `load` accepts
    _header_values(json.loads(header_bytes), path, offset)

    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", FORMAT_VERSION))
                fh.write(struct.pack("<Q", len(header_bytes)))
                fh.write(header_bytes)
                for buf, shape, window in streams:
                    for block in _blocks(buf, shape, window):
                        fh.write(_bytes_of(block))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as err:
        raise CheckpointError(f"cannot write checkpoint {path}: {err}") from None


# The header's fields and each tensor entry's, with the default that shows
# each one's JSON kind (see `_like`).  The sections' fields are those of
# their dataclasses; optimizer and scheduler may be null.
_HEADER_FIELDS = {"config": {}, "epoch": 0, "best_metric": -math.inf,
                  "optimizer": None, "scheduler": None, "rng_state": None,
                  "tensors": []}
_TENSOR_FIELDS = {"name": "", "dtype": "", "shape": [], "offset": 0, "length": 0,
                  "crc32": 0}
_SECTIONS = (("config", ModelConfig), ("optimizer", SgdState),
             ("scheduler", PlateauScheduler))
_JSON_NAMES = {dict: "an object", list: "an array", int: "an integer",
               float: "a number", str: "a string", bool: "a boolean",
               type(None): "null"}


def _defaults(cls) -> dict:
    """A section's keys and defaults: the fields of `cls` with a plain default."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def _section(state) -> dict | None:
    """A dataclass as its header object (None stays null); a -inf value (the
    scheduler's unset best metric) is written as null."""
    if state is None:
        return None
    return {key: None if getattr(state, key) == -math.inf else getattr(state, key)
            for key in _defaults(type(state))}


def _like(value, default, nested: bool = False) -> bool:
    """Whether a JSON value has the kind of `default`: a value of its type
    (any number for a float; true/false never count), null too where it is
    -inf, an object or null where it is None, and for a tuple an array of
    values like its first item.  An array inside an array (a residual
    triple) must also have that item's length."""
    if isinstance(default, tuple):
        return (isinstance(value, list)
                and (not nested or len(value) == len(default))
                and all(_like(v, default[0], nested=True) for v in value))
    if default is None:
        return value is None or isinstance(value, dict)
    if value is None:
        return default == -math.inf
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _form(default) -> str:
    """The kind `_like` asks for, in words."""
    if isinstance(default, tuple):
        return f"an array like {json.dumps(default)}"
    if default is None:
        return "an object or null"
    return _JSON_NAMES[type(default)] + (" or null" if default == -math.inf else "")


def _header_values(header, path: Path, payload_size: int) -> dict:
    """The values of a parsed JSON header, every header rule checked:
    `config`, `optimizer` and `scheduler` as their dataclasses (the last two
    None when null), numbers as floats and a null `best_metric` as -inf.  A
    broken rule raises `CheckpointError` naming the file and the first bad
    field, or the section whose dataclass refused a value."""
    def fail(field: str, problem: str):
        raise CheckpointError(f"{path}: header field '{field}' {problem}")

    def read(obj, defaults: dict, where: str) -> dict:
        if not isinstance(obj, dict):
            what = f"header field '{where[:-1]}'" if where else "header"
            raise CheckpointError(
                f"{path}: {what} must be a JSON object, got {_JSON_NAMES[type(obj)]}")
        values = {}
        for key, default in defaults.items():
            if key not in obj:
                fail(where + key, "is missing")
            value = values[key] = obj[key]
            if not _like(value, default):
                fail(where + key, f"must be {_form(default)}, got {json.dumps(value)}")
            if isinstance(default, float):
                try:
                    values[key] = -math.inf if value is None else float(value)
                except OverflowError:
                    fail(where + key, "must be finite, got an integer beyond float64")
        return values

    values = read(header, _HEADER_FIELDS, "")
    if values["epoch"] < 0:
        fail("epoch", f"must be >= 0, got {values['epoch']}")
    if header["best_metric"] is not None and not abs(values["best_metric"]) < math.inf:
        fail("best_metric", f"must be finite or null, got {values['best_metric']}")
    for section, cls in _SECTIONS:
        if values[section] is not None:
            try:
                values[section] = cls(**read(values[section], _defaults(cls),
                                             section + "."))
            except ConfigError as err:
                raise CheckpointError(
                    f"{path}: header field '{section}': {err}") from None
    if values["rng_state"] is not None:
        try:  # training restores it into a PCG64 generator
            np.random.PCG64().state = values["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            fail("rng_state", f"is not a PCG64 generator state "
                 f"({type(err).__name__}: {err})")
    for i, entry in enumerate(values["tensors"]):
        read(entry, _TENSOR_FIELDS, f"tensors[{i}].")
        if not all(_like(d, 0) and d >= 0 for d in entry["shape"]):
            fail(f"tensors[{i}].shape", "must list non-negative integers, got "
                 f"{json.dumps(entry['shape'])}")
    _validate_directory(values["tensors"], payload_size, path)
    return values


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
        if entry["dtype"] != directory[0]["dtype"]:  # load builds the model in one type
            raise CheckpointError(f"{path}: tensor {name!r} has dtype {entry['dtype']!r} but "
                                  f"{directory[0]['name']!r} has {directory[0]['dtype']!r}")
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


def _stored(model: ResEmoteNetModel, velocity: dict[str, np.ndarray]
            ) -> dict[str, tuple[np.ndarray, tuple, tuple[slice, slice] | None]]:
    """Every tensor a checkpoint of `model` and `velocity` holds, in file
    order, by its name in the file: the array holding it, its declared
    shape, and the (rows, cols) window of that kernel the array holds, which
    is None but for a conv weight built smaller and its velocity."""
    windows = model.live_windows()
    tensors = [(f"model.{name}", name, arr) for name, arr in model.state_tensors().items()]
    tensors += [(f"velocity.{name}", name, arr) for name, arr in sorted(velocity.items())]
    return {key: (arr, *windows.get(name, (arr.shape, None)))
            for key, name, arr in tensors}


def _blocks(arr: np.ndarray, shape: tuple, window: tuple[slice, slice] | None,
            load: bool = False):
    """The C-contiguous `arr` as blocks of rows of its declared `shape`, each
    at most `WINDOW_BLOCK` elements (or one row).  A plain tensor's blocks
    are views of `arr`.  One holding the (rows, cols) `window` of its last
    two axes streams through one reused buffer: for save each block holds
    its rows of `arr` in the window and +0.0 elsewhere; with `load` the
    caller fills each block, and its window lands in `arr` once the next
    block is asked for."""
    rows = max(1, WINDOW_BLOCK // math.prod(shape[1:]))
    if window is None:
        for r0 in range(0, shape[0], rows):
            yield arr[r0:r0 + rows]
        return
    buf = np.zeros((min(rows, shape[0]), *shape[1:]), dtype=arr.dtype)
    live = (slice(None), slice(None), *window)
    for r0 in range(0, shape[0], rows):
        block, held = buf[:min(rows, shape[0] - r0)], arr[r0:r0 + rows]
        if not load:
            block[live] = held
        yield block
        if load:
            held[...] = block[live]


def _read_tensor(fh, payload_start: int, entry: dict, dest: np.ndarray,
                 shape: tuple, window: tuple[slice, slice] | None,
                 path: Path) -> None:
    """Stream one tensor of declared `shape` from the file into `dest`, a
    contiguous array of the file's element type holding its `window` (see
    `_blocks`), checking the CRC of every byte."""
    name = entry["name"]
    fh.seek(payload_start + entry["offset"])
    crc = got = 0
    for block in _blocks(dest, shape, window, load=True):
        view = _bytes_of(block)
        n = fh.readinto(view)
        got += n
        if n != view.nbytes:
            raise CheckpointError(
                f"{path}: tensor {name!r} is truncated: read {got} of "
                f"{entry['length']} bytes")
        crc = zlib.crc32(view, crc)
    if (crc & 0xFFFFFFFF) != entry["crc32"]:
        raise CheckpointError(f"{path}: checksum mismatch for tensor {name!r}")


def load(path, expected_config: ModelConfig | None = None, *,
         model_only: bool = False) -> LoadedCheckpoint:
    """Read a checkpoint back into a freshly built model plus training state.

    When `expected_config` is given, every architecture field must match the
    file's snapshot; the first differing field is named in the error.  Without
    it the file's own config is used.  Files written without optimizer state
    load fine for inference; their `optimizer`/`scheduler` are None.

    Only the preamble and header are read before validation: the header's
    form, the tensor directory, and every tensor's name and shape against the
    model built from the embedded config.  That model's weights are not
    drawn, only allocated, in the file's element type.  Tensors then stream
    straight into the model's own arrays (velocity into views of one zeroed
    array, from `zero_velocity`), each CRC-checked as it lands; no model is
    returned unless every check passes.
    Every tensor streams in blocks of rows of its declared shape
    (`_blocks`).  Of the weight and velocity of a conv built smaller, every
    byte is CRC-checked and only the window is kept: whatever the file
    holds on the other taps (a file from before
    convs were built smaller holds drawn weights there) multiplies only
    padding at the file's input size, and is dropped.

    With `model_only` (inference) the velocity is seeked past, unread and
    so not CRC-checked, and `optimizer` and `scheduler` are None.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _load_from(fh, path, expected_config, model_only)
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from None


def _load_from(fh, path: Path, expected_config: ModelConfig | None,
               model_only: bool) -> LoadedCheckpoint:
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
    except ValueError as err:  # bad UTF-8 or JSON, or an integer too long to read
        raise CheckpointError(f"{path}: corrupt header: {err}") from None
    values = _header_values(header, path, file_size - payload_start)
    directory = header["tensors"]
    file_config, optimizer, scheduler = (values[section] for section, _ in _SECTIONS)
    if expected_config is not None:
        for field in dataclasses.fields(ModelConfig):
            a = getattr(file_config, field.name)
            b = getattr(expected_config, field.name)
            if a != b:
                raise CheckpointError(
                    f"{path}: config field '{field.name}' is {a!r} in the "
                    f"file but {b!r} was expected")

    # no initial draw: the checks above and below run before any read, and
    # every model tensor must be in the file, so each one is overwritten.  It
    # takes the file's one element type; an empty directory fails below
    try:
        with using_dtype(_DTYPE_CODES[directory[0]["dtype"] if directory else "<f8"]):
            model = build_model(file_config, draw=False)
    except ConfigError as err:  # a config too large to allocate
        raise CheckpointError(f"{path}: header field 'config': {err}") from None
    # every tensor the file may hold: velocity only when there is an optimizer
    stored = _stored(model, {} if optimizer is None else
                     {name: p.data for name, p in model.named_parameters()})
    for entry in directory:
        name = entry["name"]
        if name not in stored:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        shape = tuple(entry["shape"])
        if shape != stored[name][1]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape} but the "
                f"model expects {stored[name][1]}")
    names = {entry["name"] for entry in directory}
    missing = {name for name in stored if name.startswith("model.")} - names
    if missing:
        raise CheckpointError(
            f"{path}: missing model tensors: {sorted(missing)[:3]}"
            + ("..." if len(missing) > 3 else ""))

    if model_only:
        optimizer = scheduler = None
    elif optimizer is not None:  # the velocity the file holds lands in zeroed views
        zero_velocity(optimizer, [(name, p) for name, p in model.named_parameters()
                                  if f"velocity.{name}" in names])
    # where each tensor lands; with `model_only` the velocity is not read
    stored = _stored(model, {} if optimizer is None else optimizer.velocity)
    for entry in directory:
        if entry["name"] in stored:
            _read_tensor(fh, payload_start, entry, *stored[entry["name"]], path)

    return LoadedCheckpoint(
        model=model,
        optimizer=optimizer,
        scheduler=scheduler,
        epoch=values["epoch"],
        best_metric=values["best_metric"],
        rng_state=values["rng_state"],
    )
