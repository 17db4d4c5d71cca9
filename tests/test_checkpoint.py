"""Checkpoint serialization: roundtrips, integrity, and validation."""

import dataclasses
import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet import checkpoint as ckpt
from resemotenet.autodiff import Tensor, using_dtype
from resemotenet.errors import CheckpointError, ConfigError
from resemotenet.layers import TRAIN
from resemotenet.model import ModelConfig, build_model
from resemotenet.optim import PlateauScheduler, SgdState

rng = np.random.default_rng(31)

TINY = ModelConfig(input_channels=1, input_size=8, stem_channels=(2, 4, 4),
                   se_reduction=2, residual_channels=((4, 4, 1),),
                   num_classes=3, seed=21)


def trained_state(config=TINY):
    """A model with moved parameters, stats, and velocity buffers."""
    model = build_model(config)
    model.forward(Tensor(rng.standard_normal((4, config.input_channels,
                                              config.input_size,
                                              config.input_size))), TRAIN)
    optimizer = SgdState(lr=3e-4, momentum=0.9, weight_decay=0.01)
    for name, p in model.named_parameters():
        optimizer.velocity[name] = rng.standard_normal(p.shape)
    scheduler = PlateauScheduler(factor=0.1, patience=4, best_metric=61.25,
                                 epochs_since_improve=2)
    return model, optimizer, scheduler


def rewrite_header(path, transform):
    """Replace a saved file's JSON header by `transform(header)`."""
    blob = path.read_bytes()
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header = transform(json.loads(blob[16:16 + header_len].decode()))
    new_header = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new_header)) + new_header
                     + blob[16 + header_len:])


class TestRoundTrip:
    def test_every_tensor_bitwise_identical(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, epoch=7, path=path,
                  best_metric=61.25)
        loaded = ckpt.load(path, expected_config=TINY)
        for name, arr in model.state_tensors().items():
            npt.assert_array_equal(loaded.model.state_tensors()[name], arr)
        for name, v in optimizer.velocity.items():
            npt.assert_array_equal(loaded.optimizer.velocity[name], v)

    def test_load_never_draws_initial_weights(self, tmp_path, monkeypatch):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, epoch=7, path=path)

        def no_generator(*args, **kwargs):
            raise AssertionError("checkpoint.load made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = ckpt.load(path, expected_config=TINY)
        for name, arr in model.state_tensors().items():
            assert loaded.model.state_tensors()[name].tobytes() == arr.tobytes()

    def test_metadata_roundtrip(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        rng_state = np.random.default_rng(5).bit_generator.state
        ckpt.save(model, optimizer, scheduler, epoch=7, path=path,
                  rng_state=rng_state, best_metric=61.25)
        loaded = ckpt.load(path, expected_config=TINY)
        assert loaded.epoch == 7
        assert loaded.best_metric == 61.25
        assert loaded.optimizer.lr == 3e-4
        assert loaded.optimizer.weight_decay == 0.01
        assert loaded.scheduler.patience == 4
        assert loaded.scheduler.best_metric == 61.25
        assert loaded.scheduler.epochs_since_improve == 2
        assert loaded.rng_state == rng_state

    def test_rng_state_drives_identical_draws(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        source = np.random.default_rng(123)
        source.random(17)  # advance mid-stream
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path,
                  rng_state=source.bit_generator.state)
        loaded = ckpt.load(path, TINY)
        revived = np.random.default_rng()
        revived.bit_generator.state = loaded.rng_state
        npt.assert_array_equal(revived.random(5), source.random(5))

    def test_inference_only_checkpoint(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "weights.ckpt"
        ckpt.save(model, None, None, epoch=0, path=path)
        loaded = ckpt.load(path, expected_config=TINY)
        assert loaded.optimizer is None and loaded.scheduler is None
        x = Tensor(rng.standard_normal((2, 1, 8, 8)))
        npt.assert_array_equal(loaded.model.forward(x).values.data,
                               model.forward(x).values.data)

    def test_float32_tensors_roundtrip(self, tmp_path):
        from resemotenet.autodiff import using_dtype
        with using_dtype(np.float32):
            model = build_model(TINY)
            path = tmp_path / "f32.ckpt"
            ckpt.save(model, None, None, 0, path)
            loaded = ckpt.load(path, TINY)
            for name, arr in model.state_tensors().items():
                assert arr.dtype == np.float32
                npt.assert_array_equal(loaded.model.state_tensors()[name], arr)


class TestIntegrity:
    def test_payload_bit_flip_detected(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack("<Q", bytes(blob[8:16]))[0]
        blob[16 + header_len + 100] ^= 0xFF  # corrupt one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            ckpt.load(path, TINY)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(CheckpointError, match="magic"):
            ckpt.load(path)

    def test_unsupported_version(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            ckpt.load(path)

    def test_truncated_file(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(CheckpointError):
            ckpt.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            ckpt.load(tmp_path / "absent.ckpt")


class TestConfigValidation:
    def test_wrong_num_classes_names_field(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        wrong = ModelConfig(**{**TINY.__dict__, "num_classes": 5})
        with pytest.raises(CheckpointError, match="num_classes"):
            ckpt.load(path, expected_config=wrong)

    def test_no_expected_config_accepts_file(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        assert ckpt.load(path).model.config == TINY


class TestDirectoryValidation:
    def _tamper_header(self, path, mutate):
        def transform(header):
            mutate(header)
            return header
        rewrite_header(path, transform)

    def test_out_of_bounds_offset(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        self._tamper_header(path, lambda h: h["tensors"][0].update(offset=10 ** 9))
        with pytest.raises(CheckpointError, match="outside"):
            ckpt.load(path)

    def test_overlapping_tensors(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        self._tamper_header(
            path, lambda h: h["tensors"][1].update(offset=h["tensors"][0]["offset"]))
        with pytest.raises(CheckpointError, match="overlap"):
            ckpt.load(path)

    def test_duplicate_name(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        self._tamper_header(
            path, lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]))
        with pytest.raises(CheckpointError, match="twice"):
            ckpt.load(path)

    def test_missing_model_tensor(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        self._tamper_header(path, lambda h: h["tensors"].pop())
        with pytest.raises(CheckpointError, match="missing model tensors"):
            ckpt.load(path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        # same architecture string lengths, different classifier width
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)

        def widen(h):
            h["config"]["num_classes"] = 4  # model rebuilt wider than tensors
            for entry in h["tensors"]:
                if entry["name"] == "model.classifier.bias":
                    pass
        self._tamper_header(path, widen)
        with pytest.raises(CheckpointError, match="classifier"):
            ckpt.load(path)

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        ckpt.save(model, None, None, 1, path)  # overwrite in place
        leftovers = [p for p in tmp_path.iterdir() if p.name != "run.ckpt"]
        assert leftovers == []
        assert ckpt.load(path).epoch == 1


class TestNonFiniteSave:
    @pytest.mark.parametrize("where, value", [("model", np.nan), ("velocity", -np.inf)])
    def test_non_finite_tensor_is_refused_and_the_target_kept(self, tmp_path,
                                                              where, value):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        before = path.read_bytes()
        name, param = model.named_parameters()[0]
        arr = param.data if where == "model" else optimizer.velocity[name]
        arr.reshape(-1)[5] = value
        with pytest.raises(CheckpointError, match=(
                rf"^refusing to write checkpoint {path}: tensor '{where}\.{name}' "
                rf"is non-finite \(flat index 5 is {value}\)$")):
            ckpt.save(model, optimizer, scheduler, 2, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _first_tensor(header, **changes):
    header["tensors"][0].update(changes)
    return header


RNG_STATE = np.random.default_rng(0).bit_generator.state

MALFORMED_HEADERS = {
    "json list": (lambda h: [h], r"header must be a JSON object, got an array"),
    "no config": (lambda h: _without(h, "config"), r"'config' is missing"),
    "no tensors": (lambda h: _without(h, "tensors"), r"'tensors' is missing"),
    "no config.seed": (lambda h: {**h, "config": _without(h["config"], "seed")},
                       r"'config\.seed' is missing"),
    "scalar shape": (lambda h: _first_tensor(h, shape=27),
                     r"'tensors\[0\]\.shape' must be an array"),
    "float offset": (lambda h: _first_tensor(h, offset=0.5),
                     r"'tensors\[0\]\.offset' must be an integer"),
    "string length": (lambda h: _first_tensor(h, length="216"),
                      r"'tensors\[0\]\.length' must be an integer"),
    "residual pair": (lambda h: {**h, "config": {**h["config"],
                                                 "residual_channels": [[4, 8]]}},
                      r"'config\.residual_channels' must be an array like"),
    "residual quad": (lambda h: {**h, "config": {**h["config"],
                                                 "residual_channels": [[4, 8, 2, 1]]}},
                      r"'config\.residual_channels' must be an array like"),
    "rng wrong generator": (lambda h: {**h, "rng_state": {**RNG_STATE,
                                                         "bit_generator": "PCG65"}},
                            r"'rng_state' is not a PCG64 generator state \(ValueError"),
    "rng no state": (lambda h: {**h, "rng_state": _without(RNG_STATE, "state")},
                     r"'rng_state' is not a PCG64 generator state \(KeyError"),
}


class TestHeaderSchema:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_names_the_field(self, tmp_path, case):
        transform, message = MALFORMED_HEADERS[case]
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        rewrite_header(path, transform)
        with pytest.raises(CheckpointError, match=message):
            ckpt.load(path)

    def test_short_read_names_the_tensor(self, tmp_path, monkeypatch):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        validate = ckpt._validate_directory

        def validate_then_shrink(directory, payload_size, where):
            validate(directory, payload_size, where)
            # the file loses its tail after its size was checked
            os.truncate(path, path.stat().st_size - 8)

        monkeypatch.setattr(ckpt, "_validate_directory", validate_then_shrink)
        last = sorted(optimizer.velocity)[-1]
        with pytest.raises(CheckpointError, match=f"'velocity.{last}' is truncated"):
            ckpt.load(path)


@pytest.fixture(scope="module")
def training_file(tmp_path_factory):
    """A small training checkpoint that holds a data-order state."""
    model, optimizer, scheduler = trained_state()
    path = tmp_path_factory.mktemp("fuzz") / "run.ckpt"
    ckpt.save(model, optimizer, scheduler, 3, path,
              rng_state=np.random.default_rng(4).bit_generator.state, best_metric=50.0)
    return path


def _loads_or_fails_cleanly(blob, source):
    """Load `blob`: it fails only with an error the CLI exits 2 on, or its
    data-order state is one a fresh generator accepts."""
    path = source.with_name("mutant.ckpt")
    path.write_bytes(blob)
    try:
        loaded = ckpt.load(path)
    except (CheckpointError, ConfigError):
        return
    if loaded.rng_state is not None:
        np.random.default_rng().bit_generator.state = loaded.rng_state


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_byte_flip(self, training_file, data):
        blob = training_file.read_bytes()
        i = data.draw(st.integers(0, len(blob) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        _loads_or_fails_cleanly(blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:],
                                training_file)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncation(self, training_file, data):
        blob = training_file.read_bytes()
        _loads_or_fails_cleanly(blob[:data.draw(st.integers(0, len(blob) - 1))],
                                training_file)


def reference_v1_bytes(model, optimizer, scheduler, epoch, rng_state=None,
                       best_metric=None) -> bytes:
    """A v1 writer built from docs/checkpoint-format.md with tobytes()."""
    tensors = [(f"model.{n}", a) for n, a in model.state_tensors().items()]
    if optimizer is not None:
        tensors += [(f"velocity.{n}", a) for n, a in sorted(optimizer.velocity.items())]
    directory, chunks, offset = [], [], 0
    for name, arr in tensors:
        raw = arr.tobytes()
        directory.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                          "offset": offset, "length": len(raw),
                          "crc32": zlib.crc32(raw)})
        chunks.append(raw)
        offset += len(raw)
    header = {
        "config": json.loads(json.dumps(dataclasses.asdict(model.config))),
        "epoch": epoch,
        "best_metric": best_metric,
        "optimizer": None if optimizer is None else {
            "lr": optimizer.lr, "momentum": optimizer.momentum,
            "weight_decay": optimizer.weight_decay},
        "scheduler": None if scheduler is None else {
            "factor": scheduler.factor, "patience": scheduler.patience,
            "min_lr": scheduler.min_lr, "mode": scheduler.mode,
            "best_metric": None if scheduler.best_metric == -np.inf
            else scheduler.best_metric,
            "epochs_since_improve": scheduler.epochs_since_improve},
        "rng_state": rng_state,
        "tensors": directory,
    }
    head = json.dumps(header, separators=(",", ":")).encode()
    return b"REMN" + struct.pack("<IQ", 1, len(head)) + head + b"".join(chunks)


class TestByteFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_checkpoint_matches_reference_writer(self, tmp_path, dtype):
        with using_dtype(dtype):
            model, optimizer, scheduler = trained_state()
        optimizer.velocity = {n: v.astype(dtype) for n, v in optimizer.velocity.items()}
        rng_state = np.random.default_rng(8).bit_generator.state
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 4, path, rng_state=rng_state,
                  best_metric=61.25)
        assert path.read_bytes() == reference_v1_bytes(
            model, optimizer, scheduler, 4, rng_state=rng_state, best_metric=61.25)

    def test_inference_checkpoint_matches_reference_writer(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "weights.ckpt"
        ckpt.save(model, None, None, 0, path)
        assert path.read_bytes() == reference_v1_bytes(model, None, None, 0)


# the 48x48 grayscale geometry with 1.2 M parameters
FER48 = ModelConfig(input_channels=1, input_size=48, stem_channels=(8, 16, 32),
                    se_reduction=8,
                    residual_channels=((32, 64, 2), (64, 128, 2), (128, 256, 2)))


def _traced_alloc(fn):
    """fn's result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    @pytest.fixture(scope="class")
    def fer48_state(self, tmp_path_factory):
        with using_dtype(np.float32):
            model = build_model(FER48)
        r = np.random.default_rng(2)
        optimizer = SgdState(lr=0.01, momentum=0.9)
        optimizer.velocity = {name: r.standard_normal(p.shape).astype(np.float32)
                              for name, p in model.named_parameters()}
        return model, optimizer, tmp_path_factory.mktemp("fer48") / "run.ckpt"

    def test_save_allocates_no_copy_of_the_tensors(self, fer48_state):
        model, optimizer, path = fer48_state
        _, alloc = _traced_alloc(
            lambda: ckpt.save(model, optimizer, PlateauScheduler(), 1, path))
        assert alloc <= 0.1 * path.stat().st_size

    def test_load_allocates_about_the_file_size(self, fer48_state):
        model, optimizer, path = fer48_state
        ckpt.save(model, optimizer, PlateauScheduler(), 1, path)
        with using_dtype(np.float32):
            loaded, alloc = _traced_alloc(lambda: ckpt.load(path, FER48))
        assert alloc <= 1.25 * path.stat().st_size
        for name, arr in model.state_tensors().items():
            npt.assert_array_equal(loaded.model.state_tensors()[name], arr)
        for name, v in optimizer.velocity.items():
            npt.assert_array_equal(loaded.optimizer.velocity[name], v)
