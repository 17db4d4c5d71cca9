"""Checkpoint serialization: roundtrips, integrity, and validation."""

import copy
import dataclasses
import errno
import json
import math
import os
import re
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet import checkpoint as ckpt
from resemotenet.autodiff import Tensor, using_dtype
from resemotenet.errors import CheckpointError
from resemotenet.layers import EVAL, TRAIN
from resemotenet.model import ModelConfig, build_model
from resemotenet.optim import PlateauScheduler, SgdState

from nets import FER48

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
    """Replace a saved file's JSON header by `transform(header)`, writing
    integers of any length."""
    blob = path.read_bytes()
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header = transform(json.loads(blob[16:16 + header_len].decode()))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        new_header = json.dumps(header, separators=(",", ":")).encode()
    finally:
        sys.set_int_max_str_digits(limit)
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

    def test_loaded_velocity_is_views_of_one_array(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, epoch=7, path=path)
        velocity = ckpt.load(path, expected_config=TINY).optimizer.velocity
        assert sorted(velocity) == sorted(optimizer.velocity)
        assert len({id(v.base) for v in velocity.values()}) == 1
        assert next(iter(velocity.values())).base is not None

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
        npt.assert_array_equal(loaded.model.forward(x, EVAL).values.data,
                               model.forward(x, EVAL).values.data)

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


    @pytest.mark.parametrize("stored, ambient", [(np.float32, np.float64),
                                                 (np.float64, np.float32)])
    def test_load_builds_the_model_in_the_stored_element_type(self, tmp_path, stored,
                                                              ambient):
        with using_dtype(stored):
            model, optimizer, scheduler = trained_state()
        optimizer.velocity = {n: v.astype(stored) for n, v in optimizer.velocity.items()}
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        with using_dtype(ambient):
            loaded = ckpt.load(path, TINY)
        pairs = [(model.state_tensors(), loaded.model.state_tensors()),
                 (optimizer.velocity, loaded.optimizer.velocity)]
        for saved, back in pairs:
            for name, arr in saved.items():
                assert back[name].dtype == stored, name
                assert back[name].tobytes() == arr.tobytes(), name


class TestOneElementType:
    """A file holds one element type: save refuses to write a mixed state
    and load refuses a mixed file, naming the first tensor of another type."""

    def test_save_refuses_a_velocity_of_another_type(self, tmp_path):
        with using_dtype(np.float32):
            model, optimizer, scheduler = trained_state()
        assert all(v.dtype == np.float64 for v in optimizer.velocity.values())
        path = tmp_path / "run.ckpt"
        first = min(optimizer.velocity)
        with pytest.raises(CheckpointError, match=(
                rf"^{re.escape(str(path))}: tensor 'velocity\.{re.escape(first)}' has "
                r"dtype '<f8' but 'model\.stem\.0\.conv\.weight' has '<f4'$")):
            ckpt.save(model, optimizer, scheduler, 1, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model_only", [False, True])
    def test_load_refuses_a_mixed_type_file(self, tmp_path, model_only):
        with using_dtype(np.float32):
            model, optimizer, scheduler = trained_state()
        path = tmp_path / "mixed.ckpt"
        path.write_bytes(reference_v1_bytes(model, optimizer, scheduler, 1))
        first = min(optimizer.velocity)
        with pytest.raises(CheckpointError, match=(
                rf"^{re.escape(str(path))}: tensor 'velocity\.{re.escape(first)}' has "
                r"dtype '<f8' but 'model\.stem\.0\.conv\.weight' has '<f4'$")):
            ckpt.load(path, model_only=model_only)


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

    def test_model_only_load_seeks_past_the_velocity_unchecked(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack("<Q", bytes(blob[8:16]))[0]
        header = json.loads(blob[16:16 + header_len].decode())
        entry = next(e for e in header["tensors"] if e["name"].startswith("velocity."))
        blob[16 + header_len + entry["offset"]] ^= 0xFF  # corrupt one velocity byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch for tensor "
                                                  f"'{entry['name']}'"):
            ckpt.load(path, TINY)
        loaded = ckpt.load(path, TINY, model_only=True)
        assert loaded.optimizer is None and loaded.scheduler is None
        for name, arr in model.state_tensors().items():
            assert loaded.model.state_tensors()[name].tobytes() == arr.tobytes(), name

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

    def test_save_onto_a_directory_fails_and_leaves_no_temp_file(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        path.mkdir()
        with pytest.raises(CheckpointError, match=r"^cannot write checkpoint \S*run\.ckpt: "):
            ckpt.save(model, None, None, 0, path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]
        assert list(path.iterdir()) == []

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        model, _, _ = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, None, None, 0, path)
        ckpt.save(model, None, None, 1, path)  # overwrite in place
        leftovers = [p for p in tmp_path.iterdir() if p.name != "run.ckpt"]
        assert leftovers == []
        assert ckpt.load(path).epoch == 1


class TestSaveFaults:
    """An OS error while the temporary file is written or renamed over the
    target: `CheckpointError` names the path, the temporary file is gone
    and the old checkpoint keeps its bytes."""

    @pytest.fixture
    def saved(self, tmp_path):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        return (model, optimizer, scheduler), path, path.read_bytes()

    @staticmethod
    def _save_fails(state, path, before, message):
        with pytest.raises(CheckpointError, match=(
                rf"^cannot write checkpoint {re.escape(str(path))}: .*{message}")):
            ckpt.save(*state, 2, path)
        assert [p.name for p in path.parent.iterdir()] == ["run.ckpt"]
        assert path.read_bytes() == before

    def test_a_full_disk_during_a_write(self, saved, monkeypatch):
        state, path, before = saved
        fdopen, writes = os.fdopen, []

        class FullDisk:
            """The temporary file, full after the header: the first tensor's
            write fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 5:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        monkeypatch.setattr(ckpt.os, "fdopen", lambda fd, mode: FullDisk(fdopen(fd, mode)))
        self._save_fails(state, path, before, "No space left on device")
        assert len(writes) == 5

    def test_a_refused_rename_over_the_target(self, saved, monkeypatch):
        state, path, before = saved
        renamed = []

        def refuse(src, dst):
            renamed.append(os.path.getsize(src))
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)

        monkeypatch.setattr(ckpt.os, "replace", refuse)
        self._save_fails(state, path, before, "Permission denied")
        assert renamed == [len(before)]  # refused once the file was whole


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


def _in_section(section, **changes):
    return lambda h: {**h, section: {**h[section], **changes}}


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
    "negative dimension": (lambda h: _first_tensor(h, shape=[4, -1, 3, 3]),
                           r"'tensors\[0\]\.shape' must list non-negative integers"),
    "half-precision tensor": (lambda h: _first_tensor(h, dtype="<f2"),
                              r"tensor 'model\.\S+' has unsupported dtype '<f2'"),
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
    # values of the right type but out of range: the error names the file
    # and the field, or the section whose constructor rejected the value
    "NaN best": (lambda h: {**h, "best_metric": math.nan},
                 r"run\.ckpt: header field 'best_metric' must be finite or null, got nan"),
    "infinite best": (lambda h: {**h, "best_metric": -math.inf},
                      r"run\.ckpt: header field 'best_metric' must be finite or null, "
                      r"got -inf"),
    "negative epoch": (lambda h: {**h, "epoch": -7},
                       r"run\.ckpt: header field 'epoch' must be >= 0, got -7"),
    "scheduler NaN best": (_in_section("scheduler", best_metric=math.nan),
                           r"run\.ckpt: header field 'scheduler': best_metric must be "
                           r"finite or -inf, got nan"),
    "scheduler infinite best": (_in_section("scheduler", best_metric=math.inf),
                                r"run\.ckpt: header field 'scheduler': best_metric must "
                                r"be finite or -inf, got inf"),
    "negative staleness": (_in_section("scheduler", epochs_since_improve=-1),
                           r"run\.ckpt: header field 'scheduler': epochs_since_improve "
                           r"must be >= 0, got -1"),
    "zero patience": (_in_section("scheduler", patience=0),
                      r"run\.ckpt: header field 'scheduler': patience must be >= 1, got 0"),
    "zero min_lr": (_in_section("scheduler", min_lr=0.0),
                    r"run\.ckpt: header field 'scheduler': min_lr must be > 0, got 0\.0"),
    "negative lr": (_in_section("optimizer", lr=-1.0),
                    r"run\.ckpt: header field 'optimizer': lr: learning rate must be "
                    r"> 0, got -1\.0"),
    "indivisible se_reduction": (_in_section("config", se_reduction=3),
                                 r"run\.ckpt: header field 'config': stem output "
                                 r"channels 4 must divide by se_reduction 3"),
    "zero stem width": (_in_section("config", stem_channels=[0, 4, 4]),
                        r"run\.ckpt: header field 'config': stem_channels must all be "
                        r">= 1, got \(0, 4, 4\)"),
    "negative stem width": (_in_section("config", stem_channels=[-2, 4, 4]),
                            r"run\.ckpt: header field 'config': stem_channels must all "
                            r"be >= 1, got \(-2, 4, 4\)"),
    "two input channels": (_in_section("config", input_channels=2),
                           r"run\.ckpt: header field 'config': input_channels must be "
                           r"1 or 3, got 2$"),
    # a valid config whose arrays no host can allocate
    "unallocatable stem width": (_in_section("config", stem_channels=[2, 4, 10**20],
                                             residual_channels=[[10**20, 4, 1]]),
                                 r"run\.ckpt: header field 'config': cannot allocate "
                                 r"the model of ModelConfig\("),
    # integers beyond float64, and one too long for json to read
    "huge lr": (_in_section("optimizer", lr=10**400),
                r"run\.ckpt: header field 'optimizer\.lr' must be finite, got an "
                r"integer beyond float64"),
    "huge best": (lambda h: {**h, "best_metric": 10**400},
                  r"run\.ckpt: header field 'best_metric' must be finite, got an "
                  r"integer beyond float64"),
    "scheduler huge best": (_in_section("scheduler", best_metric=10**400),
                            r"run\.ckpt: header field 'scheduler\.best_metric' must be "
                            r"finite, got an integer beyond float64"),
    "5000-digit epoch": (lambda h: {**h, "epoch": 10**4999},
                         r"run\.ckpt: corrupt header: Exceeds the limit \(4300 digits\)"),
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


# ordinary values with NaN, the infinities and negatives among them
ODD_VALUES = (st.sampled_from([math.nan, math.inf, -math.inf, -1, -0.5, 0, 3])
              | st.floats(-2.0, 2.0))
SGD_FIELDS = ["lr", "momentum", "weight_decay"]
PLATEAU_FIELDS = ["factor", "patience", "min_lr", "best_metric", "epochs_since_improve"]


class TestSaveHeader:
    @pytest.fixture(scope="class")
    def state(self, tmp_path_factory):
        return trained_state(), tmp_path_factory.mktemp("save")

    @settings(max_examples=200, deadline=None)
    @given(epoch=st.integers(-3, 9), best_metric=st.none() | ODD_VALUES,
           sgd=st.dictionaries(st.sampled_from(SGD_FIELDS), ODD_VALUES, max_size=2),
           plateau=st.dictionaries(st.sampled_from(PLATEAU_FIELDS), ODD_VALUES,
                                   max_size=2))
    def test_save_refuses_what_load_refuses(self, state, epoch, best_metric, sgd,
                                            plateau):
        """Save either refuses the header, naming the field and leaving the
        directory as it was, or writes a file that loads the same values."""
        (model, optimizer, scheduler), directory = state
        optimizer, scheduler = copy.copy(optimizer), copy.copy(scheduler)
        for obj, changes in ((optimizer, sgd), (scheduler, plateau)):
            for key, value in changes.items():
                setattr(obj, key, value)
        path = directory / "run.ckpt"
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        try:
            ckpt.save(model, optimizer, scheduler, epoch, path, best_metric=best_metric)
        except CheckpointError as err:
            named = ["epoch", "best_metric"] + ["optimizer"] * bool(sgd)
            named += ["scheduler"] * bool(plateau)
            assert re.match(rf"{re.escape(str(path))}: header field "
                            rf"'({'|'.join(named)})[.']", str(err))
            assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
            return
        loaded = ckpt.load(path, TINY)
        assert loaded.epoch == epoch
        assert loaded.best_metric == (-math.inf if best_metric is None else best_metric)
        for fields, saved, back in ((SGD_FIELDS, optimizer, loaded.optimizer),
                                    (PLATEAU_FIELDS, scheduler, loaded.scheduler)):
            assert [getattr(back, f) for f in fields] == [getattr(saved, f) for f in fields]


@pytest.fixture(scope="module")
def training_file(tmp_path_factory):
    """A small training checkpoint that holds a data-order state."""
    model, optimizer, scheduler = trained_state()
    path = tmp_path_factory.mktemp("fuzz") / "run.ckpt"
    ckpt.save(model, optimizer, scheduler, 3, path,
              rng_state=np.random.default_rng(4).bit_generator.state, best_metric=50.0)
    return path


def _loads_or_fails_cleanly(blob, source):
    """Load `blob`: it fails only with `CheckpointError` (the CLI exits 2 on
    it), or its data-order state is one a fresh generator accepts."""
    path = source.with_name("mutant.ckpt")
    path.write_bytes(blob)
    try:
        loaded = ckpt.load(path)
    except CheckpointError:
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
    """A v1 writer built from docs/checkpoint-format.md with tobytes(): a
    weight built as the smaller conv it computes, and its velocity, in the
    declared shape with +0.0 outside the window."""
    windows = model.live_windows()
    tensors = [(f"model.{n}", n, a) for n, a in model.state_tensors().items()]
    if optimizer is not None:
        tensors += [(f"velocity.{n}", n, a) for n, a in sorted(optimizer.velocity.items())]
    directory, chunks, offset = [], [], 0
    for name, param, arr in tensors:
        if param in windows:
            shape, window = windows[param]
            whole = np.zeros(shape, dtype=arr.dtype)
            whole[(..., *window)] = arr
            arr = whole
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

    def test_model_only_load_allocates_about_the_model_size(self, fer48_state):
        model, optimizer, path = fer48_state
        ckpt.save(model, optimizer, PlateauScheduler(), 1, path)
        model_bytes = sum(a.nbytes for a in model.state_tensors().values())
        with using_dtype(np.float32):
            _, alloc = _traced_alloc(lambda: ckpt.load(path, FER48, model_only=True))
        # the file holds the model and a velocity about as large
        assert alloc <= 1.25 * model_bytes < 0.7 * path.stat().st_size

    def test_float32_model_only_load_under_the_float64_default(self, fer48_state):
        """No float64 model is built and no staging copy is made: the
        file's float32 tensors land in a float32 model."""
        model, optimizer, path = fer48_state
        ckpt.save(model, optimizer, PlateauScheduler(), 1, path)
        model_bytes = sum(a.nbytes for a in model.state_tensors().values())
        loaded, alloc = _traced_alloc(lambda: ckpt.load(path, FER48, model_only=True))
        assert alloc <= 1.25 * model_bytes, f"{alloc / model_bytes:.2f} x the model"
        for name, arr in model.state_tensors().items():
            assert loaded.model.state_tensors()[name].tobytes() == arr.tobytes(), name

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


#: an 8x8 input leaves the stem a 1x1 map, so the residual block's convs
#: are built as their centre taps; conv_b's declared (768, 768, 3, 3)
#: float32 weight spans 86 `WINDOW_BLOCK` blocks
CENTRE_ONLY = ModelConfig(input_channels=1, input_size=8, stem_channels=(4, 8, 16),
                          se_reduction=4, residual_channels=((16, 768, 1),), seed=3)


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def _payload_offset(blob, name):
    """Where tensor `name`'s bytes start in a checkpoint's bytes."""
    header_len = struct.unpack("<Q", blob[8:16])[0]
    entry = next(e for e in json.loads(blob[16:16 + header_len])["tensors"]
                 if e["name"] == name)
    return 16 + header_len + entry["offset"]


class TestCompactConvs:
    """A conv built as the smaller conv it computes (TINY's residual convs
    see a 1x1 map) is written, weight and velocity, in its declared shape
    with +0.0 outside its window, and loads back in the window alone."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_returns_the_compact_arrays_and_save_rewrites_the_file(self, tmp_path,
                                                                        dtype):
        with using_dtype(dtype):
            model, optimizer, scheduler = trained_state()
        optimizer.velocity = {n: v.astype(dtype) for n, v in optimizer.velocity.items()}
        assert set(model.live_windows()) == {"residual.0.conv_a.weight",
                                             "residual.0.conv_b.weight"}
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 4, path, best_metric=61.25)
        loaded = ckpt.load(path)
        for saved, back in ((model.state_tensors(), loaded.model.state_tensors()),
                            (optimizer.velocity, loaded.optimizer.velocity)):
            assert {n: _bits(a) for n, a in back.items()} == \
                {n: _bits(a) for n, a in saved.items()}
        ckpt.save(loaded.model, loaded.optimizer, loaded.scheduler, 4, tmp_path / "again.ckpt",
                  best_metric=61.25)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", ["model", "velocity"])
    def test_non_finite_tensor_names_its_index_in_the_declared_tensor(self, tmp_path, kind):
        model, optimizer, scheduler = trained_state()
        name = "residual.0.conv_b.weight"
        arr = (dict(model.state_tensors()) if kind == "model" else optimizer.velocity)[name]
        assert arr.shape == (4, 4, 1, 1)
        arr[1, 2, 0, 0] = np.nan  # declared (1, 2, 1, 1)
        with pytest.raises(CheckpointError, match=(
                rf"tensor '{kind}\.{re.escape(name)}' is non-finite "
                rf"\(flat index {(1 * 4 + 2) * 9 + 4} is nan\)$")):
            ckpt.save(model, optimizer, scheduler, 1, tmp_path / "run.ckpt")

    @pytest.fixture(scope="class")
    def centre_state(self, tmp_path_factory):
        with using_dtype(np.float32):
            model = build_model(CENTRE_ONLY)
        optimizer = SgdState(lr=0.01, momentum=0.9)
        r = np.random.default_rng(4)
        optimizer.velocity = {name: r.standard_normal(p.shape).astype(np.float32)
                              for name, p in model.named_parameters()}
        return model, optimizer, tmp_path_factory.mktemp("centre") / "run.ckpt"

    def test_save_expands_one_block_at_a_time(self, centre_state):
        model, optimizer, path = centre_state
        weight = dict(model.named_parameters())["residual.0.conv_b.weight"]
        assert weight.shape == optimizer.velocity["residual.0.conv_b.weight"].shape \
            == (768, 768, 1, 1)
        _, alloc = _traced_alloc(
            lambda: ckpt.save(model, optimizer, PlateauScheduler(), 1, path))
        row = 768 * 9
        block = (ckpt.WINDOW_BLOCK // row) * row * 4
        assert block < 0.25 * weight.data.nbytes
        # plus the header and file bookkeeping: 150 KiB for this model, whose
        # other tensors are written uncopied
        assert alloc <= block + (256 << 10), (alloc, block)

    def test_load_keeps_the_window_in_bounded_blocks(self, centre_state):
        model, optimizer, path = centre_state
        ckpt.save(model, optimizer, PlateauScheduler(), 1, path)
        with using_dtype(np.float32):
            loaded, alloc = _traced_alloc(lambda: ckpt.load(path, CENTRE_ONLY))
        got = loaded.optimizer.velocity["residual.0.conv_b.weight"]
        assert got.shape == (768, 768, 1, 1) and got.nbytes == 768 * 768 * 4
        kept = sum(a.nbytes for a in loaded.model.state_tensors().values()) + sum(
            v.nbytes for v in loaded.optimizer.velocity.values())
        block = (ckpt.WINDOW_BLOCK // (768 * 9)) * 768 * 9 * 4
        assert alloc <= kept + block + (256 << 10), (alloc, kept, block)
        for name, arr in model.state_tensors().items():
            assert loaded.model.state_tensors()[name].tobytes() == arr.tobytes(), name
        for name, v in optimizer.velocity.items():
            assert loaded.optimizer.velocity[name].tobytes() == v.tobytes(), name

    @pytest.mark.parametrize("kind", ["model", "velocity"])
    def test_a_damaged_byte_outside_the_window_is_still_caught(self, tmp_path, kind):
        model, optimizer, scheduler = trained_state()
        path = tmp_path / "run.ckpt"
        ckpt.save(model, optimizer, scheduler, 1, path)
        name = f"{kind}.residual.0.conv_b.weight"
        for at in (0, 4 * 8):  # a tap outside the window, then the centre tap
            blob = bytearray(path.read_bytes())
            blob[_payload_offset(blob, name) + at] ^= 0x01
            (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
            with pytest.raises(CheckpointError,
                               match=f"checksum mismatch for tensor '{re.escape(name)}'"):
                ckpt.load(tmp_path / "bad.ckpt")


#: a 16x16 input leaves the residual block a 2x2 map, where every tap of
#: its 3x3 convs reads the input, so conv_b is a plain (128, 128, 3, 3)
#: weight whose 1,152-element rows stream in three `WINDOW_BLOCK` blocks
PLAIN_BLOCKS = ModelConfig(input_channels=1, input_size=16, stem_channels=(4, 8, 16),
                           se_reduction=4, residual_channels=((16, 128, 1),),
                           num_classes=3, seed=8)


class TestPlainBlocks:
    """A plain tensor larger than `WINDOW_BLOCK` streams in blocks of its
    own rows: every block is checksummed, read straight into the model's
    array, and a non-finite element is named by its flat index."""

    NAME = "residual.0.conv_b.weight"
    ROW = 128 * 9
    ROWS = ckpt.WINDOW_BLOCK // ROW  # 56 rows a block: blocks of 56, 56, 16

    @pytest.fixture
    def state(self):
        model = build_model(PLAIN_BLOCKS)
        r = np.random.default_rng(6)
        optimizer = SgdState(lr=0.01, momentum=0.9)
        optimizer.velocity = {name: r.standard_normal(p.shape)
                              for name, p in model.named_parameters()}
        assert self.NAME not in model.live_windows()
        assert dict(model.named_parameters())[self.NAME].shape == (128, 128, 3, 3)
        return model, optimizer

    def _saved(self, state, path):
        ckpt.save(*state, PlateauScheduler(), 1, path)
        blob = path.read_bytes()
        return blob, _payload_offset(blob, f"model.{self.NAME}")

    # the first and the last byte of the last block
    @pytest.mark.parametrize("at", [2 * ROWS * ROW * 8, 128 * ROW * 8 - 1])
    def test_a_byte_flipped_in_the_last_block_is_a_checksum_mismatch(self, tmp_path,
                                                                     state, at):
        path = tmp_path / "run.ckpt"
        blob, start = self._saved(state, path)
        blob = bytearray(blob)
        blob[start + at] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: checksum mismatch for tensor 'model.{self.NAME}'")):
            ckpt.load(path, PLAIN_BLOCKS)

    def test_a_file_cut_in_a_later_block_counts_the_whole_tensor(self, tmp_path, state,
                                                                 monkeypatch):
        path = tmp_path / "run.ckpt"
        _, start = self._saved(state, path)
        read = 2 * self.ROWS * self.ROW * 8 + 100  # two whole blocks and a part
        validate = ckpt._validate_directory

        def validate_then_cut(directory, payload_size, where):
            validate(directory, payload_size, where)
            os.truncate(path, start + read)  # after its size was checked

        monkeypatch.setattr(ckpt, "_validate_directory", validate_then_cut)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor 'model.{self.NAME}' is truncated: read {read} of "
                f"{128 * self.ROW * 8} bytes")):
            ckpt.load(path, PLAIN_BLOCKS)

    @pytest.mark.parametrize("kind, value", [("model", np.nan), ("velocity", np.inf)])
    def test_a_non_finite_element_in_a_later_block_names_its_flat_index(
            self, tmp_path, state, kind, value):
        model, optimizer = state
        arr = (dict(model.state_tensors()) if kind == "model" else optimizer.velocity)[
            self.NAME]
        arr[120, 5, 2, 1] = value  # in the third block
        assert 120 // self.ROWS == 2
        with pytest.raises(CheckpointError, match=(
                rf"tensor '{kind}\.{re.escape(self.NAME)}' is non-finite "
                rf"\(flat index {((120 * 128 + 5) * 3 + 2) * 3 + 1} is {value}\)$")):
            ckpt.save(model, optimizer, PlateauScheduler(), 1, tmp_path / "run.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_load_reads_plain_blocks_with_no_buffer(self, tmp_path, state):
        path = tmp_path / "run.ckpt"
        self._saved(state, path)
        loaded, alloc = _traced_alloc(lambda: ckpt.load(path, PLAIN_BLOCKS))
        kept = sum(a.nbytes for a in loaded.model.state_tensors().values()) + sum(
            v.nbytes for v in loaded.optimizer.velocity.values())
        block = self.ROWS * self.ROW * 8
        # the header and file bookkeeping take about 80 KiB here
        assert alloc - kept < block // 2, (alloc, kept, block)
        model, optimizer = state
        for name, arr in model.state_tensors().items():
            assert loaded.model.state_tensors()[name].tobytes() == arr.tobytes(), name
        for name, v in optimizer.velocity.items():
            assert loaded.optimizer.velocity[name].tobytes() == v.tobytes(), name
