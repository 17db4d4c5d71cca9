"""The training step: optimizer inside backward, its memory, divergence stops
and the names the benchmark's tracer patches."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from resemotenet import autodiff, checkpoint, training
from resemotenet.autodiff import Graph, Tensor, using_dtype
from resemotenet.config import RunConfig
from resemotenet.data import DatasetManifest
from resemotenet.errors import CheckpointError, OptimizerError
from resemotenet.layers import EVAL, TRAIN
from resemotenet.model import ModelConfig, build_model
from resemotenet.optim import SgdState, cross_entropy, sgd_step
from resemotenet.synthetic import make_synthetic_manifest

from nets import FER48

# the acceptance tests' small architecture
TINY = dict(dataset="dir", batch_size=8, lr=0.01, momentum=0.9, augment=True,
            seed=13, input_channels=3, input_size=16, stem_channels=(4, 8, 8),
            se_reduction=4, residual_channels=((8, 8, 1),), aap_output=(1, 1))
TINY_MODEL = RunConfig(**TINY).model_config()


def _manifest(config, per_class, seed=3):
    return make_synthetic_manifest(per_class=per_class, size=config.input_size,
                                   channels=config.input_channels, seed=seed)


def _backward_then_step(model, optimizer, manifest, batch_size, rng):
    """The step as written before the update moved into backward."""
    params = model.named_parameters()
    losses = []
    for pixels, labels in training.make_batches(manifest, batch_size, rng, shuffle=True):
        with Graph():
            value = cross_entropy(model.forward(pixels, mode=TRAIN).values, labels)
            value.loss.backward()
        sgd_step(optimizer, params)
        losses.append(value.loss.item())
    return losses


def _record_losses(monkeypatch):
    """The list every later training loss is appended to."""
    losses = []
    probe = training.cross_entropy

    def recorded(*args):
        value = probe(*args)
        losses.append(value.loss.item())
        return value

    monkeypatch.setattr(training, "cross_entropy", recorded)
    return losses


def _bits(model, optimizer):
    return [(name, p.data.tobytes(), optimizer.velocity[name].tobytes())
            for name, p in model.named_parameters()]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_fused_step_is_bitwise_equal_to_backward_then_sgd_step(dtype, weight_decay,
                                                               monkeypatch):
    manifest = _manifest(TINY_MODEL, per_class=2)  # 14 samples: 4 steps of 4
    fused_losses = _record_losses(monkeypatch)
    runs = []
    for fused in (True, False):
        with using_dtype(dtype):
            model = build_model(TINY_MODEL)
            optimizer = SgdState(lr=0.05, momentum=0.9, weight_decay=weight_decay)
            rng = np.random.default_rng(5)
            if fused:
                training.train_one_epoch(model, optimizer, manifest, 4, rng, False)
                losses = fused_losses
            else:
                losses = _backward_then_step(model, optimizer, manifest, 4, rng)
        runs.append((losses, _bits(model, optimizer)))
    assert len(runs[0][0]) == 4
    assert runs[0] == runs[1]


def test_unreached_parameter_raises_the_named_optimizer_error():
    model = build_model(TINY_MODEL)
    orphan = Tensor(np.zeros(3), requires_grad=True)
    reached = model.named_parameters()
    model.named_parameters = lambda: reached + [("orphan", orphan)]
    with pytest.raises(OptimizerError, match="parameter 'orphan' has no gradient"):
        training.train_one_epoch(model, SgdState(lr=0.01), _manifest(TINY_MODEL, 1),
                                 8, np.random.default_rng(0), False)


def test_divergent_rate_stops_at_the_first_non_finite_loss(monkeypatch):
    # lr=1e30 on TINY once trained four epochs of nan loss and then wrote
    # checkpoints of non-finite weights
    cfg = RunConfig(**{**TINY, "lr": 1e30, "epochs": 4})
    train = _manifest(TINY_MODEL, per_class=8, seed=1)
    test = make_synthetic_manifest(per_class=2, size=16, channels=3, seed=2,
                                   split="test")
    losses = _record_losses(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(
            OptimizerError, match=r"^epoch 1, batch 2: non-finite training loss"):
        training.train_model(cfg, train, test)
    assert len(losses) == 2
    assert np.isfinite(losses[0]) and not np.isfinite(losses[1])


@pytest.mark.parametrize("lr, epoch, batch, stat", [
    (1e4, 3, 1, "residual.0.bn_b.running_var"),
    (1e12, 1, 2, "stem.1.bn.running_var")])
def test_a_non_finite_running_statistic_stops_training(monkeypatch, lr, epoch, batch,
                                                        stat):
    # every loss is finite, but the batch's forward overflowed a variance:
    # without the check these runs returned a model with inf running stats
    cfg = RunConfig(**{**TINY, "lr": lr, "epochs": 4})
    fixture = _manifest(TINY_MODEL, per_class=2, seed=21)
    losses = _record_losses(monkeypatch)
    lines = []
    with np.errstate(all="ignore"), pytest.raises(
            OptimizerError, match=rf"^epoch {epoch}, batch {batch}: non-finite "
                                  rf"batch-norm statistic '{stat}'; no update"):
        training.train_model(cfg, fixture, fixture, log=lines.append)
    assert [line.split()[0] for line in lines] == [f"epoch={e}" for e in range(1, epoch)]
    assert np.isfinite(losses).all()


def test_non_finite_eval_logits_stop_training():
    # epoch 2's training batches stay finite but its model overflows on the
    # held-out split: the eval check stops the run, with no record of epoch 2
    cfg = RunConfig(**{**TINY, "lr": 1e3, "epochs": 4})
    train = _manifest(TINY_MODEL, per_class=2, seed=1)
    test = make_synthetic_manifest(per_class=2, size=16, channels=3, seed=2,
                                   split="test")
    lines = []
    with pytest.raises(OptimizerError, match=r"^epoch 2, held-out batch 1: non-finite "
                       r"logits; the model has diverged \(lower the learning rate\)$"):
        training.train_model(cfg, train, test, log=lines.append)
    assert [line.split()[0] for line in lines] == ["epoch=1"]


def _corrupt_the_last_update(monkeypatch, corrupt):
    """TINY's 2-epoch run on 14 samples (2 batches), with `corrupt(state,
    name, param)` applied after epoch 1's last update; returns the run's
    arguments and the names of the parameters updated so far."""
    cfg = RunConfig(**{**TINY, "epochs": 2})
    train = _manifest(TINY_MODEL, per_class=2, seed=1)
    test = make_synthetic_manifest(per_class=1, size=16, channels=3, seed=2,
                                   split="test")
    last_call = 2 * len(build_model(TINY_MODEL).named_parameters())
    calls = []

    def step_then_corrupt(state, params):
        sgd_step(state, params)
        calls.append(params[0][0])
        if len(calls) == last_call:  # epoch 1, last batch, last update
            corrupt(state, *params[0])

    monkeypatch.setattr(training, "sgd_step", step_then_corrupt)
    return (cfg, train, test), calls, last_call


def test_non_finite_weights_after_a_finite_loss_write_no_checkpoint(monkeypatch, tmp_path):
    # the last update of an epoch can leave inf weights after every loss of
    # the epoch was finite; no checkpoint of them may be written.  The eval
    # forward that scores the epoch meets them first.
    def weight_inf(state, name, param):
        param.data.reshape(-1)[0] = np.inf

    args, calls, last_call = _corrupt_the_last_update(monkeypatch, weight_inf)
    with pytest.raises(OptimizerError, match=r"^epoch 1, held-out batch 1: non-finite logits"):
        training.train_model(*args, out_dir=tmp_path)
    assert len(calls) == last_call
    assert list(tmp_path.iterdir()) == []  # no best.ckpt, last.ckpt or temp file


def test_non_finite_velocity_after_a_finite_loss_writes_no_checkpoint(monkeypatch, tmp_path):
    # a velocity the eval forward never reads: the save's check names it
    def velocity_inf(state, name, param):
        state.velocity[name].reshape(-1)[0] = np.inf

    args, calls, last_call = _corrupt_the_last_update(monkeypatch, velocity_inf)
    with pytest.raises(CheckpointError, match=r"tensor 'velocity\..+' is non-finite "
                       r"\(flat index 0 is inf\)") as err:
        training.train_model(*args, out_dir=tmp_path)
    assert f"'velocity.{calls[-1]}'" in str(err.value)
    assert len(calls) == last_call
    assert list(tmp_path.iterdir()) == []


def test_an_epoch_that_does_not_improve_writes_only_last_ckpt(tmp_path):
    # at this rate epoch 2 scores what epoch 1 did, so best.ckpt keeps epoch 1
    run = {**TINY, "lr": 1e-9}
    fixture = _manifest(TINY_MODEL, per_class=1, seed=21)
    one, two = tmp_path / "one", tmp_path / "two"
    training.train_model(RunConfig(**run, epochs=1), fixture, fixture, out_dir=one)
    result = training.train_model(RunConfig(**run, epochs=2), fixture, fixture, out_dir=two)
    assert result.history[1].eval_accuracy == result.history[0].eval_accuracy
    assert (two / "best.ckpt").read_bytes() == (one / "last.ckpt").read_bytes()
    assert checkpoint.load(two / "best.ckpt").epoch == 1
    assert checkpoint.load(two / "last.ckpt").epoch == 2


def test_a_resume_notes_every_setting_the_checkpoint_replaces(tmp_path, capsys):
    fixture = _manifest(TINY_MODEL, per_class=1, seed=21)
    training.train_model(RunConfig(**TINY, epochs=1), fixture, fixture, out_dir=tmp_path)
    run = RunConfig(**{**TINY, "epochs": 2, "lr": 0.02, "momentum": 0.5,
                       "weight_decay": 1e-4, "factor": 0.5, "patience": 3, "min_lr": 1e-7})
    training.train_model(run, fixture, fixture, resume_from=tmp_path / "last.ckpt")
    assert capsys.readouterr().err == (
        f"note: resuming from {tmp_path / 'last.ckpt'} with its own lr = 0.01 (run: 0.02), "
        "momentum = 0.9 (run: 0.5), weight_decay = 0.0 (run: 0.0001), factor = 0.1 "
        "(run: 0.5), patience = 10 (run: 3), min_lr = 1e-06 (run: 1e-07)\n")


# parameter-heavy: the 256x256x3x3 residual conv weight (2.36 MB in float32)
# dwarfs the activations of a 4-image 16x16 batch
HEAVY = ModelConfig(input_channels=1, input_size=16, stem_channels=(8, 16, 32),
                    residual_channels=((32, 256, 1), (256, 256, 1)))


def test_steady_step_peak_stays_below_two_largest_parameters():
    with using_dtype("float32"):
        model = build_model(HEAVY)
        made = _manifest(HEAVY, per_class=1)
        batch = DatasetManifest.from_samples("fixture", "train", made.samples[:4])
        optimizer = SgdState(lr=0.01, momentum=0.9)
        rng = np.random.default_rng(0)
        # the first epoch allocates the velocity, and the step's scratch
        training.train_one_epoch(model, optimizer, batch, 4, rng, False)
        tracemalloc.start()
        try:
            training.train_one_epoch(model, optimizer, batch, 4, rng, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    largest = max(p.data.nbytes for _, p in model.named_parameters())
    assert largest == 256 * 256 * 9 * 4
    assert peak < 2 * largest, f"peak {peak / 1e6:.2f} MB vs largest {largest / 1e6:.2f} MB"


def test_velocity_is_one_array_before_the_first_step(monkeypatch):
    model = build_model(TINY_MODEL)
    optimizer = SgdState(lr=0.01, momentum=0.9)
    seen = []

    def step(state, params):
        if not seen:
            seen.append(dict(state.velocity))
        sgd_step(state, params)

    monkeypatch.setattr(training, "sgd_step", step)
    training.train_one_epoch(model, optimizer, _manifest(TINY_MODEL, 1), 8,
                             np.random.default_rng(0), False)
    velocity = seen[0]
    assert sorted(velocity) == sorted(name for name, _ in model.named_parameters())
    assert len({id(v.base) for v in velocity.values()}) == 1
    assert next(iter(velocity.values())).base is not None
    assert all(optimizer.velocity[name] is v for name, v in velocity.items())


def test_benchmark_tracer_still_sees_the_optimizer_and_backward(monkeypatch):
    """perfbench's tracer patches names of this package; a signature change
    to one of them must fail here, not only in the benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer()
    unpatched = {op: getattr(autodiff, op) for op in spans.KEY_OPS}
    tracer.install()
    try:
        # the tracer wraps the public ops whose own code calls `_finish`
        for op, fn in unpatched.items():
            assert getattr(autodiff, op) is not fn, f"autodiff.{op} is not traced"
        with using_dtype("float32"):
            model = build_model(TINY_MODEL)
            training.train_one_epoch(model, SgdState(lr=0.01), _manifest(TINY_MODEL, 1),
                                     8, np.random.default_rng(0), True)
    finally:
        tracer.uninstall()
    by_name = {}
    for index, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(index)
    assert by_name.get("autodiff.backward") and by_name.get("training.step")
    steps = by_name.get("optim.sgd_step", [])
    # one span per parameter and step, each nested in that step's backward
    assert len(steps) == len(model.named_parameters()) * len(by_name["autodiff.backward"])
    for index in steps:
        assert tracer.spans[tracer.spans[index].parent].name == "autodiff.backward"
    metrics = spans.per_layer_metrics(tracer)
    assert metrics["optim.sgd_step_ms"] > 0 and metrics["autodiff.backward_ms"] > 0


#: run in a fresh interpreter per OpenBLAS thread count: two training steps
#: (weight decay on) and an eval forward of a small net whose stem GEMMs are
#: large enough to be split across threads, in float32 and float64; prints
#: the thread count OpenBLAS reports (None if it cannot be asked) and one
#: sha256 over the losses, parameters, BN stats, velocity and logits
THREAD_SCRIPT = """
import ctypes, hashlib
from pathlib import Path
import numpy as np
from resemotenet import autodiff as ad, training
from resemotenet.layers import EVAL
from resemotenet.model import ModelConfig, build_model
from resemotenet.optim import SgdState
from resemotenet.synthetic import make_synthetic_manifest

threads = None
for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            threads = fn()
config = ModelConfig(input_size=32, stem_channels=(16, 32, 32), se_reduction=4,
                     residual_channels=((32, 64, 2),), seed=3)
digest = hashlib.sha256()
for dtype in ("float32", "float64"):
    with ad.using_dtype(dtype):
        model = build_model(config)
        optimizer = SgdState(lr=0.01, momentum=0.9, weight_decay=5e-4)
        manifest = make_synthetic_manifest(per_class=2, size=32, seed=4, num_classes=4)
        loss = training.train_one_epoch(model, optimizer, manifest, 4,
                                        np.random.default_rng(5), True)
        logits = model.forward(ad.Tensor(np.stack([s.pixels for s in manifest.samples])),
                               EVAL).values.data
    state = model.state_tensors()
    for a in ([np.float64(loss), logits] + [state[k] for k in sorted(state)]
              + [optimizer.velocity[k] for k in sorted(optimizer.velocity)]):
        digest.update(a.tobytes())
print(threads, digest.hexdigest())
"""


def test_training_and_eval_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    results = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reported, digest = done.stdout.split()
        assert reported in (threads, "None")
        results.append(digest)
    assert results[0] == results[1]


#: the float32 error budget: gamma_K ~ K * u (Higham 2002, ch. 3) for the
#: unit roundoff u = 2^-24 and K = 288, the longest conv inner product of
#: BUDGET_NET (32 channels x 3x3 taps)
FLOAT32_BUDGET = 288 * 2.0 ** -24
#: 16x16 input: the stem leaves 2x2 maps and the last residual block 1x1
BUDGET_NET = ModelConfig(input_size=16, stem_channels=(8, 16, 16), se_reduction=4,
                         residual_channels=((16, 32, 1), (32, 32, 2)), seed=0)


def _normwise(got, want) -> float:
    """||got - want|| / ||want||, in float64."""
    got, want = np.ravel(got).astype(np.float64), np.ravel(want)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _budget_run(dtype, state, pixels, labels, steps=3):
    """Train-mode logits, loss and parameter gradients of BUDGET_NET's first
    step, every step's loss, the parameters after `steps` momentum-SGD steps
    and the eval logits then; all from `state`, in element type `dtype`."""
    with using_dtype(dtype):
        model = build_model(BUDGET_NET)
    model.load_state(state)
    optimizer = SgdState(lr=0.05, momentum=0.9)
    x = Tensor(pixels, dtype=dtype)
    losses = []
    for step in range(steps):
        with Graph():
            logits = model.forward(x, mode=TRAIN).values
            loss = cross_entropy(logits, labels).loss
            loss.backward()
        if step == 0:
            first = logits.data, {name: p.grad for name, p in model.named_parameters()}
        losses.append(loss.item())
        sgd_step(optimizer, model.named_parameters())
    params = {name: p.data for name, p in model.named_parameters()}
    return (*first, np.array(losses), params, model.forward(x, EVAL).values.data)


def test_float32_stays_within_the_error_budget_of_float64():
    """The float32 build against float64 from the same float32-representable
    weights and batch, so only float32 arithmetic separates them.  Measured
    at the commit that set the budget (1.72e-5), on this seed: logits 1.9e-6,
    losses 3.9e-7, worst parameter gradient 4.4e-6, zero-gradient biases
    4.3e-8, trajectory 2.0e-6, eval logits 4.0e-6."""
    r = np.random.default_rng(0)
    pixels = r.random((8, 3, 16, 16)).astype(np.float32)
    labels = r.integers(0, 7, 8)
    with using_dtype(np.float64):
        state = build_model(BUDGET_NET).state_tensors()
    state = {name: a.astype(np.float32) for name, a in state.items()}
    logits32, grads32, losses32, params32, eval32 = _budget_run(np.float32, state, pixels, labels)
    logits64, grads64, losses64, params64, eval64 = _budget_run(np.float64, state, pixels, labels)
    assert logits32.dtype == np.float32 and logits64.dtype == np.float64
    assert _normwise(logits32, logits64) <= FLOAT32_BUDGET
    assert np.all(np.abs(losses32 - losses64) <= FLOAT32_BUDGET * np.abs(losses64))
    # a conv bias feeding a train-mode batch norm has an exactly zero
    # gradient; it is held to the budget against the whole gradient's norm
    whole = np.sqrt(sum(np.sum(g ** 2) for g in grads64.values()))
    for name, g64 in grads64.items():
        if "conv" in name and name.endswith(".bias"):
            assert np.linalg.norm(grads32[name] - g64) <= FLOAT32_BUDGET * whole, name
        else:
            assert _normwise(grads32[name], g64) <= FLOAT32_BUDGET, name
    # the trajectory: how far the parameters moved in three steps
    moved64, moved32 = (np.concatenate([(p[n] - state[n].astype(np.float64)).ravel()
                                        for n in p]) for p in (params64, params32))
    assert _normwise(moved32, moved64) <= FLOAT32_BUDGET
    assert _normwise(eval32, eval64) <= FLOAT32_BUDGET


#: TINY's recipe on BUDGET_NET's geometry: the last block's conv_a reads a
#: 2x2 map at stride 2 and its conv_b a 1x1 map, so their outer taps read
#: only padding
DEAD_TAP_RUN = {**TINY, "stem_channels": BUDGET_NET.stem_channels,
                "residual_channels": BUDGET_NET.residual_channels}
#: the windows of the declared 3x3 kernels that the convs built for their
#: input sizes hold in `residual.2` at the default sizes, and in the last
#: block of BUDGET_NET and FER-48 alike
LAST_BLOCK_WINDOWS = {"conv_a.weight": (slice(1, 3), slice(1, 3)),
                      "conv_b.weight": (slice(1, 2), slice(1, 2))}


def _run_bits(result):
    """Bytes, dtype and shape of every state tensor and velocity."""
    tensors = {**{f"model.{k}": v for k, v in result.model.state_tensors().items()},
               **{f"velocity.{k}": v for k, v in result.optimizer.velocity.items()}}
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in tensors.items()}


def _declared_convs(monkeypatch):
    """Make every conv built from here on keep its declared kernel, as
    before convs were built for their input sizes."""
    monkeypatch.setattr(autodiff, "live_taps", lambda in_size, k, stride, padding: slice(0, k))


class TestCompactConvs:
    """A conv whose outer taps read only padding at the configured input
    size is built as the smaller conv it computes; files hold it in its
    declared shape."""

    @pytest.mark.parametrize("config", [
        ModelConfig(),
        ModelConfig(input_channels=1, input_size=48, stem_channels=(8, 16, 32),
                    se_reduction=8,
                    residual_channels=((32, 64, 2), (64, 128, 2), (128, 256, 2))),
    ], ids=["default", "fer48"])
    def test_the_last_block_keeps_its_inner_taps(self, config):
        model = build_model(config, draw=False)
        c = config.residual_channels[-1]
        assert model.live_windows() == {
            "residual.2.conv_a.weight": ((c[1], c[0], 3, 3), LAST_BLOCK_WINDOWS["conv_a.weight"]),
            "residual.2.conv_b.weight": ((c[1], c[1], 3, 3), LAST_BLOCK_WINDOWS["conv_b.weight"])}
        block = model.residuals[-1]
        assert (block.conv_a.weight.shape, block.conv_a.padding) == ((c[1], c[0], 2, 2), 0)
        assert (block.conv_b.weight.shape, block.conv_b.padding) == ((c[1], c[1], 1, 1), 0)

    def test_tiny_model_has_no_dead_taps(self):
        assert build_model(TINY_MODEL, draw=False).live_windows() == {}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_resume_equals_straight_run_and_load_save_is_byte_identical(self, tmp_path,
                                                                          dtype):
        fixture = make_synthetic_manifest(per_class=2, size=16, channels=3, seed=21)
        straight = training.train_model(RunConfig(epochs=3, dtype=dtype, **DEAD_TAP_RUN),
                                        fixture, fixture)
        shapes = {k: v.shape for k, v in straight.optimizer.velocity.items()}
        assert shapes["residual.1.conv_a.weight"] == (32, 32, 2, 2)
        assert shapes["residual.1.conv_b.weight"] == (32, 32, 1, 1)
        assert shapes == {k: p.shape for k, p in straight.model.named_parameters()}

        out = tmp_path / "run"
        training.train_model(RunConfig(epochs=2, dtype=dtype, **DEAD_TAP_RUN), fixture,
                             fixture, out_dir=out)
        resumed = training.train_model(RunConfig(epochs=3, dtype=dtype, **DEAD_TAP_RUN),
                                       fixture, fixture, resume_from=out / "last.ckpt")
        assert [r.epoch for r in resumed.history] == [3]
        assert _run_bits(resumed) == _run_bits(straight)

        path = out / "last.ckpt"
        loaded = checkpoint.load(path)
        assert {k: v.shape for k, v in loaded.optimizer.velocity.items()} == shapes
        checkpoint.save(loaded.model, loaded.optimizer, loaded.scheduler, loaded.epoch,
                        tmp_path / "again.ckpt", rng_state=loaded.rng_state,
                        best_metric=loaded.best_metric)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("dtype, tolerance", [("float32", FLOAT32_BUDGET),
                                                  ("float64", 1e-12)])
    def test_a_file_with_declared_kernels_loads_compact_and_resumes(
            self, tmp_path, monkeypatch, dtype, tolerance):
        # written as before convs were built smaller: drawn weights and, with
        # weight decay, nonzero velocity on the taps that read only padding
        fixture = make_synthetic_manifest(per_class=2, size=16, channels=3, seed=21)
        run = {**DEAD_TAP_RUN, "weight_decay": 5e-4, "dtype": dtype}
        out, name = tmp_path / "run", "residual.1.conv_b.weight"
        with monkeypatch.context() as patch:
            _declared_convs(patch)
            declared = training.train_model(RunConfig(epochs=2, **run), fixture, fixture,
                                             out_dir=out)
        path = out / "last.ckpt"
        v = declared.optimizer.velocity[name]
        assert v.shape == (32, 32, 3, 3) and v[:, :, 0, 0].all()
        assert dict(declared.model.named_parameters())[name].data[:, :, 2, 2].all()

        loaded = checkpoint.load(path)
        assert loaded.optimizer.weight_decay == 5e-4
        compact = dict(loaded.model.named_parameters())
        assert compact[name].shape == loaded.optimizer.velocity[name].shape == (32, 32, 1, 1)
        assert loaded.optimizer.velocity[name].tobytes() == \
            np.ascontiguousarray(v[:, :, 1:2, 1:2]).tobytes()
        with using_dtype(dtype):
            pixels = Tensor(np.stack([s.pixels for s in fixture.samples]))
            want = declared.model.forward(pixels, EVAL).values.data
            got = loaded.model.forward(pixels, EVAL).values.data
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert _normwise(got, want) <= tolerance

        resumed = training.train_model(RunConfig(epochs=3, **run), fixture, fixture,
                                       resume_from=path)
        assert [r.epoch for r in resumed.history] == [3]
        assert np.isfinite(resumed.history[0].train_loss)
        moved = dict(resumed.model.named_parameters())[name].data
        assert moved.shape == (32, 32, 1, 1) and not np.array_equal(moved, compact[name].data)


# the default net's input and stem, so its largest conv output (stem 0's,
# 64x64x64 a sample), with one narrow residual block for the default's three
DEFAULT_STEM = ModelConfig(residual_channels=((256, 64, 2),))


def _eval_split(config, n):
    samples = _manifest(config, per_class=-(-n // 7)).samples[:n]
    return DatasetManifest.from_samples("eval", "test", samples)


def _eval_model(config, dtype):
    """A model whose eval-mode batch norms read running statistics other
    than the initial zero mean and unit variance."""
    r = np.random.default_rng(5)
    with using_dtype(dtype):
        model = build_model(config)
    for _, bn in model.batch_norms():
        bn.running_mean[...] = r.normal(0.0, 0.1, bn.running_mean.shape)
        bn.running_var[...] = r.uniform(0.5, 2.0, bn.running_var.shape)
    return model


class TestEvaluateInBlocks:
    """`evaluate_model` forwards as many images at once as keep the largest
    conv output within a fixed element budget, up to 32."""

    @pytest.mark.parametrize("config, n, sizes", [(DEFAULT_STEM, 32, [8, 8, 8, 8]),
                                                  (FER48, 35, [32, 3])])
    def test_images_per_forward_follow_the_largest_conv_output(self, monkeypatch,
                                                               config, n, sizes):
        model = _eval_model(config, "float32")
        forward, seen = model.forward, []
        monkeypatch.setattr(model, "forward",
                            lambda x, mode: seen.append(x.shape[0]) or forward(x, mode))
        with using_dtype("float32"):
            training.evaluate_model(model, _eval_split(config, n))
        assert seen == sizes

    def test_the_default_net_takes_8_and_a_huge_activation_1(self):
        assert ModelConfig().largest_conv_output() == 64 * 64 * 64
        assert training.eval_block(ModelConfig()) == 8
        wide = ModelConfig(input_size=512, stem_channels=(16, 16, 16), se_reduction=4,
                           residual_channels=())
        assert wide.largest_conv_output() == 16 * 512 * 512 > training.EVAL_BLOCK_ELEMENTS
        assert training.eval_block(wide) == 1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_logits_and_confusion_have_the_bits_of_one_32_image_forward(
            self, monkeypatch, dtype):
        """The logits `evaluate_model` classifies, read as the benchmark's
        probe reads them, against one forward of all 32 images."""
        model, split = _eval_model(DEFAULT_STEM, dtype), _eval_split(DEFAULT_STEM, 32)
        captured, predict_labels = [], training.predict_labels
        monkeypatch.setattr(training, "predict_labels",
                            lambda logits: captured.append(logits) or predict_labels(logits))
        with using_dtype(dtype):
            got = training.evaluate_model(model, split)
            pixels, labels = next(training.make_batches(split, 32, None, shuffle=False))
            want = model.forward(pixels, EVAL).values.data
        assert len(captured) == 4
        rows = np.concatenate(captured)
        assert rows.dtype == want.dtype == np.dtype(dtype)
        assert rows.tobytes() == want.tobytes()
        expected = training.ConfusionMatrix(DEFAULT_STEM.num_classes)
        expected.update(labels, predict_labels(want))
        assert got.counts.tobytes() == expected.counts.tobytes()

    def test_peak_above_the_model_is_one_bounded_block(self):
        """32 default-stem images, float32.  Bound 16 MiB above the model:
        10.4 MiB measured (12.2 MiB with 2^20-element conv sample blocks),
        41.5 MiB when all 32 went through one forward (stem 0's output alone
        is 32 MiB then)."""
        model, split = _eval_model(DEFAULT_STEM, "float32"), _eval_split(DEFAULT_STEM, 32)
        with using_dtype("float32"):
            training.evaluate_model(model, split)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                training.evaluate_model(model, split)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB above the model"
