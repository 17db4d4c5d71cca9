"""Release gate: one test per shipping criterion, at the stated tolerances.

Each ``test_cNN_*`` function is the live form of the criterion ``cNN`` in
``conftest.CRITERIA``; the terminal summary prints a verdict line per
criterion after every run that includes this module.  The tests here favor
independent recomputation (explicit loops, closed forms, byte-level
multisets) over reusing the library's own helpers, so a regression in the
package cannot silently re-derive its own expected values.
"""

import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt

import oracles
import resemotenet
from conftest import CRITERIA
from resemotenet import autodiff as ad
from resemotenet import checkpoint
from resemotenet.autodiff import Tensor
from resemotenet.config import RunConfig
from resemotenet.data import (
    CLASS_NAMES,
    count_report,
    load_fer_csv,
    make_batches,
    published_counts,
    random_horizontal_flip,
)
from resemotenet.layers import (EVAL, TRAIN, ResidualBlock, SEBlock, draw_he_normal,
                                residual_forward, se_forward)
from resemotenet.metrics import ConfusionMatrix
from resemotenet.model import build_model
from resemotenet.optim import (
    PlateauScheduler,
    SgdState,
    cross_entropy,
    scheduler_step,
)
from resemotenet.synthetic import make_synthetic_manifest
from resemotenet.training import evaluate_model, train_model
from resemotenet.verification import recorded_ops, run_gradient_checks

# architecture small enough to train in seconds, used where the criterion
# constrains behavior rather than scale
TINY = dict(dataset="dir", batch_size=8, lr=0.01, momentum=0.9, augment=True,
            seed=13, input_channels=3, input_size=16, stem_channels=(4, 8, 8),
            se_reduction=4, residual_channels=((8, 8, 1),), aap_output=(1, 1))


def test_c01_property_battery_stands_in_for_corpus_runs():
    """Multi-hour full-corpus training is deliberately out of scope; this
    battery is the release gate instead.  Guard the substitution itself:
    every declared criterion has a live test, and the package ships no
    pretrained weights that could mask a broken training path."""
    names = [n for n in globals() if n.startswith("test_c")]
    for key in CRITERIA:
        assert any(n.startswith(f"test_{key}_") for n in names), key
    package_root = Path(resemotenet.__file__).resolve().parent
    assert list(package_root.rglob("*.ckpt")) == []


def test_c02_gradient_battery_covers_every_component():
    report = run_gradient_checks(seed=0, trials_per_component=50)
    bad = [r.name for r in report.results if r.failures]
    assert report.passed, bad
    assert report.max_rel_err <= 1e-4
    assert report.elapsed_seconds < 60.0
    assert all(r.trials >= 50 for r in report.results)
    covered = {r.name for r in report.results}
    for required in ("conv2d", "max_pool2d",
                     "adaptive_avg_pool", "linear", "relu", "sigmoid",
                     "batch_norm_train", "cross_entropy", "conv_bn_block",
                     "se_block", "residual_identity", "residual_projection",
                     "classifier"):
        assert required in covered, required


def test_c02_battery_audits_every_op_the_network_records():
    """The ops are read off the tapes of a TRAIN and an EVAL forward plus the
    loss, so a new op in the network needs a battery component."""
    model = build_model(RunConfig(**TINY).model_config())
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 16, 16)))
    recorded = set()
    for mode in (TRAIN, EVAL):
        with ad.Graph() as graph:
            cross_entropy(model.forward(x, mode).values, np.array([0, 1]))
        recorded |= {node.op for node in graph.nodes}
    assert {"conv2d", "batch_norm2d_train", "batch_norm2d_eval", "mul"} <= recorded
    assert recorded <= recorded_ops(), recorded - recorded_ops()


def test_c03_vectorized_ops_match_loop_oracles():
    rng = np.random.default_rng(303)
    worst = 0.0
    with ad.using_dtype(np.float64):
        for trial in range(200):
            kind = ("conv", "max_pool", "adaptive_pool", "linear")[trial % 4]
            if kind == "conv":
                n, cin, cout = rng.integers(1, 4, size=3)
                k = int(rng.integers(1, 4))
                stride = int(rng.integers(1, 3))
                padding = int(rng.integers(0, 2))
                h, w = rng.integers(k, 9, size=2)
                x = rng.standard_normal((n, cin, h, w))
                weight = rng.standard_normal((cout, cin, k, k))
                bias = rng.standard_normal(cout) if trial % 8 < 4 else None
                got = ad.conv2d(Tensor(x), Tensor(weight),
                                None if bias is None else Tensor(bias),
                                stride=stride, padding=padding).data
                want = oracles.conv2d_loops(x, weight, bias, stride=stride,
                                            padding=padding)
            elif kind == "max_pool":
                n, c = rng.integers(1, 5, size=2)
                k = int(rng.integers(1, 4))
                stride = int(rng.integers(1, 4))
                h, w = rng.integers(k, 9, size=2)
                x = rng.standard_normal((n, c, h, w))
                got = ad.max_pool2d(Tensor(x), k, stride).data
                want = oracles.max_pool2d_loops(x, k, stride)
            elif kind == "adaptive_pool":
                n, c, h, w = rng.integers(1, 9, size=4)
                out_h = int(rng.integers(1, h + 1))
                out_w = int(rng.integers(1, w + 1))
                x = rng.standard_normal((n, c, h, w))
                got = ad.adaptive_avg_pool(Tensor(x), out_h, out_w).data
                want = oracles.adaptive_avg_pool_loops(x, out_h, out_w)
            else:
                n, in_f, out_f = rng.integers(1, 9, size=3)
                x = rng.standard_normal((n, in_f))
                weight = rng.standard_normal((out_f, in_f))
                bias = rng.standard_normal(out_f) if trial % 8 < 4 else None
                got = ad.linear(Tensor(x), Tensor(weight),
                                None if bias is None else Tensor(bias)).data
                want = oracles.linear_loops(x, weight, bias)
            assert got.shape == want.shape, (kind, got.shape, want.shape)
            worst = max(worst, float(np.max(np.abs(got - want))) if got.size else 0.0)
    assert worst <= 1e-12, worst


def test_c04_channel_gate_matches_explicit_recomposition():
    with ad.using_dtype(np.float64):
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            se = SEBlock(8, reduction_ratio=4)
            draw_he_normal(se.named_parameters(), 400 + seed)
            x = rng.standard_normal((3, 8, 5, 5))
            out = se_forward(se, Tensor(x))
            # squeeze -> bottleneck -> expand -> sigmoid -> per-channel scale,
            # recomputed with plain array arithmetic
            z = x.mean(axis=(2, 3))
            hidden = np.maximum(z @ se.w1.data.T, 0.0)
            gate = 1.0 / (1.0 + np.exp(-(hidden @ se.w2.data.T)))
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
            want = x * gate[:, :, None, None]
            assert float(np.max(np.abs(out.data - want))) <= 1e-12
        # zero projections leave sigmoid(0) = 1/2 on every channel, exactly
        se.w1.data[:] = 0.0
        se.w2.data[:] = 0.0
        halved = se_forward(se, Tensor(x))
        npt.assert_array_equal(halved.data, 0.5 * x)


def test_c05_zeroed_residual_branch_reduces_to_relu_shortcut():
    with ad.using_dtype(np.float64):
        block = ResidualBlock(4, 4, stride=1)
        assert block.shortcut_conv is None
        for conv in (block.conv_a, block.conv_b):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        # branch output is exactly zero (train-mode BN maps zeros to zeros),
        # so non-negative inputs must come back bitwise through relu(identity)
        x = np.abs(np.random.default_rng(55).standard_normal((2, 4, 6, 6)))
        out = residual_forward(block, Tensor(x), TRAIN)
        npt.assert_array_equal(out.data, x)
        # signed inputs reduce to plain relu of the shortcut
        y = np.random.default_rng(56).standard_normal((2, 4, 6, 6))
        out = residual_forward(block, Tensor(y), TRAIN)
        npt.assert_array_equal(out.data, np.maximum(y, 0.0))


def test_c06_default_recipe_memorizes_its_fixture():
    fixture = make_synthetic_manifest(per_class=8, size=64, channels=3, seed=7)
    assert len(fixture.samples) == 56
    cfg = RunConfig(dataset="dir", epochs=300, batch_size=16, lr=1e-3,
                    momentum=0.9, augment=False, dtype="float32", seed=0)
    reached = []

    def stop(record):
        done = record.eval_accuracy >= 100.0 and record.train_loss < 0.05
        if done:
            reached.append(record.epoch)
        return done

    start = time.perf_counter()
    result = train_model(cfg, fixture, fixture, stop_when=stop)
    elapsed = time.perf_counter() - start
    last = result.history[-1]
    assert reached, (last.epoch, last.train_loss, last.eval_accuracy)
    assert reached[0] <= 300
    assert elapsed < 900.0, elapsed


def test_c07_fresh_model_scores_near_chance():
    fixture = make_synthetic_manifest(per_class=8, size=64, channels=3, seed=11)
    model = build_model(RunConfig().model_config())
    accuracy = evaluate_model(model, fixture).accuracy()
    assert 5.0 <= accuracy <= 25.0, accuracy


def test_c08_uniform_logits_cost_ln7_rows_normalized():
    with ad.using_dtype(np.float64):
        for fill in (0.0, 3.25, -11.0):
            out = cross_entropy(Tensor(np.full((4, 7), fill)),
                                np.array([0, 2, 4, 6]))
            assert abs(float(out.loss.data) - math.log(7.0)) <= 1e-9
        rng = np.random.default_rng(88)
        out = cross_entropy(Tensor(rng.standard_normal((64, 7)) * 10.0),
                            rng.integers(0, 7, size=64))
        npt.assert_allclose(out.probabilities.sum(axis=1), 1.0,
                            rtol=0.0, atol=1e-9)


def test_c09_stale_metrics_cut_rate_by_factor_to_floor():
    state = SgdState(lr=0.1, momentum=0.0)
    sched = PlateauScheduler(factor=0.1, patience=3, min_lr=1e-5)
    assert not scheduler_step(sched, 60.0, state)  # baseline improvement
    sequence = [state.lr]
    drops = []
    for i in range(30):
        if scheduler_step(sched, 60.0, state):  # never improves again
            drops.append(i)
        sequence.append(state.lr)
    # the rate survives exactly `patience` stale epochs, then falls once
    assert drops[0] == sched.patience
    assert sequence[sched.patience + 1] == 0.1 * sched.factor
    assert all(b <= a for a, b in zip(sequence, sequence[1:]))
    assert min(sequence) >= sched.min_lr
    assert sequence[-1] == sched.min_lr


def test_c10_accuracy_matches_binary_and_counting_oracles():
    cm = ConfusionMatrix(2)  # class 1 is the target, class 0 the rest
    cm.update([1, 1, 1, 0, 0, 0, 0, 0, 0, 1],
              [1, 1, 1, 0, 0, 0, 0, 0, 1, 0])
    assert cm.one_vs_rest(1) == {"TP": 3, "TN": 5, "FP": 1, "FN": 1}
    assert cm.accuracy() == 80.0

    rng = np.random.default_rng(1010)
    true = rng.integers(0, 7, size=1000)
    pred = rng.integers(0, 7, size=1000)
    cm7 = ConfusionMatrix(7)
    cm7.update(true, pred)
    correct = sum(1 for t, p in zip(true, pred) if t == p)
    assert cm7.accuracy() == 100.0 * correct / 1000
    for t in range(7):
        for p in range(7):
            tally = sum(1 for a, b in zip(true, pred) if (a, b) == (t, p))
            assert cm7.counts[t, p] == tally


def test_c11_loader_fidelity_flip_involution_batch_conservation(tmp_path):
    rng = np.random.default_rng(111)
    native_labels = [0, 1, 2, 3, 4, 5, 6, 3, 2, 6]
    usages = (["Training"] * 6
              + ["PublicTest", "PublicTest", "PrivateTest", "Training"])
    rows, pixel_rows = [], []
    for label, usage in zip(native_labels, usages):
        ints = rng.integers(0, 256, size=48 * 48)
        pixel_rows.append(ints)
        rows.append(f"{label},{' '.join(str(v) for v in ints)},{usage}")
    csv = tmp_path / "ten.csv"
    csv.write_text("emotion,pixels,Usage\n" + "\n".join(rows) + "\n")

    train = load_fer_csv(csv, "train")
    test = load_fer_csv(csv, "test")
    assert len(train.samples) == 7 and len(test.samples) == 3

    # hand-recomputed tensors: row-major 48x48, /255, native labels moved
    # into the model's class order
    remap = {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 4}
    train_rows = [i for i, u in enumerate(usages) if u == "Training"]
    for sample, i in zip(train.samples, train_rows):
        want = (pixel_rows[i] / 255.0).reshape(1, 48, 48)
        npt.assert_array_equal(sample.pixels, want)
        assert sample.label == remap[native_labels[i]]

    # mirroring is an involution, and the single mirror really moved pixels
    flip_rng = np.random.default_rng(5)
    once = random_horizontal_flip(train.samples[0], flip_rng, p=1.0)
    twice = random_horizontal_flip(once, flip_rng, p=1.0)
    npt.assert_array_equal(twice.pixels, train.samples[0].pixels)
    assert not np.array_equal(once.pixels, train.samples[0].pixels)

    # a shuffled epoch is a permutation: byte-level multiset equality
    seen = Counter()
    for batch, labels in make_batches(train, 3, np.random.default_rng(9),
                                      shuffle=True):
        for row, label in zip(batch.data, labels):
            seen[(int(label), row.tobytes())] += 1
    want = Counter((s.label, s.pixels.tobytes()) for s in train.samples)
    assert seen == want

    # per-class counts are reported against the published tables
    assert published_counts("rafdb", "train")[CLASS_NAMES.index("Happy")] == 4772
    assert published_counts("fer2013", "train") == (3995, 436, 4097, 7215,
                                                    4965, 4830, 3171)
    assert sum(published_counts("fer2013", "train")) == 28709
    renamed = replace(train, name="fer2013")
    report = count_report(renamed)
    assert any("DIFFERS (published 3995)" in line for line in report)


def test_c12_seeded_replay_roundtrip_and_resume(tmp_path):
    fixture = make_synthetic_manifest(per_class=2, size=16, channels=3, seed=21)
    cfg1 = RunConfig(epochs=1, **TINY)
    first = train_model(cfg1, fixture, fixture)
    second = train_model(cfg1, fixture, fixture)
    assert first.history[0].train_loss == second.history[0].train_loss

    cfg3 = RunConfig(epochs=3, **TINY)
    straight = train_model(cfg3, fixture, fixture)
    path = tmp_path / "state.ckpt"
    checkpoint.save(straight.model, straight.optimizer, straight.scheduler,
                    3, path)
    with ad.using_dtype(cfg3.dtype):  # load under the dtype the run used
        loaded = checkpoint.load(path)
    restored = loaded.model.state_tensors()
    for name, tensor in straight.model.state_tensors().items():
        assert restored[name].dtype == tensor.dtype, name
        assert np.array_equal(restored[name], tensor), name

    # two epochs checkpointed, one resumed == three straight through
    out = tmp_path / "run"
    train_model(RunConfig(epochs=2, **TINY), fixture, fixture, out_dir=out)
    resumed = train_model(cfg3, fixture, fixture,
                          resume_from=out / "last.ckpt")
    assert [r.epoch for r in resumed.history] == [3]
    resumed_state = resumed.model.state_tensors()
    for name, tensor in straight.model.state_tensors().items():
        assert np.array_equal(resumed_state[name], tensor), name
