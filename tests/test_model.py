"""End-to-end behavior of the assembled network and its configuration."""

import math
import os
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from resemotenet import autodiff as ad
from resemotenet import layers
from resemotenet import model as model_module
from resemotenet.autodiff import Graph, Tensor
from resemotenet.data import DatasetManifest, Sample
from resemotenet.errors import ConfigError, ShapeError
from resemotenet.layers import EVAL, TRAIN, conv_bn_forward, residual_forward, se_forward
from resemotenet.model import ModelConfig, build_model
from resemotenet.optim import SgdState, cross_entropy, sgd_step
from resemotenet.synthetic import make_synthetic_manifest
from resemotenet.training import train_one_epoch

import oracles
from nets import FER48

rng = np.random.default_rng(123)

# small enough to run everywhere, same topology as the default
TINY = ModelConfig(
    input_channels=3, input_size=16, stem_channels=(4, 8, 8), se_reduction=4,
    residual_channels=((8, 8, 1),), num_classes=3, seed=11)

DEFAULT_PARAMETER_COUNT = 77_496_839
#: of which taps that read only padding: residual.2.conv_a's outer five of
#: nine, 2048x1024x5, and conv_b's outer eight, 2048x2048x8
DEFAULT_DEAD_TAPS = 2048 * 1024 * 5 + 2048 * 2048 * 8


def _replay(model, x, mode, relu_first=False):
    """`model.forward`'s logits through the public stage functions, each op
    making a new output; with `relu_first` each stem stage applies its ReLU
    before the pool, as the published composition is written."""
    out = x
    for conv, bn in model.stem:
        out = conv_bn_forward(conv, bn, out, mode)
        if relu_first:
            out = ad.max_pool2d(ad.relu(out), 2, 2)
        else:
            out = ad.relu(ad.max_pool2d(out, 2, 2))
    out = se_forward(model.se, out)
    for block in model.residuals:
        out = residual_forward(block, out, mode)
    out = ad.adaptive_avg_pool(out, *model.config.aap_output)
    out = ad.reshape(out, (out.shape[0], model.config.classifier_inputs))
    return model.classifier.forward(out)


class TestConfigValidation:
    def test_default_config_is_valid(self):
        cfg = ModelConfig()
        assert cfg.final_channels == 2048
        assert cfg.classifier_inputs == 2048

    def test_spatial_plan_default(self):
        # 64 -> 32 -> 16 -> 8 through the stem pools, -> 4 -> 2 -> 1 through
        # the stride-2 residual stages
        assert ModelConfig().spatial_plan() == [64, 32, 16, 8, 4, 2, 1]

    def test_largest_conv_output_counts_stem_and_residual_convs(self):
        # default: stem 0's 64 channels at 64x64, over residual 0's 512 at 4x4
        assert ModelConfig().largest_conv_output() == 64 * 64 * 64
        # a stride-1 residual block keeps its input's 2x2: 512 x 2 x 2 beats
        # stem 0's 4 x 16 x 16
        wide_tail = ModelConfig(input_size=16, stem_channels=(4, 4, 4), se_reduction=4,
                                residual_channels=((4, 512, 1),))
        assert wide_tail.largest_conv_output() == 512 * 2 * 2

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError, match="num_classes"):
            ModelConfig(num_classes=1)

    def test_rejects_indivisible_input_size(self):
        with pytest.raises(ConfigError, match="multiple"):
            ModelConfig(input_size=60)

    def test_rejects_broken_channel_chain(self):
        with pytest.raises(ConfigError, match="residual block 1"):
            ModelConfig(residual_channels=((256, 512, 2), (999, 1024, 2), (1024, 2048, 2)))

    def test_rejects_se_reduction_mismatch(self):
        with pytest.raises(ConfigError, match="se_reduction"):
            ModelConfig(se_reduction=7)

    def test_rejects_overcollapsed_aap(self):
        with pytest.raises(ConfigError, match="aap_output"):
            ModelConfig(input_size=8, stem_channels=(4, 8, 16), se_reduction=4,
                        residual_channels=((16, 16, 2),), aap_output=(2, 2))


class TestBuild:
    def test_same_seed_same_parameters(self):
        a = build_model(TINY)
        b = build_model(TINY)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            npt.assert_array_equal(ta.data, tb.data)

    def test_different_seed_different_parameters(self):
        a = build_model(TINY)
        b = build_model(ModelConfig(**{**TINY.__dict__, "seed": 99}))
        assert not np.array_equal(a.stem[0][0].weight.data, b.stem[0][0].weight.data)

    def test_parameter_names_unique(self):
        names = [n for n, _ in build_model(TINY).named_parameters()]
        assert len(names) == len(set(names))

    def test_parameter_order_is_stem_se_residual_classifier(self):
        names = [n for n, _ in build_model(TINY).named_parameters()]
        sections = []
        for n in names:
            head = n.split(".")[0]
            if not sections or sections[-1] != head:
                sections.append(head)
        assert sections == ["stem", "se", "residual", "classifier"]

    def test_layers_name_every_layer_in_parameter_order(self):
        model = build_model(ModelConfig(**{**TINY.__dict__, "residual_channels":
                                           ((8, 16, 2), (16, 16, 1))}))
        block = ["conv_a", "bn_a", "conv_b", "bn_b"]
        want = (["stem.0.conv", "stem.0.bn", "stem.1.conv", "stem.1.bn",
                 "stem.2.conv", "stem.2.bn", "se"]
                + [f"residual.0.{n}" for n in block + ["shortcut_conv", "shortcut_bn"]]
                + [f"residual.1.{n}" for n in block] + ["classifier"])
        assert [n for n, _ in model.layers()] == want
        assert [n.rsplit(".", 1)[0] for n, _ in model.named_parameters()] == \
            [n for n in want for _ in range(2)]
        assert [n for n, _ in model.batch_norms()] == \
            [n for n in want if "bn" in n.rsplit(".", 1)[-1]]

    def test_default_parameter_count_matches_closed_form(self):
        # the declared net, and the parameters held: the taps that read input
        model = build_model(ModelConfig(), draw=False)
        sizes = {name: t.size for name, t in model.named_parameters()}
        sizes.update((name, int(np.prod(shape))) for name, (shape, _)
                     in model.live_windows().items())
        assert sum(sizes.values()) == DEFAULT_PARAMETER_COUNT
        assert sum(t.size for _, t in model.named_parameters()) == \
            DEFAULT_PARAMETER_COUNT - DEFAULT_DEAD_TAPS == 33_456_647

    def test_tiny_parameter_count_matches_closed_form(self):
        # stem: (4*3*9+4 + 8) + (8*4*9+8 + 16) + (8*8*9+8 + 16)
        stem = (108 + 4 + 8) + (288 + 8 + 16) + (576 + 8 + 16)
        se = 2 * 8 + 8 * 2
        res = (8 * 8 * 9 + 8 + 16) * 2
        cls = 3 * 8 + 3
        model = build_model(TINY)
        assert sum(t.size for _, t in model.named_parameters()) == stem + se + res + cls

    def test_num_classes_plumbs_through(self):
        cfg = ModelConfig(**{**TINY.__dict__, "num_classes": 2})
        model = build_model(cfg)
        out = model.forward(Tensor(rng.standard_normal((2, 3, 16, 16))), EVAL)
        assert out.values.shape == (2, 2)


class TestDraw:
    """`build_model` draws every weight from per-chunk streams of the seed,
    on one thread per usable CPU."""

    def _cpus(self, monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    def test_state_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(layers, "INIT_CHUNK", 64)  # many chunks per weight
        states = []
        for count in (1, 4):
            self._cpus(monkeypatch, count)
            states.append({k: v.tobytes() for k, v in build_model(TINY).state_tensors().items()})
        assert states[0] == states[1]

    def test_without_an_affinity_call_the_cpu_count_sets_the_threads(self, monkeypatch):
        monkeypatch.setattr(layers, "INIT_CHUNK", 64)
        want = {k: v.tobytes() for k, v in build_model(TINY).state_tensors().items()}
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert layers._usable_cpus() == 3
        got = {k: v.tobytes() for k, v in build_model(TINY).state_tensors().items()}
        assert got == want

    def test_every_drawn_tensor_of_the_default_net_is_he_normal(self):
        with ad.using_dtype(np.float32):
            model = build_model(ModelConfig())
        drawn = [(n, t.data) for n, t in model.named_parameters() if t.data.ndim >= 2]
        assert len(drawn) == 3 + 2 + 3 * 3 + 1  # stem convs, gate, residual convs, head
        declared = model.live_windows()
        for name, w in drawn:
            # a conv built smaller keeps its declared kernel's fan-in
            fan_in = np.prod(declared[name][0][1:]) if name in declared else w[0].size
            n, std = w.size, np.sqrt(2.0 / fan_in)
            values = w.astype(np.float64)
            # five standard errors of the mean and of the standard deviation
            assert abs(values.mean()) <= 5 * std / np.sqrt(n), name
            assert abs(values.std() / std - 1) <= 5 / np.sqrt(2 * n), name

    def test_the_default_net_draws_only_the_elements_it_holds(self, monkeypatch):
        counts = []  # normals per chunk; none is drawn
        monkeypatch.setattr(layers, "_draw_chunk",
                            lambda seq, out, scale: counts.append(out.size))
        with ad.using_dtype(np.float32):
            model = build_model(ModelConfig())
        declared = model.live_windows()
        shapes = [declared[n][0] if n in declared else t.shape
                  for n, t in model.named_parameters() if t.data.ndim >= 2]
        assert sum(counts) == 33_423_040
        assert sum(math.prod(s) for s in shapes) == sum(counts) + DEFAULT_DEAD_TAPS
        # one stream per chunk of the declared weights
        assert len(counts) == sum(-(-math.prod(s) // layers.INIT_CHUNK) for s in shapes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_conv_built_smaller_keeps_every_other_tensors_streams(self, monkeypatch, dtype):
        # the last block's convs read a 2x2 and a 1x1 map; 100-element
        # chunks start and end inside kernels
        config = ModelConfig(**{**TINY.__dict__, "residual_channels": ((8, 16, 2),)})
        monkeypatch.setattr(layers, "INIT_CHUNK", 100)
        with ad.using_dtype(dtype):
            model = build_model(config)
            with monkeypatch.context() as patch:  # every conv keeps its 3x3 kernel
                patch.setattr(ad, "live_taps", lambda in_size, k, stride, pad: slice(0, k))
                declared = build_model(config).named_parameters()
        windows = model.live_windows()
        assert set(windows) == {"residual.0.conv_a.weight", "residual.0.conv_b.weight"}
        first = 0  # the child stream of the tensor's first chunk
        for (name, p), (other, whole) in zip(model.named_parameters(), declared, strict=True):
            assert name == other
            want = whole.data
            if name in windows:
                shape, window = windows[name]
                assert shape == want.shape
                want = oracles.held_he_normal_loops(config.seed, first, shape, window, 100,
                                                    dtype)
            assert p.data.dtype == dtype
            assert p.data.tobytes() == want.tobytes(), name
            if whole.data.ndim >= 2:
                first += -(-whole.data.size // 100)

    def test_float32_and_float64_models_agree_to_float32_rounding(self):
        with ad.using_dtype(np.float32):
            single = build_model(TINY).state_tensors()
        double = build_model(TINY).state_tensors()
        for name, arr in single.items():
            assert arr.dtype == np.float32 and double[name].dtype == np.float64
            assert arr.tobytes() == double[name].astype(np.float32).tobytes(), name

    def test_a_failed_chunk_raises_once_every_thread_has_stopped(self, monkeypatch):
        self._cpus(monkeypatch, 4)
        monkeypatch.setattr(layers, "INIT_CHUNK", 64)
        draw_chunk = layers._draw_chunk

        def failing(seq, out, scale):
            if seq.spawn_key == (5,):  # a helper thread's chunk
                raise MemoryError("chunk 5")
            draw_chunk(seq, out, scale)

        monkeypatch.setattr(layers, "_draw_chunk", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="chunk 5"):
            build_model(TINY)
        assert threading.active_count() == threads


class TestForward:
    def test_default_config_output_shape(self):
        model = build_model(ModelConfig(seed=5))
        x = Tensor(rng.standard_normal((1, 3, 64, 64)), dtype=np.float64)
        out = model.forward(x, EVAL)
        assert out.values.shape == (1, 7)
        assert np.all(np.isfinite(out.values.data))

    def test_batch_output_shape_and_finiteness(self):
        model = build_model(TINY)
        out = model.forward(Tensor(rng.standard_normal((16, 3, 16, 16))), EVAL)
        assert out.values.shape == (16, 3)
        assert np.all(np.isfinite(out.values.data))

    def test_unknown_mode_raises_and_leaves_running_stats(self):
        model = build_model(TINY)
        x = Tensor(rng.standard_normal((2, 3, 16, 16)) + 3.0)
        with pytest.raises(ConfigError, match="mode must be 'train' or 'eval', got 'Train'"):
            model.forward(x, "Train")
        for _, bn in model.batch_norms():
            npt.assert_array_equal(bn.running_mean, 0.0)
            npt.assert_array_equal(bn.running_var, 1.0)

    def test_zero_input_fresh_model_gives_zero_logits(self):
        # BN(0)=0 under unit running stats, conv biases are zero, the channel
        # gate scales zeros, residuals of zero stay zero, classifier bias is
        # zero -> logits exactly zero
        model = build_model(TINY)
        out = model.forward(Tensor(np.zeros((2, 3, 16, 16))), EVAL)
        npt.assert_array_equal(out.values.data, 0.0)

    def test_eval_forward_is_pure(self):
        model = build_model(TINY)
        x = Tensor(rng.standard_normal((3, 3, 16, 16)))
        a = model.forward(x, EVAL).values.data
        b = model.forward(x, EVAL).values.data
        npt.assert_array_equal(a, b)

    def test_batch_permutation_permutes_logits(self):
        model = build_model(TINY)
        x = rng.standard_normal((5, 3, 16, 16))
        perm = np.array([3, 0, 4, 1, 2])
        full = model.forward(Tensor(x), EVAL).values.data
        permuted = model.forward(Tensor(x[perm]), EVAL).values.data
        npt.assert_allclose(permuted, full[perm], atol=1e-12)

    def test_matches_stage_by_stage_recomposition(self):
        model = build_model(TINY)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)))
        got = model.forward(x, EVAL).values.data
        npt.assert_allclose(got, _replay(model, x, EVAL).data, atol=1e-12)

    def test_wrong_input_shape_names_stem(self):
        model = build_model(TINY)
        with pytest.raises(ShapeError, match="stem"):
            model.forward(Tensor(np.zeros((1, 3, 20, 20))), EVAL)
        with pytest.raises(ShapeError, match="stem"):
            model.forward(Tensor(np.zeros((1, 1, 16, 16))), EVAL)

    def test_a_stage_shape_error_names_the_stage(self):
        model = build_model(TINY)
        model.residuals[0].conv_a.weight = Tensor(np.zeros((8, 5, 3, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match=r"^residual block 0: conv2d: input "
                           r"channels 8 != weight input channels 5$"):
            model.forward(Tensor(np.zeros((1, 3, 16, 16))), EVAL)

    def test_train_mode_updates_running_stats(self):
        model = build_model(TINY)
        before = model.stem[0][1].running_mean.copy()
        model.forward(Tensor(rng.standard_normal((4, 3, 16, 16)) + 2.0), TRAIN)
        assert not np.array_equal(model.stem[0][1].running_mean, before)

    def test_argmax_invariant_under_constant_logit_shift(self):
        model = build_model(TINY)
        x = Tensor(rng.standard_normal((4, 3, 16, 16)))
        logits = model.forward(x, EVAL).values.data
        shifted = logits + 7.5
        npt.assert_array_equal(np.argmax(logits, axis=1), np.argmax(shifted, axis=1))


class TestStemOrder:
    """Each stem stage runs its ReLU after the max-pool.  ReLU is monotone,
    so this gives the bits of ReLU before the pool, forward and backward,
    also on windows that are all negative, hold a +0.0/-0.0 tie, or hold
    NaN."""

    @staticmethod
    def _run(dtype, case, relu_first):
        with ad.using_dtype(dtype):
            model = build_model(TINY)
        r = np.random.default_rng(31)
        pixels = r.standard_normal((2, 3, 16, 16))
        mode = TRAIN
        for conv, bn in model.stem:
            if case == "negative":  # every window of channel 0 below zero
                bn.gamma.data[0], bn.beta.data[0] = 0.1, -10.0
            elif case == "signed_zero":  # channel 0 is +0.0 or -0.0 by x-hat's sign
                bn.gamma.data[0], bn.beta.data[0] = 0.0, -0.0
        if case == "nan":
            # eval batch norm keeps the NaN to the windows the conv spreads it to
            pixels[0, 0, 5, 5] = np.nan
            mode = EVAL
        x = Tensor(pixels, requires_grad=True, dtype=dtype)
        with Graph():
            if relu_first:
                logits = _replay(model, x, mode, relu_first=True)
            else:
                logits = model.forward(x, mode).values
            c = Tensor(r.standard_normal(logits.shape), dtype=dtype)
            ad.tensor_sum(ad.mul(logits, c)).backward()
        stats = [a for _, bn in model.batch_norms() for a in (bn.running_mean, bn.running_var)]
        return [a.tobytes() for a in [logits.data, x.grad] + stats
                + [p.grad for _, p in model.named_parameters()]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["negative", "signed_zero", "nan"])
    def test_bits_equal_relu_before_the_pool(self, case, dtype):
        assert self._run(dtype, case, False) == self._run(dtype, case, True)

    def test_the_pool_stage_records_the_pool_then_the_relu(self, monkeypatch):
        # a traced run credits each stage the ops its `_staged` call records
        staged, recorded = model_module._staged, {}

        def spy(stage, fn, *args):
            start = len(graph.nodes)
            out = staged(stage, fn, *args)
            recorded[stage] = [node.op for node in graph.nodes[start:]]
            return out

        monkeypatch.setattr(model_module, "_staged", spy)
        model = build_model(TINY)
        with Graph() as graph:
            model.forward(Tensor(np.ones((2, 3, 16, 16))), TRAIN)
        for i in range(len(TINY.stem_channels)):
            assert recorded[f"stem stage {i} pool"] == ["max_pool2d", "relu"]
        # only the flatten before the head runs outside every stage
        assert sum(map(len, recorded.values())) == len(graph.nodes) - 1


class TestStemRecompute:
    """Stem 0's batch norm keeps no x-hat: its backward rebuilds it from the
    stage input and the conv's weight and bias, before the optimizer has
    updated them.  `train_one_epoch` steps then give the bits of steps that
    hold x-hat, whichever element type is ambient."""

    @staticmethod
    def _train(dtype, ambient):
        with ad.using_dtype(dtype):
            model = build_model(TINY)
        samples = make_synthetic_manifest(per_class=2, size=16, channels=3, seed=3).samples
        manifest = DatasetManifest.from_samples("batch", "train", samples[:6])
        optimizer = SgdState(lr=0.1, momentum=0.9)
        with ad.using_dtype(ambient):  # two steps of three samples
            train_one_epoch(model, optimizer, manifest, 3, np.random.default_rng(0), False)
        return [a.tobytes() for a in [*model.state_tensors().values(),
                                      *optimizer.velocity.values()]]

    @pytest.mark.parametrize("dtype, ambient", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    def test_steps_have_the_bits_of_holding_x_hat(self, monkeypatch, dtype, ambient):
        recomputed = self._train(dtype, ambient)
        monkeypatch.setattr(model_module, "conv_bn_forward",
                            lambda conv, bn, x, mode, recompute: conv_bn_forward(conv, bn, x, mode))
        assert recomputed == self._train(dtype, ambient)


class TestEndToEndGradient:
    def test_tiny_model_gradient_check(self):
        # eval mode: conv biases have no gradient under train-mode batch
        # statistics, which would starve finite differences (see layer tests)
        model = build_model(TINY)
        # gradient-check a representative slice: first stem conv, the two
        # gate projections, one residual conv, classifier weight+bias
        r = np.random.default_rng(348)
        x = Tensor(r.standard_normal((2, 3, 16, 16)))
        c = Tensor(r.standard_normal((2, 3)))
        picked = [
            ("stem.0.conv.weight", model.stem[0][0].weight),
            ("stem.0.conv.bias", model.stem[0][0].bias),
            ("se.w1", model.se.w1),
            ("se.w2", model.se.w2),
            ("residual.0.conv_a.weight", model.residuals[0].conv_a.weight),
            ("classifier.weight", model.classifier.weight),
            ("classifier.bias", model.classifier.bias),
        ]
        oracles.assert_gradients_match(
            lambda *ts: ad.tensor_sum(ad.mul(model.forward(x, EVAL).values, c)),
            picked)

    def test_input_gradient_check(self):
        model = build_model(TINY)
        r = np.random.default_rng(369)
        x = Tensor(r.standard_normal((1, 3, 16, 16)), requires_grad=True)
        c = Tensor(r.standard_normal((1, 3)))
        oracles.assert_gradients_match(
            lambda x: ad.tensor_sum(ad.mul(model.forward(x, EVAL).values, c)),
            [("x", x)])


class TestStatePlumbing:
    def test_state_tensors_cover_params_and_running_stats(self):
        model = build_model(TINY)
        state = model.state_tensors()
        for name, _ in model.named_parameters():
            assert name in state
        assert "stem.0.bn.running_mean" in state
        assert "residual.0.bn_a.running_var" in state

    def test_held_state_dict_follows_a_train_forward(self):
        model = build_model(TINY)
        held = model.state_tensors()
        before = {k: v.copy() for k, v in held.items()}
        model.forward(Tensor(rng.standard_normal((4, 3, 16, 16))), TRAIN)
        now = model.state_tensors()
        assert held.keys() == now.keys()
        for name, arr in now.items():
            assert held[name] is arr, name
        for name, bn in model.batch_norms():
            for stat in ("running_mean", "running_var"):
                key = f"{name}.{stat}"
                assert not np.array_equal(held[key], before[key]), key

    def test_load_state_round_trip(self):
        a = build_model(TINY)
        a.forward(Tensor(rng.standard_normal((4, 3, 16, 16))), TRAIN)  # move stats
        b = build_model(ModelConfig(**{**TINY.__dict__, "seed": 99}))
        b.load_state(a.state_tensors())
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        npt.assert_array_equal(a.forward(x, EVAL).values.data,
                               b.forward(x, EVAL).values.data)

    def test_training_a_loaded_copy_leaves_the_source_unchanged(self):
        a = build_model(TINY)
        before = {k: v.copy() for k, v in a.state_tensors().items()}
        b = build_model(ModelConfig(**{**TINY.__dict__, "seed": 99}))
        b.load_state(a.state_tensors())
        with ad.Graph():
            logits = b.forward(Tensor(rng.standard_normal((4, 3, 16, 16))), TRAIN)
            cross_entropy(logits.values, np.array([0, 1, 2, 0])).loss.backward()
        sgd_step(SgdState(lr=0.1, momentum=0.9), b.named_parameters())
        assert not np.array_equal(b.classifier.weight.data, before["classifier.weight"])
        for name, arr in a.state_tensors().items():
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_load_state_names_a_wrong_shaped_tensor_and_writes_nothing(self):
        b = build_model(TINY)
        before = {k: v.copy() for k, v in b.state_tensors().items()}
        state = {k: np.ones_like(v) for k, v in before.items()}
        state["residual.0.conv_b.weight"] = np.ones((8, 8, 1, 1))
        with pytest.raises(ShapeError, match=r"'residual\.0\.conv_b\.weight' has "
                                             r"shape \(8, 8, 1, 1\)"):
            b.load_state(state)
        for name, arr in b.state_tensors().items():
            npt.assert_array_equal(arr, before[name], err_msg=name)


# the default net's stem at a quarter of its width: the stem's first conv
# output is the largest array a forward makes
STEM_HEAVY = ModelConfig(input_channels=3, input_size=64, stem_channels=(16, 32, 64),
                         se_reduction=4, residual_channels=((64, 64, 2),))


class TestForwardMemory:
    """tracemalloc guards on what a forward allocates; float32, batch 32."""

    @pytest.fixture(scope="class")
    def model_and_batch(self):
        with ad.using_dtype("float32"):
            model = build_model(STEM_HEAVY)
            x = Tensor(np.random.default_rng(0).uniform(0, 1, (32, 3, 64, 64)))
        largest = 32 * STEM_HEAVY.stem_channels[0] * 64 * 64 * 4
        return model, x, largest

    def test_eval_peak_is_at_most_two_and_a_half_stage_outputs(self, model_and_batch):
        """Each stem kernel allocates its output plus at most a bounded
        block: batch norm one buffer, pooling no window copy, conv its
        patches a few samples at a time."""
        model, x, largest = model_and_batch
        with ad.using_dtype("float32"):
            model.forward(x, EVAL)
            tracemalloc.start()
            try:
                model.forward(x, EVAL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.5 * largest, f"peak {peak / largest:.2f} x the largest output"

    def test_train_tape_holds_outputs_and_pool_offsets_only(self, model_and_batch):
        """Batch norm keeps x-hat in the conv output it is handed, so the
        tape holds each op's output and a byte per pooled element, and no
        second output-sized array per batch norm.  No backward reads a stem
        batch norm's output or a projected shortcut's, so neither is held,
        nor stem 0's conv output, whose x-hat batch norm rebuilds."""
        model, x, _ = model_and_batch
        with ad.using_dtype("float32"):
            x = Tensor(x.data[:8])
            tracemalloc.start()
            try:
                with ad.Graph() as graph:
                    model.forward(x, TRAIN)
                    retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        pool_inputs = [n.inputs[0] for n in graph.nodes if n.op == "max_pool2d"]
        shortcuts = [n.inputs[1] for n in graph.nodes
                     if n.op == "add" and n.inputs[1].node.op == "batch_norm2d_train"]
        assert len(pool_inputs) == len(STEM_HEAVY.stem_channels) and len(shortcuts) == 1
        for t in pool_inputs + shortcuts:
            assert t.node.op == "batch_norm2d_train"
            assert owner(t.data).nbytes == t.data.itemsize, "a dropped output is held"
        stem_convs = [n.out.data for n in graph.nodes if n.op == "conv2d"][:2]
        assert owner(stem_convs[0]).nbytes == stem_convs[0].itemsize, "stem 0's x-hat is held"
        assert owner(stem_convs[1]).nbytes == stem_convs[1].nbytes, "stem 1's x-hat is dropped"
        buffers = {id(owner(n.out.data)): owner(n.out.data) for n in graph.nodes}
        outputs = sum(a.nbytes for a in buffers.values())
        offsets = sum(n.out.data.size for n in graph.nodes if n.op == "max_pool2d")
        bn_outputs = sum(n.out.data.nbytes for n in graph.nodes
                         if n.op == "batch_norm2d_train")
        extra = retained - outputs - offsets
        assert extra < 0.5 * bn_outputs, f"{extra} bytes besides outputs, BN {bn_outputs}"

    def test_eval_peak_holds_one_stage_output_at_a_time(self, model_and_batch):
        """With no graph, batch norm writes in the conv output and ReLU in
        the pool's or the batch norm's, so an eval block holds one
        output-sized array plus its conv's patch block.  Bound 1.75x: 1.53x
        measured here, 2.00x when each op made a new output."""
        model, x, largest = model_and_batch
        with ad.using_dtype("float32"):
            model.forward(x, EVAL)
            tracemalloc.start()
            try:
                model.forward(x, EVAL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1.75 * largest, f"peak {peak / largest:.2f} x the largest output"

    def test_train_step_peak_reuses_dead_buffers(self, model_and_batch):
        """A whole `train_one_epoch` step of one batch: ReLU writes over the
        pool or BN output and the residual add over the BN output, the stem
        drops each BN output once its pool has run and stem 0 its x-hat,
        the conv input gradient is built a few samples at a time, and BN
        backward works in its x-hat and its output gradient.
        Bound 2.7x the largest stage output: 2.3x measured here, 3.2x while
        stem 0 held its x-hat and BN backward a whole-size scratch array,
        5.3x when the stem kept its BN outputs, 7.5x when each op made a
        new array."""
        model, x, largest = model_and_batch
        samples = [Sample(pixels=pixels, label=i % 7, source_id=str(i))
                   for i, pixels in enumerate(x.data)]
        manifest = DatasetManifest.from_samples("batch", "train", samples)
        optimizer = SgdState(lr=0.01, momentum=0.9)
        with ad.using_dtype("float32"):
            train_one_epoch(model, optimizer, manifest, 32, np.random.default_rng(0), False)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                train_one_epoch(model, optimizer, manifest, 32, np.random.default_rng(0),
                                False)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak <= 2.7 * largest, f"peak {peak / largest:.2f} x the largest output"

    def test_fer48_train_step_peak_holds_a_small_conv_block(self):
        """A steady FER-48 step at batch 32 holds its tape plus one conv
        block of at most `autodiff.CONV_BLOCK` patch elements (1 MiB in
        float32).  Bound 4.2x the largest stage output (stem 0's, 2.25 MiB):
        2.6x measured here; 3.6x while stem 0 held its x-hat, 4.5x then with
        2^19-element blocks and 5.2x with 2^20, the deferred gradient's row
        block."""
        with ad.using_dtype("float32"):
            model = build_model(FER48)
            samples = make_synthetic_manifest(per_class=5, size=48, channels=1, seed=1).samples
            manifest = DatasetManifest.from_samples("batch", "train", samples[:32])
            optimizer = SgdState(lr=0.01, momentum=0.9)
            train_one_epoch(model, optimizer, manifest, 32, np.random.default_rng(0), False)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                train_one_epoch(model, optimizer, manifest, 32, np.random.default_rng(0),
                                False)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        largest = 32 * FER48.stem_channels[0] * 48 * 48 * 4
        assert peak <= 4.2 * largest, f"peak {peak / largest:.2f} x the largest output"
