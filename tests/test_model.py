"""End-to-end behavior of the assembled network and its configuration."""

import numpy as np
import numpy.testing as npt
import pytest

from resemotenet import autodiff as ad
from resemotenet.autodiff import Tensor
from resemotenet.errors import ConfigError, ShapeError
from resemotenet.layers import EVAL, TRAIN, conv_block_forward, residual_forward, se_forward
from resemotenet.model import ModelConfig, ResEmoteNetModel, build_model
from resemotenet.optim import SgdState, cross_entropy, sgd_step

rng = np.random.default_rng(123)

# small enough to run everywhere, same topology as the default
TINY = ModelConfig(
    input_channels=3, input_size=16, stem_channels=(4, 8, 8), se_reduction=4,
    residual_channels=((8, 8, 1),), num_classes=3, seed=11)

DEFAULT_PARAMETER_COUNT = 77_496_839


class TestConfigValidation:
    def test_default_config_is_valid(self):
        cfg = ModelConfig()
        assert cfg.final_channels == 2048
        assert cfg.classifier_inputs == 2048

    def test_spatial_plan_default(self):
        # 64 -> 32 -> 16 -> 8 through the stem pools, -> 4 -> 2 -> 1 through
        # the stride-2 residual stages
        assert ModelConfig().spatial_plan() == [64, 32, 16, 8, 4, 2, 1]

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
        model = build_model(ModelConfig())
        assert model.parameter_count() == DEFAULT_PARAMETER_COUNT

    def test_tiny_parameter_count_matches_closed_form(self):
        # stem: (4*3*9+4 + 8) + (8*4*9+8 + 16) + (8*8*9+8 + 16)
        stem = (108 + 4 + 8) + (288 + 8 + 16) + (576 + 8 + 16)
        se = 2 * 8 + 8 * 2
        res = (8 * 8 * 9 + 8 + 16) * 2
        cls = 3 * 8 + 3
        model = build_model(TINY)
        assert model.parameter_count() == stem + se + res + cls

    def test_num_classes_plumbs_through(self):
        cfg = ModelConfig(**{**TINY.__dict__, "num_classes": 2})
        model = build_model(cfg)
        out = model.forward(Tensor(rng.standard_normal((2, 3, 16, 16))), EVAL)
        assert out.values.shape == (2, 2)


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
        # replay the pipeline through the public stage functions
        model.set_mode(EVAL)
        out = x
        for conv, bn in model.stem:
            out = ad.max_pool2d(conv_block_forward(conv, bn, out), 2, 2)
        out = se_forward(model.se, out)
        for block in model.residuals:
            out = residual_forward(block, out)
        out = ad.adaptive_avg_pool(out, 1, 1)
        out = ad.reshape(out, (1, model.config.classifier_inputs))
        want = model.classifier.forward(out).data
        npt.assert_allclose(got, want, atol=1e-12)

    def test_wrong_input_shape_names_stem(self):
        model = build_model(TINY)
        with pytest.raises(ShapeError, match="stem"):
            model.forward(Tensor(np.zeros((1, 3, 20, 20))), EVAL)
        with pytest.raises(ShapeError, match="stem"):
            model.forward(Tensor(np.zeros((1, 1, 16, 16))), EVAL)

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


class TestEndToEndGradient:
    def test_tiny_model_gradient_check(self):
        # eval mode: conv biases have no gradient under train-mode batch
        # statistics, which would starve finite differences (see layer tests)
        model = build_model(TINY)
        # gradient-check a representative slice: first stem conv, the two
        # gate projections, one residual conv, classifier weight+bias
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        c = Tensor(rng.standard_normal((2, 3)))
        picked = [
            ("stem.0.conv.weight", model.stem[0][0].weight),
            ("stem.0.conv.bias", model.stem[0][0].bias),
            ("se.w1", model.se.w1),
            ("se.w2", model.se.w2),
            ("residual.0.conv_a.weight", model.residuals[0].conv_a.weight),
            ("classifier.weight", model.classifier.weight),
            ("classifier.bias", model.classifier.bias),
        ]
        report = ad.grad_check(
            lambda *ts: ad.tensor_sum(ad.mul(model.forward(x, EVAL).values, c)),
            picked)
        assert report.passed, f"\n{report!r}"

    def test_input_gradient_check(self):
        model = build_model(TINY)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)), requires_grad=True)
        c = Tensor(rng.standard_normal((1, 3)))
        report = ad.grad_check(
            lambda x: ad.tensor_sum(ad.mul(model.forward(x, EVAL).values, c)),
            [("x", x)])
        assert report.passed, f"\n{report!r}"


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
            cross_entropy(logits, np.array([0, 1, 2, 0])).loss.backward()
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
