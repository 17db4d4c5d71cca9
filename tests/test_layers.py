"""Behavioral tests for the architectural units: conv+BN blocks, the
channel-attention gate, residual blocks, and the classifier head."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet import autodiff as ad
from resemotenet import layers
from resemotenet.autodiff import Graph, Tensor
from resemotenet.errors import ConfigError, ShapeError
from resemotenet.layers import (
    BatchNorm2d,
    Conv2dLayer,
    LinearLayer,
    ResidualBlock,
    SEBlock,
    conv_block_forward,
    residual_forward,
    se_forward,
)

rng = np.random.default_rng(7)


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestConvBlock:
    def test_constant_input_normalizes_to_zero(self):
        # every channel constant -> batch stats remove everything -> relu(0)
        conv = Conv2dLayer(2, 3, 3, padding=1, rng=make_rng())
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = 5.0  # constant pre-BN activations
        bn = BatchNorm2d(3)
        bn.mode = layers.TRAIN
        x = Tensor(np.ones((2, 2, 4, 4)))
        out = conv_block_forward(conv, bn, x)
        npt.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_eval_with_unit_stats_is_identity_up_to_eps(self):
        conv = Conv2dLayer(1, 1, 1, rng=make_rng())
        conv.weight.data[:] = 1.0
        conv.bias.data[:] = 0.0
        bn = BatchNorm2d(1)
        bn.mode = layers.EVAL
        x = Tensor(np.abs(rng.standard_normal((2, 1, 3, 3))))
        out = conv_block_forward(conv, bn, x)
        npt.assert_allclose(out.data, x.data, rtol=1e-5)

    def test_train_mode_output_statistics(self):
        # with default gamma=1, beta=0 the BN output is the normalized batch
        bn = BatchNorm2d(8)
        bn.mode = layers.TRAIN
        x = Tensor(rng.standard_normal((4, 8, 6, 6)) * 2.0 + 1.0)
        out = bn.forward(x)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        npt.assert_allclose(mean, 0.0, atol=1e-6)
        npt.assert_allclose(var, 1.0, atol=1e-3)

    def test_running_stats_update_rule(self):
        bn = BatchNorm2d(2)
        bn.mode = layers.TRAIN
        x = Tensor(rng.standard_normal((3, 2, 4, 4)) + 3.0)
        batch_mean = x.data.mean(axis=(0, 2, 3))
        batch_var = x.data.var(axis=(0, 2, 3))
        bn.forward(x)
        npt.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * batch_mean, atol=1e-12)
        npt.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * batch_var, atol=1e-12)

    def test_running_stats_update_in_place_with_the_same_bits(self):
        bn = BatchNorm2d(2)
        bn.mode = layers.TRAIN
        bn.running_mean[...] = [0.25, -1.5]
        buffers = (bn.running_mean, bn.running_var)
        m = layers.BN_MOMENTUM
        x = Tensor(rng.standard_normal((3, 2, 4, 4)) + 3.0)
        want_mean = (1.0 - m) * bn.running_mean + m * x.data.mean(axis=(0, 2, 3))
        want_var = (1.0 - m) * bn.running_var + m * x.data.var(axis=(0, 2, 3))
        bn.forward(x)
        assert bn.running_mean is buffers[0] and bn.running_var is buffers[1]
        assert bn.running_mean.tobytes() == want_mean.tobytes()
        assert bn.running_var.tobytes() == want_var.tobytes()

    def test_eval_mode_does_not_touch_running_stats(self):
        bn = BatchNorm2d(2)
        bn.mode = layers.EVAL
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn.forward(Tensor(rng.standard_normal((2, 2, 3, 3))))
        npt.assert_array_equal(bn.running_mean, before[0])
        npt.assert_array_equal(bn.running_var, before[1])

    def test_eval_before_any_train_uses_unit_stats(self):
        bn = BatchNorm2d(3)
        bn.mode = layers.EVAL
        x = Tensor(rng.standard_normal((1, 3, 2, 2)))
        out = bn.forward(x)
        npt.assert_allclose(out.data, x.data / np.sqrt(1 + 1e-5), atol=1e-12)


class TestSEBlock:
    def test_zero_weights_give_half_gate(self):
        se = SEBlock(8, reduction_ratio=4, rng=make_rng())
        se.w1.data[:] = 0.0
        se.w2.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        out = se_forward(se, x)
        npt.assert_allclose(out.data, 0.5 * x.data, atol=1e-12)

    def test_zero_input_stays_zero(self):
        se = SEBlock(8, reduction_ratio=2, rng=make_rng(3))
        x = Tensor(np.zeros((2, 8, 4, 4)))
        out = se_forward(se, x)
        npt.assert_array_equal(out.data, 0.0)

    def test_matches_step_by_step_composition(self):
        se = SEBlock(16, reduction_ratio=4, rng=make_rng(5))
        x = Tensor(rng.standard_normal((2, 16, 4, 4)))
        out = se_forward(se, x)
        # recompose from the constituent primitives one step at a time
        z = x.data.mean(axis=(2, 3))
        hidden = np.maximum(z @ se.w1.data.T, 0.0)
        scores = hidden @ se.w2.data.T
        gate = 1.0 / (1.0 + np.exp(-scores))
        npt.assert_allclose(out.data, x.data * gate[:, :, None, None], atol=1e-12)

    def test_gate_bounds_output(self):
        se = SEBlock(8, reduction_ratio=2, rng=make_rng(9))
        x = Tensor(rng.standard_normal((3, 8, 5, 5)) * 10.0)
        out = se_forward(se, x)
        assert np.max(np.abs(out.data)) <= np.max(np.abs(x.data))

    def test_rejects_indivisible_reduction(self):
        with pytest.raises(ConfigError, match="divisible"):
            SEBlock(10, reduction_ratio=4, rng=make_rng())

    def test_channel_mismatch_raises(self):
        se = SEBlock(8, reduction_ratio=2, rng=make_rng())
        with pytest.raises(ShapeError):
            se_forward(se, Tensor(np.zeros((1, 6, 3, 3))))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(2, 6), st.floats(0.1, 10.0))
def test_se_gate_strictly_inside_unit_interval(n, h, w, scale):
    se = SEBlock(4, reduction_ratio=2, rng=make_rng(11))
    x = np.full((n, 4, h, w), scale)
    out = se_forward(se, Tensor(x))
    ratio = out.data / x
    assert np.all(ratio > 0.0) and np.all(ratio < 1.0)


class TestResidualBlock:
    def _passthrough_bn(self, bn):
        bn.mode = layers.EVAL  # unit running stats -> near-identity

    def test_zero_residual_branch_acts_as_relu(self):
        block = ResidualBlock(4, 4, stride=1, rng=make_rng())
        assert block.shortcut_conv is None
        for conv in (block.conv_a, block.conv_b):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        for bn in (block.bn_a, block.bn_b):
            self._passthrough_bn(bn)
        x = Tensor(np.abs(rng.standard_normal((2, 4, 6, 6))))
        out = residual_forward(block, x)
        # H(x) is exactly zero (BN of zeros with unit stats and zero shift),
        # so the block reduces to relu(identity) bitwise
        npt.assert_array_equal(out.data, x.data)

    def test_zero_branch_in_train_mode_also_exact(self):
        block = ResidualBlock(4, 4, stride=1, rng=make_rng(1))
        for conv in (block.conv_a, block.conv_b):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        x = Tensor(np.abs(rng.standard_normal((2, 4, 6, 6))))
        out = residual_forward(block, x)  # train-mode BNs: 0 normalizes to 0
        npt.assert_array_equal(out.data, x.data)

    def test_downsampling_block_shape_and_composition(self):
        block = ResidualBlock(16, 32, stride=2, rng=make_rng(4))
        for bn in (block.bn_a, block.bn_b, block.shortcut_bn):
            bn.mode = layers.EVAL
        x = Tensor(rng.standard_normal((2, 16, 8, 8)))
        out = residual_forward(block, x)
        assert out.shape == (2, 32, 4, 4)
        # manual recomposition of the declared sub-operations
        h = ad.relu(block.bn_a.forward(block.conv_a.forward(x)))
        h = block.bn_b.forward(block.conv_b.forward(h))
        sc = block.shortcut_bn.forward(block.shortcut_conv.forward(x))
        want = np.maximum(h.data + sc.data, 0.0)
        npt.assert_allclose(out.data, want, atol=1e-12)

    def test_auto_shortcut_selection(self):
        assert ResidualBlock(8, 8, 1, rng=make_rng()).shortcut_conv is None
        assert ResidualBlock(8, 16, 1, rng=make_rng()).shortcut_conv is not None
        assert ResidualBlock(8, 8, 2, rng=make_rng()).shortcut_conv is not None

    def test_layers_list_the_projection_only_when_it_projects(self):
        plain = ["conv_a", "bn_a", "conv_b", "bn_b"]
        identity = ResidualBlock(8, 8, 1, rng=make_rng())
        projecting = ResidualBlock(8, 16, 2, rng=make_rng())
        assert [n for n, _ in identity.layers()] == plain
        assert [n for n, _ in projecting.layers()] == plain + ["shortcut_conv", "shortcut_bn"]
        assert dict(projecting.layers())["shortcut_bn"] is projecting.shortcut_bn


class TestLayerGradients:
    def test_conv_block_parameters_eval_mode(self):
        # eval mode so the conv bias has gradient signal; train-mode batch
        # statistics absorb per-channel constants, making the true bias
        # gradient identically zero (nothing finite differences can resolve)
        conv = Conv2dLayer(2, 3, 3, padding=1, rng=make_rng(6))
        bn = BatchNorm2d(3)
        bn.mode = layers.EVAL
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        c = Tensor(rng.standard_normal((2, 3, 2, 2)))

        def f(w, b, g, bt):
            y = conv_block_forward(conv, bn, x)
            return ad.tensor_sum(ad.mul(ad.max_pool2d(y, 2, 2), c))

        report = ad.grad_check(f, [("w", conv.weight), ("b", conv.bias),
                                   ("g", bn.gamma), ("bt", bn.beta)])
        assert report.passed, f"\n{report!r}"

    def test_conv_block_parameters_train_mode(self):
        # the composed train-mode path, minus the bias (see above)
        conv = Conv2dLayer(2, 3, 3, padding=1, rng=make_rng(6))
        bn = BatchNorm2d(3)
        bn.mode = layers.TRAIN
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        c = Tensor(rng.standard_normal((2, 3, 4, 4)))

        def f(w, g, bt):
            return ad.tensor_sum(ad.mul(conv_block_forward(conv, bn, x), c))

        report = ad.grad_check(f, [("w", conv.weight), ("g", bn.gamma),
                                   ("bt", bn.beta)])
        assert report.passed, f"\n{report!r}"

    def test_conv_bias_before_train_bn_has_zero_gradient(self):
        # document the invariance directly: the analytic bias gradient under
        # train-mode normalization vanishes to accumulation roundoff
        conv = Conv2dLayer(2, 3, 3, padding=1, rng=make_rng(6))
        bn = BatchNorm2d(3)
        bn.mode = layers.TRAIN
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        with Graph():
            out = conv_block_forward(conv, bn, x)
            ad.tensor_sum(ad.mul(out, out)).backward()
        assert np.max(np.abs(conv.bias.grad)) < 1e-10

    def test_se_block_parameters(self):
        se = SEBlock(8, reduction_ratio=4, rng=make_rng(8))
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        c = Tensor(rng.standard_normal((2, 8, 3, 3)))
        report = ad.grad_check(
            lambda w1, w2: ad.tensor_sum(ad.mul(se_forward(se, x), c)),
            [("w1", se.w1), ("w2", se.w2)])
        assert report.passed, f"\n{report!r}"

    def test_residual_block_parameters_projection(self):
        # eval mode: see the conv-bias note above
        block = ResidualBlock(3, 4, stride=2, rng=make_rng(10))
        for bn in (block.bn_a, block.bn_b, block.shortcut_bn):
            bn.mode = layers.EVAL
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        c = Tensor(rng.standard_normal((2, 4, 3, 3)))
        named = [(n, t) for n, t in block.named_parameters()]
        report = ad.grad_check(
            lambda *params: ad.tensor_sum(ad.mul(residual_forward(block, x), c)),
            named)
        assert report.passed, f"\n{report!r}"

    def test_linear_layer_parameters(self):
        lin = LinearLayer(5, 3, rng=make_rng(12))
        x = Tensor(rng.standard_normal((4, 5)))
        c = Tensor(rng.standard_normal((4, 3)))
        report = ad.grad_check(
            lambda w, b: ad.tensor_sum(ad.mul(lin.forward(x), c)),
            [("w", lin.weight), ("b", lin.bias)])
        assert report.passed, f"\n{report!r}"


class TestInitialization:
    def test_he_scale(self):
        big = Conv2dLayer(32, 64, 3, rng=make_rng(0))
        fan_in = 32 * 9
        std = big.weight.data.std()
        npt.assert_allclose(std, np.sqrt(2.0 / fan_in), rtol=0.1)

    def test_biases_start_at_zero(self):
        conv = Conv2dLayer(2, 3, 3, rng=make_rng())
        lin = LinearLayer(4, 2, rng=make_rng())
        npt.assert_array_equal(conv.bias.data, 0.0)
        npt.assert_array_equal(lin.bias.data, 0.0)

    def test_bn_affine_starts_as_identity(self):
        bn = BatchNorm2d(5)
        npt.assert_array_equal(bn.gamma.data, 1.0)
        npt.assert_array_equal(bn.beta.data, 0.0)
        npt.assert_array_equal(bn.running_mean, 0.0)
        npt.assert_array_equal(bn.running_var, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_draw_equals_one_whole_draw(self, dtype):
        shape = (3, layers.INIT_BLOCK // 2 + 5)  # two whole blocks and a part
        with ad.using_dtype(dtype):
            got = layers.he_normal(make_rng(4), shape, fan_in=27)
        want = (make_rng(4).standard_normal(shape) * np.sqrt(2.0 / 27)).astype(dtype)
        assert got.data.dtype == dtype and got.data.shape == shape
        assert got.data.tobytes() == want.tobytes()
