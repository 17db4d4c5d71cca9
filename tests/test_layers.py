"""Behavioral tests for the architectural units: conv+BN pairs, the
channel-attention gate, residual blocks, and the classifier head."""

import contextlib

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
    conv_bn_forward,
    residual_forward,
    se_forward,
)

import oracles

rng = np.random.default_rng(7)


def make_rng(seed=0):
    return np.random.default_rng(seed)


def drawn(layer, seed=0):
    """`layer` with its weights drawn as `build_model` draws a model's."""
    layers.draw_he_normal(layer.named_parameters(), seed)
    return layer


class TestConvBlock:
    def test_constant_input_normalizes_to_zero(self):
        # every channel constant -> batch stats remove everything
        conv = Conv2dLayer(2, 3, 3, padding=1)
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = 5.0  # constant pre-BN activations
        bn = BatchNorm2d(3)
        x = Tensor(np.ones((2, 2, 4, 4)))
        out = conv_bn_forward(conv, bn, x, layers.TRAIN)
        npt.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_eval_with_unit_stats_is_identity_up_to_eps(self):
        conv = Conv2dLayer(1, 1, 1)
        conv.weight.data[:] = 1.0
        conv.bias.data[:] = 0.0
        bn = BatchNorm2d(1)
        x = Tensor(np.abs(rng.standard_normal((2, 1, 3, 3))))
        out = conv_bn_forward(conv, bn, x, layers.EVAL)
        npt.assert_allclose(out.data, x.data, rtol=1e-5)

    def test_train_mode_output_statistics(self):
        # with default gamma=1, beta=0 the BN output is the normalized batch
        bn = BatchNorm2d(8)
        x = Tensor(rng.standard_normal((4, 8, 6, 6)) * 2.0 + 1.0)
        out = bn.forward(x, layers.TRAIN)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        npt.assert_allclose(mean, 0.0, atol=1e-6)
        npt.assert_allclose(var, 1.0, atol=1e-3)

    def test_running_stats_update_rule(self):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)) + 3.0)
        batch_mean = x.data.mean(axis=(0, 2, 3))
        batch_var = x.data.var(axis=(0, 2, 3))
        bn.forward(x, layers.TRAIN)
        npt.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * batch_mean, atol=1e-12)
        npt.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * batch_var, atol=1e-12)

    def test_running_stats_update_in_place_with_the_same_bits(self):
        bn = BatchNorm2d(2)
        bn.running_mean[...] = [0.25, -1.5]
        buffers = (bn.running_mean, bn.running_var)
        m = layers.BN_MOMENTUM
        x = Tensor(rng.standard_normal((3, 2, 4, 4)) + 3.0)
        want_mean = (1.0 - m) * bn.running_mean + m * x.data.mean(axis=(0, 2, 3))
        want_var = (1.0 - m) * bn.running_var + m * x.data.var(axis=(0, 2, 3))
        bn.forward(x, layers.TRAIN)
        assert bn.running_mean is buffers[0] and bn.running_var is buffers[1]
        assert bn.running_mean.tobytes() == want_mean.tobytes()
        assert bn.running_var.tobytes() == want_var.tobytes()

    def test_eval_mode_does_not_touch_running_stats(self):
        bn = BatchNorm2d(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn.forward(Tensor(rng.standard_normal((2, 2, 3, 3))), layers.EVAL)
        npt.assert_array_equal(bn.running_mean, before[0])
        npt.assert_array_equal(bn.running_var, before[1])

    def test_unknown_mode_raises_before_touching_running_stats(self):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)) + 3.0)
        with pytest.raises(ConfigError, match="mode must be 'train' or 'eval', got 'Train'"):
            bn.forward(x, "Train")
        npt.assert_array_equal(bn.running_mean, 0.0)
        npt.assert_array_equal(bn.running_var, 1.0)

    def test_eval_before_any_train_uses_unit_stats(self):
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((1, 3, 2, 2)))
        out = bn.forward(x, layers.EVAL)
        npt.assert_allclose(out.data, x.data / np.sqrt(1 + 1e-5), atol=1e-12)


class TestSEBlock:
    def test_zero_weights_give_half_gate(self):
        se = SEBlock(8, reduction_ratio=4)
        se.w1.data[:] = 0.0
        se.w2.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        out = se_forward(se, x)
        npt.assert_allclose(out.data, 0.5 * x.data, atol=1e-12)

    def test_zero_input_stays_zero(self):
        se = drawn(SEBlock(8, reduction_ratio=2), 3)
        x = Tensor(np.zeros((2, 8, 4, 4)))
        out = se_forward(se, x)
        npt.assert_array_equal(out.data, 0.0)

    def test_matches_step_by_step_composition(self):
        se = drawn(SEBlock(16, reduction_ratio=4), 5)
        x = Tensor(rng.standard_normal((2, 16, 4, 4)))
        out = se_forward(se, x)
        # recompose from the constituent primitives one step at a time
        z = x.data.mean(axis=(2, 3))
        hidden = np.maximum(z @ se.w1.data.T, 0.0)
        scores = hidden @ se.w2.data.T
        gate = 1.0 / (1.0 + np.exp(-scores))
        npt.assert_allclose(out.data, x.data * gate[:, :, None, None], atol=1e-12)

    def test_gate_bounds_output(self):
        se = drawn(SEBlock(8, reduction_ratio=2), 9)
        x = Tensor(rng.standard_normal((3, 8, 5, 5)) * 10.0)
        out = se_forward(se, x)
        assert np.max(np.abs(out.data)) <= np.max(np.abs(x.data))

    def test_channel_mismatch_raises(self):
        se = drawn(SEBlock(8, reduction_ratio=2))
        with pytest.raises(ShapeError):
            se_forward(se, Tensor(np.zeros((1, 6, 3, 3))))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(2, 6), st.floats(0.1, 10.0))
def test_se_gate_strictly_inside_unit_interval(n, h, w, scale):
    se = drawn(SEBlock(4, reduction_ratio=2), 11)
    x = np.full((n, 4, h, w), scale)
    out = se_forward(se, Tensor(x))
    ratio = out.data / x
    assert np.all(ratio > 0.0) and np.all(ratio < 1.0)


class TestResidualBlock:
    def test_zero_residual_branch_acts_as_relu(self):
        block = ResidualBlock(4, 4, stride=1)
        assert block.shortcut_conv is None
        for conv in (block.conv_a, block.conv_b):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        x = Tensor(np.abs(rng.standard_normal((2, 4, 6, 6))))
        # eval mode: unit running stats make each BN a near-identity
        out = residual_forward(block, x, layers.EVAL)
        # H(x) is exactly zero (BN of zeros with unit stats and zero shift),
        # so the block reduces to relu(identity) bitwise
        npt.assert_array_equal(out.data, x.data)

    def test_zero_branch_in_train_mode_also_exact(self):
        block = ResidualBlock(4, 4, stride=1)
        for conv in (block.conv_a, block.conv_b):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        x = Tensor(np.abs(rng.standard_normal((2, 4, 6, 6))))
        out = residual_forward(block, x, layers.TRAIN)  # 0 normalizes to 0
        npt.assert_array_equal(out.data, x.data)

    def test_downsampling_block_shape_and_composition(self):
        block = drawn(ResidualBlock(16, 32, stride=2), 4)
        x = Tensor(rng.standard_normal((2, 16, 8, 8)))
        out = residual_forward(block, x, layers.EVAL)
        assert out.shape == (2, 32, 4, 4)
        # manual recomposition of the declared sub-operations
        h = ad.relu(block.bn_a.forward(block.conv_a.forward(x), layers.EVAL))
        h = block.bn_b.forward(block.conv_b.forward(h), layers.EVAL)
        sc = block.shortcut_bn.forward(block.shortcut_conv.forward(x), layers.EVAL)
        want = np.maximum(h.data + sc.data, 0.0)
        npt.assert_allclose(out.data, want, atol=1e-12)

    def test_auto_shortcut_selection(self):
        assert ResidualBlock(8, 8, 1).shortcut_conv is None
        assert ResidualBlock(8, 16, 1).shortcut_conv is not None
        assert ResidualBlock(8, 8, 2).shortcut_conv is not None

    def test_layers_list_the_projection_only_when_it_projects(self):
        plain = ["conv_a", "bn_a", "conv_b", "bn_b"]
        identity = ResidualBlock(8, 8, 1)
        projecting = ResidualBlock(8, 16, 2)
        assert [n for n, _ in identity.layers()] == plain
        assert [n for n, _ in projecting.layers()] == plain + ["shortcut_conv", "shortcut_bn"]
        assert dict(projecting.layers())["shortcut_bn"] is projecting.shortcut_bn


class TestLayerGradients:
    def test_conv_block_parameters_eval_mode(self):
        # eval mode so the conv bias has gradient signal; train-mode batch
        # statistics absorb per-channel constants, making the true bias
        # gradient identically zero (nothing finite differences can resolve)
        conv = drawn(Conv2dLayer(2, 3, 3, padding=1), 6)
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        c = Tensor(rng.standard_normal((2, 3, 2, 2)))

        def f(w, b, g, bt):
            y = ad.max_pool2d(conv_bn_forward(conv, bn, x, layers.EVAL), 2, 2)
            return ad.tensor_sum(ad.mul(ad.relu(y), c))

        oracles.assert_gradients_match(f, [("w", conv.weight), ("b", conv.bias),
                                           ("g", bn.gamma), ("bt", bn.beta)])

    def test_conv_block_parameters_train_mode(self):
        # the composed train-mode path, minus the bias (see above)
        conv = drawn(Conv2dLayer(2, 3, 3, padding=1), 6)
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        c = Tensor(rng.standard_normal((2, 3, 4, 4)))

        def f(w, g, bt):
            y = ad.relu(conv_bn_forward(conv, bn, x, layers.TRAIN))
            return ad.tensor_sum(ad.mul(y, c))

        oracles.assert_gradients_match(f, [("w", conv.weight), ("g", bn.gamma),
                                           ("bt", bn.beta)])

    def test_conv_bias_before_train_bn_has_zero_gradient(self):
        # document the invariance directly: the analytic bias gradient under
        # train-mode normalization vanishes to accumulation roundoff
        conv = drawn(Conv2dLayer(2, 3, 3, padding=1), 6)
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        with Graph():
            out = ad.relu(conv_bn_forward(conv, bn, x, layers.TRAIN))
            ad.tensor_sum(ad.mul(out, out)).backward()
        assert np.max(np.abs(conv.bias.grad)) < 1e-10

    def test_se_block_parameters(self):
        se = drawn(SEBlock(8, reduction_ratio=4), 8)
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        c = Tensor(rng.standard_normal((2, 8, 3, 3)))
        oracles.assert_gradients_match(
            lambda w1, w2: ad.tensor_sum(ad.mul(se_forward(se, x), c)),
            [("w1", se.w1), ("w2", se.w2)])

    def test_residual_block_parameters_projection(self):
        # eval mode: see the conv-bias note above
        block = drawn(ResidualBlock(3, 4, stride=2), 10)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        c = Tensor(rng.standard_normal((2, 4, 3, 3)))
        named = [(n, t) for n, t in block.named_parameters()]
        oracles.assert_gradients_match(
            lambda *params: ad.tensor_sum(ad.mul(
                residual_forward(block, x, layers.EVAL), c)),
            named)

    def test_linear_layer_parameters(self):
        lin = drawn(LinearLayer(5, 3), 12)
        x = Tensor(rng.standard_normal((4, 5)))
        c = Tensor(rng.standard_normal((4, 3)))
        oracles.assert_gradients_match(
            lambda w, b: ad.tensor_sum(ad.mul(lin.forward(x), c)),
            [("w", lin.weight), ("b", lin.bias)])


class TestInitialization:
    def test_he_scale(self):
        big = drawn(Conv2dLayer(32, 64, 3))
        fan_in = 32 * 9
        std = big.weight.data.std()
        npt.assert_allclose(std, np.sqrt(2.0 / fan_in), rtol=0.1)

    def test_biases_start_at_zero(self):
        conv = drawn(Conv2dLayer(2, 3, 3))
        lin = drawn(LinearLayer(4, 2))
        npt.assert_array_equal(conv.bias.data, 0.0)
        npt.assert_array_equal(lin.bias.data, 0.0)

    def test_bn_affine_starts_as_identity(self):
        bn = BatchNorm2d(5)
        npt.assert_array_equal(bn.gamma.data, 1.0)
        npt.assert_array_equal(bn.beta.data, 0.0)
        npt.assert_array_equal(bn.running_mean, 0.0)
        npt.assert_array_equal(bn.running_var, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_chunk_is_drawn_from_its_own_child_stream(self, dtype):
        # the linear weight spans two chunks; the conv weight is the third
        with ad.using_dtype(dtype):
            lin = LinearLayer(32, layers.INIT_CHUNK // 32 + 1)
            conv = Conv2dLayer(2, 3, 3)
        layers.draw_he_normal(lin.named_parameters() + conv.named_parameters(), seed=4)
        children = np.random.SeedSequence(4).spawn(3)

        def chunk(k, n, fan_in):
            normals = np.random.Generator(np.random.PCG64(children[k])).standard_normal(n)
            return (normals * np.sqrt(2.0 / fan_in)).astype(dtype)

        want = np.concatenate([chunk(0, layers.INIT_CHUNK, 32), chunk(1, 32, 32)])
        assert lin.weight.data.dtype == dtype
        assert lin.weight.data.reshape(-1).tobytes() == want.tobytes()
        assert conv.weight.data.reshape(-1).tobytes() == chunk(2, 54, 18).tobytes()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_size, stride", [(1, 1), (2, 2), (3, 5)])
    def test_a_conv_built_smaller_draws_each_chunks_held_elements_from_its_stream(
            self, monkeypatch, dtype, in_size, stride):
        # 7-element chunks start and end inside kernels, and inside windows
        monkeypatch.setattr(layers, "INIT_CHUNK", 7)
        with ad.using_dtype(dtype):
            compact = Conv2dLayer(3, 5, 3, stride, 1, in_size)
        assert compact.window is not None
        shape = (5, 3, 3, 3)
        layers.draw_he_normal(compact.named_parameters(), seed=6,
                              declared={"weight": (shape, compact.window)})
        want = oracles.held_he_normal_loops(6, 0, shape, compact.window, 7, dtype)
        assert compact.weight.data.dtype == dtype
        assert compact.weight.data.tobytes() == want.tobytes()


#: the model's convs as (kernel, padding): 3x3 pad-1 and the 1x1 projection
MODEL_CONVS = [(3, 1), (1, 0)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 256), st.integers(1, 16), st.sampled_from(MODEL_CONVS))
def test_a_conv_built_for_its_input_size_keeps_the_output_extent(in_size, stride, conv):
    k, padding = conv
    compact = Conv2dLayer(1, 1, k, stride, padding, in_size)
    r = compact.weight.shape[2]
    assert compact.padding >= 0 and r <= k
    assert (in_size + 2 * compact.padding - r) // stride == \
        (in_size + 2 * padding - k) // stride


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.sampled_from(MODEL_CONVS),
       st.integers(0, 2**32 - 1))
def test_a_conv_built_for_its_input_size_computes_the_declared_conv(in_size, stride, conv,
                                                                   seed):
    """Forward, input and weight gradient of the conv a layer builds for
    its input size equal the declared conv's with +0.0 on the taps it
    drops (the loop oracles, float64)."""
    k, padding = conv
    layer = Conv2dLayer(2, 3, k, stride, padding, in_size)
    window = layer.window or (slice(0, k), slice(0, k))
    r = np.random.default_rng(seed)
    x = Tensor(r.standard_normal((2, 2, in_size, in_size)), requires_grad=True)
    layer.weight.data[...] = r.standard_normal(layer.weight.shape)
    layer.bias.data[...] = r.standard_normal(3)
    whole = np.zeros((3, 2, k, k))
    whole[(..., *window)] = layer.weight.data
    with Graph():
        out = layer.forward(x)
    want = oracles.conv2d_loops(x.data, whole, layer.bias.data, stride, padding)
    npt.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    gout = r.standard_normal(out.shape)
    out.node.backward_fn(gout.copy())
    want_x, want_w = oracles.conv2d_backward_loops(x.data, whole, gout, stride, padding)
    npt.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12)
    grad = np.zeros_like(whole)
    grad[(..., *window)] = layer.weight.grad
    npt.assert_allclose(grad, want_w, rtol=0, atol=1e-12)


def _out_of_place_conv_bn(conv, bn, x, mode):
    return bn.forward(conv.forward(x), mode)


def _out_of_place_residual(block, x, mode):
    h = ad.relu(block.bn_a.forward(block.conv_a.forward(x), mode))
    h = block.bn_b.forward(block.conv_b.forward(h), mode)
    shortcut = x
    if block.shortcut_conv is not None:
        shortcut = block.shortcut_bn.forward(block.shortcut_conv.forward(x), mode)
    return ad.relu(ad.add(h, shortcut))


class TestHandOver:
    """`conv_bn_forward` and `residual_forward` hand their conv and BN
    outputs over to the op after them; every output and gradient keeps the
    bits of the out-of-place composition."""

    CASES = [(layers.TRAIN, True), (layers.EVAL, True), (layers.EVAL, False)]

    def _units(self, kind, dtype):
        """The layers under test, with BN stats and affine moved off their
        defaults, and their (name, layer) pairs."""
        with ad.using_dtype(dtype):
            if kind == "block":
                conv, bn = drawn(Conv2dLayer(3, 4, 3, padding=1), 21), BatchNorm2d(4)
                units, named = (conv, bn), [("conv", conv), ("bn", bn)]
            else:
                stride, cout = (2, 6) if kind == "projecting" else (1, 3)
                block = drawn(ResidualBlock(3, cout, stride), 23)
                units, named = (block,), block.layers()
        r = make_rng(24)
        for _, bn in named:
            if isinstance(bn, BatchNorm2d):
                c = bn.running_mean.size
                bn.running_mean[...] = r.standard_normal(c)
                bn.running_var[...] = r.uniform(0.5, 2.0, c)
                bn.gamma.data[...] = r.uniform(0.5, 1.5, c)
                bn.beta.data[...] = r.standard_normal(c)
        return units, named

    def _run(self, kind, dtype, mode, graph, handed_over):
        units, named = self._units(kind, dtype)
        r = make_rng(25)
        x = Tensor(r.standard_normal((3, 3, 6, 6)), requires_grad=True, dtype=dtype)
        if kind == "block":
            fn = conv_bn_forward if handed_over else _out_of_place_conv_bn
        else:
            fn = residual_forward if handed_over else _out_of_place_residual
        if not graph:
            out = fn(*units, x, mode)
            return [out.data.tobytes()], out
        with Graph():
            out = fn(*units, x, mode)
            c = Tensor(r.standard_normal(out.shape), dtype=dtype)
            ad.tensor_sum(ad.mul(out, c)).backward()
        params = [t for _, layer in named for _, t in layer.named_parameters()]
        stats = [getattr(layer, s) for _, layer in named if isinstance(layer, BatchNorm2d)
                 for s in ("running_mean", "running_var")]
        return [a.tobytes() for a in [out.data, x.grad]
                + [p.grad for p in params] + stats], out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode,graph", CASES)
    @pytest.mark.parametrize("kind", ["block", "projecting", "identity"])
    def test_bits_equal_the_out_of_place_composition(self, kind, mode, graph, dtype):
        got, out = self._run(kind, dtype, mode, graph, handed_over=True)
        want, _ = self._run(kind, dtype, mode, graph, handed_over=False)
        assert out.data.dtype == dtype
        assert got == want

    @pytest.mark.parametrize("mode,graph", CASES)
    def test_only_an_unrecorded_block_keeps_one_buffer(self, monkeypatch, mode, graph):
        """With no graph recording, BN writes in the conv output;
        a recorded BN keeps the conv output for its backward."""
        convs = []
        forward = Conv2dLayer.forward
        monkeypatch.setattr(Conv2dLayer, "forward",
                            lambda self, x: convs.append(forward(self, x)) or convs[-1])
        (conv, bn), _ = self._units("block", np.float64)
        x = Tensor(make_rng(26).standard_normal((2, 3, 6, 6)), requires_grad=True)
        with Graph() if graph else contextlib.nullcontext():
            out = conv_bn_forward(conv, bn, x, mode)
        assert (out.data is convs[0].data) == (not graph)

    def test_a_recomputing_backward_runs_no_conv_op(self, monkeypatch):
        """The x-hat rebuild runs `autodiff.conv2d`'s kernel, not the op, so
        whatever wraps the op sees the forward's one conv and no other."""
        calls = []
        conv2d = ad.conv2d
        monkeypatch.setattr(ad, "conv2d", lambda *args: calls.append(args) or conv2d(*args))
        (conv, bn), _ = self._units("block", np.float64)
        x = Tensor(make_rng(27).standard_normal((2, 3, 6, 6)), requires_grad=True)
        with Graph():
            out = conv_bn_forward(conv, bn, x, layers.TRAIN, recompute=True)
            assert len(calls) == 1
            ad.tensor_sum(ad.mul(out, out)).backward()
        assert len(calls) == 1 and x.grad is not None and conv.weight.grad is not None
