"""Parameterized building blocks: convolution, batch norm, squeeze-excitation,
residual blocks, and the linear classifier head.

Each class owns its tensors and initialization; the forward computations are
free functions (`conv_block_forward`, `se_forward`, `residual_forward`) so the
data flow stays readable and the recorded graph mirrors the published
composition exactly.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

TRAIN = "train"
EVAL = "eval"

#: Batch-norm running-statistics momentum and variance epsilon.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


#: elements per block of `he_normal`'s float64 draw
INIT_BLOCK = 1 << 16


def he_normal(rng: np.random.Generator | None, shape: tuple[int, ...],
              fan_in: int) -> Tensor:
    """Fan-in-scaled normal init (std = sqrt(2 / fan_in)) in the default
    element type.  The draw is made in blocks through one float64 work
    buffer, each scaled and then converted, so the values are those of one
    whole float64 draw times the scale.  With no `rng` the values are left
    uninitialized, for a caller that overwrites every one."""
    data = np.empty(shape, dtype=ad.default_dtype())
    if rng is not None:
        flat = data.reshape(-1)
        scale = np.sqrt(2.0 / fan_in)
        work = np.empty(min(INIT_BLOCK, flat.size))
        for start in range(0, flat.size, INIT_BLOCK):
            block = work[:min(INIT_BLOCK, flat.size - start)]
            rng.standard_normal(out=block)
            block *= scale
            flat[start:start + block.size] = block
    return Tensor(data, requires_grad=True)


class Conv2dLayer:
    """2-D convolution with learnable kernel and per-output-channel bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, *, rng: np.random.Generator | None):
        if in_channels < 1 or out_channels < 1 or kernel_size < 1:
            raise ConfigError(
                f"conv layer needs positive channels/kernel, got "
                f"{in_channels}/{out_channels}/k{kernel_size}")
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm2d:
    """Per-channel normalization with learnable affine and tracked running stats.

    `mode` selects the statistics source: "train" normalizes with the current
    batch and folds those statistics into the running estimates
    (running <- (1 - m) * running + m * batch with m = `BN_MOMENTUM`, biased
    variance); "eval" normalizes with the running estimates and never mutates
    them.  Both add `BN_EPS` to the variance.
    """

    def __init__(self, channels: int):
        if channels < 1:
            raise ConfigError(f"batch norm needs positive channel count, got {channels}")
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=ad.default_dtype())
        self.running_var = np.ones(channels, dtype=ad.default_dtype())
        self.mode = TRAIN

    def forward(self, x: Tensor) -> Tensor:
        if self.mode == TRAIN:
            out, mean, var = ad.batch_norm2d_train(x, self.gamma, self.beta, BN_EPS)
            m = BN_MOMENTUM
            # in place: a held `state_tensors()` dict keeps seeing the stats
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
            return out
        return ad.batch_norm2d_eval(x, self.gamma, self.beta,
                                    self.running_mean, self.running_var, BN_EPS)

    def named_parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class SEBlock:
    """Channel-attention gate: squeeze to per-channel means, excite through a
    bottleneck (reduce by `reduction_ratio`, ReLU, expand, sigmoid), then
    rescale each channel.  The two projections carry no bias terms."""

    def __init__(self, channels: int, reduction_ratio: int = 16, *,
                 rng: np.random.Generator | None):
        if reduction_ratio < 1:
            raise ConfigError(f"reduction ratio must be >= 1, got {reduction_ratio}")
        if channels % reduction_ratio != 0:
            raise ConfigError(
                f"channel count {channels} not divisible by reduction ratio "
                f"{reduction_ratio}")
        reduced = channels // reduction_ratio
        self.w1 = he_normal(rng, (reduced, channels), channels)
        self.w2 = he_normal(rng, (channels, reduced), reduced)

    def named_parameters(self):
        return [("w1", self.w1), ("w2", self.w2)]


class ResidualBlock:
    """Two 3x3 conv+BN stages with a ReLU between, added to a shortcut and
    passed through a final ReLU.

    The shortcut is the identity when the block preserves shape; otherwise a
    1x1 strided convolution plus BN projects the input.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1, *,
                 rng: np.random.Generator | None):
        if in_channels < 1 or out_channels < 1 or stride < 1:
            raise ConfigError(
                f"residual block needs positive channels/stride, got "
                f"{in_channels}->{out_channels} stride {stride}")
        self.conv_a = Conv2dLayer(in_channels, out_channels, 3, stride, 1, rng=rng)
        self.bn_a = BatchNorm2d(out_channels)
        self.conv_b = Conv2dLayer(out_channels, out_channels, 3, 1, 1, rng=rng)
        self.bn_b = BatchNorm2d(out_channels)
        if in_channels != out_channels or stride != 1:
            self.shortcut_conv = Conv2dLayer(in_channels, out_channels, 1, stride, 0, rng=rng)
            self.shortcut_bn = BatchNorm2d(out_channels)
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None

    def layers(self):
        """The block's sub-layers as (name, layer) pairs, in forward order;
        the projection pair only when the shortcut projects."""
        named = [("conv_a", self.conv_a), ("bn_a", self.bn_a),
                 ("conv_b", self.conv_b), ("bn_b", self.bn_b)]
        if self.shortcut_conv is None:
            return named
        return named + [("shortcut_conv", self.shortcut_conv), ("shortcut_bn", self.shortcut_bn)]

    def named_parameters(self):
        return [(f"{prefix}.{n}", t) for prefix, layer in self.layers()
                for n, t in layer.named_parameters()]


class LinearLayer:
    """Dense projection with learnable weight and bias."""

    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator | None):
        if in_features < 1 or out_features < 1:
            raise ConfigError(
                f"linear layer needs positive sizes, got {in_features}->{out_features}")
        self.weight = he_normal(rng, (out_features, in_features), in_features)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


def conv_block_forward(layer: Conv2dLayer, bn: BatchNorm2d, x: Tensor) -> Tensor:
    """relu(bn(conv(x))) — the repeated unit of the feature-extraction stem."""
    return ad.relu(bn.forward(layer.forward(x)))


def se_forward(se: SEBlock, x: Tensor) -> Tensor:
    """Gate each channel of x by its squeeze-excitation score.

    z = per-channel spatial mean; s = sigmoid(w2 @ relu(w1 @ z)); out = s * x
    broadcast over the spatial grid.  s lies strictly inside (0, 1), so the
    output never exceeds the input in magnitude.
    """
    z = ad.global_avg_pool(x)                      # (N, C)
    hidden = ad.relu(ad.linear(z, se.w1, None))    # (N, C/r)
    scores = ad.linear(hidden, se.w2, None)        # (N, C)
    gate = ad.sigmoid(scores)
    return ad.mul_broadcast_channel(x, gate)


def residual_forward(block: ResidualBlock, x: Tensor) -> Tensor:
    """relu(H(x) + shortcut(x)) with H = bn_b(conv_b(relu(bn_a(conv_a(x)))))."""
    h = ad.relu(block.bn_a.forward(block.conv_a.forward(x)))
    h = block.bn_b.forward(block.conv_b.forward(h))
    if block.shortcut_conv is not None:
        shortcut = block.shortcut_bn.forward(block.shortcut_conv.forward(x))
    else:
        shortcut = x
    return ad.relu(ad.add(h, shortcut))
