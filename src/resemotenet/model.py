"""Assembly of the full classifier: configurable stem -> channel-attention
gate -> residual stack -> adaptive pooling -> linear head."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .layers import (
    BatchNorm2d,
    Conv2dLayer,
    LinearLayer,
    ResidualBlock,
    SEBlock,
    conv_bn_forward,
    draw_he_normal,
    residual_forward,
    se_forward,
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    The defaults describe the full-size network: 64x64 RGB input, a three-stage
    conv stem (each stage followed by a 2x2 max-pool), a squeeze-excitation
    gate on the stem output, three stride-2 residual blocks doubling the
    channel count, global average pooling, and a 7-way linear head.
    """

    input_channels: int = 3
    input_size: int = 64
    stem_channels: tuple[int, ...] = (64, 128, 256)
    se_reduction: int = 16
    residual_channels: tuple[tuple[int, int, int], ...] = (
        (256, 512, 2), (512, 1024, 2), (1024, 2048, 2))
    num_classes: int = 7
    aap_output: tuple[int, int] = (1, 1)
    seed: int = 0

    def __post_init__(self):
        # sequence fields arrive as lists from JSON and config overrides
        for f in fields(self):
            object.__setattr__(self, f.name, _tupled(getattr(self, f.name)))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_channels not in (1, 3):  # grayscale or color pixmaps
            raise ConfigError(f"input_channels must be 1 or 3, got {self.input_channels}")
        if not self.stem_channels:
            raise ConfigError("stem_channels must name at least one stage")
        if min(self.stem_channels) < 1:
            raise ConfigError(f"stem_channels must all be >= 1, got {self.stem_channels}")
        pool_factor = 2 ** len(self.stem_channels)
        if self.input_size < pool_factor or self.input_size % pool_factor != 0:
            raise ConfigError(
                f"input_size {self.input_size} must be a positive multiple of "
                f"{pool_factor} ({len(self.stem_channels)} stem max-pools)")
        if self.se_reduction < 1 or self.stem_channels[-1] % self.se_reduction != 0:
            raise ConfigError(
                f"stem output channels {self.stem_channels[-1]} must divide by "
                f"se_reduction {self.se_reduction}")
        chain = self.stem_channels[-1]
        for i, triple in enumerate(self.residual_channels):
            if not isinstance(triple, tuple) or len(triple) != 3:
                raise ConfigError(
                    f"residual_channels: residual block {i} needs an in:out:stride "
                    f"triple, got {triple}")
            cin, cout, stride = triple
            if cin != chain:
                raise ConfigError(
                    f"residual_channels: channel chain breaks at residual block {i}: "
                    f"expects input {cin} but receives {chain}")
            if cout < 1 or stride < 1:
                raise ConfigError(
                    f"residual_channels: residual block {i} needs positive "
                    f"width/stride, got {cout}/{stride}")
            chain = cout
        if len(self.aap_output) != 2 or min(self.aap_output) < 1:
            raise ConfigError(f"aap_output must be two positive ints, got {self.aap_output}")
        final = self.spatial_plan()[-1]
        if final < max(self.aap_output):
            raise ConfigError(
                f"spatial extent collapses to {final} before pooling; "
                f"aap_output {self.aap_output} cannot be produced")

    def spatial_plan(self) -> list[int]:
        """Spatial extent after each downsampling stage, input first."""
        sizes = [self.input_size]
        for _ in self.stem_channels:
            sizes.append(sizes[-1] // 2)
        for _, _, stride in self.residual_channels:
            # 3x3 stride-s pad-1 conv: out = floor((n - 1) / s) + 1
            sizes.append((sizes[-1] - 1) // stride + 1)
        return sizes

    def largest_conv_output(self) -> int:
        """Elements in one sample's largest conv output: a stem conv keeps
        its stage's input extent, a residual block's convs take the next."""
        plan = self.spatial_plan()
        stem = [c * s * s for c, s in zip(self.stem_channels, plan)]
        residual = [cout * s * s for (_, cout, _), s
                    in zip(self.residual_channels, plan[len(self.stem_channels) + 1:])]
        return max(stem + residual)

    @property
    def final_channels(self) -> int:
        if self.residual_channels:
            return self.residual_channels[-1][1]
        return self.stem_channels[-1]

    @property
    def classifier_inputs(self) -> int:
        return self.final_channels * self.aap_output[0] * self.aap_output[1]


def _tupled(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(v) for v in value)
    return value


@dataclass
class Logits:
    """Raw (pre-softmax) class scores, one row per batch sample."""

    values: Tensor


class ResEmoteNetModel:
    """The assembled network.  Build with `build_model`; run with `forward`.

    Each conv is built for its input size in ``config.spatial_plan()``, so
    one whose outer taps read only padding there holds its live taps alone
    (`Conv2dLayer`, `live_windows`).  The constructor leaves the conv,
    linear and gate weights uninitialized: `build_model` draws them, or a
    caller overwrites every state tensor (`checkpoint.load`).
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.stem: list[tuple[Conv2dLayer, BatchNorm2d]] = []
        cin, plan = config.input_channels, config.spatial_plan()
        for cout, size in zip(config.stem_channels, plan):
            conv = Conv2dLayer(cin, cout, 3, stride=1, padding=1, in_size=size)
            self.stem.append((conv, BatchNorm2d(cout)))
            cin = cout
        self.se = SEBlock(config.stem_channels[-1], config.se_reduction)
        self.residuals = [ResidualBlock(a, b, stride, size) for (a, b, stride), size
                          in zip(config.residual_channels, plan[len(self.stem):])]
        self.classifier = LinearLayer(config.classifier_inputs, config.num_classes)

    # -- traversal ---------------------------------------------------------

    def layers(self) -> list[tuple[str, object]]:
        """Every layer by name, in parameter order: stem conv and BN pairs, the
        channel gate, each residual block's sub-layers, the classifier."""
        named = []
        for i, (conv, bn) in enumerate(self.stem):
            named += [(f"stem.{i}.conv", conv), (f"stem.{i}.bn", bn)]
        named.append(("se", self.se))
        for i, block in enumerate(self.residuals):
            named += [(f"residual.{i}.{n}", layer) for n, layer in block.layers()]
        named.append(("classifier", self.classifier))
        return named

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable tensor, in `layers` order.  Batch-norm running
        statistics are tracked state, not parameters, and are excluded."""
        return [(f"{prefix}.{n}", t) for prefix, layer in self.layers()
                for n, t in layer.named_parameters()]

    def live_windows(self) -> dict[str, tuple[tuple[int, ...], tuple[slice, slice]]]:
        """Each conv weight built as the smaller conv it computes (its outer
        taps read only padding at the configured input size; see
        `Conv2dLayer`), by parameter name, with its declared (Cout, Cin, kh,
        kw) shape and the (rows, cols) window of that kernel it holds.  At
        the default sizes these are `residual.2`'s `conv_a`, held as its
        2x2 window, and `conv_b`, held as its centre tap."""
        return {f"{name}.weight": ((*layer.weight.shape[:2], layer.kernel_size,
                                    layer.kernel_size), layer.window)
                for name, layer in self.layers()
                if isinstance(layer, Conv2dLayer) and layer.window is not None}

    def batch_norms(self) -> list[tuple[str, BatchNorm2d]]:
        return [(name, layer) for name, layer in self.layers()
                if isinstance(layer, BatchNorm2d)]

    def state_tensors(self) -> dict[str, np.ndarray]:
        """All persistent arrays: parameters plus batch-norm running stats."""
        state = {name: tensor.data for name, tensor in self.named_parameters()}
        for name, bn in self.batch_norms():
            state[f"{name}.running_mean"] = bn.running_mean
            state[f"{name}.running_var"] = bn.running_var
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy `state` into the arrays `state_tensors` returns, once every
        shape matches; the model never shares the caller's arrays."""
        slots = self.state_tensors()
        for name, dest in slots.items():
            if np.shape(state[name]) != dest.shape:
                raise ShapeError(f"state tensor {name!r} has shape "
                                 f"{np.shape(state[name])}, expected {dest.shape}")
        for name, dest in slots.items():
            dest[...] = state[name]

    @property
    def dtype(self) -> np.dtype:
        """The element type of every state tensor."""
        return self.classifier.weight.data.dtype

    # -- forward -----------------------------------------------------------

    def forward(self, x: Tensor, mode: str) -> Logits:
        """Run the full pipeline to raw logits.

        Stages: each stem block is conv+BN+ReLU then a 2x2 max-pool, run as
        conv+BN, the pool, then ReLU: ReLU is monotone, so it commutes with the
        window maximum and runs on the pooled map, a quarter the size; the
        channel gate rescales the stem output; residual blocks downsample;
        adaptive average pooling collapses the grid; the flattened features
        feed the linear head.  `mode` is passed to every batch-norm layer,
        which rejects anything but `TRAIN` or `EVAL`.
        """
        cfg = self.config
        if x.data.ndim != 4 or x.shape[1] != cfg.input_channels or \
                x.shape[2] != cfg.input_size or x.shape[3] != cfg.input_size:
            raise ShapeError(
                f"stem expects input (N, {cfg.input_channels}, {cfg.input_size}, "
                f"{cfg.input_size}), got {x.shape}")
        out = x
        for i, (conv, bn) in enumerate(self.stem):
            # stage 0's x-hat, the largest array a train forward makes, is
            # rebuilt in backward instead of held on the tape
            out = _staged(f"stem stage {i}", conv_bn_forward, conv, bn, out, mode, i == 0)
            out = _staged(f"stem stage {i} pool", _pool_relu, out)
        out = _staged("channel gate", se_forward, self.se, out)
        for i, block in enumerate(self.residuals):
            out = _staged(f"residual block {i}", residual_forward, block, out, mode)
        out = _staged("adaptive pool", ad.adaptive_avg_pool, out, *cfg.aap_output)
        out = ad.reshape(out, (out.shape[0], cfg.classifier_inputs))
        out = _staged("classifier", self.classifier.forward, out)
        return Logits(out)


def _pool_relu(x: Tensor) -> Tensor:
    """A stem stage's 2x2 max-pool, then its ReLU in the pooled array.

    x is the stage's batch-norm output, which `forward` owns.  No backward
    reads it: max-pool's reads its window offsets, and batch norm's its
    x-hat or input.  So x's array is dropped once the pool has run, and the
    tape holds no array of the stage at full resolution but the conv
    output (x-hat, in train mode), and none at all for stage 0, whose
    x-hat is rebuilt in backward (`conv_bn_forward`)."""
    pooled = ad.max_pool2d(x, 2, 2)
    x.drop_data()
    return ad.relu(pooled, out=pooled.data)


def _staged(stage: str, fn, *args):
    try:
        return fn(*args)
    except ShapeError as err:
        raise ShapeError(f"{stage}: {err}") from None


def build_model(config: ModelConfig, *, draw: bool = True) -> ResEmoteNetModel:
    """Construct and deterministically initialize a model from its config.

    The same config (including seed) always yields bitwise-identical
    parameters on any number of CPUs: every weight of rank >= 2 (conv,
    linear, gate) is a fan-in-scaled normal draw made by `draw_he_normal`
    from per-chunk streams of ``config.seed``, in `named_parameters` order,
    a conv built smaller drawing only its window of each declared chunk;
    biases start at zero, batch-norm scale/shift at one/zero.  With
    ``draw=False`` the weights stay uninitialized, for a caller that
    overwrites every state tensor (`checkpoint.load`).  A config whose
    arrays numpy refuses to allocate raises `ConfigError`.
    """
    try:
        model = ResEmoteNetModel(config)
    except (ValueError, MemoryError) as err:  # numpy's refusal of an array size
        raise ConfigError(f"cannot allocate the model of {config}: {err}") from None
    if draw:
        draw_he_normal(model.named_parameters(), config.seed, model.live_windows())
    return model
