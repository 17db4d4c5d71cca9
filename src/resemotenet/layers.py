"""Parameterized building blocks: convolution, batch norm, squeeze-excitation,
residual blocks, and the linear classifier head.

Each class owns its tensors.  Weights are allocated uninitialized, and
`draw_he_normal` draws them (`build_model` does so for a whole model); the
forward computations are free functions (`conv_bn_forward`, `se_forward`,
`residual_forward`) so the data flow stays readable and the recorded graph
mirrors the published composition exactly.  Batch norm's
mode (`TRAIN` or `EVAL`) is passed to each call that reaches one; no layer
stores it, and batch norm rejects any other value.

Constructors take their sizes on trust: `ResEmoteNetModel` builds its
layers from a `ModelConfig`, which has checked every size when it was built.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

TRAIN = "train"
EVAL = "eval"

#: Batch-norm running-statistics momentum and variance epsilon.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


#: declared elements per chunk of the initial-weight draw; a chunk of a conv
#: built smaller draws only the ones its weight holds.  Chunk k has its own
#: seeded stream, so the values depend on this and on the seed, not on the
#: thread count.
INIT_CHUNK = 1 << 18
#: elements per float64 work array of a chunk's draw (128 KB), small enough
#: for malloc to reuse; drawn block by block, a chunk holds the values of
#: one whole draw.
INIT_BLOCK = 1 << 14


def _weight(shape: tuple[int, ...]) -> Tensor:
    """An uninitialized learnable weight in the default element type, for
    `draw_he_normal` or a loaded state to fill."""
    return Tensor(np.empty(shape, dtype=ad.default_dtype()), requires_grad=True)


def draw_he_normal(named: Iterable[tuple[str, Tensor]], seed: int,
                   declared: dict[str, tuple[tuple[int, ...], tuple[slice, slice]]] | None = None
                   ) -> None:
    """Fill every tensor of rank >= 2 among the (name, tensor) pairs `named`
    with fan-in-scaled normal values: std = sqrt(2 / fan_in), fan_in being
    the product of the trailing dimensions.

    The tensors, in the given order, are cut into chunks of `INIT_CHUNK`
    elements; chunk k is drawn in float64 from the k-th child of
    ``SeedSequence(seed)``, scaled, and cast to the tensor's type.  A conv
    weight built as the smaller conv it computes is named in `declared`
    with its declared (Cout, Cin, kh, kw) shape and the (rows, cols) window
    of taps it holds (`ResEmoteNetModel.live_windows`): its chunk count and
    fan-in are the declared weight's, so every later tensor keeps its
    child streams, and chunk k draws only as many normals as the window
    holds among the chunk's declared elements, straight into their range
    of the weight.  The chunks run on one thread pool with a worker per
    usable CPU (at most one per chunk), so the values do not depend on the
    CPU count.  The results are read in chunk order; the first failed
    chunk read cancels every chunk not yet started, and its error is
    raised once every worker has stopped.  Workers may start further
    chunks between the failure and that read, but no model is returned
    half drawn."""
    declared = declared or {}
    chunks = []
    for name, tensor in named:
        if tensor.data.ndim < 2:
            continue
        shape, window = declared.get(name, (tensor.shape, None))
        size = math.prod(shape)
        scale = np.sqrt(2.0 / (size // shape[0]))
        held, flat = _held(shape, window), tensor.data.reshape(-1)
        chunks += [(flat[held(i):held(min(size, i + INIT_CHUNK))], scale)
                   for i in range(0, size, INIT_CHUNK)]
    seqs = np.random.SeedSequence(seed).spawn(len(chunks))
    pool = ThreadPoolExecutor(max(1, min(_usable_cpus(), len(chunks))))
    try:
        for future in [pool.submit(_draw_chunk, seq, out, scale)
                       for seq, (out, scale) in zip(seqs, chunks)]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _held(shape: tuple[int, ...], window: tuple[slice, slice] | None):
    """i -> how many of a weight's first i declared elements it holds, for
    a (Cout, Cin, kh, kw) weight held as its (rows, cols) `window` alone
    (every element when `window` is None).  Held elements keep row-major
    order, so a run of declared elements fills one range of the weight."""
    if window is None:
        return lambda i: i
    taps = shape[2] * shape[3]
    live = np.zeros(shape[2:], dtype=bool)
    live[window] = True
    before = np.concatenate(([0], np.cumsum(live)))  # window taps among a kernel's first i
    return lambda i: i // taps * int(before[-1]) + int(before[i % taps])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_chunk(seq: np.random.SeedSequence, out: np.ndarray, scale: float) -> None:
    """`out` = scale * the first out.size normals of seq's stream, cast."""
    generator = np.random.Generator(np.random.PCG64(seq))
    for i in range(0, out.size, INIT_BLOCK):
        block = out[i:i + INIT_BLOCK]
        np.multiply(generator.standard_normal(block.size), scale, out=block)


class Conv2dLayer:
    """2-D convolution with learnable kernel and per-output-channel bias.

    Given `in_size`, the extent of its square input, a conv whose outer
    taps read only padding there (`autodiff.live_taps`) is built as the
    smaller conv it computes: the kernel is its live taps alone and the
    padding is cut by the taps dropped before them, which gives the same
    output.  `window` is then the (rows, cols) slices of the declared
    `kernel_size` kernel that the weight holds, else None."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, in_size: int | None = None):
        taps = slice(0, kernel_size) if in_size is None else \
            ad.live_taps(in_size, kernel_size, stride, padding)
        self.kernel_size = kernel_size
        self.window = None if taps == slice(0, kernel_size) else (taps, taps)
        k = taps.stop - taps.start
        self.weight = _weight((out_channels, in_channels, k, k))
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding - taps.start

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm2d:
    """Per-channel normalization with learnable affine and tracked running stats.

    The `mode` of each forward call selects the statistics source: "train"
    normalizes with the current batch and folds those statistics into the
    running estimates (running <- (1 - m) * running + m * batch with
    m = `BN_MOMENTUM`, biased variance); "eval" normalizes with the running
    estimates and never mutates them.  Both add `BN_EPS` to the variance.
    Any other mode raises `ConfigError` before the statistics are read.
    """

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=ad.default_dtype())
        self.running_var = np.ones(channels, dtype=ad.default_dtype())

    def forward(self, x: Tensor, mode: str, *, out: np.ndarray | None = None,
                rebuild=None) -> Tensor:
        """`out`, x's own array handed over by a caller that reads x no
        more, goes to the op: train mode keeps x-hat in it, eval mode may
        normalize in it.  Either makes its output a new array otherwise.
        `rebuild`, train mode only, goes to `autodiff.batch_norm2d_train`:
        x-hat is then rebuilt in backward instead of kept."""
        if mode not in (TRAIN, EVAL):
            raise ConfigError(f"mode must be '{TRAIN}' or '{EVAL}', got {mode!r}")
        if mode == TRAIN:
            out, mean, var = ad.batch_norm2d_train(x, self.gamma, self.beta, BN_EPS,
                                                   out=out, rebuild=rebuild)
            m = BN_MOMENTUM
            # in place: a held `state_tensors()` dict keeps seeing the stats
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
            return out
        return ad.batch_norm2d_eval(x, self.gamma, self.beta,
                                    self.running_mean, self.running_var, BN_EPS, out=out)

    def named_parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class SEBlock:
    """Channel-attention gate: squeeze to per-channel means, excite through a
    bottleneck (reduce by `reduction_ratio`, ReLU, expand, sigmoid), then
    rescale each channel.  The two projections carry no bias terms."""

    def __init__(self, channels: int, reduction_ratio: int):
        reduced = channels // reduction_ratio
        self.w1 = _weight((reduced, channels))
        self.w2 = _weight((channels, reduced))

    def named_parameters(self):
        return [("w1", self.w1), ("w2", self.w2)]


class ResidualBlock:
    """Two 3x3 conv+BN stages with a ReLU between, added to a shortcut and
    passed through a final ReLU.

    The shortcut is the identity when the block preserves shape; otherwise a
    1x1 strided convolution plus BN projects the input.  Given `in_size`,
    the 3x3 convs are built for their input sizes (see `Conv2dLayer`).
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 in_size: int | None = None):
        out_size = None if in_size is None else (in_size - 1) // stride + 1
        self.conv_a = Conv2dLayer(in_channels, out_channels, 3, stride, 1, in_size)
        self.bn_a = BatchNorm2d(out_channels)
        self.conv_b = Conv2dLayer(out_channels, out_channels, 3, 1, 1, out_size)
        self.bn_b = BatchNorm2d(out_channels)
        if in_channels != out_channels or stride != 1:
            self.shortcut_conv = Conv2dLayer(in_channels, out_channels, 1, stride, 0)
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

    def __init__(self, in_features: int, out_features: int):
        self.weight = _weight((out_features, in_features))
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


def conv_bn_forward(layer: Conv2dLayer, bn: BatchNorm2d, x: Tensor, mode: str,
                    recompute: bool = False) -> Tensor:
    """bn(conv(x)), the unit the stem stages and residual blocks repeat.

    The conv output is this function's own and no backward reads it, so it
    is handed over: train BN keeps x-hat in it, eval BN may normalize in
    it.  With `recompute`, train BN keeps no x-hat and the conv output is
    dropped once BN has run: BN's backward rebuilds it by running the
    conv's kernel (`autodiff._conv2d`, not the recorded `autodiff.conv2d`
    op) on x, which the conv's backward keeps anyway.  That backward runs
    before the conv's, so it reads the weight and bias the forward read,
    even where the optimizer updates each parameter as soon as its
    gradient is final."""
    h = layer.forward(x)
    if not recompute or mode != TRAIN:
        return bn.forward(h, mode, out=h.data)
    out = bn.forward(h, mode, out=h.data, rebuild=lambda: ad._conv2d(
        x, layer.weight, layer.bias, layer.stride, layer.padding)[0])
    h.drop_data()
    return out


def se_forward(se: SEBlock, x: Tensor) -> Tensor:
    """Gate each channel of x by its squeeze-excitation score.

    z = per-channel spatial mean (a 1x1 adaptive pool); s = sigmoid(w2 @
    relu(w1 @ z)); out = x * s, s broadcast over the spatial grid as an
    (N, C, 1, 1) factor.  s lies strictly inside (0, 1), so the output never
    exceeds the input in magnitude.
    """
    pooled = ad.adaptive_avg_pool(x, 1, 1)         # (N, C, 1, 1)
    z = ad.reshape(pooled, pooled.shape[:2])       # (N, C)
    hidden = ad.relu(ad.linear(z, se.w1, None))    # (N, C/r)
    gate = ad.sigmoid(ad.linear(hidden, se.w2, None))
    return ad.mul(x, ad.reshape(gate, pooled.shape))


def residual_forward(block: ResidualBlock, x: Tensor, mode: str) -> Tensor:
    """relu(H(x) + shortcut(x)) with H = bn_b(conv_b(relu(bn_a(conv_a(x))))).

    As in `conv_bn_forward`, each conv and BN output is handed over to the
    op after it: ReLU writes over bn_a's output, and the sum over H's output,
    never over x.  A projected shortcut's BN output is dropped once the sum
    has read it, as `add`'s backward reads no data; the identity shortcut is
    x itself, which conv_a's backward reads."""
    h = conv_bn_forward(block.conv_a, block.bn_a, x, mode)
    h = ad.relu(h, out=h.data)
    h = conv_bn_forward(block.conv_b, block.bn_b, h, mode)
    shortcut = x
    if block.shortcut_conv is not None:
        shortcut = conv_bn_forward(block.shortcut_conv, block.shortcut_bn, x, mode)
    h = ad.add(h, shortcut, out=h.data)
    if shortcut is not x:
        shortcut.drop_data()
    return ad.relu(h, out=h.data)
