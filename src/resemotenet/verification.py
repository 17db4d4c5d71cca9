"""Gradient audit: re-derive every backward pass numerically.

``grad_check`` compares one function's analytic gradients with central
finite differences and returns each input's largest relative error; its
`fault` argument corrupts one op's backward inside the function, so the
audit can be shown to catch a wrong gradient.  The battery below runs it
over every component, and ``run_gradient_checks`` holds the pass rule.

Each differentiable primitive and each assembled layer (conv+BN block,
channel gate, residual block, classifier head, cross-entropy) is checked
against central finite differences on freshly sampled shapes, many trials
per component, all in float64.  ``grad_check`` reads a non-scalar output
out through a fixed random projection ``sum(out * c)`` — a plain sum has
zero sensitivity to some inputs (e.g. anything upstream of train-mode
batch norm), which would starve the numeric side.

Composite blocks run with eval-mode batch norm.  In train mode a conv bias
feeding batch norm has an *exactly zero* true gradient (batch statistics
absorb per-channel constants), which finite differences can only bound, not
confirm; the train-mode variants therefore check weights and norm
parameters, and bias handling is covered by the eval-mode passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, using_dtype
from .layers import (EVAL, TRAIN, BatchNorm2d, Conv2dLayer, LinearLayer,
                     ResidualBlock, SEBlock, conv_bn_forward, residual_forward,
                     se_forward)
from .optim import cross_entropy

GRADCHECK_EPSILON = 1e-5
GRADCHECK_TOL = 1e-4

def _doubled(backward_fn):
    return lambda gout: backward_fn(gout * 2.0)


def grad_check(f: Callable[..., Tensor], named: Sequence[tuple[str, Tensor]], *,
               fault: str | None = None) -> dict[str, float]:
    """Each input's largest relative error between the analytic gradient of
    f(*tensors) and central differences, by name.

    `named` is a sequence of (name, tensor) pairs; every tensor is perturbed
    elementwise by +-`GRADCHECK_EPSILON` in float64.  A scalar f is checked
    as it is; any other output is read out as ``sum(f * c)`` through a fixed
    random projection ``c`` bounded away from zero, so every output element
    contributes.  Relative error per element is |a - n| / max(1e-8, |a| +
    |n|), and a NaN or infinite analytic gradient makes it NaN.  f must be
    deterministic.  A `fault` op name doubles the output gradient of every
    node f records as that op before its backward runs, so a correct audit
    must then fail; the read-out's nodes are not touched.
    """
    for name, t in named:
        if t.data.dtype != np.float64:
            raise ValueError(f"grad_check: '{name}' must be float64, got {t.data.dtype}")
        if not np.all(np.isfinite(t.data)):
            idx = int(np.flatnonzero(~np.isfinite(t.data.reshape(-1)))[0])
            raise ValueError(f"grad_check: non-finite value in '{name}' at flat index {idx}")

    tensors = [t for _, t in named]
    for t in tensors:
        t.grad = None
    with Graph() as graph:
        out = f(*tensors)
        for node in graph.nodes:
            if node.op == fault:
                node.backward_fn = _doubled(node.backward_fn)
        read_out = _read_out(out.shape)
        value = read_out(out)
        if not np.isfinite(value.item()):
            raise ValueError("grad_check: f returned a non-finite value")
        value.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in tensors]

    def evaluate() -> float:
        v = read_out(f(*tensors)).item()
        if not np.isfinite(v):
            raise ValueError("grad_check: f returned a non-finite value during perturbation")
        return v

    errors = {}
    for (name, t), a_grad in zip(named, analytic):
        flat = t.data.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + GRADCHECK_EPSILON
            f_plus = evaluate()
            flat[i] = original - GRADCHECK_EPSILON
            f_minus = evaluate()
            flat[i] = original
            numeric[i] = (f_plus - f_minus) / (2.0 * GRADCHECK_EPSILON)
        a = a_grad.reshape(-1)
        with np.errstate(invalid="ignore"):  # an infinite `a` gives inf / inf
            rel = np.abs(a - numeric) / np.maximum(1e-8, np.abs(a) + np.abs(numeric))
        errors[name] = float(np.max(rel, initial=0.0))
    return errors


def _read_out(shape: tuple[int, ...]) -> Callable[[Tensor], Tensor]:
    """The reduction of an output of `shape` to the checked scalar: the
    identity for one element, else ``sum(out * c)`` with ``c`` drawn from a
    fixed seed."""
    if int(np.prod(shape)) == 1:
        return lambda out: out
    c = Tensor(_signed_uniform(np.random.default_rng(0), shape, 0.5, 1.5))
    return lambda out: ad.tensor_sum(ad.mul(out, c))


def _signed_uniform(rng, shape, low=0.2, high=1.0):
    """Magnitudes bounded away from zero, random signs: keeps relu/max-pool
    arguments clear of kinks and ties at finite-difference scale."""
    magnitude = rng.uniform(low, high, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return magnitude * sign


# --- samplers: name -> rng -> (f, named inputs) ----------------------------
# f returns the op's raw output; `grad_check` reduces it to the checked scalar.

def _sample_conv2d(rng):
    n, ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    size = int(rng.integers(k, k + 4))
    if rng.random() < 0.25:
        # a 3x3 pad-1 kernel over a 1x1 input, or a 2x2 one at stride 2:
        # its outer taps read only padding, and their weight gradient is
        # conv2d's ordinary one over padding (the model builds such convs
        # smaller, but conv2d takes any kernel)
        k, padding, size = 3, 1, int(rng.integers(1, 3))
    x = Tensor(rng.standard_normal((n, ci, size, size)), requires_grad=True)
    w = Tensor(rng.standard_normal((co, ci, k, k)), requires_grad=True)
    b = Tensor(rng.standard_normal(co), requires_grad=True)
    return (lambda x, w, b: ad.conv2d(x, w, b, stride, padding),
            [("x", x), ("weight", w), ("bias", b)])


def _sample_max_pool2d(rng):
    n, ch = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    k = int(rng.integers(2, 4))
    size = k * int(rng.integers(1, 3)) + int(rng.integers(0, 2))
    # distinct multiples of 0.1 with jitter: window maxima stay unique and
    # separated by far more than the finite-difference step
    base = rng.permutation(n * ch * size * size).astype(np.float64)
    values = 0.1 * base + rng.uniform(-0.01, 0.01, size=base.shape)
    x = Tensor(values.reshape(n, ch, size, size), requires_grad=True)
    return lambda x: ad.max_pool2d(x, k, k), [("x", x)]


def _sample_adaptive_avg_pool(rng):
    n, ch = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    size = int(rng.integers(2, 7))
    out_h = int(rng.integers(1, size + 1))
    out_w = int(rng.integers(1, size + 1))
    x = Tensor(rng.standard_normal((n, ch, size, size)), requires_grad=True)
    return lambda x: ad.adaptive_avg_pool(x, out_h, out_w), [("x", x)]


def _sample_linear(rng):
    n, din, dout = (int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                    int(rng.integers(1, 5)))
    x = Tensor(rng.standard_normal((n, din)), requires_grad=True)
    w = Tensor(rng.standard_normal((dout, din)), requires_grad=True)
    b = Tensor(rng.standard_normal(dout), requires_grad=True)
    return ad.linear, [("x", x), ("weight", w), ("bias", b)]


def _sample_relu(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(2))
    return ad.relu, [("x", Tensor(_signed_uniform(rng, shape), requires_grad=True))]


def _sample_sigmoid(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(2))
    return ad.sigmoid, [("x", Tensor(rng.standard_normal(shape) * 2.0,
                                     requires_grad=True))]


def _sample_binary(op, ndim):
    def sample(rng):
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        a = Tensor(rng.standard_normal(shape), requires_grad=True)
        b = Tensor(rng.standard_normal(shape), requires_grad=True)
        return op, [("a", a), ("b", b)]
    return sample


def _sample_mul_broadcast(rng):
    n, ch, size = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    x = Tensor(rng.standard_normal((n, ch, size, size)), requires_grad=True)
    s = Tensor(rng.standard_normal((n, ch, 1, 1)), requires_grad=True)
    return ad.mul, [("x", x), ("gate", s)]


def _sample_reshape(rng):
    n, ch, size = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = Tensor(rng.standard_normal((n, ch, size, size)), requires_grad=True)
    return lambda x: ad.reshape(x, (x.shape[0], -1)), [("x", x)]


def _sample_sum(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(2))
    return ad.tensor_sum, [("x", Tensor(rng.standard_normal(shape), requires_grad=True))]


def _sample_batch_norm_train(rng):
    n, ch, size = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 5))
    x = Tensor(rng.standard_normal((n, ch, size, size)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=ch), requires_grad=True)
    beta = Tensor(rng.standard_normal(ch), requires_grad=True)
    return (lambda x, gamma, beta: ad.batch_norm2d_train(x, gamma, beta, 1e-5)[0],
            [("x", x), ("gamma", gamma), ("beta", beta)])


def _sample_batch_norm_eval(rng):
    n, ch, size = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 5))
    x = Tensor(rng.standard_normal((n, ch, size, size)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=ch), requires_grad=True)
    beta = Tensor(rng.standard_normal(ch), requires_grad=True)
    running_mean = rng.standard_normal(ch)
    running_var = rng.uniform(0.5, 2.0, size=ch)
    return (lambda x, gamma, beta: ad.batch_norm2d_eval(
                x, gamma, beta, running_mean, running_var, 1e-5),
            [("x", x), ("gamma", gamma), ("beta", beta)])


def _sample_cross_entropy(rng):
    n, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    logits = Tensor(rng.standard_normal((n, k)) * 2.0, requires_grad=True)
    labels = rng.integers(0, k, size=n)
    return lambda logits: cross_entropy(logits, labels).loss, [("logits", logits)]


def _randomize_batch_norm(bn: BatchNorm2d, rng, mode: str) -> None:
    bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=bn.gamma.shape)
    bn.beta.data[...] = rng.standard_normal(bn.beta.shape)
    if mode == EVAL:
        bn.running_mean[...] = rng.standard_normal(bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)


def _randomize_residual(block: ResidualBlock, rng, mode: str) -> None:
    """Each conv of `block.layers()` in order, then each batch norm."""
    layers = [layer for _, layer in block.layers()]
    for conv in (layer for layer in layers if isinstance(layer, Conv2dLayer)):
        conv.weight.data[...] = rng.standard_normal(conv.weight.shape) * 0.5
        conv.bias.data[...] = rng.standard_normal(conv.bias.shape) * 0.1
    for bn in (layer for layer in layers if isinstance(layer, BatchNorm2d)):
        _randomize_batch_norm(bn, rng, mode)


def _sample_conv_bn_block(rng, mode=EVAL, include_bias=True, recompute=False):
    n, ci, co, size = 2, 2, 2, 4
    conv = Conv2dLayer(ci, co, 3, stride=1, padding=1)
    bn = BatchNorm2d(co)
    conv.weight.data[...] = rng.standard_normal(conv.weight.shape) * 0.5
    conv.bias.data[...] = rng.standard_normal(conv.bias.shape) * 0.1
    _randomize_batch_norm(bn, rng, mode)
    x = Tensor(rng.standard_normal((n, ci, size, size)), requires_grad=True)
    inputs = [("x", x), ("conv.weight", conv.weight)]
    if include_bias:
        inputs.append(("conv.bias", conv.bias))
    inputs += [("bn.gamma", bn.gamma), ("bn.beta", bn.beta)]
    return lambda *_: ad.relu(conv_bn_forward(conv, bn, x, mode, recompute)), inputs


def _sample_conv_bn_block_train(rng):
    return _sample_conv_bn_block(rng, mode=TRAIN, include_bias=False)


def _sample_conv_bn_block_recompute(rng):
    return _sample_conv_bn_block(rng, mode=TRAIN, include_bias=False, recompute=True)


def _sample_se_block(rng):
    n, ch, size = 2, 4, 3
    se = SEBlock(ch, reduction_ratio=2)
    se.w1.data[...] = rng.standard_normal(se.w1.shape)
    se.w2.data[...] = rng.standard_normal(se.w2.shape)
    x = Tensor(rng.standard_normal((n, ch, size, size)), requires_grad=True)
    return lambda *_: se_forward(se, x), [("x", x), ("w1", se.w1), ("w2", se.w2)]


def _residual_inputs(block: ResidualBlock, x: Tensor, include_bias=True):
    return [("x", x)] + [(name, tensor) for name, tensor in block.named_parameters()
                         if include_bias or not name.endswith(".bias")]


def _sample_residual_identity(rng, mode=EVAL, include_bias=True):
    n, ch, size = 2, 2, 4
    block = ResidualBlock(ch, ch, stride=1)
    _randomize_residual(block, rng, mode)
    x = Tensor(_signed_uniform(rng, (n, ch, size, size)), requires_grad=True)
    return (lambda *_: residual_forward(block, x, mode),
            _residual_inputs(block, x, include_bias))


def _sample_residual_identity_train(rng):
    return _sample_residual_identity(rng, mode=TRAIN, include_bias=False)


def _sample_residual_projection(rng):
    n, cin, cout, size = 2, 2, 4, 4
    block = ResidualBlock(cin, cout, stride=2)
    _randomize_residual(block, rng, EVAL)
    x = Tensor(rng.standard_normal((n, cin, size, size)), requires_grad=True)
    return lambda *_: residual_forward(block, x, EVAL), _residual_inputs(block, x)


def _sample_classifier(rng):
    n, din, k = 3, 6, 4
    head = LinearLayer(din, k)
    head.weight.data[...] = rng.standard_normal(head.weight.shape)
    head.bias.data[...] = rng.standard_normal(head.bias.shape)
    x = Tensor(rng.standard_normal((n, din)), requires_grad=True)
    labels = rng.integers(0, k, size=n)
    return (lambda *_: cross_entropy(head.forward(x), labels).loss,
            [("x", x), ("weight", head.weight), ("bias", head.bias)])


COMPONENTS: dict[str, Callable] = {
    "conv2d": _sample_conv2d,
    "max_pool2d": _sample_max_pool2d,
    "adaptive_avg_pool": _sample_adaptive_avg_pool,
    "linear": _sample_linear,
    "relu": _sample_relu,
    "sigmoid": _sample_sigmoid,
    "add": _sample_binary(ad.add, 3),
    "mul": _sample_binary(ad.mul, 2),
    "mul_broadcast": _sample_mul_broadcast,
    "reshape": _sample_reshape,
    "sum": _sample_sum,
    "batch_norm_train": _sample_batch_norm_train,
    "batch_norm_eval": _sample_batch_norm_eval,
    "cross_entropy": _sample_cross_entropy,
    "conv_bn_block": _sample_conv_bn_block,
    "conv_bn_block_train": _sample_conv_bn_block_train,
    "conv_bn_block_recompute": _sample_conv_bn_block_recompute,
    "se_block": _sample_se_block,
    "residual_identity": _sample_residual_identity,
    "residual_identity_train": _sample_residual_identity_train,
    "residual_projection": _sample_residual_projection,
    "classifier": _sample_classifier,
}


@dataclass
class ComponentResult:
    name: str
    trials: int
    max_rel_err: float
    failures: list[str]  # "trial 17: conv.weight rel_err=2.3e-3"

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.passed else f"FAIL ({len(self.failures)} trials)"
        return (f"{self.name:<24} trials={self.trials} "
                f"max_rel_err={self.max_rel_err:.3e} {status}")


@dataclass
class VerificationReport:
    results: list[ComponentResult]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_rel_err(self) -> float:
        return float(np.max([r.max_rel_err for r in self.results], initial=0.0))


def recorded_ops() -> set[str]:
    """The ops the battery's tapes record, read off one trial per component."""
    with using_dtype(np.float64), Graph() as graph:
        for sampler in COMPONENTS.values():
            rng = np.random.default_rng(0)
            f, inputs = sampler(rng)
            f(*(t for _, t in inputs))
    return {node.op for node in graph.nodes}


def run_gradient_checks(seed: int = 0, trials_per_component: int = 50,
                        log: Callable[[str], None] | None = None,
                        fault: str | None = None) -> VerificationReport:
    """Run the whole battery and report per-component maximum relative error
    against `GRADCHECK_TOL`.  Deterministic for a given seed.  `fault` is
    passed to every `grad_check`."""
    emit = log if log is not None else lambda line: None
    started = time.perf_counter()
    results = []
    with using_dtype(np.float64):
        for name, sampler in COMPONENTS.items():
            rng = np.random.default_rng([seed, len(name), *name.encode()])
            errors = []
            failures = []
            for trial in range(trials_per_component):
                f, inputs = sampler(rng)
                for input_name, err in grad_check(f, inputs, fault=fault).items():
                    errors.append(err)
                    if not err <= GRADCHECK_TOL:  # NaN fails too
                        failures.append(f"trial {trial}: {input_name} rel_err={err:.3e}")
            result = ComponentResult(name, trials_per_component,
                                     float(np.max(errors, initial=0.0)), failures)
            results.append(result)
            emit(result.line())
    elapsed = time.perf_counter() - started
    return VerificationReport(results=results, elapsed_seconds=elapsed)
