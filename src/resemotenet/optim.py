"""Loss, optimizer, and learning-rate schedule for the training recipe:
cross-entropy over softmax probabilities, SGD with momentum, and
reduce-on-plateau driven by evaluation accuracy."""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, OptimizerError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class LossValue:
    """Scalar loss plus the softmax probabilities it was computed from."""

    loss: Tensor
    probabilities: np.ndarray  # (N, K), rows sum to 1


def cross_entropy(values: Tensor, labels) -> LossValue:
    """Mean negative log-likelihood of the true classes.

    loss = -(1/N) * sum_i log softmax(values)[i, label_i], evaluated via
    max-subtracted log-sum-exp; the backward pass pushes
    (softmax - onehot) / N into the (N, K) logits `values`.
    """
    if values.data.ndim != 2:
        raise DataError(f"cross_entropy: logits must be (N, K), got {values.shape}")
    n, k = values.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DataError(
            f"cross_entropy: expected {n} labels for {n} logit rows, got "
            f"{labels.shape}")
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"cross_entropy: label {int(labels[i])} at index {i} outside [0, {k})")

    shifted = values.data - values.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss_value = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def backward_fn(gout: np.ndarray) -> None:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        ad._accumulate(values, gout * grad / n)

    loss = ad._finish("cross_entropy", (values,),
                      np.asarray(loss_value, dtype=values.data.dtype), backward_fn)
    return LossValue(loss=loss, probabilities=probs)


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not abs(value) <= sys.float_info.max:  # NaN, inf or beyond float range
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass
class SgdState:
    """Momentum-SGD hyperparameters and per-parameter velocity buffers.

    A velocity is made by `zero_velocity`, before the first step that needs
    it: the velocities made together are views of one zeroed array."""

    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        _require_finite(lr=self.lr, weight_decay=self.weight_decay)
        if self.lr <= 0:
            raise ConfigError(f"lr: learning rate must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay: weight decay must be >= 0, got {self.weight_decay}")


def zero_velocity(state: SgdState, params: Iterable[tuple[str, Tensor]]) -> None:
    """Give each named parameter without a velocity in `state` a zero one.

    The new velocities are views of one `np.zeros` array per element type:
    the optimizer's largest long-lived memory is one allocation, not many
    made among a training step's short-lived arrays (whose heap it would
    fragment)."""
    missing = {name: p.data for name, p in params if name not in state.velocity}
    for dtype in {arr.dtype for arr in missing.values()}:
        group = [(name, arr) for name, arr in missing.items() if arr.dtype == dtype]
        flat = np.zeros(sum(arr.size for _, arr in group), dtype=dtype)
        offset = 0
        for name, arr in group:
            state.velocity[name] = flat[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size


#: elements per block of `sgd_step`: the block's slices of parameter,
#: velocity, gradient and work buffer (1 MiB in float32) stay in a core's L2
#: cache across its passes; measured best of 2^12..2^18 on a 2 MiB-L2 x86 core
SGD_BLOCK = 1 << 16


def sgd_step(state: SgdState, params: list[tuple[str, Tensor]]) -> None:
    """One momentum update over every named parameter:
    v <- momentum * v + grad; p <- p - lr * v.  A parameter without a
    velocity gets a zero one from `zero_velocity` first.  Velocity buffers
    and parameters are updated in place, one cache-sized block at a time,
    through one small work buffer; each element sees the same operations in
    the same order as the whole-array formula.  A deferred gradient
    (`autodiff.DeferredGrad`, a conv weight's gradient whose eager sum would
    hold no less than its patches) is computed one row block at a time, each
    block applied before the next is computed.  Gradients are consumed
    (cleared) so the next accumulation starts fresh."""
    for name, p in params:
        if p._grad is None:
            raise OptimizerError(
                f"parameter '{name}' has no gradient; run backward() before "
                f"sgd_step")
    zero_velocity(state, params)
    momentum, lr, decay = state.momentum, state.lr, state.weight_decay
    for name, p in params:
        grad, p._grad = p._grad, None
        # the flat views below must alias the buffers they update
        if not p.data.flags.c_contiguous:
            p.data = p.data.copy()
        v = state.velocity[name]
        if not v.flags.c_contiguous:
            v = state.velocity[name] = v.copy()
        flat_p, flat_v = p.data.reshape(-1), v.reshape(-1)
        pieces = (grad.blocks() if isinstance(grad, ad.DeferredGrad)
                  else [(0, grad.reshape(-1))])
        work = np.empty(min(SGD_BLOCK, flat_p.size), dtype=v.dtype)
        for offset, flat_g in pieces:
            for start in range(0, flat_g.size, SGD_BLOCK):
                gb = flat_g[start:start + SGD_BLOCK]
                at = slice(offset + start, offset + start + gb.size)
                pb, vb, tmp = flat_p[at], flat_v[at], work[:gb.size]
                vb *= momentum
                if decay:
                    np.multiply(pb, decay, out=tmp)
                    np.add(gb, tmp, out=tmp)
                    vb += tmp
                else:
                    vb += gb
                np.multiply(vb, lr, out=tmp)
                pb -= tmp


@dataclass
class PlateauScheduler:
    """Cut the learning rate when the monitored metric stops improving.

    An epoch improves when its metric exceeds the best seen by more than
    1e-12; otherwise a staleness counter grows, and once it passes
    `patience` the rate is multiplied by `factor`, never below `min_lr`; a
    rate already at or below `min_lr` is left where it is, never raised.
    """

    factor: float = 0.1
    patience: int = 10
    min_lr: float = 1e-6
    mode: str = "maximize"
    best_metric: float = -np.inf
    epochs_since_improve: int = 0

    def __post_init__(self):
        _require_finite(min_lr=self.min_lr)
        if self.min_lr <= 0.0:
            raise ConfigError(f"min_lr must be > 0, got {self.min_lr}")
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(f"plateau factor must be in (0, 1), got {self.factor}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.mode != "maximize":
            raise ConfigError(f"only 'maximize' mode is supported, got {self.mode!r}")
        # -inf is the unset best, before the first epoch; NaN and +inf would
        # never be beaten (the comparison is false for both)
        if not self.best_metric < np.inf:
            raise ConfigError(f"best_metric must be finite or -inf, got {self.best_metric}")
        if self.epochs_since_improve < 0:
            raise ConfigError(
                f"epochs_since_improve must be >= 0, got {self.epochs_since_improve}")


def scheduler_step(s: PlateauScheduler, epoch_metric: float, state: SgdState) -> bool:
    """Record one epoch's metric; returns whether the learning rate dropped."""
    if not np.isfinite(epoch_metric):
        raise OptimizerError(f"plateau metric must be finite, got {epoch_metric}")
    if epoch_metric > s.best_metric + 1e-12:
        s.best_metric = float(epoch_metric)
        s.epochs_since_improve = 0
        return False
    s.epochs_since_improve += 1
    if s.epochs_since_improve > s.patience:
        s.epochs_since_improve = 0
        if state.lr <= s.min_lr:  # a cut never raises the rate to the floor
            return False
        new_lr = max(s.min_lr, state.lr * s.factor)
        # relative comparison: rounding in lr*factor must not make a
        # floor-clamped rate look like a fresh reduction
        reduced = new_lr < state.lr * (1.0 - 1e-9)
        state.lr = new_lr
        return reduced
    return False
