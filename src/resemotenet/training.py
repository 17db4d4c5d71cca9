"""The training loop: shuffled mini-batch epochs of momentum SGD, per-epoch
evaluation on the held-out split, plateau-driven learning-rate cuts, and
best/last checkpointing with exact resume.

Determinism contract: one seeded generator drives all data-order decisions
(epoch shuffles and flip draws, in that order, lazily per batch).  Its state
is stored in ``last.ckpt`` after each epoch, so a resumed run consumes the
stream exactly where the original left off and reproduces the remaining
epochs bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import checkpoint
from .autodiff import Graph, Tensor, using_dtype
from .config import RunConfig
from .data import DatasetManifest, make_batches, random_horizontal_flip
from .errors import ConfigError, OptimizerError
from .layers import EVAL, TRAIN
from .metrics import ConfusionMatrix, predict_labels
from .model import ModelConfig, ResEmoteNetModel, build_model
from .optim import (PlateauScheduler, SgdState, cross_entropy, scheduler_step,
                    sgd_step, zero_velocity)

BEST_CHECKPOINT = "best.ckpt"
LAST_CHECKPOINT = "last.ckpt"
#: most images per `evaluate_model` forward
EVAL_BATCH = 32
#: elements one `evaluate_model` forward's largest conv output may hold
#: (8 MiB in float32): the default net takes 8 images a forward, FER-48 32
EVAL_BLOCK_ELEMENTS = 2 ** 21


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float       # mean over the epoch's samples
    eval_accuracy: float    # percent on the evaluation split
    lr: float               # rate in effect after this epoch's scheduler step
    lr_reduced: bool = False

    def line(self) -> str:
        return (f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
                f"eval_acc={self.eval_accuracy:.2f} lr={self.lr:g}")


@dataclass
class TrainResult:
    model: ResEmoteNetModel
    optimizer: SgdState
    scheduler: PlateauScheduler
    history: list[EpochRecord] = field(default_factory=list)


def make_out_dir(path, key: str) -> Path:
    """`path` as a directory, made with its parents if absent; a path that
    cannot be one is a `ConfigError` naming `key` and the path."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{key}: cannot make a directory at {path}: {err.strerror}") from err
    return path


def _note_resumed_values(cfg: RunConfig, optimizer: SgdState, scheduler: PlateauScheduler,
                         path) -> None:
    """Tell stderr which run settings a resume from `path` replaces with the
    checkpoint's own; not an error, as a plateau cut changes ``lr``."""
    replaced = [f"{key} = {getattr(source, key)} (run: {getattr(cfg, key)})"
                for source, keys in ((optimizer, ("lr", "momentum", "weight_decay")),
                                     (scheduler, ("factor", "patience", "min_lr")))
                for key in keys if getattr(source, key) != getattr(cfg, key)]
    if replaced:
        print(f"note: resuming from {path} with its own {', '.join(replaced)}",
              file=sys.stderr)


def eval_block(config: ModelConfig) -> int:
    """Images per `evaluate_model` forward: as many as keep the largest conv
    output within `EVAL_BLOCK_ELEMENTS`, at most `EVAL_BATCH`, at least 1."""
    return max(1, min(EVAL_BATCH, EVAL_BLOCK_ELEMENTS // config.largest_conv_output()))


def evaluate_model(model: ResEmoteNetModel, manifest: DatasetManifest) -> ConfusionMatrix:
    """Tally a confusion matrix over a manifest in eval mode: fixed order,
    no augmentation, running statistics untouched.

    The manifest is forwarded `eval_block` images at a time, which bounds
    the activations an eval forward holds beside the model.  Eval-mode batch
    norm reads running statistics, so no sample's logits depend on the
    others in its block."""
    cm = ConfusionMatrix(model.config.num_classes)
    for pixels, labels in make_batches(manifest, eval_block(model.config), None,
                                       shuffle=False):
        logits = model.forward(pixels, mode=EVAL)
        cm.update(labels, predict_labels(logits.values.data))
    return cm


def train_one_epoch(model: ResEmoteNetModel, optimizer: SgdState,
                    manifest: DatasetManifest, batch_size: int,
                    rng: np.random.Generator, augment: bool) -> float:
    """One shuffled pass; returns the sample-weighted mean batch loss.

    The optimizer step runs inside backward: each parameter is updated as
    soon as its gradient is final, so at most a layer's gradients are alive
    at once.  The first update that finds its parameter without a velocity
    gives every parameter that lacks one a velocity (`zero_velocity`), in
    one allocation.  A non-finite loss, or a batch-norm running statistic
    the forward left non-finite, stops the pass before backward, naming the
    batch (and the statistic), so no update is made from it."""
    transform = None
    if augment:
        transform = lambda sample: random_horizontal_flip(sample, rng)
    params = {id(p): (name, p) for name, p in model.named_parameters()}
    # updated in place by each train-mode forward
    running_stats = [(name, arr) for name, arr in model.state_tensors().items()
                     if name.endswith((".running_mean", ".running_var"))]
    pending = {}

    def step(leaf: Tensor) -> None:
        named = pending.pop(id(leaf))
        if named[0] not in optimizer.velocity:
            # here, not before the first batch: a velocity smaller than a
            # step's memory then sits above it in the heap, which glibc would
            # otherwise trim and fault back in at every step (FER-48 nets)
            zero_velocity(optimizer, params.values())
        # sgd_step is looked up at each call, so a wrapper installed on
        # training.sgd_step still sees every step
        sgd_step(optimizer, [named])

    total_loss = 0.0
    total_seen = 0
    for batch, (pixels, labels) in enumerate(
            make_batches(manifest, batch_size, rng, shuffle=True,
                         transform=transform), start=1):
        pending = dict(params)
        # a diverging step overflows before the checks below name it; they
        # report it, so numpy's unnamed warnings would only add noise
        with Graph(on_grad=step), np.errstate(over="ignore", invalid="ignore"):
            logits = model.forward(pixels, mode=TRAIN)
            value = cross_entropy(logits.values, labels)
            loss = float(value.loss.item())
            if not np.isfinite(loss):
                raise OptimizerError(
                    f"batch {batch}: non-finite training loss {loss}; no update "
                    f"was made from it (lower the learning rate)")
            for name, stat in running_stats:
                if not np.isfinite(stat).all():
                    raise OptimizerError(
                        f"batch {batch}: non-finite batch-norm statistic {name!r}; "
                        f"no update was made from it (lower the learning rate)")
            value.loss.backward()
        if pending:  # parameters backward never reached: sgd_step names one
            sgd_step(optimizer, list(pending.values()))
        n = labels.shape[0]
        total_loss += loss * n
        total_seen += n
    return total_loss / total_seen


def train_model(cfg: RunConfig, train_manifest: DatasetManifest,
                eval_manifest: DatasetManifest, *,
                out_dir=None,
                resume_from=None,
                log: Callable[[str], None] | None = None,
                stop_when: Callable[[EpochRecord], bool] | None = None
                ) -> TrainResult:
    """Run the full recipe from `cfg` (or continue it from `resume_from`).

    Per epoch: train over shuffled batches, evaluate on `eval_manifest`,
    feed accuracy to the plateau scheduler, emit one log line, and — when
    `out_dir` is set — refresh ``last.ckpt`` (full state incl. the data-order
    RNG) plus ``best.ckpt`` whenever accuracy improves.  `stop_when` lets
    callers end early once a target is met; otherwise all epochs run.
    A resume takes the rate, momentum, weight decay and plateau settings
    from its checkpoint, and notes on stderr each that differs from `cfg`.
    """
    emit = log if log is not None else lambda line: None
    with using_dtype(cfg.dtype):
        rng = np.random.default_rng(cfg.seed)
        if resume_from is not None:
            loaded = checkpoint.load(resume_from, expected_config=cfg.model_config())
            model = loaded.model
            optimizer = loaded.optimizer
            scheduler = loaded.scheduler
            if optimizer is None or scheduler is None:
                raise checkpoint.CheckpointError(
                    f"{resume_from}: inference-only checkpoint cannot resume "
                    f"training (no optimizer state)")
            if model.dtype != np.dtype(cfg.dtype):
                raise checkpoint.CheckpointError(
                    f"{resume_from}: checkpoint holds {model.dtype} tensors but "
                    f"the run's dtype is {cfg.dtype}")
            if cfg.epochs <= loaded.epoch:
                raise ConfigError(
                    f"epochs = {cfg.epochs} leaves nothing to run after "
                    f"{resume_from}, which ends at epoch {loaded.epoch}")
            if loaded.rng_state is not None:
                rng.bit_generator.state = loaded.rng_state
            _note_resumed_values(cfg, optimizer, scheduler, resume_from)
            start_epoch = loaded.epoch + 1
        else:
            model = build_model(cfg.model_config())
            optimizer = cfg.sgd_state()
            scheduler = cfg.scheduler()
            start_epoch = 1

        result = TrainResult(model=model, optimizer=optimizer, scheduler=scheduler)
        out_path = make_out_dir(out_dir, "out_dir") if out_dir is not None else None

        for epoch in range(start_epoch, cfg.epochs + 1):
            try:
                mean_loss = train_one_epoch(model, optimizer, train_manifest,
                                            cfg.batch_size, rng, cfg.augment)
            except OptimizerError as err:
                raise OptimizerError(f"epoch {epoch}, {err}") from err
            accuracy = evaluate_model(model, eval_manifest).accuracy()
            best_before = scheduler.best_metric
            reduced = scheduler_step(scheduler, accuracy, optimizer)
            improved = scheduler.best_metric != best_before
            record = EpochRecord(epoch=epoch, train_loss=mean_loss,
                                 eval_accuracy=accuracy, lr=optimizer.lr,
                                 lr_reduced=reduced)
            result.history.append(record)
            emit(record.line())

            if out_path is not None:
                if improved:
                    checkpoint.save(model, optimizer, scheduler, epoch,
                                    out_path / BEST_CHECKPOINT,
                                    rng_state=rng.bit_generator.state,
                                    best_metric=scheduler.best_metric)
                checkpoint.save(model, optimizer, scheduler, epoch,
                                out_path / LAST_CHECKPOINT,
                                rng_state=rng.bit_generator.state,
                                best_metric=scheduler.best_metric)
            if stop_when is not None and stop_when(record):
                break
    return result
