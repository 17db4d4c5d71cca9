"""The benchmark's workloads: inputs made from the seed, set-up, timed
phases and output checks.

Every workload is a closed loop with one client: each call waits for the
previous one.  Each runs the same phases in its own proportions: ingest a
FER CSV, optionally train, an epoch end (evaluate plus checkpoint writes),
then serve predictions cold (the CLI in a subprocess) and warm (in process).

* ``train_default`` - the default 77.5 M-parameter net at 64x64 RGB, batch
  16, flip augmentation, float32, training on an in-memory synthetic
  fixture; the held-out split is ingested from a 48x48 FER CSV and resized.
* ``train_fer48`` - the FER-native pipeline: both splits ingested from the
  CSV at 48x48 grayscale, a 1.2 M-parameter net, batch 32.
* ``infer_default`` - the default net in eval mode: set-up writes a training
  checkpoint (model plus velocity from one training step); the timed part
  runs cold predicts, `checkpoint.load`, `evaluate_model`, warm predicts and
  one `checkpoint.save`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from resemotenet import autodiff, checkpoint, data, optim, synthetic, training
from resemotenet import model as model_module
from resemotenet.layers import EVAL
from resemotenet.model import ModelConfig

import spans

clock = time.perf_counter

FER48 = ModelConfig(input_channels=1, input_size=48, stem_channels=(8, 16, 32),
                    se_reduction=8,
                    residual_channels=((32, 64, 2), (64, 128, 2), (128, 256, 2)))

#: batch-1 logits against the same image's row of the batched eval forward.
#: The two paths differ in float32 rounding of the resized input and in the
#: BLAS blocking of a 1-row versus a 32-row GEMM.
LOGIT_TOL = 1e-3
#: warm (float32 model) against cold CLI (float64 model) probabilities
PROB_TOL = 1e-3
SETUP_REPS = 3
INGEST_PASSES = 7
#: traced runs alternate untraced and traced steps; this many give at least
#: ten traced steps with an untraced step on either side
COMPARED_STEPS = 21


@dataclasses.dataclass(frozen=True)
class Plan:
    config: ModelConfig
    batch: int
    train_per_class: int       # synthetic training fixture size per class
    train_rows: int            # samples per training epoch
    test_per_class: int        # held-out split, ingested from the CSV
    train_from_csv: bool
    trains: bool               # False: one set-up step only, for the velocity
    warm_predicts: int         # train_*: after training; infer_default: see loop_unit_s
    cold_predicts: int
    loop_unit_s: float         # nominal seconds of one main-loop unit on a 2-core x86


PLANS = {
    "train_default": Plan(ModelConfig(), batch=16, train_per_class=3, train_rows=16,
                          test_per_class=9, train_from_csv=False, trains=True,
                          warm_predicts=16, cold_predicts=1, loop_unit_s=2.0),
    "train_fer48": Plan(FER48, batch=32, train_per_class=32, train_rows=224,
                        test_per_class=32, train_from_csv=True, trains=True,
                        warm_predicts=64, cold_predicts=3, loop_unit_s=1.0),
    "infer_default": Plan(ModelConfig(), batch=16, train_per_class=1, train_rows=2,
                          test_per_class=9, train_from_csv=False, trains=False,
                          warm_predicts=0, cold_predicts=3, loop_unit_s=0.036),
}


class Checks:
    """Output checks; each is one attempted operation that passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_name: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        tally = self.by_name.setdefault(name, [0, 0])
        tally[0] += 1
        if not ok:
            tally[1] += 1
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok


class Probes:
    """Light wrappers kept on in every run: per-step losses (and when they
    were computed) and the logits `evaluate_model` classifies."""

    def __init__(self):
        self.losses: list[float] = []
        self.loss_times: list[float] = []
        self.eval_logits: list[np.ndarray] = []
        cross_entropy, predict_labels = training.cross_entropy, training.predict_labels

        @functools.wraps(cross_entropy)
        def loss_probe(*args, **kwargs):
            value = cross_entropy(*args, **kwargs)
            self.losses.append(value.loss.item())
            self.loss_times.append(clock())
            return value

        @functools.wraps(predict_labels)
        def logits_probe(logits):
            self.eval_logits.append(logits)
            return predict_labels(logits)

        training.cross_entropy = loss_probe
        training.predict_labels = logits_probe


class Run:
    """One benchmark process: its seed, budget, checks and (optional) tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 tracer: spans.Tracer | None):
        self.name = workload
        self.plan = PLANS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.checks = Checks()
        self.probes = Probes()
        self.metrics: dict[str, float] = {}
        self.report: dict[str, object] = {}
        self.config = dataclasses.replace(self.plan.config, seed=seed)
        self.csv = work / "fer.csv"
        self.images = work / "images"
        self.first_timing_step = 0

    # -- helpers ---------------------------------------------------------------

    def loop_units(self) -> int:
        """Main-loop units (training epochs or warm predicts) for --seconds.
        The count depends on --seconds alone, not on measured speed, so every
        commit does the same work and reaches the same heap state."""
        return max(2, round(self.seconds / self.plan.loop_unit_s))

    def allocations(self):
        return self.tracer.allocations() if self.tracer else contextlib.nullcontext()

    def traced(self, on: bool) -> None:
        if self.tracer is None:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def fixture(self, per_class: int, size: int, channels: int, salt: int,
                split: str = "train"):
        return synthetic.make_synthetic_manifest(
            per_class=per_class, size=size, channels=channels,
            seed=self.seed * 16 + salt, split=split)

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Make the inputs and the model; repeated, the median is setup_s."""
        reps = []
        for rep in range(SETUP_REPS):
            start = clock()
            self._setup_once(last=rep == SETUP_REPS - 1)
            reps.append(clock() - start)
        self.metrics["setup_rep_s"] = statistics.median(reps)

    def _setup_once(self, last: bool) -> None:
        plan, cfg = self.plan, self.config
        self.model = None  # free the previous repetition's model first
        self.test_made = self.fixture(plan.test_per_class, 48, 1, 1, "test")
        splits = {"test": self.test_made}
        if plan.train_from_csv:
            self.train_made = self.fixture(plan.train_per_class, 48, 1, 2)
            splits = {"train": self.train_made, "test": self.test_made}
        else:
            made = self.fixture(plan.train_per_class, cfg.input_size,
                                cfg.input_channels, 2)
            order = np.random.default_rng(self.seed).permutation(len(made))
            self.train = data.DatasetManifest.from_samples(
                "fixture", "train", [made.samples[i] for i in order[:plan.train_rows]])
        synthetic.write_fer_csv(self.csv, splits)
        synthetic.write_pixmap_dir(self.images, self.test_made, color=False)
        self.model = model_module.build_model(cfg)
        if not plan.trains:
            self._write_training_checkpoint(last)

    def _write_training_checkpoint(self, last: bool) -> None:
        """One real training step, so the checkpoint carries velocity."""
        optimizer = recipe_optimizer()
        rng = np.random.default_rng(self.seed)
        with self.allocations() if last else contextlib.nullcontext():
            training.train_one_epoch(self.model, optimizer, self.train,
                                     self.plan.batch, rng, augment=True)
        self.ckpt = self.work / "train.ckpt"
        checkpoint.save(self.model, optimizer, optim.PlateauScheduler(), 1, self.ckpt,
                        rng_state=rng.bit_generator.state, best_metric=0.0)
        settle(self.ckpt)
        if last:
            self.digest = state_digest(self.model, optimizer)
        self.model = None

    # -- timed phases ----------------------------------------------------------

    def ingest(self) -> None:
        cfg, rates = self.config, []
        for _ in range(INGEST_PASSES):
            start = clock()
            test = data.adapt_manifest(data.load_fer_csv(self.csv, "test"),
                                       cfg.input_size, cfg.input_channels)
            rows = len(test)
            if self.plan.train_from_csv:
                train = data.adapt_manifest(data.load_fer_csv(self.csv, "train"),
                                            cfg.input_size, cfg.input_channels)
                rows += len(train)
            rates.append(rows / (clock() - start))
            self._check_split(test, self.test_made)
            if self.plan.train_from_csv:
                self._check_split(train, self.train_made)
                self.train = train
        self.test = test
        self.metrics["ingest.rows_per_s"] = statistics.median(rates)

    def _check_split(self, loaded, made) -> None:
        self.checks.record(
            "ingest.counts",
            len(loaded) == len(made)
            and np.array_equal(loaded.class_counts, made.class_counts),
            f"{loaded.split}: {len(loaded)} rows {loaded.class_counts.tolist()}, "
            f"generated {len(made)} rows {made.class_counts.tolist()}")

    def train_loop(self) -> None:
        """A warm-up epoch, then a fixed number of timed epochs.  Traced runs
        first train the warm-up and one more epoch untraced, restore the
        start and replay them traced, to compare losses bitwise; then they
        time at least twice the epochs with every other step untraced, to
        compare step times."""
        plan = self.plan
        self.optimizer = recipe_optimizer()
        if self.tracer is not None:
            self._untraced_reference()
        self.rng = np.random.default_rng(self.seed)
        epoch = functools.partial(training.train_one_epoch, self.model, self.optimizer,
                                  self.train, plan.batch, self.rng, True)
        losses_before = len(self.probes.losses)
        epoch()  # warm-up: first-touch allocation of velocity and scratch
        self.first_timing_step = self.tracer.step + 1 if self.tracer else 0
        times = []
        if self.tracer is None:
            for _ in range(self.loop_units()):
                times.append(self._timed_epoch(epoch))
        else:
            # every other step untraced: each traced step is compared with
            # the untraced steps on either side of it
            per_epoch = -(-len(self.train) // plan.batch)
            epochs = max(2 * self.loop_units() + 1, -(-COMPARED_STEPS // per_epoch))
            with self.tracer.alternating():
                for _ in range(epochs):
                    times.append(self._timed_epoch(epoch))
        self.metrics["loop.items_per_s"] = len(self.train) / statistics.median(times)
        self.report["train.epoch_s"] = times
        if self.tracer is not None:
            self._trace_checks(losses_before)
            # the first step under tracemalloc frees memory it never saw
            # allocated, so allocation metrics need a second one
            with self.tracer.allocations():
                steps = len(self.probes.losses)
                while len(self.probes.losses) - steps < 2:
                    epoch()

    @staticmethod
    def _timed_epoch(epoch) -> float:
        start = clock()
        epoch()
        return clock() - start

    def _untraced_reference(self) -> None:
        """Warm-up plus one epoch untraced, keeping their losses; then
        restore the model and optimizer to the start."""
        snapshot = {k: v.copy() for k, v in self.model.state_tensors().items()}
        self.traced(False)
        rng = np.random.default_rng(self.seed)
        for _ in range(2):
            training.train_one_epoch(self.model, self.optimizer, self.train,
                                     self.plan.batch, rng, True)
        self.reference_losses = list(self.probes.losses)
        self.traced(True)
        self.model.load_state(snapshot)
        self.optimizer.velocity.clear()

    def _trace_checks(self, losses_before: int) -> None:
        ref = np.array(self.reference_losses, dtype=np.float64)
        got = np.array(self.probes.losses[losses_before:losses_before + len(ref)],
                       dtype=np.float64)
        self.checks.record("trace.losses_bitwise", ref.tobytes() == got.tobytes(),
                           f"untraced {ref.tolist()} traced {got.tolist()}")
        # a traced step's op self times plus its glue (the rest) make its time
        pairs = self.tracer.step_ratios(self.first_timing_step)
        ratio = statistics.median(t / u for t, u in pairs)
        traced = statistics.median(t for t, _ in pairs)
        ops = statistics.median(
            s["leaves"] for s in spans.step_totals(self.tracer, self.first_timing_step).values())
        self.checks.record("trace.step_accounting", abs(ratio - 1.0) <= 0.10,
                           f"op self + glue per step is {ratio:.3f}x the untraced "
                           f"steps beside it, over {len(pairs)} steps")
        self.report["trace_summary"] = {
            "untraced_step_s": statistics.median(u for _, u in pairs),
            "traced_step_s": traced,
            "op_self_s": ops,
            "glue_s": traced - ops,
            "overhead_pct": 100.0 * (ratio - 1.0),
            "compared_steps": len(pairs),
            "compared_losses": len(ref),
        }

    def epoch_end(self) -> None:
        """What `train_model` does after an epoch: evaluate, then write the
        best and last checkpoints."""
        self.eval_pass()
        scheduler = optim.PlateauScheduler()
        accuracy = self.confusion.accuracy()
        optim.scheduler_step(scheduler, accuracy, self.optimizer)
        self.ckpt = self.work / training.BEST_CHECKPOINT
        saves = 0.0
        for name in (training.BEST_CHECKPOINT, training.LAST_CHECKPOINT):
            start = clock()
            with self.allocations():
                checkpoint.save(self.model, self.optimizer, scheduler, 1, self.work / name,
                                rng_state=self.rng.bit_generator.state,
                                best_metric=accuracy)
            saves += clock() - start
            settle(self.work / name)
        self.metrics["epoch_end_s"] = self.eval_s + saves
        self.report["epoch_end"] = {"evaluate_s": self.eval_s, "saves_s": saves}
        self.metrics["checkpoint.file_mb"] = self.ckpt.stat().st_size / 1e6
        self.digest = state_digest(self.model, self.optimizer)
        self.model = self.optimizer = None

    def resave(self) -> None:
        """Write the loaded training state back, as a resumed run would."""
        path = self.work / "resaved.ckpt"
        start = clock()
        with self.allocations():
            checkpoint.save(self.model, self.loaded.optimizer, self.loaded.scheduler,
                            self.loaded.epoch, path, rng_state=self.loaded.rng_state,
                            best_metric=self.loaded.best_metric)
        self.metrics["epoch_end_s"] = self.eval_s + clock() - start
        settle(path)
        self.metrics["checkpoint.file_mb"] = self.ckpt.stat().st_size / 1e6

    def final_checks(self) -> None:
        """Every training loss, and every parameter of the final model, is
        finite."""
        for loss in self.probes.losses:
            self.checks.record("train.loss_finite", np.isfinite(loss), f"loss {loss}")
        bad = [n for n, t in self.model.named_parameters() if not np.isfinite(t.data).all()]
        self.checks.record("params_finite", not bad, f"non-finite {bad[:3]}")

    def eval_pass(self) -> None:
        self.probes.eval_logits.clear()
        start = clock()
        self.confusion = training.evaluate_model(self.model, self.test)
        self.eval_s = clock() - start
        self.metrics["eval.images_per_s"] = len(self.test) / self.eval_s
        self.checks.record("eval.confusion_total", self.confusion.total == len(self.test),
                           f"{self.confusion.total} != {len(self.test)}")
        self.eval_rows = np.concatenate(self.probes.eval_logits)

    def load(self) -> None:
        start = clock()
        with self.allocations():
            loaded = checkpoint.load(self.ckpt)
        self.metrics["checkpoint.load_s"] = clock() - start
        self.model = loaded.model
        self.checks.record("checkpoint.bitwise", state_digest(self.model, loaded.optimizer)
                           == self.digest, f"{self.ckpt.name} differs after load")
        self.loaded = loaded

    def cold_predicts(self) -> None:
        """`resemotenet predict` in a fresh interpreter, as a user runs it."""
        env = dict(os.environ, PYTHONPATH=str(Path(training.__file__).parents[1]))
        image = self.image_path(0)
        times, self.cold = [], []
        for _ in range(self.plan.cold_predicts):
            start = clock()
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "resemotenet", "predict", str(image),
                     "--checkpoint", str(self.ckpt)],
                    env=env, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                self.checks.record("predict.cold", False, "timed out")
                continue
            times.append(clock() - start)
            probs = parse_probabilities(done.stdout)
            ok = done.returncode == 0 and probs is not None \
                and abs(probs.sum() - 1.0) <= 1e-6
            if self.checks.record("predict.cold", ok,
                                  f"exit {done.returncode}: {done.stderr[-300:]}"):
                self.cold.append(probs)
        self.metrics["predict.cold_s"] = statistics.median(times) if times else 0.0
        self.report["predict.cold_runs_s"] = times

    def image_path(self, i: int) -> Path:
        sample = self.test_made.samples[i]
        return self.images / data.CLASS_NAMES[sample.label] / f"{i:05d}.pgm"

    def warm_predicts(self, count: int) -> None:
        """Single-image predicts on the loaded model, as `cmd_predict` does
        them: load_single_image, forward(EVAL), softmax."""
        cfg, latencies = self.config, []
        for i in range(count):
            k = i % len(self.test_made)
            start = clock()
            sample = data.load_single_image(self.image_path(k), cfg.input_size,
                                            cfg.input_channels)
            logits = self.model.forward(autodiff.Tensor(sample.pixels[None]),
                                        mode=EVAL).values.data
            probs = optim.softmax(logits)[0]
            latencies.append(clock() - start)
            self.checks.record("predict.warm_sum", abs(float(probs.sum()) - 1.0) <= 1e-6,
                               f"probabilities sum to {float(probs.sum())!r}")
            row = self.eval_rows[k]
            scale = max(1.0, float(np.abs(row).max()))
            self.checks.record("predict.warm_matches_eval",
                               np.abs(logits[0] - row).max() <= LOGIT_TOL * scale,
                               f"image {k}: batch-1 {logits[0]} vs batched {row}")
            if i == 0:
                self.warm_first = probs
        for probs in self.cold:
            self.checks.record("predict.cold_matches_warm",
                               np.abs(probs - self.warm_first).max() <= PROB_TOL,
                               f"cold {probs} vs warm {self.warm_first}")
        ms = sorted(t * 1e3 for t in latencies)
        self.metrics["predict.p50_ms"] = statistics.median(ms)
        self.report["predict.latency_ms"] = {
            "p50": statistics.median(ms), "p90": ms[int(0.9 * (len(ms) - 1))],
            "n": len(ms)}
        if not self.plan.trains:
            self.metrics["loop.items_per_s"] = 1e3 / statistics.median(ms)


def recipe_optimizer() -> optim.SgdState:
    """The recipe's optimizer (`RunConfig` defaults: lr 1e-3, momentum 0.9)."""
    return optim.SgdState(lr=1e-3, momentum=0.9)


def settle(path: Path) -> None:
    """Flush a written file outside the timed windows, so its writeback does
    not land in the next measurement."""
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())


def state_digest(model, optimizer) -> dict[str, str]:
    """sha256 of every model and velocity tensor, with its dtype and shape."""
    tensors = dict(model.state_tensors())
    if optimizer is not None:
        tensors.update({f"velocity.{k}": v for k, v in optimizer.velocity.items()})
    return {k: f"{v.dtype}{v.shape}" + hashlib.sha256(np.ascontiguousarray(v)).hexdigest()
            for k, v in tensors.items()}


def parse_probabilities(stdout: str) -> np.ndarray | None:
    values = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in data.CLASS_NAMES:
            try:
                values.append(float(parts[1]))
            except ValueError:
                return None
    return np.array(values) if values else None


def run_workload(run: Run) -> None:
    """Set up, then the timed phases in the order a user meets them."""
    with autodiff.using_dtype(np.float32):
        run.traced(True)
        run.setup()
        run.ingest()
        if run.plan.trains:
            run.train_loop()
            run.epoch_end()
            run.cold_predicts()
            run.load()
            run.warm_predicts(run.plan.warm_predicts)
        else:
            run.cold_predicts()
            run.load()
            run.eval_pass()
            run.warm_predicts(run.loop_units())
            run.resave()
        run.traced(False)
        run.final_checks()
