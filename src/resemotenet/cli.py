"""Command-line entry point: ``train``, ``eval``, ``predict``, ``gradcheck``.

Configuration comes from a flat ``key = value`` file (see `config`), with
command-line flags overriding file values.  Logging is one machine-parseable
line per epoch on stdout plus a JSON report at the end of a run.

Exit codes are a stable contract: 0 success, 1 internal failure (including
failed gradient checks), 2 usage, configuration or divergence (bad flags,
unreadable config, malformed datasets, corrupt checkpoints, non-finite logits).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as checkpoint_io
from .autodiff import Tensor, using_dtype
from .config import DATASET_KINDS, RunConfig, load_run_config
from .data import (CLASS_NAMES, DatasetManifest, adapt_manifest, class_names_for,
                   count_report, load_fer_csv, load_image_dir, load_single_image)
from .errors import CheckpointError, ConfigError, DataError, OptimizerError
from .metrics import report_dict, report_text
from .model import ModelConfig
from .optim import softmax
from .training import (BEST_CHECKPOINT, LAST_CHECKPOINT, eval_logits, evaluate_model,
                       make_out_dir, train_model)
from .verification import GRADCHECK_TOL, recorded_ops, run_gradient_checks

GRADCHECK_TRIALS = {"tiny": 50, "small": 150}
#: largest |--logit-shift|: ulp(1e6) is 1.2e-10, so a shift this large moves
#: each logit by far less than the 8 printed decimals resolve
LOGIT_SHIFT_BOUND = 1e6


def _overrides_from(args) -> dict:
    """Flag values that were actually given; a flag whose `dest` is a
    `RunConfig` key overrides that key."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
            if getattr(args, f.name, None) is not None}


def _echo_config(cfg: RunConfig) -> None:
    print("effective configuration:")
    for key, value in cfg.effective_items():
        print(f"  {key} = {value}")


def _load_split(dataset: str, data_root: str, split: str,
                config: ModelConfig) -> DatasetManifest:
    """Materialize one split of the configured corpus at model geometry,
    refusing a label the model has no output for.

    ``fer2013`` reads the single CSV (``data_root`` may be the file itself or
    a directory holding ``fer2013.csv``).  The directory layouts (``rafdb``,
    ``affectnet``, ``dir``) read the `MANIFEST` of ``<data_root>/<split>``.
    """
    if not data_root:
        raise DataError(
            "no dataset path given; set data_root in the config file or pass "
            "--data-root")
    root = Path(data_root)
    if dataset == "fer2013":
        source = root if root.suffix == ".csv" else root / "fer2013.csv"
        manifest = load_fer_csv(source, split)
        manifest = adapt_manifest(manifest, config.input_size, config.input_channels)
    else:
        source = root / split
        manifest = load_image_dir(source, split, config.input_size, config.input_channels)
    beyond = np.flatnonzero(manifest.class_counts[config.num_classes:])
    if beyond.size:
        label = config.num_classes + int(beyond[0])
        raise DataError(
            f"{source} ({split} split): {manifest.class_counts[label]} samples of "
            f"class {CLASS_NAMES[label]!r} (label {label}), which a "
            f"{config.num_classes}-class model cannot output")
    name = dataset if dataset != "dir" else (root.name or "dir")
    return dataclasses.replace(manifest, name=name)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, _overrides_from(args))
    _echo_config(cfg)
    out_dir = make_out_dir(cfg.out_dir, "out_dir")  # before any data is read
    # splits load in the training dtype: no float64 copy, no per-batch cast
    with using_dtype(cfg.dtype):
        geometry = cfg.model_config()
        train_manifest = _load_split(cfg.dataset, cfg.data_root, "train", geometry)
        eval_manifest = _load_split(cfg.dataset, cfg.data_root, "test", geometry)
        for manifest in (train_manifest, eval_manifest):
            for line in count_report(manifest):
                print(line)

        result = train_model(cfg, train_manifest, eval_manifest, out_dir=out_dir,
                             resume_from=args.checkpoint, log=print)
        # release the trained model and its velocity first, so the load below
        # does not stack more copies of the parameters on them
        result.model = result.optimizer = None
        # the report scores best.ckpt (a resumed run's best may predate the
        # run, so its epoch comes from there too); a resumed run none of whose
        # epochs improved writes none and scores last.ckpt, the trained model
        best_path = out_dir / BEST_CHECKPOINT
        improved = best_path.exists()
        final = checkpoint_io.load(best_path if improved else out_dir / LAST_CHECKPOINT,
                                   expected_config=geometry, model_only=True)
        best_accuracy = final.best_metric
        if improved:
            best_epoch = final.epoch
            summary = f"best epoch {best_epoch} accuracy {best_accuracy:.2f}"
        else:
            best_epoch, last = None, result.history[-1]
            summary = (f"last epoch {last.epoch} accuracy {last.eval_accuracy:.2f}; no epoch "
                       f"of this run improved on the resumed best accuracy {best_accuracy:.2f}")
        confusion = evaluate_model(final.model, eval_manifest)
    (out_dir / "confusion.txt").write_text(report_text(confusion),
                                           encoding="utf-8")
    payload = {
        "dataset": cfg.dataset,
        "seed": cfg.seed,
        "epochs_run": len(result.history),
        "best_epoch": best_epoch,
        "best_accuracy": best_accuracy,
        "history": [dataclasses.asdict(record) for record in result.history],
        "report": report_dict(confusion),
    }
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n",
                                          encoding="utf-8")
    print(summary)
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, _overrides_from(args))
    out_dir = None if args.out is None else make_out_dir(args.out, "--out")
    model = checkpoint_io.load(args.checkpoint, model_only=True).model
    with using_dtype(model.dtype):  # the pixels `train` scored it on
        manifest = _load_split(cfg.dataset, cfg.data_root, args.split, model.config)
        confusion = evaluate_model(model, manifest)
    print(f"accuracy: {confusion.accuracy():.2f}")
    print(report_text(confusion))
    if out_dir is not None:
        (out_dir / "confusion.txt").write_text(report_text(confusion),
                                               encoding="utf-8")
        (out_dir / "metrics.json").write_text(
            json.dumps(report_dict(confusion), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    if not np.isfinite(args.logit_shift):
        raise ConfigError(f"--logit-shift must be finite, got {args.logit_shift}")
    if abs(args.logit_shift) > LOGIT_SHIFT_BOUND:
        raise ConfigError(f"--logit-shift must be within +-{LOGIT_SHIFT_BOUND:g}, "
                          f"got {args.logit_shift}")
    model = checkpoint_io.load(args.checkpoint, model_only=True).model
    geometry = model.config
    with using_dtype(model.dtype):
        sample = load_single_image(args.image, geometry.input_size,
                                   geometry.input_channels)
        logits = eval_logits(model, Tensor(sample.pixels[None, ...]), args.image)[0]
    # softmax is shift-invariant; the flag exists so that invariance is
    # checkable from the outside; added in float64, as LOGIT_SHIFT_BOUND assumes
    probabilities = softmax((logits.astype(np.float64) + args.logit_shift)[None, :])[0]
    names = class_names_for(geometry.num_classes)
    # 8 decimals: the printed row must still sum to 1 within 1e-6
    for name, p in zip(names, probabilities):
        print(f"{name:<9} {p:.8f}")
    print(f"predicted: {names[int(np.argmax(probabilities))]}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if args.inject_fault and args.inject_fault not in (ops := recorded_ops()):
        raise ConfigError(f"--inject-fault: the battery records no op "
                          f"{args.inject_fault!r}; it records {', '.join(sorted(ops))}")
    report = run_gradient_checks(args.seed, GRADCHECK_TRIALS[args.scale], log=print,
                                 fault=args.inject_fault)
    print(f"elapsed: {report.elapsed_seconds:.1f}s  "
          f"max_rel_err: {report.max_rel_err:.3e}  tol: {GRADCHECK_TOL:g}")
    if not report.passed:
        for result in report.results:
            for failure in result.failures[:5]:
                print(f"FAIL {result.name}: {failure}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resemotenet",
        description="Train, evaluate, and inspect the emotion classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--config", metavar="PATH",
                       help="flat 'key = value' config file")
        p.add_argument("--dataset", choices=DATASET_KINDS,
                       help="corpus kind (default fer2013)")
        p.add_argument("--data-root", dest="data_root", metavar="PATH",
                       help="CSV file/directory (fer2013) or split directory root")

    t = sub.add_parser("train", help="run the training recipe")
    add_data_flags(t)
    t.add_argument("--seed", type=int, metavar="N")
    t.add_argument("--epochs", type=int, metavar="N")
    t.add_argument("--batch-size", dest="batch_size", type=int, metavar="N")
    t.add_argument("--lr", type=float, metavar="F")
    t.add_argument("--out", dest="out_dir", metavar="DIR",
                   help="run directory for metrics.json, confusion.txt, "
                   "best.ckpt, last.ckpt")
    t.add_argument("--checkpoint", metavar="PATH",
                   help="resume training from this checkpoint")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    add_data_flags(e)
    e.add_argument("--checkpoint", metavar="PATH", required=True)
    e.add_argument("--split", choices=("train", "test"), default="test")
    e.add_argument("--out", metavar="DIR",
                   help="also write confusion.txt and metrics.json here")
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one image file")
    p.add_argument("image", metavar="IMAGE", help="binary pixmap (P5/P6)")
    p.add_argument("--checkpoint", metavar="PATH", required=True)
    p.add_argument("--logit-shift", dest="logit_shift", type=float, default=0.0,
                   metavar="F", help="add a constant to every logit first "
                   f"(the prediction must not change); |F| <= {LOGIT_SHIFT_BOUND:g}")
    p.set_defaults(func=cmd_predict)

    g = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    g.add_argument("scale", choices=tuple(GRADCHECK_TRIALS),
                   help="trials per component: " + ", ".join(
                       f"{scale}={n}" for scale, n in GRADCHECK_TRIALS.items()))
    g.add_argument("--seed", type=int, default=0, metavar="N")
    g.add_argument("--inject-fault", dest="inject_fault", metavar="OP",
                   help="corrupt the named op's backward pass; the audit "
                   "must then fail")
    g.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError, OptimizerError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
