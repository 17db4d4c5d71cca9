"""Evaluation accounting: confusion matrix, accuracy, and per-class
precision/recall, with JSON-ready and aligned-text report output."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import class_names_for
from .errors import DataError


def predict_labels(logits: np.ndarray) -> np.ndarray:
    """Class prediction per row: argmax with lowest-index tie-break
    (exactly what np.argmax guarantees for equal values)."""
    return np.argmax(logits, axis=1)


class ConfusionMatrix:
    """K x K count table; rows index the true class, columns the predicted."""

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise DataError(f"confusion matrix needs >= 2 classes, got {num_classes}")
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.class_names = class_names_for(num_classes)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def update(self, true_labels, predicted_labels) -> None:
        """Tally (true, predicted) pairs into the table."""
        t = np.asarray(true_labels, dtype=np.int64).reshape(-1)
        p = np.asarray(predicted_labels, dtype=np.int64).reshape(-1)
        if t.shape != p.shape:
            raise DataError(
                f"update needs equal-length label lists, got {t.size} and {p.size}")
        k = self.num_classes
        for name, arr in (("true", t), ("predicted", p)):
            bad = np.flatnonzero((arr < 0) | (arr >= k))
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"{name} label {int(arr[i])} at index {i} outside [0, {k})")
        np.add.at(self.counts, (t, p), 1)

    def accuracy(self) -> float:
        """Share of correct predictions, in percent: 100 * trace / total."""
        total = self.total
        if total == 0:
            raise DataError("accuracy undefined: no samples recorded")
        return 100.0 * float(np.trace(self.counts)) / total

    def per_class(self) -> list["ClassReport"]:
        """Precision/recall/support per class; a class never predicted has
        undefined precision, reported as 0 with the flag set."""
        if self.total == 0:
            raise DataError("per-class metrics undefined: no samples recorded")
        reports = []
        col_sums = self.counts.sum(axis=0)
        row_sums = self.counts.sum(axis=1)
        for k in range(self.num_classes):
            tp = int(self.counts[k, k])
            undefined = col_sums[k] == 0
            precision = 0.0 if undefined else tp / int(col_sums[k])
            recall = 0.0 if row_sums[k] == 0 else tp / int(row_sums[k])
            reports.append(ClassReport(
                name=self.class_names[k], precision=float(precision),
                recall=float(recall), support=int(row_sums[k]),
                precision_undefined=bool(undefined)))
        return reports

    def normalized(self) -> np.ndarray:
        """Rows rescaled to fractions; all-zero rows stay zero."""
        rows = self.counts.sum(axis=1, keepdims=True)
        return np.where(rows > 0, self.counts / np.maximum(rows, 1), 0.0)

    def one_vs_rest(self, k: int) -> dict[str, int]:
        """Binary reduction for class k: TP, FP, FN, TN (sums to total)."""
        tp = int(self.counts[k, k])
        fp = int(self.counts[:, k].sum()) - tp
        fn = int(self.counts[k, :].sum()) - tp
        tn = self.total - tp - fp - fn
        return {"TP": tp, "FP": fp, "FN": fn, "TN": tn}


@dataclass(frozen=True)
class ClassReport:
    name: str
    precision: float
    recall: float
    support: int
    precision_undefined: bool = False


def report_dict(cm: ConfusionMatrix) -> dict:
    """The full evaluation as one JSON-ready dict: accuracy, per-class
    table, raw counts, and row-normalized fractions."""
    return {
        "accuracy": cm.accuracy(),
        "total": cm.total,
        "classes": [asdict(r) for r in cm.per_class()],
        "matrix": cm.counts.tolist(),
        "matrix_normalized": [[round(v, 6) for v in row]
                              for row in cm.normalized()],
    }


def report_text(cm: ConfusionMatrix) -> str:
    """Aligned plain-text tables: raw counts, row-normalized fractions, and
    the per-class precision/recall summary."""
    names = cm.class_names
    label_w = max(len(n) for n in names)
    cell_w = max(5, max(len(str(v)) for v in cm.counts.reshape(-1)))
    lines = [f"accuracy: {cm.accuracy():.2f}%  ({cm.total} samples)", "",
             "confusion matrix (rows = true, columns = predicted):"]
    header = " " * (label_w + 2) + " ".join(f"{n[:cell_w]:>{cell_w}}" for n in names)
    lines.append(header)
    for i, name in enumerate(names):
        row = " ".join(f"{int(v):>{cell_w}}" for v in cm.counts[i])
        lines.append(f"{name:<{label_w}}  {row}")
    lines.append("")
    lines.append("row-normalized:")
    lines.append(header)
    for i, name in enumerate(names):
        row = " ".join(f"{v:>{cell_w}.2f}" for v in cm.normalized()[i])
        lines.append(f"{name:<{label_w}}  {row}")
    lines.append("")
    lines.append(f"{'class':<{label_w}}  {'precision':>9} {'recall':>9} {'support':>8}")
    for r in cm.per_class():
        precision = "  undef" if r.precision_undefined else f"{r.precision:7.4f}"
        lines.append(f"{r.name:<{label_w}}  {precision:>9} {r.recall:9.4f} "
                     f"{r.support:8d}")
    return "\n".join(lines)
