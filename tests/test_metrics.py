"""Confusion-matrix accounting, the accuracy formula, and report output."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet.errors import DataError
from resemotenet.metrics import (
    ConfusionMatrix,
    predict_labels,
    report_dict,
    report_text,
)

rng = np.random.default_rng(77)


class TestUpdate:
    def test_perfect_predictions_fill_diagonal(self):
        cm = ConfusionMatrix(7)
        labels = rng.integers(0, 7, 10)
        cm.update(labels, labels)
        assert np.trace(cm.counts) == 10
        assert cm.total == 10

    def test_hand_counted_case(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 1, 2, 1], [0, 1, 2, 2])
        assert cm.counts[1, 2] == 1
        assert np.trace(cm.counts) == 3

    def test_row_sums_are_true_histogram(self):
        cm = ConfusionMatrix(7)
        labels = rng.integers(0, 7, 1000)
        preds = rng.integers(0, 7, 1000)
        cm.update(labels, preds)
        npt.assert_array_equal(cm.counts.sum(axis=1),
                               np.bincount(labels, minlength=7))
        npt.assert_array_equal(cm.counts.sum(axis=0),
                               np.bincount(preds, minlength=7))

    def test_incremental_updates_accumulate(self):
        cm = ConfusionMatrix(3)
        cm.update([0], [1])
        cm.update([0], [1])
        assert cm.counts[0, 1] == 2

    def test_out_of_range_rejected_with_index(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(DataError, match="true label 3 at index 1"):
            cm.update([0, 3], [0, 0])
        with pytest.raises(DataError, match="predicted label -1 at index 0"):
            cm.update([0], [-1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="equal-length"):
            ConfusionMatrix(3).update([0, 1], [0])


class TestAccuracy:
    def test_binary_case_matches_tp_tn_formula(self):
        # TP=3, TN=5, FP=1, FN=1 with class 1 as positive
        cm = ConfusionMatrix(2)
        cm.update([1] * 3 + [0] * 5 + [0] * 1 + [1] * 1,
                  [1] * 3 + [0] * 5 + [1] * 1 + [0] * 1)
        npt.assert_allclose(cm.accuracy(), 80.0, atol=1e-12)
        ovr = cm.one_vs_rest(1)
        assert (ovr["TP"], ovr["TN"], ovr["FP"], ovr["FN"]) == (3, 5, 1, 1)

    def test_all_correct_is_hundred(self):
        cm = ConfusionMatrix(4)
        cm.update([0, 1, 2, 3], [0, 1, 2, 3])
        assert cm.accuracy() == 100.0

    def test_three_of_four(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 1, 2, 1], [0, 1, 2, 2])
        npt.assert_allclose(cm.accuracy(), 75.0, atol=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            ConfusionMatrix(3).accuracy()


class TestPerClass:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 1, 2, 2], [0, 1, 2, 2])
        for r in cm.per_class():
            assert r.precision == 1.0 and r.recall == 1.0
            assert not r.precision_undefined

    def test_never_predicted_class_flagged(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 1, 2], [0, 1, 1])  # class 2 never predicted
        reports = cm.per_class()
        assert reports[2].precision == 0.0
        assert reports[2].precision_undefined
        assert not reports[0].precision_undefined

    def test_matches_direct_formula(self):
        cm = ConfusionMatrix(5)
        labels = rng.integers(0, 5, 300)
        preds = rng.integers(0, 5, 300)
        cm.update(labels, preds)
        for k, r in enumerate(cm.per_class()):
            col = cm.counts[:, k].sum()
            row = cm.counts[k, :].sum()
            want_p = cm.counts[k, k] / col if col else 0.0
            want_r = cm.counts[k, k] / row if row else 0.0
            npt.assert_allclose(r.precision, want_p, atol=1e-12)
            npt.assert_allclose(r.recall, want_r, atol=1e-12)
            assert r.support == row

    def test_weighted_recall_identity(self):
        cm = ConfusionMatrix(7)
        cm.update(rng.integers(0, 7, 500), rng.integers(0, 7, 500))
        weighted = sum(r.recall * r.support for r in cm.per_class())
        npt.assert_allclose(cm.accuracy(), 100.0 * weighted / cm.total, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 200), st.integers(0, 10 ** 6))
def test_one_vs_rest_partitions_total(k, n, seed):
    r = np.random.default_rng(seed)
    cm = ConfusionMatrix(k)
    cm.update(r.integers(0, k, n), r.integers(0, k, n))
    for cls in range(k):
        ovr = cm.one_vs_rest(cls)
        assert ovr["TP"] + ovr["TN"] + ovr["FP"] + ovr["FN"] == n
        assert min(ovr.values()) >= 0


class TestNormalize:
    def test_normalized_rows_sum_to_one(self):
        cm = ConfusionMatrix(5)
        cm.update(rng.integers(0, 5, 200), rng.integers(0, 5, 200))
        norm = cm.normalized()
        npt.assert_allclose(norm.sum(axis=1), 1.0, atol=1e-12)

    def test_normalized_empty_row_stays_zero(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 1], [1, 0])  # class 2 never occurs as true
        npt.assert_array_equal(cm.normalized()[2], 0.0)


class TestPrediction:
    def test_argmax_with_tie_break(self):
        logits = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [0.0, 0.0, 5.0]])
        npt.assert_array_equal(predict_labels(logits), [1, 0, 2])


class TestReports:
    def _filled(self):
        cm = ConfusionMatrix(7)
        cm.update(rng.integers(0, 7, 120), rng.integers(0, 7, 120))
        return cm

    def test_json_report_structure(self):
        cm = self._filled()
        payload = json.loads(json.dumps(report_dict(cm)))  # JSON-ready
        assert set(payload) == {"accuracy", "total", "classes", "matrix",
                                "matrix_normalized"}
        assert payload["total"] == 120
        assert len(payload["classes"]) == 7
        assert payload["classes"][3]["name"] == "Happy"
        npt.assert_allclose(payload["accuracy"], cm.accuracy())
        npt.assert_array_equal(payload["matrix"], cm.counts)

    def test_text_report_contains_both_matrices_and_summary(self):
        text = report_text(self._filled())
        assert "confusion matrix" in text
        assert "row-normalized" in text
        assert "precision" in text and "recall" in text
        for name in ("Angry", "Surprise"):
            assert name in text

    def test_text_report_flags_undefined_precision(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 1, 2], [0, 1, 1])
        assert "undef" in report_text(cm)
