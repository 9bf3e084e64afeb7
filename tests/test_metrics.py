import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import dignn
from dignn.errors import DimensionError, InvalidLabelError, UndefinedMetricError
from dignn.metrics import MetricsReport, auc_rank, compute_report, f1_macro, gmean


def pairwise_auc(scores, labels):
    """O(n^2) oracle: P(random positive outranks random negative), ties = 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.size * neg.size)


def assert_equals_rankdata_formula(scores, labels):
    """auc_rank equals, bit for bit, the rank-sum formula on scipy's average
    ranks; a NaN score makes both NaN."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    ranks = rankdata(scores, method="average")
    old = float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    got = auc_rank(scores, labels)
    assert got == old or (math.isnan(got) and math.isnan(old))


def draw_labels(n, seed):
    """Random 0/1 labels, with both classes present when ``n >= 2``."""
    labels = np.random.default_rng(seed).integers(0, 2, n)
    labels[:2] = [0, 1][:n]
    return labels


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_rank([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted_ranking(self):
        assert auc_rank([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied(self):
        assert auc_rank([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_half_tie(self):
        # one positive tied with one of two negatives
        assert auc_rank([0.5, 0.5, 0.2], [1, 0, 0]) == 0.75

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        scores = rng.choice(np.linspace(0, 1, 7), size=n)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc_rank(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc_rank([0.1, 0.9], [1, 1])

    def test_single_positive(self):
        # the positive outranks two of the three negatives
        assert auc_rank([0.1, 0.6, 0.3, 0.9], [0, 1, 0, 0]) == 2 / 3

    def test_nan_score_gives_nan(self):
        assert math.isnan(auc_rank([0.1, np.nan, 0.8, 0.9], [0, 0, 1, 1]))

    @pytest.mark.parametrize("labels", [[-1, 0, 1], [0, 2, 1]])
    def test_label_outside_zero_one_rejected(self, labels):
        with pytest.raises(InvalidLabelError):
            auc_rank([0.1, 0.2, 0.9], labels)

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.2, 0.9], [0, 1]),
        ([0.1, 0.2], [0, 1, 1]),
        ([[0.1, 0.2], [0.3, 0.4]], [[0, 1], [1, 0]]),
    ])
    def test_shape_mismatch_rejected(self, scores, labels):
        with pytest.raises(DimensionError):
            auc_rank(scores, labels)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_rankdata_formula(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 5000))
        scores = rng.random(n) if seed % 2 else rng.choice(np.linspace(0, 1, 11), n)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        assert_equals_rankdata_formula(scores, labels)


class TestAverageRanks:
    """auc_rank against the rank-sum formula on scipy's average ranks
    (``assert_equals_rankdata_formula``), on inputs chosen for their ties,
    with labels drawn per input."""

    @pytest.mark.parametrize("x", [
        [0.5, 0.5, 0.5, 0.5],
        [3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 2.0, 3.0],
        [-0.0, 0.0, 1.0, -0.0, -1.0, 0.0],
        np.array([5, -2, 5, 7, -2, 0], dtype=np.int64),
        np.array([True, False, True, True, False]),
        [0.7],
        np.array([], dtype=np.float64),
        [np.inf, -np.inf, 0.0, np.inf, 1.0, -np.inf, -0.0, np.inf],
    ], ids=["all_tied", "many_ties", "signed_zero", "int", "bool", "single", "empty",
            "inf"])
    def test_cases(self, x):
        labels = draw_labels(len(x), seed=len(x))
        if len(x) < 2:  # no (positive, negative) pair to count
            with pytest.raises(UndefinedMetricError):
                auc_rank(x, labels)
        else:
            assert_equals_rankdata_formula(x, labels)

    def test_nan_makes_every_rank_nan(self):
        x = np.array([0.2, np.nan, 0.1, 0.2])
        labels = draw_labels(x.size, seed=4)
        assert_equals_rankdata_formula(x, labels)
        assert math.isnan(auc_rank(x, labels))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tie_heavy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]), n)
        labels = draw_labels(n, seed=1000 + seed)
        assert_equals_rankdata_formula(x, labels)
        assert_equals_rankdata_formula(rng.random(n), labels)

    def test_large_tie_heavy(self):
        rng = np.random.default_rng(20)
        n = 200_000
        labels = draw_labels(n, seed=21)
        assert_equals_rankdata_formula(rng.choice(np.linspace(-1, 1, 41), n), labels)
        assert_equals_rankdata_formula(rng.random(n), labels)


class TestGmean:
    def test_perfect(self):
        assert gmean(tp=5, fn=0, tn=5, fp=0) == 1.0

    def test_one_side_zero(self):
        assert gmean(tp=0, fn=5, tn=5, fp=0) == 0.0

    def test_hand_value(self):
        # tpr = 0.8, tnr = 0.5
        assert gmean(tp=4, fn=1, tn=2, fp=2) == pytest.approx(math.sqrt(0.4))

    def test_missing_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            gmean(tp=0, fn=0, tn=3, fp=1)


class TestF1Macro:
    def test_perfect(self):
        assert f1_macro([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_all_one_class_predicted(self):
        # preds all 0 on a balanced set: f1(0) = 2/3, f1(1) = 0
        assert f1_macro([0, 0, 0, 0], [0, 1, 0, 1]) == pytest.approx(1 / 3)

    def test_hand_value(self):
        preds = [1, 1, 0, 0, 1]
        labels = [1, 0, 0, 1, 1]
        # class 1: tp=2 fp=1 fn=1 -> f1 = 4/6; class 0: tp=1 fp=1 fn=1 -> f1 = 2/4
        assert f1_macro(preds, labels) == pytest.approx((4 / 6 + 2 / 4) / 2)

    def test_empty_class_counts_as_zero(self):
        assert f1_macro([1, 1], [1, 1]) == 0.5

    @pytest.mark.parametrize("preds, labels", [
        ([0, 1, 0, 1], [-1, 1, 0, 1]),  # -1 marks an unlabeled node
        ([0, 1, 2, 1], [0, 1, 0, 1]),
        ([0, -1], [0, 1]),
    ])
    def test_value_outside_zero_one_rejected(self, preds, labels):
        with pytest.raises(InvalidLabelError):
            f1_macro(preds, labels)

    @pytest.mark.parametrize("preds, labels", [
        ([0, 1, 0], [0, 1, 0, 1]),
        ([0, 1], [0, 1, 1]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
    ])
    def test_shape_mismatch_rejected(self, preds, labels):
        with pytest.raises(DimensionError):
            f1_macro(preds, labels)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_class_mask_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        f1s = []
        for cls in (0, 1):
            tp = int(((preds == cls) & (labels == cls)).sum())
            fp = int(((preds == cls) & (labels != cls)).sum())
            fn = int(((preds != cls) & (labels == cls)).sum())
            denom = 2 * tp + fp + fn
            f1s.append(2 * tp / denom if denom else 0.0)
        assert f1_macro(preds, labels) == float(np.mean(f1s))


class TestComputeReport:
    def test_confusion_counts(self):
        rep = compute_report(
            scores=[0.9, 0.8, 0.3, 0.2, 0.6],
            preds=[1, 1, 0, 0, 1],
            labels=[1, 0, 0, 1, 1],
        )
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 1, 1)
        assert rep.precision[1] == pytest.approx(2 / 3)
        assert rep.recall[1] == pytest.approx(2 / 3)
        assert rep.precision[0] == pytest.approx(1 / 2)
        assert rep.recall[0] == pytest.approx(1 / 2)

    def test_to_dict_is_json_serializable(self):
        rep = compute_report([0.9, 0.1], [1, 0], [1, 0])
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["f1_macro"] == 1.0
        assert set(back["precision"]) == {"0", "1"}

    def test_metrics_agree_with_standalone_functions(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        scores = rng.random(40)
        preds = (scores > 0.5).astype(int)
        rep = compute_report(scores, preds, labels)
        assert rep.auc == auc_rank(scores, labels)
        assert rep.f1_macro == f1_macro(preds, labels)
        assert rep.gmean == gmean(rep.tp, rep.fn, rep.tn, rep.fp)

    def test_prediction_outside_zero_one_rejected(self):
        with pytest.raises(InvalidLabelError):
            compute_report([0.9, 0.1], [1, 2], [1, 0])


def test_import_loads_no_scipy_subpackage_but_sparse():
    """``import dignn, dignn.cli`` in a fresh interpreter brings in
    scipy.sparse and no other public scipy subpackage (scipy.stats alone
    pulls in about 420 more modules and 50 MB)."""
    code = (
        "import sys, dignn, dignn.cli\n"
        "print(' '.join(sorted(\n"
        "    name for name, mod in sys.modules.items()\n"
        "    if name.startswith('scipy.') and name.count('.') == 1\n"
        "    and not name.split('.')[1].startswith('_') and hasattr(mod, '__path__'))))\n"
    )
    src = str(Path(dignn.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True).stdout
    assert set(out.split()) <= {"scipy.sparse"}
