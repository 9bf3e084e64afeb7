"""Class-imbalance-robust evaluation: F1-macro, rank AUC, GMean."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DimensionError, InvalidLabelError, UndefinedMetricError


@dataclass
class MetricsReport:
    f1_macro: float
    auc: float
    gmean: float
    tp: int
    fp: int
    tn: int
    fn: int
    precision: dict[int, float]
    recall: dict[int, float]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["precision"] = {str(k): v for k, v in d["precision"].items()}
        d["recall"] = {str(k): v for k, v in d["recall"].items()}
        return d


def auc_rank(scores, labels) -> float:
    """Rank-statistic AUC as the Mann-Whitney count: the (positive, negative)
    pairs the positive outranks, ties counted one half, over all pairs.

    Equals the probability that a uniformly random positive outranks a
    uniformly random negative, and the rank-sum formula on average ranks
    (Hanley & McNeil, Radiology 1982). Scores and labels are 1-D and of
    one length, and every label is 0 or 1. A NaN score gives NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DimensionError(f"auc_rank: scores {scores.shape} vs labels {labels.shape}")
    if ((labels != 0) & (labels != 1)).any():
        raise InvalidLabelError("auc_rank: labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    if np.isnan(scores).any():
        return math.nan
    neg = np.sort(scores[labels == 0])
    pos = scores[labels == 1]
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (n_pos * n_neg))


def gmean(tp: int, fn: int, tn: int, fp: int) -> float:
    """Geometric mean of the true-positive and true-negative rates."""
    if tp + fn < 1 or tn + fp < 1:
        raise UndefinedMetricError("GMean needs members of both classes")
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    return math.sqrt(tpr * tnr)


def _confusion(preds, labels) -> dict[int, tuple[int, int, int]]:
    """Each class's (true, falsely predicted, missed) counts, from one count
    of the four (label, prediction) pairs. Both inputs are 1-D and of one
    length, and every value is 0 or 1."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.ndim != 1 or preds.shape != labels.shape:
        raise DimensionError(f"preds {preds.shape} vs labels {labels.shape}")
    if ((preds != 0) & (preds != 1)).any() or ((labels != 0) & (labels != 1)).any():
        raise InvalidLabelError("labels and predictions must be 0 or 1")
    tn, fp, fn, tp = (int(c) for c in np.bincount(2 * labels + preds, minlength=4))
    return {1: (tp, fp, fn), 0: (tn, fn, fp)}


def _f1_macro(counts: dict) -> float:
    f1s = [2 * t / (2 * t + f_pred + f_true) if t + f_pred + f_true else 0.0
           for t, f_pred, f_true in counts.values()]
    return float(np.mean(f1s))


def f1_macro(preds, labels) -> float:
    """Unweighted mean of per-class F1; empty precision/recall count as 0.

    Predictions and labels are 1-D and of one length, and every value is
    0 or 1.
    """
    return _f1_macro(_confusion(preds, labels))


def compute_report(scores, preds, labels) -> MetricsReport:
    counts = _confusion(preds, labels)
    (tp, fp, fn), (tn, _, _) = counts[1], counts[0]
    return MetricsReport(
        f1_macro=_f1_macro(counts),
        auc=auc_rank(scores, labels),
        gmean=gmean(tp, fn, tn, fp),
        tp=tp, fp=fp, tn=tn, fn=fn,
        precision={c: t / (t + f_pred) if t + f_pred else 0.0
                   for c, (t, f_pred, _) in counts.items()},
        recall={c: t / (t + f_true) if t + f_true else 0.0
                for c, (t, _, f_true) in counts.items()},
    )
