"""Yardsticks the tests measure the package against, which no ``dignn``
command runs: the neighbor-mean smoothing MLP that acceptance criterion 4
compares DIGNN with on a camouflaged graph, and the Bayes-optimal AUC that
bounds what any model can reach on the synthetic graphs' features."""

import math

import numpy as np
import scipy.sparse as sp

import dignn.autodiff as ad
import dignn.model as M
from dignn.graphdata import FraudGraph, SplitIndex
from dignn.metrics import MetricsReport, compute_report
from dignn.rng import generator, seed_streams
from dignn.trainer import TrainConfig


def gaussian_bayes_auc(mean_separation: float) -> float:
    """Best achievable AUC for two unit-variance Gaussian classes."""
    return 0.5 * (1.0 + math.erf(mean_separation / 2.0))


def smoothed_features(graph: FraudGraph) -> np.ndarray:
    """Neighbor-mean smoothing: row-normalized A X, zeros for isolated nodes.
    X is every node's row as ``gather_batch`` gives it, so a normalized
    graph's rows are z-scored."""
    deg = np.asarray(graph.union_adj.sum(axis=1)).ravel()
    inv = sp.diags(np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0))
    return np.asarray((inv @ graph.union_adj) @ graph.feature_rows(np.arange(graph.num_nodes)))


def train_smoothing_baseline(graph: FraudGraph, split: SplitIndex,
                             cfg: TrainConfig) -> MetricsReport:
    """2-layer MLP on neighbor-mean-smoothed features, trained full-batch
    with plain cross-entropy (the conventional message-passing recipe);
    same optimizer settings and epochs as the main model. Returns test
    metrics."""
    cfg.validate()
    xs = smoothed_features(graph)
    h = cfg.model.hidden_dim
    d_in = graph.feature_dim
    streams = seed_streams(cfg.seed)
    rng = generator(streams["init"])

    w1, b1 = ad.Var(M.glorot(rng, np.empty((d_in, h)))), ad.Var(np.zeros((1, h)))
    w2, b2 = ad.Var(M.glorot(rng, np.empty((h, 2)))), ad.Var(np.zeros((1, 2)))
    tensors = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    opt = ad.Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay,
                  no_decay={"b1", "b2"})

    def logits_for(ids):
        return M.mlp2(xs[ids], w1, b1, w2, b2)

    train_ids = np.asarray(split.train)
    for _ in range(cfg.epochs):
        loss = ad.ce_with_logits(logits_for(train_ids), graph.labels[train_ids])
        opt.step(loss)

    test_ids = np.asarray(split.test)
    preds, scores = M.softmax_predict(logits_for(test_ids).value)
    return compute_report(scores, preds, graph.labels[test_ids])
