"""Training loop: per-epoch down-sampling, mini-batches, loss/backward/step,
validation-based model selection, ablations and gradient checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import model as M
from .errors import DivergenceError, UndefinedMetricError
from .graphdata import (
    FraudGraph, SplitIndex, build_union_adj, downsample_epoch, gather_batch,
    make_batches, require_finite_floats,
)
from .metrics import MetricsReport, compute_report
from .model import DignnConfig, DignnParams
from .rng import generator, seed_streams
from .threads import one_blas_thread

ABLATIONS = ("full", "no_mi")
MODES = ("minibatch", "fullbatch")
# Rows per scoring forward, the default training batch: a forward's tape and
# its (rows x hidden) arrays stay this size however many nodes are scored.
SCORE_BLOCK = 1024
GRADCHECK_H = 1e-5  # gradcheck's central-difference step
GRADCHECK_SEED = 7  # seeds gradcheck's toy features, init and noise
# The loss weightings ``dignn gradcheck`` checks: as configured, the
# cross-entropy alone, and every auxiliary term at full weight.
GRADCHECK_VARIANTS = {
    "default": DignnConfig(),
    "ce_only": DignnConfig(alpha=0.0, beta=0.0),
    "all_on": DignnConfig(alpha=1.0, beta=1.0),
}


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 1024
    lr: float = 0.001
    weight_decay: float = 0.0005
    seed: int = 0
    model: DignnConfig = field(default_factory=DignnConfig)
    mode: str = "minibatch"
    ablation: str = "full"

    def validate(self):
        require_finite_floats(self)
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs, batch_size must be >= 1 and lr > 0")
        if self.seed < 0 or self.weight_decay < 0:
            raise ValueError("seed and weight_decay must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}")
        self.model.validate()


@dataclass
class EpochRecord:
    ce: float
    rec: float
    exc: float
    total: float
    alpha_a: float
    alpha_x: float
    val: MetricsReport


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)

    HEADER = ("epoch", "ce", "rec", "exc", "total", "alpha_a", "alpha_x",
              "val_f1_macro", "val_auc", "val_gmean")

    def rows(self):
        for i, r in enumerate(self.epochs):
            yield (i + 1, r.ce, r.rec, r.exc, r.total, r.alpha_a, r.alpha_x,
                   r.val.f1_macro, r.val.auc, r.val.gmean)

    def write_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write(",".join(self.HEADER) + "\n")
            for row in self.rows():
                fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                                  for x in row) + "\n")


def score_batches(graph: FraudGraph, ids):
    """The batch of each ``SCORE_BLOCK`` of ``ids`` in turn, each gathered
    as the one before it is done with."""
    for block in make_batches(ids, SCORE_BLOCK):
        yield gather_batch(graph, block)


def evaluate(params: DignnParams, graph: FraudGraph, ids) -> MetricsReport:
    """Deterministic scores of the given labeled nodes, one forward (on one
    OpenBLAS thread) per ``SCORE_BLOCK`` of them, reported together."""
    ids = np.asarray(ids)
    if ids.size == 0:
        raise UndefinedMetricError("no nodes to score")
    preds, scores = [], []
    for batch in score_batches(graph, ids):
        p, s = M.predict(params, batch, params.cfg)
        preds.append(p)
        scores.append(s)
    return compute_report(np.concatenate(scores), np.concatenate(preds),
                          graph.labels[ids])


def _batch_losses(params: DignnParams, batch, cfg: TrainConfig, rng):
    """The batch's training loss, and the figures ``history.csv`` averages:
    ce, rec, exc, total, mean alpha_A and mean alpha_X (rec and exc are 0.0
    under ``no_mi``)."""
    mcfg = cfg.model
    b = batch.node_ids.size
    eps_a = rng.standard_normal((b, mcfg.embed_dim))
    eps_x = rng.standard_normal((b, mcfg.embed_dim))
    out = M.forward(params, batch, mcfg, eps_a, eps_x)
    loss = ce = ad.ce_with_logits(out.logits, batch.labels)
    rec_exc = [0.0, 0.0]
    if cfg.ablation == "full":
        rec = M.rec_loss(batch, params, out)
        exc = M.exc_loss(out.z_A, out.z_X, out.z_A_s, out.z_X_s, mcfg)
        loss = M.total_loss(ce, rec, exc, mcfg)
        rec_exc = [float(rec.value[0, 0]), float(exc.value[0, 0])]
    figures = [float(ce.value[0, 0]), *rec_exc, float(loss.value[0, 0]),
               float(out.alpha_A.value.mean()), float(out.alpha_X.value.mean())]
    return loss, figures


def build_optimizer(params: DignnParams, cfg: TrainConfig) -> ad.Adam:
    """Adam over the tensors that the ablation's loss reads: under ``no_mi``
    no loss term reaches the decoders, so they stay out and keep their init."""
    tensors = {n: v for n, v in params.tensors.items()
               if cfg.ablation == "full" or not n.startswith("dec_")}
    return ad.Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay,
                   no_decay=params.no_decay_names())


@one_blas_thread()
def train(graph: FraudGraph, split: SplitIndex, cfg: TrainConfig):
    """Run the full training schedule; return the best-validation parameters
    and the per-epoch history.

    OpenBLAS runs on one thread here (``threads.one_blas_thread``), so the
    second core is free for the second halves that ``DignnParams.init``,
    Adam's update and, under ``full``, ``ad.sparse_target_mse``'s N-wide
    products run there (``threads.run_in_two``): the step's other products
    are small, and a product that OpenBLAS splits over two threads leaves one
    spinning on that core for about 128 ms."""
    cfg.validate()
    streams = seed_streams(cfg.seed)
    params = DignnParams.init(graph.num_nodes, graph.feature_dim, cfg.model,
                              streams["init"])
    opt = build_optimizer(params, cfg)

    history = TrainHistory()
    best_auc, best_snap = -1.0, None
    for e in range(cfg.epochs):
        # Spawned as the epoch starts: SeedSequence numbers children across
        # calls, so these are spawn(epochs)'s seeds, not all paid up front.
        epoch_seed = streams["sample"].spawn(1)[0]
        rng = generator(epoch_seed)
        if cfg.mode == "fullbatch":
            epoch_ids = np.asarray(split.train)
            batches = [epoch_ids]
        else:
            epoch_ids = downsample_epoch(split.train, graph.labels, epoch_seed)
            batches = make_batches(epoch_ids, cfg.batch_size)

        sums = np.zeros(6)  # ce, rec, exc, total, alpha_a, alpha_x
        for ids in batches:
            loss, figures = _batch_losses(params, gather_batch(graph, ids), cfg, rng)
            if not math.isfinite(figures[3]):
                raise DivergenceError(f"non-finite loss at epoch {e + 1}", history)
            # Adam updates each tensor as soon as its grad is final, inside
            # the backward walk, and drops that grad. Dropping the loss then
            # frees the step's tape (every intermediate value and grad)
            # before the next forward builds its own, so at most one tape is
            # alive.
            opt.step(loss)
            del loss
            sums += ids.size * np.array(figures)
        means = [float(x) for x in sums / epoch_ids.size]
        val = evaluate(params, graph, split.val)
        history.epochs.append(EpochRecord(*means, val=val))
        if val.auc > best_auc:  # auc_rank lies in [0, 1], so epoch 1 passes
            best_auc = val.auc
            best_snap = None  # freed before the copy, so one snapshot is alive
            # The last epoch's parameters are already where they end up.
            if e + 1 < cfg.epochs:
                best_snap = params.snapshot(opt.params)
    if best_snap is not None:
        params.restore(best_snap)
    return params, history


def _toy_graph() -> FraudGraph:
    """Fixed 6-node graph for gradient checking."""
    rng = generator(GRADCHECK_SEED)
    labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.int8)
    features = rng.standard_normal((6, 4))
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [1, 4]],
                     dtype=np.uint32)
    return FraudGraph(features=features, labels=labels, relations={"SYN": edges},
                      union_adj=build_union_adj([edges], 6, len(edges)))


def gradcheck(model_cfg: DignnConfig | None = None) -> dict:
    """Compare analytic gradients of the full training loss (``_batch_losses``
    under ``ablation = full``) against central finite differences on a 6-node
    toy; returns per-tensor relative errors."""
    mcfg = replace(model_cfg or DignnConfig(), embed_dim=3, hidden_dim=5)
    batch = gather_batch(_toy_graph(), np.arange(6))
    rng = generator(GRADCHECK_SEED)
    params = DignnParams.init(6, 4, mcfg, rng.integers(2 ** 32))
    cfg = TrainConfig(model=mcfg)
    noise_state = rng.bit_generator.state

    def loss_var():
        rng.bit_generator.state = noise_state  # the same eps on every call
        return _batch_losses(params, batch, cfg, rng)[0]

    ad.backward(loss_var())
    analytic = {n: np.zeros_like(v.value) if v.grad is None else v.grad
                for n, v in params.tensors.items()}

    per_tensor = {}
    for name, var in params.tensors.items():
        fd = np.zeros_like(var.value)
        flat = var.value.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_H
            up = float(loss_var().value[0, 0])
            flat[i] = orig - GRADCHECK_H
            down = float(loss_var().value[0, 0])
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * GRADCHECK_H)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic[name])), 1e-5)
        per_tensor[name] = float(np.max(np.abs(fd - analytic[name]) / denom))
    max_err = max(per_tensor.values())
    return {"max_rel_err": max_err, "per_tensor": per_tensor,
            "passed": max_err <= 1e-4}
