"""Set-up, measurement loops and output checks of the three workloads.

Everything here calls dignn's public functions the way ``dignn train`` and
``dignn eval`` do; nothing in the package is changed. Functions are looked
up through their modules at call time, so a ``spans.Tracer`` installed
around a call sees them.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import numpy as np

import dignn.autodiff as ad
import dignn.graphdata as graphdata
import dignn.model as model
import dignn.trainer as trainer
from dignn.errors import DignnError, GraphLoadError
from dignn.metrics import auc_rank
from dignn.rng import generator, seed_streams

import gen
from spans import Tracer, quantile

BATCH = 1024
# dignn's ablation per training workload; the scoring workload trains nothing.
ABLATION = {"yelpchi-full": "full", "yelpchi-nomi": "no_mi"}
SCORE_WORKLOAD = "yelpchi-score"
SCORE_TOL = 1e-9
AUC_SUBSAMPLE = 2000
TRACED_REQUESTS = 200


class Tally:
    """Operations attempted and failed in one run; an operation is a
    training step or a scoring request."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ops: int, ok: bool, problem: str) -> None:
        self.attempted += ops
        if not ok:
            self.fail(ops, problem)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def train_config(workload: str) -> trainer.TrainConfig:
    return trainer.TrainConfig(epochs=1, seed=gen.DIGNN_SEED,
                               ablation=ABLATION[workload])


# -- set-up: what a user's process does before its first useful result ---------

def setup(workload: str, data_dir: str):
    """Training: load, split, normalize, then parameter and Adam init as
    ``trainer.train`` does. Scoring: load, split, normalize, load the model,
    then one cold request."""
    graph, split = gen.prepare(data_dir)
    if workload == SCORE_WORKLOAD:
        params = model.DignnParams.load(os.path.join(data_dir, "model.bin"))
        if (params.n_nodes, params.feat_dim) != (graph.num_nodes, graph.feature_dim):
            raise GraphLoadError("model dims do not match the graph")
        gen.score_request(graph, params, graph.labeled_ids()[:BATCH])
        return graph, split, params
    cfg = train_config(workload)
    params = model.DignnParams.init(graph.num_nodes, graph.feature_dim,
                                    cfg.model, seed_streams(cfg.seed)["init"])
    ad.Adam(params.tensors, lr=cfg.lr, weight_decay=cfg.weight_decay,
            no_decay=params.no_decay_names())
    return graph, split, None


def timed_setup(workload: str, data_dir: str) -> float:
    t0 = time.perf_counter()
    setup(workload, data_dir)
    return time.perf_counter() - t0


# -- training ------------------------------------------------------------------

def _outcome(params, history, graph, split) -> tuple:
    """Everything a training call produced that must repeat exactly:
    per-epoch losses, attention means and validation metrics, and test AUC."""
    rows = tuple((e.ce, e.rec, e.exc, e.total, e.alpha_a, e.alpha_x,
                  e.val.auc, e.val.f1_macro, e.val.gmean)
                 for e in history.epochs)
    return rows, trainer.evaluate(params, graph, split.test).auc


def _train_once(graph, split, cfg):
    t0 = time.perf_counter()
    try:
        params, history = trainer.train(graph, split, cfg)
    except DignnError as exc:
        return None, None, str(exc)
    return time.perf_counter() - t0, (params, history), ""


def measure_training(workload: str, graph, split, seconds: float,
                     tally: Tally, traced: Tracer | None = None) -> dict:
    """One warm-up ``train`` call whose outputs are the reference, then
    timed calls until ``seconds`` have passed. Every call must reproduce the
    reference exactly and report finite losses."""
    cfg = train_config(workload)
    epoch_seed = seed_streams(cfg.seed)["sample"].spawn(1)[0]
    nodes = graphdata.downsample_epoch(split.train, graph.labels, epoch_seed).size
    steps = math.ceil(nodes / cfg.batch_size)

    def checked_call(ref):
        dt, res, err = _train_once(graph, split, cfg)
        if res is None:
            tally.add(steps, False, f"train failed: {err}")
            return None, None
        out = _outcome(*res, graph, split)
        finite = all(math.isfinite(x) for row in out[0] for x in row[:4])
        same = ref is None or out == ref
        tally.add(steps, finite and same,
                  "non-finite loss" if not finite else "output differs from first call")
        return dt, out

    _, ref = checked_call(None)
    times = []
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start < seconds:
        dt, _ = checked_call(ref)
        if dt is None:
            break
        times.append(dt)
    result = {
        "nodes": nodes, "steps": steps, "train_s": times,
        "nodes_per_s": statistics.median(nodes / t for t in times) if times else 0.0,
        "batch_ms": [t * 1000.0 / steps for t in times],
        "test_auc": ref[1] if ref else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced is not None:
        with traced:
            dt, res, err = _train_once(graph, split, cfg)
        ok = res is not None and _outcome(*res, graph, split) == ref
        tally.add(steps, ok, "traced call differs from untraced")
        result["traced_nodes_per_s"] = nodes / dt if dt else 0.0
    return result


# -- scoring -------------------------------------------------------------------

def pairwise_auc(scores, labels) -> float:
    """O(n^2) count of positive/negative pairs ranked correctly, ties 1/2."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.size * neg.size)


def measure_scoring(graph, split, params, data_dir: str, seed: int,
                    seconds: float, tally: Tally,
                    traced: Tracer | None = None) -> dict:
    """Closed loop, one client: each request scores the next 1,024 labeled
    ids of a seed-fixed order, wrapping around. Each request's scores must
    match the generator's one unbatched ``predict`` over all labeled ids."""
    labeled = graph.labeled_ids()
    by_id = np.fromfile(os.path.join(data_dir, gen.REFERENCE_FILE), dtype="<f8")
    rng = generator(np.random.SeedSequence([seed, 1]))
    perm = rng.permutation(labeled.size)
    order, reference = labeled[perm], by_id[perm]
    n = order.size
    sub = rng.choice(n, size=min(AUC_SUBSAMPLE, n), replace=False)
    labels = graph.labels[order[sub]]
    auc_gap = abs(auc_rank(reference[sub], labels) - pairwise_auc(reference[sub], labels))
    tally.add(1, auc_gap <= 1e-12, f"auc_rank differs from pairwise count by {auc_gap}")

    lane = np.arange(BATCH)
    kept = []

    def request(k):
        idx = (k * BATCH + lane) % n
        t0 = time.perf_counter()
        scores = gen.score_request(graph, params, order[idx])
        dt = time.perf_counter() - t0
        gap = float(np.max(np.abs(scores - reference[idx])))
        tally.add(1, gap <= SCORE_TOL, f"batched score differs by {gap}")
        return dt, scores

    lat = []
    t_start = time.perf_counter()
    while not lat or time.perf_counter() - t_start < seconds:
        dt, scores = request(len(lat))
        if len(lat) < TRACED_REQUESTS:
            kept.append(scores)
        lat.append(dt)
    result = {
        "batch_ms": [t * 1000.0 for t in lat],
        "nodes_per_s": BATCH * len(lat) / sum(lat),
        # Sampled before the test-split evaluation, whose (18k x h) arrays
        # would otherwise set the peak instead of the request path.
        "peak_rss_mb": peak_rss_mb(),
        "test_auc": trainer.evaluate(params, graph, split.test).auc,
    }
    if traced is not None:
        out = []
        with traced:
            for k in range(len(kept)):
                root = traced.open("perfbench.request")
                out.append(request(k))
                traced.close(root)
        same = all(np.array_equal(s, r) for (_, s), r in zip(out, kept))
        if not same:
            tally.fail(len(out), "traced scores differ from untraced")
        result["traced_nodes_per_s"] = BATCH * len(out) / sum(t for t, _ in out)
    return result


# -- per-layer figures from a traced run ----------------------------------------

TIME_LAYERS = (
    "graphdata.gather_batch", "graphdata.downsample_epoch",
    "model.encode_views", "model.attention_fuse", "model.classify",
    "model.predict", "model.rec_loss", "model.exc_loss", "model.snapshot",
    "autodiff.mse", "autodiff.ce_with_logits", "autodiff.backward",
    "autodiff.adam_step", "autodiff.zero_grad",
    "trainer.evaluate", "metrics.compute_report",
)
SETUP_LAYERS = ("graphdata.load_graph", "graphdata.stratified_split",
                "graphdata.normalize_features")
COUNTERS = (
    "graphdata.gather_batch.topo_nnz", "model.rec_loss.target_bytes",
    "model.forward.topo_decoder_flops", "autodiff.backward.tape_nodes",
    "autodiff.backward.tape_bytes", "autodiff.adam.state_bytes",
)


def layer_metrics(setup_trace: Tracer, pass_trace: Tracer, untraced_nps: float,
                  traced_nps: float) -> dict[str, float]:
    """Per-layer seconds over the traced pass (one epoch, or the first
    ``TRACED_REQUESTS`` requests), set-up layers over one traced set-up."""
    setup_total, _, _ = setup_trace.durations()
    total, own, calls = pass_trace.durations()
    out = {f"{name}.s": setup_total.get(name, 0.0) for name in SETUP_LAYERS}
    out.update({f"{name}.s": total.get(name, 0.0) for name in TIME_LAYERS})
    out["model.forward.self_s"] = own.get("model.forward", 0.0)
    out["trainer.train.self_s"] = own.get("trainer.train", 0.0)
    steps = pass_trace.step_seconds()
    out["trainer.step.s.p50"] = quantile(steps, 0.5)
    out["trainer.step.s.p90"] = quantile(steps, 0.9)
    out["trainer.step.count"] = float(len(steps))
    for name in ("graphdata.gather_batch", "model.snapshot"):
        out[f"{name}.calls"] = float(calls.get(name, 0))
    for key in COUNTERS:
        out[key] = float(pass_trace.counters.get(key, 0))
    # Self times of the spans inside trainer.train partition its wall time;
    # the residual is the part no per-layer time above accounts for.
    wall = total.get("trainer.train", 0.0)
    named = sum(own.get(name, 0.0) for name in (*TIME_LAYERS, "model.forward"))
    out["trace.train_wall_s"] = wall
    out["trace.residual_s"] = wall - named if wall else 0.0
    out["trace.counters.s"] = total.get("trace.counters", 0.0)
    out["trace.overhead_nodes_per_s"] = traced_nps - untraced_nps
    return out
