"""Benchmark input generator.

Writes one YelpChi-scale synthetic graph directory for a workload seed and,
with ``--model``, a ``model.bin`` trained briefly on it, for the scoring
workload, plus the scores of one unbatched ``predict`` over all labeled
nodes, which the scoring workload checks its batched requests against. It
is computed here, in its own process, so that its memory does not count
into the measured process's peak. The same seed always writes the same files.

The workload seed draws the graph. dignn's own ``--seed`` (split, parameter
init, down-sampling) stays at its default, as for a user who trains on new
data with default settings: after one epoch the test AUC then varies by
about 1% across graphs, where drawing the init from the workload seed as
well moves it between 0.48 and 0.67.

    PYTHONPATH=src python3 perfbench/gen.py --seed 3 --out DIR [--model]
"""

from __future__ import annotations

import argparse
import os
import sys

# Modules, not names: a tracer replaces functions on these modules, and the
# calls below must find the replacements.
import dignn.graphdata as graphdata
import dignn.model as model
import dignn.trainer as trainer
from dignn.rng import seed_streams

# Graph shape of the YelpChi review network: 45,954 nodes, 14.5% fraud.
NUM_NODES = 45954
FEATURE_DIM = 32
FRAUD_RATE = 0.145
AVG_DEGREE = 10
SPLIT_RATIOS = (0.4, 0.2, 0.4)
# The scoring model comes from a short no_mi run: its forward path is the one
# a fully trained model takes, and it trains in seconds.
MODEL_EPOCHS = 2
DIGNN_SEED = 0
REFERENCE_FILE = "reference_scores.f64le"


def prepare(data_dir: str):
    """Load, split and normalize a graph directory as ``dignn train`` and
    ``dignn eval`` do with their default seed."""
    graph = graphdata.load_graph(data_dir)
    split = graphdata.stratified_split(graph, SPLIT_RATIOS,
                                       seed_streams(DIGNN_SEED)["split"])
    return graphdata.normalize_features(graph, split), split


def score_request(graph, params, ids):
    """One scoring request as ``dignn eval`` scores: gather, then predict."""
    return model.predict(params, graphdata.gather_batch(graph, ids), params.cfg)[1]


def generate(seed: int, out_dir: str, with_model: bool = False) -> None:
    graph = graphdata.synth_generate(graphdata.SynthConfig(
        num_nodes=NUM_NODES, feature_dim=FEATURE_DIM, fraud_rate=FRAUD_RATE,
        avg_degree=AVG_DEGREE, seed=seed,
    ))
    graphdata.save_graph(graph, out_dir)
    if with_model:
        graph, split = prepare(out_dir)
        params, _ = trainer.train(graph, split, trainer.TrainConfig(
            epochs=MODEL_EPOCHS, seed=DIGNN_SEED, ablation="no_mi"))
        params.save(os.path.join(out_dir, "model.bin"))
        params = model.DignnParams.load(os.path.join(out_dir, "model.bin"))
        scores = score_request(graph, params, graph.labeled_ids())
        scores.astype("<f8").tofile(os.path.join(out_dir, REFERENCE_FILE))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--model", action="store_true",
                    help="also write model.bin from a short training run")
    args = ap.parse_args(argv)
    generate(args.seed, args.out, args.model)
    return 0


if __name__ == "__main__":
    sys.exit(main())
