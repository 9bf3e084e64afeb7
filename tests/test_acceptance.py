"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (run with
``pytest -s`` to see them on success). The expensive synthetic experiment
(criteria 3-5) is run once per session and shared.
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dignn.model as M
from dignn.cli import EXIT_OK, main
from dignn.graphdata import (
    SynthConfig, gather_batch, neighbor_label_distribution, normalize_features,
    load_graph, stratified_split, synth_generate,
)
from dignn.metrics import auc_rank
from dignn.model import DignnConfig
from dignn.rng import seed_streams
from dignn.trainer import GRADCHECK_VARIANTS, TrainConfig, evaluate, gradcheck, train

from baselines import gaussian_bayes_auc, train_smoothing_baseline

SEEDS = (3, 4, 5, 6, 7)
DELTA = 2.33  # attribute Bayes-oracle AUC ~ 0.95


def report(num, name, passed):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'}")
    return passed


def experiment_graph():
    cfg = SynthConfig(num_nodes=4000, feature_dim=16, fraud_rate=0.15,
                      mean_separation=DELTA, homophily=0.19, avg_degree=2,
                      seed=0)
    return synth_generate(cfg)


def run_cfg(seed, mode="minibatch", ablation="full"):
    return TrainConfig(
        epochs=50, batch_size=128, seed=seed, mode=mode, ablation=ablation,
        model=DignnConfig(alpha=0.05, beta=0.2),
    )


@pytest.fixture(scope="session")
def experiment():
    """Five-seed synthetic study: full model, ablations, smoothing baseline."""
    graph = experiment_graph()
    auc = {"full": [], "no_mi": [], "fullbatch": [], "baseline": []}
    histories = []
    trained = []
    for seed in SEEDS:
        split = stratified_split(graph, (0.4, 0.2, 0.4), seed=42 + seed)
        g = normalize_features(graph, split)
        for variant, kw in (("full", {}),
                            ("no_mi", {"ablation": "no_mi"}),
                            ("fullbatch", {"mode": "fullbatch"})):
            params, hist = train(g, split, run_cfg(seed, **kw))
            auc[variant].append(evaluate(params, g, split.test).auc)
            if variant == "full":
                histories.append(hist)
                trained.append((params, g, split))
        auc["baseline"].append(
            train_smoothing_baseline(g, split, run_cfg(seed)).auc)
    means = {k: float(np.mean(v)) for k, v in auc.items()}
    return {"graph": graph, "auc": auc, "means": means,
            "histories": histories, "trained": trained}


def test_criterion_1_gradient_fidelity():
    worst = max(gradcheck(cfg)["max_rel_err"] for cfg in GRADCHECK_VARIANTS.values())
    assert report(1, "gradient-fidelity", worst <= 1e-4), worst


def test_criterion_2_auc_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 51))
        scores = rng.choice(np.linspace(0, 1, 6), size=n)  # coarse grid: ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                     for p, q in itertools.product(pos, neg))
        oracle /= pos.size * neg.size
        worst = max(worst, abs(auc_rank(scores, labels) - oracle))
    assert report(2, "auc-oracle-equivalence", worst <= 1e-12), worst


def test_criterion_3_attention_invariants(experiment):
    ok = True
    for hist in experiment["histories"]:
        for r in hist.epochs:
            ok = ok and abs(r.alpha_a + r.alpha_x - 1.0) <= 1e-9
    # envelope check on a sampled batch with the trained parameters
    for params, g, split in experiment["trained"]:
        ids = np.asarray(split.test)[:256]
        batch = gather_batch(g, ids)
        rng = np.random.default_rng(0)
        b, d = ids.size, params.cfg.embed_dim
        out = M.forward(params, batch, params.cfg,
                        rng.standard_normal((b, d)), rng.standard_normal((b, d)))
        lo = np.minimum(out.z_A_s.value, out.z_X_s.value)
        hi = np.maximum(out.z_A_s.value, out.z_X_s.value)
        ok = ok and bool(np.all(out.z.value >= lo - 1e-10)
                         and np.all(out.z.value <= hi + 1e-10))
    assert report(3, "attention-invariants", ok)


def test_criterion_4_inconsistency_experiment(experiment):
    assert gaussian_bayes_auc(DELTA) == pytest.approx(0.95, abs=0.005)
    dist = neighbor_label_distribution(experiment["graph"])
    benign_frac = dist[1][0]
    means = experiment["means"]
    a = abs(benign_frac - 0.81) <= 0.03
    b = means["full"] >= 0.90
    c = means["full"] - means["baseline"] >= 0.15
    passed = a and b and c
    report(4, "inconsistency-experiment", passed)
    assert a, f"fraud-neighbor benign fraction {benign_frac}"
    assert b, f"mean test AUC {means['full']}"
    assert c, f"AUC gap over smoothing baseline {means['full'] - means['baseline']}"


def test_criterion_5_ablation_ordering(experiment):
    means = experiment["means"]
    mi_ok = means["full"] >= means["no_mi"] - 0.01
    batch_ok = means["fullbatch"] < means["full"]
    report(5, "ablation-ordering", mi_ok and batch_ok)
    assert mi_ok, f"full {means['full']} vs no_mi {means['no_mi']}"
    assert batch_ok, f"fullbatch {means['fullbatch']} vs full {means['full']}"


REAL_DATA = {
    "DIGNN_YELPCHI_DIR": ("yelpchi", {"f1_macro": (0.7092, 0.03),
                                      "auc": (0.8526, 0.03),
                                      "gmean": (0.7596, 0.04)},
                          DignnConfig(alpha=0.05, beta=0.8)),
    "DIGNN_AMAZON_DIR": ("amazon", {"f1_macro": (0.9189, 0.03),
                                    "auc": (0.9729, 0.02),
                                    "gmean": (0.9281, 0.03)},
                         DignnConfig(alpha=0.05, beta=0.8)),
}


@pytest.mark.parametrize("env_var", sorted(REAL_DATA))
def test_criterion_6_real_data_reproduction(env_var):
    """Non-gating stretch target on externally converted public datasets."""
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"set {env_var} to a converted graph directory to enable")
    name, targets, mcfg = REAL_DATA[env_var]
    graph = load_graph(path)
    split = stratified_split(graph, (0.4, 0.2, 0.4),
                             seed_streams(0)["split"])
    graph = normalize_features(graph, split)
    cfg = TrainConfig(epochs=50, batch_size=1024, seed=0, model=mcfg)
    params, _ = train(graph, split, cfg)
    rep = evaluate(params, graph, split.test)
    hit = all(abs(getattr(rep, k) - mu) <= tol
              for k, (mu, tol) in targets.items())
    # reported but not gating per the experiment protocol
    report(6, f"real-data-{name}", hit)
    print(f"  {name}: f1_macro={rep.f1_macro:.4f} auc={rep.auc:.4f} "
          f"gmean={rep.gmean:.4f}")


def test_criterion_7_determinism(tmp_path, capsys):
    data = str(tmp_path / "g")
    assert main(["synth", "--n", "400", "--dim", "8", "--fraud-rate", "0.3",
                 "--delta", "2.0", "--seed", "1", "--out", data]) == EXIT_OK
    first = str(tmp_path / "run0")
    assert main(["train", "--data", data, "--out", first,
                 "--epochs", "5", "--batch-size", "32", "--seed", "0"]) == EXIT_OK
    manifest = os.path.join(first, "manifest.json")
    blobs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        assert main(["train", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
        blobs.append(((out / "model.bin").read_bytes(),
                      (out / "metrics.json").read_bytes()))
    capsys.readouterr()
    same = blobs[0] == blobs[1]
    assert report(7, "determinism", same)


# Put on a child's PYTHONPATH: no thread can start, so dignn runs both halves
# of each split on the calling thread, and each refusal is noted in the file
# that REFUSED_LOG names.
REFUSE_THREADS = """
import os, threading

def refuse(thread):
    with open(os.environ["REFUSED_LOG"], "a") as fh:
        fh.write("refused\\n")
    raise RuntimeError("can't start new thread")

threading.Thread.start = refuse
"""


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A run trained under one OpenBLAS thread, under two, under two pinned
    to one CPU, and under two with no thread allowed to start writes the same
    ``model.bin``; so does a ``fullbatch`` run under one thread and under two.

    ``train`` holds OpenBLAS at one thread whatever ``OPENBLAS_NUM_THREADS``
    says, so no child splits a product. On a 2-core host the ``=2`` child
    used 0.38 s of CPU in 0.24 s of wall time, and 0.37 s with no thread
    allowed to start, against 0.24 s in 0.24 s at ``=1``: the excess is
    OpenBLAS's own threads, which spin for about 128 ms after numpy loads
    them, before ``train`` runs. dignn's second thread, started per split to
    draw half of the parameters and to apply half of each large Adam update,
    adds too little at this size to show. The pinned child starts its
    threads on its one CPU, and the refused one runs both halves on the
    calling thread. Before ``train`` held OpenBLAS at one thread, the
    ``fullbatch`` run, whose products over all 1,200 training rows OpenBLAS
    split, wrote other bytes under ``=2`` than under ``=1``. The pinned case
    is left out where ``os.sched_setaffinity`` is missing."""
    data = str(tmp_path / "g")
    assert main(["synth", "--n", "3000", "--dim", "16", "--seed", "3",
                 "--out", data]) == EXIT_OK
    (tmp_path / "refuse").mkdir()
    (tmp_path / "refuse" / "sitecustomize.py").write_text(REFUSE_THREADS)
    src = os.path.dirname(os.path.dirname(M.__file__))
    refused = os.pathsep.join([str(tmp_path / "refuse"), src])
    refused_log = tmp_path / "refused.log"

    def pin():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    cases = [("minibatch", "1", None, src), ("minibatch", "2", None, src),
             ("minibatch", "2", None, refused),
             ("fullbatch", "1", None, src), ("fullbatch", "2", None, src)]
    if hasattr(os, "sched_setaffinity"):
        cases.append(("minibatch", "2", pin, src))
    blobs = {"minibatch": set(), "fullbatch": set()}
    for i, (mode, blas, preexec_fn, path) in enumerate(cases):
        out = tmp_path / f"run{i}"
        subprocess.run(
            [sys.executable, "-m", "dignn.cli", "train", "--data", data,
             "--epochs", "2", "--seed", "5", "--mode", mode, "--out", str(out)],
            check=True, capture_output=True, timeout=120, preexec_fn=preexec_fn,
            env={**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": path,
                 "REFUSED_LOG": str(refused_log)})
        blobs[mode].add((out / "model.bin").read_bytes())
    assert [len(b) for b in blobs.values()] == [1, 1]
    assert refused_log.read_text().count("refused") >= 2  # init's, then Adam's
