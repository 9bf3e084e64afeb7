import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dignn.autodiff as ad
import dignn.model as M
import dignn.trainer as trainer
from dignn.errors import DivergenceError, UndefinedMetricError
from dignn.graphdata import (
    SynthConfig, downsample_epoch, gather_batch, stratified_split, synth_generate,
)
from dignn.metrics import MetricsReport, compute_report
from dignn.model import DignnConfig, DignnParams
from dignn.rng import generator, seed_streams
from dignn.trainer import (
    ABLATIONS, SCORE_BLOCK, TrainConfig, build_optimizer, evaluate, gradcheck,
    smoothed_features, train, train_smoothing_baseline, _batch_losses, _toy_graph,
)


def small_train_cfg(**over):
    base = dict(
        epochs=3, batch_size=16, seed=0,
        model=DignnConfig(embed_dim=4, hidden_dim=8),
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_data():
    g = synth_generate(SynthConfig(num_nodes=200, feature_dim=8, fraud_rate=0.3,
                                   mean_separation=2.0, seed=1))
    split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
    return g, split


class TestTrainConfig:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            small_train_cfg(mode="stochastic").validate()

    def test_bad_ablation(self):
        with pytest.raises(ValueError):
            small_train_cfg(ablation="no_rec").validate()

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            small_train_cfg(epochs=0).validate()


class TestTrain:
    def test_history_length_and_finiteness(self, small_data):
        g, split = small_data
        params, hist = train(g, split, small_train_cfg())
        assert len(hist.epochs) == 3
        for r in hist.epochs:
            for v in (r.ce, r.rec, r.exc, r.total, r.alpha_a, r.alpha_x):
                assert np.isfinite(v)
            assert 0.0 <= r.val.auc <= 1.0

    def test_returned_params_match_best_validation_epoch(self, small_data):
        g, split = small_data
        params, hist = train(g, split, small_train_cfg(epochs=5, seed=2))
        best = max(r.val.auc for r in hist.epochs)
        rep = evaluate(params, g, split.val)
        assert rep.auc == pytest.approx(best, abs=1e-12)

    @staticmethod
    def _script_val_auc(monkeypatch, aucs):
        """Make epoch e's validation AUC read ``aucs[e]``; the returned list
        gets a copy of every tensor at each validation."""
        real = trainer.evaluate
        at_epoch = []

        def scripted(params, graph, ids):
            at_epoch.append({n: v.value.copy() for n, v in params.tensors.items()})
            return replace(real(params, graph, ids), auc=aucs[len(at_epoch) - 1])

        monkeypatch.setattr(trainer, "evaluate", scripted)
        return at_epoch

    @pytest.mark.parametrize("aucs, best", [
        ((0.6, 0.9, 0.7), 1),   # restored from a snapshot
        ((0.6, 0.7, 0.9), 2),   # the last epoch: kept as it stands
        ((0.8, 0.8, 0.8), 0),   # ties keep the earliest epoch
    ])
    def test_returns_parameters_of_best_epoch(self, small_data, monkeypatch,
                                              aucs, best):
        at_epoch = self._script_val_auc(monkeypatch, aucs)
        g, split = small_data
        params, _ = train(g, split, small_train_cfg(epochs=3))
        for name, v in params.tensors.items():
            assert np.array_equal(v.value, at_epoch[best][name]), name

    def test_no_mi_snapshot_leaves_out_the_decoders(self, small_data, monkeypatch):
        # The snapshot copies only the tensors the optimizer updates; under
        # no_mi the decoders keep their init, so the restore is still exact.
        at_epoch = self._script_val_auc(monkeypatch, (0.6, 0.9, 0.7))
        real, snapped = DignnParams.snapshot, []

        def spy(params, names):
            snapped.append(set(names))
            return real(params, names)

        monkeypatch.setattr(DignnParams, "snapshot", spy)
        g, split = small_data
        cfg = small_train_cfg(epochs=3, ablation="no_mi")
        params, _ = train(g, split, cfg)
        for name, v in params.tensors.items():
            assert np.array_equal(v.value, at_epoch[1][name]), name
        # Epochs 1 and 2 each improved on the best validation AUC.
        assert snapped == 2 * [set(build_optimizer(params, cfg).params)]
        assert not any(n.startswith("dec_") for n in snapped[0])

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_holds_one_tape_and_one_snapshot(self, monkeypatch, ablation):
        # N-sized tensors dominate here, so that a second snapshot or a
        # second step's tape alive at once shows: each adds 0.6 to 2.6 MB to
        # a peak of 18 (no_mi) or 29.5 MB (full).
        g = synth_generate(SynthConfig(num_nodes=20_000, feature_dim=8,
                                       fraud_rate=0.05, seed=1))
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
        cfg = small_train_cfg(batch_size=256, ablation=ablation,
                              model=DignnConfig(embed_dim=8, hidden_dim=16))
        params = DignnParams.init(g.num_nodes, g.feature_dim, cfg.model, 0)
        opt = build_optimizer(params, cfg)
        # One step from no grads: the peak of its forward (with the batch it
        # reads) and of the whole step, which ends holding its grads.
        ids = downsample_epoch(split.train, g.labels, 0)[:cfg.batch_size]
        tracemalloc.start()
        try:
            loss, _ = _batch_losses(params, gather_batch(g, ids), cfg, generator(0))
            fwd = tracemalloc.get_traced_memory()[1]
            ad.backward(loss)
            step = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del loss
        score = _peak_bytes(lambda: evaluate(params, g, split.val))
        adam = _peak_bytes(lambda: build_optimizer(params, cfg))  # moments, scratch
        tensors = sum(v.value.nbytes for v in params.tensors.values())
        trained = sum(v.value.nbytes for v in opt.params.values())
        grads = sum(v.grad.nbytes for v in opt.params.values())
        del params, opt

        real, aucs, events = trainer.evaluate, iter((0.6, 0.9, 0.7)), []
        monkeypatch.setattr(trainer, "evaluate",
                            lambda *args: replace(real(*args), auc=next(aucs)))

        def spy(name, fn):
            def recorded(*args):
                events.append(name)
                return fn(*args)
            return recorded

        for name in ("snapshot", "restore"):
            monkeypatch.setattr(DignnParams, name, spy(name, getattr(DignnParams, name)))
        peak = _peak_bytes(lambda: train(g, split, cfg))
        # Epoch 2's snapshot replaces epoch 1's, and epoch 2 is restored.
        assert events == ["snapshot", "snapshot", "restore"]
        # Parameters, Adam's state and one snapshot, then one working set at
        # a time: a forward or a validation pass while the last step's grads
        # are held, or a step from zero_grad on. The 2% covers train's own
        # bookkeeping and batches whose forward reads more columns (the peak
        # reads 1.01 of the bound; either copy held too long reads 1.03-1.10).
        bound = tensors + adam + trained + max(grads + fwd, step, grads + score)
        assert peak <= 1.02 * bound

    def test_one_epoch_copies_no_parameters(self, small_data, monkeypatch):
        # The only epoch is the best one, and its parameters are returned as
        # they stand: no snapshot, no restore.
        calls = []
        monkeypatch.setattr(DignnParams, "snapshot",
                            lambda self, names: calls.append("snapshot"))
        monkeypatch.setattr(DignnParams, "restore", lambda self, s: calls.append("restore"))
        g, split = small_data
        train(g, split, small_train_cfg(epochs=1))
        assert calls == []

    def test_deterministic_given_seed(self, small_data):
        g, split = small_data
        p1, h1 = train(g, split, small_train_cfg(seed=3))
        p2, h2 = train(g, split, small_train_cfg(seed=3))
        for name in p1.tensors:
            assert np.array_equal(p1[name].value, p2[name].value)
        assert [r.total for r in h1.epochs] == [r.total for r in h2.epochs]

    def test_no_mi_ablation_skips_aux_losses(self, small_data):
        g, split = small_data
        _, hist = train(g, split, small_train_cfg(ablation="no_mi"))
        for r in hist.epochs:
            assert r.rec == 0.0 and r.exc == 0.0
            assert r.total == pytest.approx(r.ce)

    def test_fullbatch_mode(self, small_data):
        g, split = small_data
        params, hist = train(g, split, small_train_cfg(mode="fullbatch", epochs=2))
        assert len(hist.epochs) == 2

    def test_divergence_names_the_epoch_after_its_history(self, small_data):
        g, split = small_data
        cfg = small_train_cfg(epochs=10, lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(g, split, cfg)
        assert len(exc.value.history.epochs) < 10
        assert str(exc.value) == (
            f"non-finite loss at epoch {len(exc.value.history.epochs) + 1}")

    def test_history_csv_roundtrip(self, small_data, tmp_path):
        g, split = small_data
        _, hist = train(g, split, small_train_cfg())
        path = tmp_path / "history.csv"
        hist.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",") == list(hist.HEADER)
        assert len(lines) == 1 + len(hist.epochs)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == hist.epochs[0].ce


def _toy_loss(ablation):
    """Toy-graph params and their training loss under ``ablation``."""
    cfg = small_train_cfg(ablation=ablation)
    g = _toy_graph()
    params = DignnParams.init(g.num_nodes, g.feature_dim, cfg.model, 0)
    loss = _batch_losses(params, gather_batch(g, np.arange(6)), cfg, generator(0))[0]
    return cfg, params, loss


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_batch_figures(ablation):
    """ce, rec, exc, total, mean alpha_A, mean alpha_X as floats; the total is
    the loss, and under no_mi rec = exc = 0.0 and the total is ce."""
    cfg = small_train_cfg(ablation=ablation)
    g = _toy_graph()
    params = DignnParams.init(g.num_nodes, g.feature_dim, cfg.model, 0)
    loss, figures = _batch_losses(params, gather_batch(g, np.arange(6)), cfg, generator(0))
    assert len(figures) == 6 and all(type(f) is float for f in figures)
    assert figures[3] == float(loss.value[0, 0])
    if ablation == "no_mi":
        assert figures[1] == figures[2] == 0.0 and figures[3] == figures[0]
    else:
        assert figures[1] > 0.0


def _reachable(loss):
    """Every Var reachable from ``loss`` through ``parents``, loss included."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


# One tape node per dense layer (two per view encoder, one per attention
# score, the classifier, and under full the decoders' three), so a layer
# built from separate product, bias and activation nodes would show; and no
# node for the data the encoders read, so a feature leaf would show too.
@pytest.mark.parametrize("ablation, nodes", [("full", 65), ("no_mi", 33)])
def test_tape_size(ablation, nodes):
    assert len(_reachable(_toy_loss(ablation)[2])) == nodes


class TestOptimizerTensors:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_optimizer_holds_exactly_the_tensors_the_loss_reads(self, ablation):
        cfg, params, loss = _toy_loss(ablation)
        tape = _reachable(loss)
        seen = {id(v) for v in tape}
        reachable = {n for n, v in params.tensors.items() if id(v) in seen}
        opt = build_optimizer(params, cfg)
        assert set(opt.params) == reachable
        # The tape's leaves are the optimizer's tensors: no data is a Var.
        leaves = {id(v) for v in tape if not v.parents}
        assert leaves == {id(v) for v in opt.params.values()}

    def test_no_mi_leaves_decoders_at_init(self, small_data):
        g, split = small_data
        cfg = small_train_cfg(ablation="no_mi", epochs=2)
        init = DignnParams.init(g.num_nodes, g.feature_dim, cfg.model,
                                seed_streams(cfg.seed)["init"])
        params, _ = train(g, split, cfg)
        decoders = [n for n in params.tensors if n.startswith("dec_")]
        assert decoders
        for name in decoders:
            assert np.array_equal(params[name].value, init[name].value), name
        assert not np.array_equal(params["enc_a_w1"].value, init["enc_a_w1"].value)


class TestLazyGrads:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_every_reachable_var_gets_a_grad_of_its_shape(self, ablation):
        _, params, loss = _toy_loss(ablation)
        ad.backward(loss)
        tape = _reachable(loss)
        for v in tape:
            assert isinstance(v.grad, np.ndarray), v
            assert v.grad.shape == v.value.shape, v
        on_tape = {id(v) for v in tape}
        for name, v in params.tensors.items():
            assert (v.grad is None) == (id(v) not in on_tape), name

    def test_no_mi_train_leaves_decoder_grads_none(self, small_data):
        g, split = small_data
        params, _ = train(g, split, small_train_cfg(ablation="no_mi", epochs=1))
        decoders = [n for n in params.tensors if n.startswith("dec_")]
        assert decoders
        for name in decoders:
            assert params[name].grad is None, name
        assert params["enc_a_w1"].grad is not None


@pytest.fixture(scope="module")
def score_data():
    """A 9,000-node graph and freshly initialized parameters."""
    g = synth_generate(SynthConfig(num_nodes=9000, feature_dim=16, seed=1))
    return g, DignnParams.init(g.num_nodes, g.feature_dim, DignnConfig(), seed=0)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvaluate:
    def test_returns_report_and_is_deterministic(self, small_data):
        g, split = small_data
        params, _ = train(g, split, small_train_cfg())
        a = evaluate(params, g, split.test)
        b = evaluate(params, g, split.test)
        assert isinstance(a, MetricsReport)
        assert a == b

    def test_empty_ids_are_an_undefined_metric(self, score_data):
        g, params = score_data
        for ids in ([], np.array([], dtype=np.int64)):
            with pytest.raises(UndefinedMetricError):
                evaluate(params, g, ids)

    @pytest.mark.parametrize("n", [1, SCORE_BLOCK, SCORE_BLOCK + 1,
                                   5 * SCORE_BLOCK // 2])
    def test_report_of_the_per_block_predictions(self, score_data, n):
        g, params = score_data
        ids = g.labeled_ids()[::-1][:n]
        parts = [M.predict(params, gather_batch(g, ids[i:i + SCORE_BLOCK]),
                           params.cfg) for i in range(0, n, SCORE_BLOCK)]
        args = (np.concatenate([s for _, s in parts]),
                np.concatenate([p for p, _ in parts]), g.labels[ids])
        if n == 1:  # one class: the report is undefined either way
            with pytest.raises(UndefinedMetricError):
                compute_report(*args)
            with pytest.raises(UndefinedMetricError):
                evaluate(params, g, ids)
        else:
            assert evaluate(params, g, ids) == compute_report(*args)

    def test_peak_memory_does_not_grow_with_the_id_count(self, score_data):
        g, params = score_data
        ids = g.labeled_ids()
        assert ids.size >= 4 * 2048
        evaluate(params, g, ids[:2048])  # warm-up: one-time allocations
        small = _peak_bytes(lambda: evaluate(params, g, ids[:2048]))
        large = _peak_bytes(lambda: evaluate(params, g, ids[:4 * 2048]))
        assert large <= 1.25 * small, (small, large)


class TestGradcheck:
    def test_passes_at_defaults(self):
        result = gradcheck()
        assert result["passed"]
        assert result["max_rel_err"] <= 1e-4

    def test_passes_with_aux_losses_disabled(self):
        result = gradcheck(DignnConfig(alpha=0.0, beta=0.0))
        assert result["passed"]

    def test_corruption_is_detected(self):
        result = gradcheck(corrupt="clf_w")
        assert not result["passed"]
        worst = max(result["per_tensor"], key=result["per_tensor"].get)
        assert worst == "clf_w"


class TestSmoothingBaseline:
    def test_smoothed_features_hand_oracle(self):
        g = _toy_graph()
        xs = smoothed_features(g)
        # node 0 neighbors are 1 and 5 in the fixed toy graph
        nbrs = g.union_adj[0].indices
        assert np.allclose(xs[0], g.features[nbrs].mean(axis=0), atol=1e-12)

    def test_isolated_node_gets_zero_row(self, small_data):
        g, _ = small_data
        deg = np.asarray(g.union_adj.sum(axis=1)).ravel()
        xs = smoothed_features(g)
        if (deg == 0).any():
            assert np.allclose(xs[deg == 0], 0.0)

    def test_baseline_trains_and_reports(self, small_data):
        g, split = small_data
        rep = train_smoothing_baseline(g, split, small_train_cfg(epochs=20))
        assert isinstance(rep, MetricsReport)
        assert 0.0 <= rep.auc <= 1.0
