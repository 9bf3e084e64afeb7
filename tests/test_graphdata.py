import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import dignn.autodiff as ad
import dignn.graphdata as graphdata
from dignn.errors import GraphLoadError, InvalidLabelError, SplitError
from dignn.graphdata import (
    FraudGraph, SplitIndex, SynthConfig, build_union_adj, downsample_epoch, gather_batch,
    load_graph, make_batches, neighbor_label_distribution, normalize_features,
    save_graph, stratified_split, synth_generate,
)
from dignn.metrics import auc_rank

from baselines import gaussian_bayes_auc


def toy_graph(edges=((0, 1),), labels=(0, 1, 0), n_feat=2):
    labels = np.asarray(labels, dtype=np.int8)
    n = labels.size
    rng = np.random.default_rng(0)
    relations = {"R": np.asarray(edges, dtype=np.uint32).reshape(-1, 2)}
    return FraudGraph(
        features=rng.standard_normal((n, n_feat)),
        labels=labels,
        relations=relations,
        union_adj=build_union_adj(relations.values(), n, len(relations["R"])),
    )


class TestLoadSave:
    def test_three_node_roundtrip(self, tmp_path):
        g = toy_graph()
        save_graph(g, str(tmp_path))
        loaded = load_graph(str(tmp_path))
        adj = loaded.union_adj
        assert list(adj[0].indices) == [1]
        assert list(adj[1].indices) == [0]
        assert list(adj[2].indices) == []
        assert np.allclose(loaded.features, g.features, atol=1e-6)
        assert np.array_equal(loaded.labels, g.labels)

    def test_duplicate_edges_are_deduplicated(self, tmp_path):
        g = toy_graph(edges=((0, 1), (1, 0), (0, 1)))
        save_graph(g, str(tmp_path))
        loaded = load_graph(str(tmp_path))
        assert loaded.union_adj.nnz == 2  # one undirected edge, both directions

    def test_missing_file(self, tmp_path):
        g = toy_graph()
        save_graph(g, str(tmp_path))
        os.remove(tmp_path / "labels.i8")
        with pytest.raises(GraphLoadError, match="missing file"):
            load_graph(str(tmp_path))

    def test_length_mismatch(self, tmp_path):
        g = toy_graph()
        save_graph(g, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["num_nodes"] = 5
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(GraphLoadError, match="expected"):
            load_graph(str(tmp_path))

    def test_out_of_range_edge(self, tmp_path):
        g = toy_graph()
        save_graph(g, str(tmp_path))
        np.array([[0, 9]], dtype="<u4").tofile(tmp_path / "edges_R.u32le")
        with pytest.raises(GraphLoadError, match="out of range"):
            load_graph(str(tmp_path))

    def test_only_self_loops_load_as_empty_adjacency(self, tmp_path):
        g = toy_graph(edges=((1, 1), (2, 2)))
        save_graph(g, str(tmp_path))
        adj = load_graph(str(tmp_path)).union_adj
        assert adj.shape == (3, 3) and adj.nnz == 0
        assert list(adj.indptr) == [0, 0, 0, 0]


def union_oracle(relations) -> list[tuple[int, int]]:
    """Entries of the union adjacency in row-major order, from a set of
    undirected (min, max) pairs mirrored to both directions."""
    pairs = {(min(u, v), max(u, v))
             for e in relations.values() for u, v in e.tolist() if u != v}
    return sorted(pairs | {(v, u) for u, v in pairs})


class TestBuildUnionAdj:
    def check(self, relations, n):
        rels = {k: np.asarray(v, dtype=np.uint32).reshape(-1, 2)
                for k, v in relations.items()}
        adj = build_union_adj(rels.values(), n, sum(map(len, rels.values())))
        assert adj.format == "csr" and adj.shape == (n, n)
        assert adj.has_canonical_format
        assert adj.indices.dtype == np.int32 and adj.indptr.dtype == np.int32
        assert adj.data.dtype == np.int8 and np.all(adj.data == 1)
        rows = np.repeat(np.arange(n), np.diff(adj.indptr))
        assert list(zip(rows.tolist(), adj.indices.tolist())) == union_oracle(rels)
        return adj

    def test_duplicates_within_and_across_relations(self):
        adj = self.check({"A": [[0, 1], [0, 1], [2, 3]], "B": [[0, 1], [3, 2]]}, 4)
        assert adj.nnz == 4

    def test_both_directions_given(self):
        adj = self.check({"A": [[4, 1], [1, 4], [2, 0], [0, 2]]}, 5)
        assert list(adj.indptr) == [0, 1, 2, 3, 3, 4]
        assert list(adj.indices) == [2, 4, 0, 1]

    def test_empty_relation_beside_a_nonempty_one(self):
        self.check({"A": np.empty((0, 2)), "B": [[1, 2]]}, 3)

    def test_trailing_isolated_nodes(self):
        adj = self.check({"A": [[0, 1]]}, 6)
        assert list(adj.indptr) == [0, 1, 2, 2, 2, 2, 2]

    def test_unsorted_input(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 50, (400, 2))
        self.check({"A": edges[::-1], "B": edges[:100]}, 50)

    def test_only_self_loops(self):
        adj = self.check({"A": [[1, 1], [2, 2]]}, 3)
        assert adj.nnz == 0 and list(adj.indptr) == [0, 0, 0, 0]

    def test_no_relations(self):
        assert self.check({}, 3).nnz == 0

    def test_pairs_other_than_counted_raise(self):
        # Short of the count, the code array's tail would be unset, not dropped.
        pairs = np.array([[0, 1], [1, 2]], dtype=np.uint32)
        for counted in (3, 1):
            with pytest.raises(ValueError):
                build_union_adj([pairs], 3, counted)

    def test_synth_graph(self):
        g = synth_generate(SynthConfig(num_nodes=5000, avg_degree=40, seed=11))
        assert self.check(g.relations, g.num_nodes).nnz > 150_000

    def test_peak_is_the_codes_and_the_index_copy(self):
        # 16 bytes a pair for the codes, both ways; then 5 bytes an entry for
        # scipy's int32 copy of the columns and the int8 ones (at most 2 E
        # entries), the indptr twice, and 1 MiB for the dedup's blocks. The
        # build that stacked int64 pairs and concatenated two code halves
        # traced 49 bytes a pair here; this one traced 26.9.
        g = synth_generate(SynthConfig(num_nodes=10_000, feature_dim=2, avg_degree=40,
                                       seed=4))
        e = len(g.relations["SYN"])
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            build_union_adj(g.relations.values(), 10_000, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 16 * e + 5 * 2 * e + 16 * 10_001 + 2 ** 20


class TestStratifiedSplit:
    def make_graph(self, n_fraud=10, n_benign=90):
        labels = np.array([1] * n_fraud + [0] * n_benign, dtype=np.int8)
        return toy_graph(labels=labels)

    def test_proportional_counts(self):
        g = self.make_graph()
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
        train_labels = g.labels[split.train]
        assert (train_labels == 1).sum() == 4
        assert (train_labels == 0).sum() == 36

    def test_deterministic(self):
        g = self.make_graph()
        a = stratified_split(g, (0.4, 0.2, 0.4), seed=5)
        b = stratified_split(g, (0.4, 0.2, 0.4), seed=5)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)

    def test_single_class_fails(self):
        g = toy_graph(labels=[0] * 10)
        with pytest.raises(SplitError):
            stratified_split(g, (0.4, 0.2, 0.4), seed=0)

    @pytest.mark.parametrize("ratios, empty", [((0.01, 0.49, 0.5), "train"),
                                               ((0.5, 0.01, 0.49), "validation"),
                                               ((0.5, 0.49, 0.01), "test")])
    def test_set_without_a_class_fails(self, ratios, empty):
        # Of 10 fraud nodes, each of these ratios leaves one set none.
        with pytest.raises(SplitError, match=rf"class 1 .*no {empty} node"):
            stratified_split(self.make_graph(), ratios, seed=0)

    def test_parts_are_disjoint_and_cover_labeled(self):
        labels = [1] * 20 + [0] * 70 + [-1] * 10
        g = toy_graph(labels=labels)
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=2)
        combined = np.concatenate([split.train, split.val, split.test])
        assert len(set(combined)) == len(combined) == 90
        assert set(combined) == set(np.flatnonzero(g.labels >= 0))

    def test_stratification_tolerance(self):
        labels = [1] * 120 + [0] * 680
        g = toy_graph(labels=labels)
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=3)
        overall = 120 / 800
        for part in (split.train, split.val, split.test):
            frac = (g.labels[part] == 1).mean()
            assert abs(frac - overall) <= 0.01


class TestDownsample:
    def test_matches_positive_count(self):
        labels = np.array([1] * 10 + [0] * 90)
        ids = np.arange(100)
        out = downsample_epoch(ids, labels, seed=0)
        assert out.size == 20
        assert (labels[out] == 1).sum() == 10
        assert (labels[out] == 0).sum() == 10

    def test_scarce_negatives_kept_not_oversampled(self):
        labels = np.array([1] * 10 + [0] * 5)
        out = downsample_epoch(np.arange(15), labels, seed=0)
        assert out.size == 15

    def test_one_of_each(self):
        labels = np.array([1, 0])
        out = downsample_epoch(np.arange(2), labels, seed=0)
        assert sorted(out) == [0, 1]

    def test_no_repeats(self):
        labels = np.array([1] * 30 + [0] * 300)
        out = downsample_epoch(np.arange(330), labels, seed=7)
        assert len(set(out)) == out.size

    def test_zero_positives(self):
        with pytest.raises(ValueError):
            downsample_epoch(np.arange(5), np.zeros(5, dtype=int), seed=0)


class TestMakeBatches:
    def test_ceil_count_and_sizes(self):
        batches = make_batches(np.arange(100), 32)
        assert [b.size for b in batches] == [32, 32, 32, 4]

    def test_exact_fit(self):
        assert len(make_batches(np.arange(32), 32)) == 1

    def test_single_id(self):
        batches = make_batches(np.arange(1), 32)
        assert len(batches) == 1 and batches[0].size == 1

    def test_partition_exact(self):
        ids = np.random.default_rng(0).permutation(57)
        batches = make_batches(ids, 8)
        assert np.array_equal(np.concatenate(batches), ids)

    def test_empty_fails(self):
        with pytest.raises(ValueError):
            make_batches(np.array([]), 4)


class TestGatherBatch:
    def test_isolated_node_row_is_empty(self):
        g = toy_graph()
        batch = gather_batch(g, [2])
        assert batch.topo_rows.nnz == 0
        assert batch.topo_rows.shape == (1, 3)

    def test_all_nodes_equals_union(self):
        g = toy_graph(edges=((0, 1), (1, 2)))
        batch = gather_batch(g, [2, 0, 1])
        expected = g.union_adj[[2, 0, 1]]
        assert (batch.topo_rows != expected).nnz == 0

    def test_rows_match_direct_lookup(self):
        labels = np.random.default_rng(1).integers(0, 2, 30).astype(np.int8)
        edges = np.random.default_rng(2).integers(0, 30, (60, 2)).astype(np.uint32)
        g = toy_graph(edges=edges, labels=labels)
        ids = np.random.default_rng(3).choice(30, 5, replace=False)
        batch = gather_batch(g, ids)
        for k, i in enumerate(ids):
            assert np.array_equal(batch.topo_rows[k].toarray(),
                                  g.union_adj[int(i)].toarray())

    def test_rows_are_canonical_int8_ones(self):
        # The pairs repeat edges, in both directions, and hold self-loops. The
        # gathered rows are what ad.sparse_target_mse reads in place: each
        # entry stored once, in column order, as an int8 one.
        edges = [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (4, 4), (3, 0), (3, 0)]
        g = toy_graph(edges=edges, labels=[0, 1, 0, 1, 0])
        rows = gather_batch(g, [3, 1, 3, 4, 0]).topo_rows
        assert rows.dtype == np.int8 and np.all(rows.data == 1)
        # A fresh matrix on the same arrays checks the format, not a cached flag.
        fresh = sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)
        assert rows.has_canonical_format and fresh.has_canonical_format
        assert [rows[k].indices.tolist() for k in range(5)] == [
            [0, 1], [0, 3], [0, 1], [], [1, 3]]

    def test_unlabeled_rejected(self):
        g = toy_graph(labels=[0, -1, 1])
        with pytest.raises(InvalidLabelError):
            gather_batch(g, [1])

    @pytest.mark.parametrize("avg_degree", [4.0, 167.43])  # 167.43: YelpChi's density
    def test_int8_rows_give_the_float64_products(self, avg_degree):
        # The rows keep the adjacency's int8 ones; scipy upcasts them inside
        # each product, and a one is exact in both types, so the topology
        # encoder's and decoder's values and grads equal those of float64 rows.
        g = synth_generate(SynthConfig(num_nodes=2000, feature_dim=2,
                                       avg_degree=avg_degree, seed=2))
        ids = np.arange(256)
        as_float = replace(g, union_adj=g.union_adj.astype(np.float64))
        rows, float_rows = (gather_batch(h, ids).topo_rows for h in (g, as_float))
        assert rows.dtype == np.int8 and float_rows.dtype == np.float64
        rng = np.random.default_rng(3)
        w_val, upstream = rng.standard_normal((2000, 8)), rng.standard_normal((256, 8))
        h_val, w1_val = rng.standard_normal((256, 5)), rng.standard_normal((6, 2000))

        def values_and_grads(topo):
            w = ad.Var(w_val)
            encoded = ad.dense(topo, w, None)
            ad.backward(ad.sum_all(ad.mul(encoded, upstream)))
            h, dec_w, dec_b = ad.Var(h_val), ad.Var(w1_val[:-1]), ad.Var(w1_val[-1:])
            loss = ad.sparse_target_mse(h, dec_w, dec_b, topo)
            ad.backward(loss)
            return [encoded.value, w.grad, loss.value, h.grad, dec_w.grad, dec_b.grad]

        for got, want in zip(values_and_grads(rows), values_and_grads(float_rows)):
            assert np.array_equal(got, want)


class TestNormalizeFeatures:
    def test_constant_column_maps_to_zero(self):
        g = toy_graph(labels=[0, 1, 0, 1])
        g.features[:, 0] = 3.14
        split = SplitIndex(train=np.array([0, 1]), val=np.array([2]),
                           test=np.array([3]))
        out = normalize_features(g, split)
        rows = gather_batch(out, np.arange(4)).features
        assert np.array_equal(rows[:, 0], np.zeros(4))

    def test_two_point_column(self):
        g = toy_graph(labels=[0, 1])
        g.features = np.array([[0.0], [2.0]])
        split = SplitIndex(train=np.array([0, 1]), val=np.array([], dtype=int),
                           test=np.array([], dtype=int))
        out = normalize_features(g, split)
        rows = gather_batch(out, np.arange(2)).features
        assert np.allclose(sorted(rows[:, 0]), [-1.0, 1.0])

    def test_idempotent_on_train_stats(self):
        labels = [0, 1] * 20
        g = toy_graph(labels=labels, n_feat=4)
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
        once = normalize_features(g, split)
        twice = normalize_features(once, split)
        rows = gather_batch(twice, split.train).features
        assert np.max(np.abs(rows.mean(axis=0))) < 1e-10
        # The statistics come from the features as read, not from once's rows.
        assert np.array_equal(rows, gather_batch(once, split.train).features)

    @pytest.mark.parametrize("source", ["loaded", "synth"])
    def test_rows_equal_the_whole_matrix_z_score(self, tmp_path, source):
        # The z-score of the whole float64 matrix that normalize_features
        # once stored: each gathered row must hold the same bits.
        g = synth_generate(SynthConfig(num_nodes=500, feature_dim=6, seed=8))
        g.features[:, 2] = 1.7  # one constant column
        if source == "loaded":
            save_graph(g, str(tmp_path))
            g = load_graph(str(tmp_path))
        assert g.features.dtype == {"loaded": np.float32, "synth": np.float64}[source]
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=3)
        x = g.features.astype(np.float64)
        mean, std = x[split.train].mean(axis=0), x[split.train].std(axis=0)
        ok = std >= 1e-12
        assert not ok[2] and ok.sum() == 5
        want = np.where(ok, (x - mean) / np.where(ok, std, 1.0), 0.0)
        out = normalize_features(g, split)
        assert np.array_equal(out.feature_rows(np.arange(500)), want)
        ids = np.random.default_rng(4).permutation(500)[:64]
        assert np.array_equal(gather_batch(out, ids).features, want[ids])


class TestGraphContract:
    """A loaded graph keeps its features as read and no edge pairs."""

    @pytest.mark.parametrize("relations", [
        {"A": [[0, 1], [1, 0], [0, 1], [2, 3]]},
        {"A": [[1, 1], [0, 2], [3, 3]]},
        {"A": [[0, 1], [4, 2]], "B": [[1, 0], [2, 3]], "C": []},
        {},
    ], ids=["duplicates", "self_loops", "several", "none"])
    def test_loaded_union_equals_the_union_of_the_pairs(self, tmp_path, relations):
        rels = {k: np.asarray(v, dtype=np.uint32).reshape(-1, 2)
                for k, v in relations.items()}
        total = sum(map(len, rels.values()))
        g = FraudGraph(features=np.zeros((5, 2)), labels=np.zeros(5, np.int8),
                       relations=rels, union_adj=build_union_adj(rels.values(), 5, total))
        save_graph(g, str(tmp_path))
        loaded = load_graph(str(tmp_path))
        assert loaded.relations is None
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(loaded.union_adj, name),
                                  getattr(g.union_adj, name)), name
        rows = np.repeat(np.arange(5), np.diff(loaded.union_adj.indptr))
        assert (list(zip(rows.tolist(), loaded.union_adj.indices.tolist()))
                == union_oracle(rels))

    def test_save_refuses_a_loaded_graph(self, tmp_path):
        save_graph(toy_graph(), str(tmp_path / "g"))
        loaded = load_graph(str(tmp_path / "g"))
        with pytest.raises(ValueError, match="no edge pairs"):
            save_graph(loaded, str(tmp_path / "copy"))
        assert not (tmp_path / "copy").exists()

    def test_features_stay_float32_and_batches_are_float64(self, tmp_path):
        g = synth_generate(SynthConfig(num_nodes=200, feature_dim=5, seed=2))
        save_graph(g, str(tmp_path))
        loaded = load_graph(str(tmp_path))
        assert loaded.features.dtype == np.float32
        assert np.array_equal(loaded.features, g.features.astype(np.float32))
        split = stratified_split(loaded, (0.4, 0.2, 0.4), seed=1)
        ids = np.array([7, 3, 150])
        for graph in (loaded, normalize_features(loaded, split)):
            rows = gather_batch(graph, ids).features
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert rows.shape == (3, 5)
        assert normalize_features(loaded, split).features is loaded.features


class TestSynthGenerate:
    def test_fraud_neighbor_benign_fraction(self):
        cfg = SynthConfig(num_nodes=4000, feature_dim=16, fraud_rate=0.15,
                          homophily=0.19, avg_degree=10, seed=1)
        g = synth_generate(cfg)
        dist = neighbor_label_distribution(g)
        assert dist[1][0] == pytest.approx(0.81, abs=0.03)

    def test_zero_separation_gives_chance_auc(self):
        cfg = SynthConfig(num_nodes=4000, feature_dim=8, fraud_rate=0.3,
                          mean_separation=0.0, seed=2)
        g = synth_generate(cfg)
        # oracle score: projection onto the true class-mean difference (zero)
        scores = g.features @ np.zeros(8)
        assert auc_rank(scores, g.labels) == pytest.approx(0.5, abs=0.02)

    def test_separation_matches_closed_form_auc(self):
        delta = 2.33
        cfg = SynthConfig(num_nodes=20000, feature_dim=1, fraud_rate=0.3,
                          mean_separation=delta, seed=3)
        g = synth_generate(cfg)
        auc = auc_rank(g.features[:, 0], g.labels)
        assert auc == pytest.approx(gaussian_bayes_auc(delta), abs=0.01)

    def test_deterministic(self):
        cfg = SynthConfig(num_nodes=500, seed=9)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.relations["SYN"], b.relations["SYN"])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(fraud_rate=0.0).validate()

    def test_class_of_one_fails_only_with_a_same_class_edge(self):
        # seed 10 draws one fraud node among 10
        with pytest.raises(ValueError, match="one node"):
            synth_generate(SynthConfig(num_nodes=10, seed=10))
        g = synth_generate(SynthConfig(num_nodes=10, seed=10, homophily=0.0))
        assert int(g.labels.sum()) == 1
        u, v = g.relations["SYN"].T
        assert (g.labels[u] != g.labels[v]).all()

    def test_per_edge_arrays_are_freed_before_the_union(self, monkeypatch):
        # When build_union_adj starts, synth_generate must hold only the
        # features, the labels and the pairs (8 n d + n + 8 E bytes; measured
        # 3.5 KB above that). The per-edge draws kept alive through the build
        # would add at least the 16 E bytes of the endpoint arrays.
        cfg = SynthConfig(num_nodes=10_000, feature_dim=8, avg_degree=40, seed=4)
        n, d, e = cfg.num_nodes, cfg.feature_dim, round(cfg.avg_degree * cfg.num_nodes / 2)
        live = []

        def watched(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return build_union_adj(*args)

        monkeypatch.setattr(graphdata, "build_union_adj", watched)
        tracemalloc.start()
        try:
            synth_generate(cfg)
        finally:
            tracemalloc.stop()
        assert len(live) == 1
        assert live[0] <= 8 * n * d + n + 8 * e + 2 ** 16

    @pytest.mark.parametrize("cfg", [
        SynthConfig(num_nodes=5000, feature_dim=8, avg_degree=10, seed=4),
        # the features and the copy of their fraud rows set this one's peak
        SynthConfig(num_nodes=3000, feature_dim=64, fraud_rate=0.9, avg_degree=1,
                    seed=4),
    ], ids=["edges", "features"])
    def test_nbytes_bounds_the_peak(self, cfg):
        tracemalloc.start()
        try:
            synth_generate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 * cfg.nbytes() <= peak <= cfg.nbytes()


class TestNeighborLabelDistribution:
    def test_perfect_homophily(self):
        g = toy_graph(edges=((0, 2), (1, 3)), labels=[0, 1, 0, 1])
        dist = neighbor_label_distribution(g)
        assert dist[0] == {0: 1.0, 1: 0.0}
        assert dist[1] == {0: 0.0, 1: 1.0}

    def test_cross_pair(self):
        g = toy_graph(edges=((0, 1),), labels=[0, 1])
        dist = neighbor_label_distribution(g)
        assert dist[1] == {0: 1.0, 1: 0.0}

    def test_undefined_class(self):
        g = toy_graph(edges=((0, 1),), labels=[0, 0, 1])
        dist = neighbor_label_distribution(g)
        assert dist[1] is None

    def test_rows_sum_to_one(self):
        g = synth_generate(SynthConfig(num_nodes=800, seed=4))
        dist = neighbor_label_distribution(g)
        for row in dist.values():
            if row is not None:
                assert abs(sum(row.values()) - 1.0) <= 1e-12


def test_union_adjacency_symmetry():
    g = synth_generate(SynthConfig(num_nodes=600, seed=5))
    diff = g.union_adj - g.union_adj.T
    assert abs(diff).sum() == 0
