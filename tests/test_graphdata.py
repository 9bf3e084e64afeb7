import json
import os
import tracemalloc

import numpy as np
import pytest

from dignn.errors import GraphLoadError, InvalidLabelError, SplitError
from dignn.graphdata import (
    FraudGraph, SplitIndex, SynthConfig, build_union_adj, downsample_epoch, gather_batch,
    gaussian_bayes_auc, load_graph, make_batches, neighbor_label_distribution,
    normalize_features, save_graph, stratified_split, synth_generate,
)
from dignn.metrics import auc_rank


def toy_graph(edges=((0, 1),), labels=(0, 1, 0), n_feat=2):
    labels = np.asarray(labels, dtype=np.int8)
    n = labels.size
    rng = np.random.default_rng(0)
    relations = {"R": np.asarray(edges, dtype=np.uint32).reshape(-1, 2)}
    return FraudGraph(
        features=rng.standard_normal((n, n_feat)),
        labels=labels,
        relations=relations,
        union_adj=build_union_adj(relations, n),
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
        adj = build_union_adj(rels, n)
        assert adj.format == "csr" and adj.shape == (n, n)
        assert adj.has_canonical_format
        assert adj.indices.dtype == np.int32 and adj.indptr.dtype == np.int32
        assert adj.data.dtype == np.float64 and np.all(adj.data == 1.0)
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

    def test_synth_graph(self):
        g = synth_generate(SynthConfig(num_nodes=5000, avg_degree=40, seed=11))
        assert self.check(g.relations, g.num_nodes).nnz > 150_000


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

    def test_unlabeled_rejected(self):
        g = toy_graph(labels=[0, -1, 1])
        with pytest.raises(InvalidLabelError):
            gather_batch(g, [1])


class TestNormalizeFeatures:
    def test_constant_column_maps_to_zero(self):
        g = toy_graph(labels=[0, 1, 0, 1])
        g.features[:, 0] = 3.14
        split = SplitIndex(train=np.array([0, 1]), val=np.array([2]),
                           test=np.array([3]))
        out = normalize_features(g, split)
        assert np.array_equal(out.features[:, 0], np.zeros(4))

    def test_two_point_column(self):
        g = toy_graph(labels=[0, 1])
        g.features = np.array([[0.0], [2.0]])
        split = SplitIndex(train=np.array([0, 1]), val=np.array([], dtype=int),
                           test=np.array([], dtype=int))
        out = normalize_features(g, split)
        assert np.allclose(sorted(out.features[:, 0]), [-1.0, 1.0])

    def test_idempotent_on_train_stats(self):
        labels = [0, 1] * 20
        g = toy_graph(labels=labels, n_feat=4)
        split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
        once = normalize_features(g, split)
        twice = normalize_features(once, split)
        assert np.max(np.abs(twice.features[split.train].mean(axis=0))) < 1e-10


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

    def test_per_edge_arrays_are_freed_before_the_union(self):
        # Only the edge list and the features may be live beside
        # build_union_adj's own peak; the per-edge draws kept alive through it
        # made the peak 1.9 times the union's.
        n = 10_000
        tracemalloc.start()
        try:
            g = synth_generate(SynthConfig(num_nodes=n, feature_dim=8, avg_degree=40,
                                           seed=4))
            _, synth_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            build_union_adj(g.relations, n)
            _, union_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert synth_peak <= 1.5 * (union_peak - base)


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
