import math
import os
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import dignn.autodiff as ad
import dignn.model as M
from dignn.errors import DimensionError, GraphLoadError
from dignn.graphdata import BatchSubgraph
from dignn.model import DignnConfig, DignnParams
from dignn.rng import generator, seed_streams
from dignn.trainer import gradcheck


def small_cfg(**over):
    base = dict(embed_dim=3, hidden_dim=5)
    base.update(over)
    return DignnConfig(**base)


def make_batch(n_nodes=6, b=4, d_in=4, seed=0):
    rng = np.random.default_rng(seed)
    topo = sp.random(b, n_nodes, density=0.4, random_state=seed, format="csr")
    return BatchSubgraph(
        node_ids=np.arange(b),
        features=rng.standard_normal((b, d_in)),
        topo_rows=topo,
        labels=rng.integers(0, 2, b).astype(np.int8),
    )


BIASES = {"enc_a_b1", "enc_a_b2", "enc_x_b1", "enc_x_b2", "att_b", "clf_b",
          "dec_a_b1", "dec_a_b2", "dec_x_b1", "dec_x_b2"}


class TestParams:
    def test_shapes_and_zero_biases(self):
        cfg = small_cfg()
        p = DignnParams.init(6, 4, cfg, seed=0)
        assert BIASES <= set(p.tensors)
        for name, shape in DignnParams.shape_spec(6, 4, cfg):
            assert p[name].value.shape == shape
            assert np.all(p[name].value == 0) == (name in BIASES), name
        assert p.no_decay_names() == BIASES

    def test_init_deterministic(self):
        a = DignnParams.init(6, 4, small_cfg(), seed=3)
        b = DignnParams.init(6, 4, small_cfg(), seed=3)
        for name in a.tensors:
            assert np.array_equal(a[name].value, b[name].value)

    def test_save_load_roundtrip(self, tmp_path):
        p = DignnParams.init(6, 4, small_cfg(), seed=1)
        path = str(tmp_path / "m.bin")
        p.save(path)
        q = DignnParams.load(path)
        assert list(q.tensors) == list(p.tensors)
        for name in p.tensors:
            assert np.array_equal(q[name].value, p[name].value)
        assert (q.n_nodes, q.feat_dim) == (6, 4)
        with open(path, "rb") as fh:
            assert fh.read(31)[30] == 1  # the header's flag byte

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(GraphLoadError, match="not a model file"):
            DignnParams.load(str(path))

    def test_load_rejects_truncation(self, tmp_path):
        p = DignnParams.init(6, 4, small_cfg(), seed=1)
        path = tmp_path / "m.bin"
        p.save(str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(GraphLoadError):
            DignnParams.load(str(path))

    def test_load_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        DignnParams.init(6, 4, small_cfg(), seed=1).save(str(path))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(GraphLoadError, match="trailing bytes"):
            DignnParams.load(str(path))

    def test_load_checks_size_before_allocating(self, tmp_path):
        # The header and the first tensor's header claim 2**31 nodes, which a
        # read before the size check would try to allocate (1 TiB).
        path = tmp_path / "m.bin"
        DignnParams.init(6, 4, small_cfg(), seed=1).save(str(path))
        blob = bytearray(path.read_bytes())
        assert blob[35:43] == b"enc_a_w1"
        blob[10:14] = blob[43:47] = struct.pack("<I", 2 ** 31)  # n; enc_a_w1 rows
        path.write_bytes(bytes(blob))
        with pytest.raises(GraphLoadError, match="truncated"):
            DignnParams.load(str(path))

    def test_save_writes_the_bytes_of_astype(self, tmp_path):
        # The serializer that save replaced, kept as the reference format.
        def reference(params, path):
            with open(path, "wb") as fh:
                fh.write(M.MODEL_MAGIC)
                fh.write(struct.pack("<6I", M.MODEL_VERSION, params.n_nodes,
                                     params.feat_dim, params.cfg.embed_dim,
                                     params.cfg.hidden_dim, len(params.tensors)))
                fh.write(struct.pack("<B", M.MODEL_FLAG))
                for name, var in params.tensors.items():
                    fh.write(struct.pack("<I", len(name.encode())) + name.encode())
                    fh.write(struct.pack("<II", *var.value.shape))
                    fh.write(var.value.astype("<f8").tobytes())

        p = DignnParams.init(6, 4, small_cfg(), seed=1)
        rng = np.random.default_rng(1)
        for var in p.tensors.values():
            var.value[...] = rng.standard_normal(var.shape) * 10.0 ** rng.integers(
                -300, 300, var.shape)
        p["dec_a_b2"].value[0, :4] = [-0.0, np.inf, np.nan, 5e-324]
        p.save(str(tmp_path / "new.bin"))
        reference(p, str(tmp_path / "old.bin"))
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()

    def test_init_draws_glorot_uniform(self):
        # The weights init draws in place are the bits of rng.uniform, drawn
        # from one stream in shape_spec order. In the second case both runs
        # hold over a million draws, and the seed is a SeedSequence, as
        # train passes.
        for n, d, cfg, seed in [(6, 4, small_cfg(), 3),
                                (20_000, 8, DignnConfig(), seed_streams(5)["init"])]:
            p = DignnParams.init(n, d, cfg, seed=seed)
            rng = generator(seed)
            for name, shape in DignnParams.shape_spec(n, d, cfg):
                if not DignnParams.is_bias(name):
                    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                    assert np.array_equal(p[name].value,
                                          rng.uniform(-limit, limit, size=shape)), name

    def test_init_and_load_allocate_only_the_tensors(self, tmp_path):
        cfg = DignnConfig()
        path = str(tmp_path / "m.bin")
        tracemalloc.start()
        try:
            p = DignnParams.init(20_000, 8, cfg, seed=0)
            _, init_peak = tracemalloc.get_traced_memory()
            p.save(path)
            del p
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            DignnParams.load(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = DignnParams.nbytes(20_000, 8, cfg)
        assert init_peak <= 1.1 * total
        assert load_peak - base <= 1.1 * total

    def test_snapshot_restore(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=2)
        snap = p.snapshot(["clf_w"])
        assert list(snap) == ["clf_w"]  # only the named tensors are copied
        p["clf_w"].value[...] += 1.0
        p["clf_b"].value[...] += 1.0
        p.restore(snap)
        assert np.array_equal(p["clf_w"].value, snap["clf_w"])
        assert np.all(p["clf_b"].value == 1.0)  # not in the snapshot: left alone

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DignnConfig(embed_dim=0).validate()
        with pytest.raises(ValueError, match="embed_dim = 4294967296"):
            DignnConfig(embed_dim=2 ** 32).validate()
        DignnConfig(hidden_dim=2 ** 32 - 1).validate()  # checked, not allocated
        with pytest.raises(ValueError):
            DignnConfig(alpha=-0.1).validate()
        with pytest.raises(ValueError):
            DignnConfig(sigma_enc=0.0).validate()


def assert_decoder_layer_joined(p):
    """dec_a_w2 and dec_a_b2 are the rows of one array, as
    ``ad.sparse_target_mse`` requires."""
    w1 = ad._joined_rows(p["dec_a_w2"].value, p["dec_a_b2"].value)
    assert w1.shape == (p.cfg.hidden_dim + 1, p.n_nodes)


class TestTwoRuns:
    """``init`` and ``load`` fill the tensors as two runs, the second on a
    thread of its own."""

    @pytest.mark.parametrize("skip", [*range(8), 2 ** 20 + 3])
    def test_skipped_generator_continues_the_stream(self, skip):
        drawn = generator(7).random(skip + 9)
        assert np.array_equal(generator(7, skip).random(9), drawn[skip:])

    def test_runs_split_at_the_decoder_output_layer_at_yelpchi_scale(self):
        # The topology encoder and the small tensors (2.95 M values) against
        # the decoder's output layer and the rest (2.99 M).
        tensors = DignnParams.empty_tensors(45_954, 32, DignnConfig())
        runs = []
        M._fill_in_two_runs(list(tensors.values()),
                            lambda lo, hi: runs.append((lo, hi)))
        assert sorted(runs) == [(0, 15), (15, 21)]
        assert list(tensors)[15] == "dec_a_w2"

    def test_without_a_thread_the_caller_fills_both_runs(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.bin")
        cfg = DignnConfig()
        threaded = DignnParams.init(2000, 8, cfg, seed=4)
        threaded.save(path)
        started = []

        def refuse(thread):
            started.append(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for p in (DignnParams.init(2000, 8, cfg, seed=4), DignnParams.load(path)):
            for name, var in threaded.tensors.items():
                assert np.array_equal(p[name].value, var.value), name
        assert len(started) == 2

    def test_load_never_reads_a_file_moved_over_the_checked_one(self, tmp_path,
                                                                monkeypatch):
        path, other = str(tmp_path / "m.bin"), str(tmp_path / "other.bin")
        cfg = DignnConfig()
        checked = DignnParams.init(2000, 8, cfg, seed=1)
        checked.save(path)
        DignnParams.init(2000, 8, cfg, seed=2).save(other)
        fill_in_two_runs = M._fill_in_two_runs

        def replace_then_fill(arrays, fill):  # after every header check
            os.replace(other, path)
            fill_in_two_runs(arrays, fill)

        monkeypatch.setattr(M, "_fill_in_two_runs", replace_then_fill)
        loaded = DignnParams.load(path)
        for name, var in checked.tensors.items():
            assert np.array_equal(loaded[name].value, var.value), name

    def test_callers_error_is_raised_after_the_worker_ends(self):
        arrays = [np.empty(4), np.empty(4)]
        ended = []

        def fill(lo, hi):
            if lo == 0:
                raise GraphLoadError("first")
            time.sleep(0.05)
            ended.append(threading.current_thread() is not threading.main_thread())
            raise GraphLoadError("second")

        with pytest.raises(GraphLoadError, match="first"):
            M._fill_in_two_runs(arrays, fill)
        assert ended == [True]


class TestJoinedDecoderLayer:
    def test_after_init_and_load(self, tmp_path):
        p = DignnParams.init(6, 4, small_cfg(), seed=1)
        assert_decoder_layer_joined(p)
        p.save(str(tmp_path / "m.bin"))
        assert_decoder_layer_joined(DignnParams.load(str(tmp_path / "m.bin")))

    def test_after_adam_step_and_restore(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=2)
        names = ["dec_a_w2", "dec_a_b2"]
        snap = p.snapshot(names)
        opt = ad.Adam({n: p[n] for n in names}, lr=0.001, weight_decay=0.0005)
        # Each tensor's grad is ones: sum_all(mul(v, 1)) hands v 1.0 * 1.
        opt.step(ad.add(*(ad.sum_all(ad.mul(p[n], np.ones(p[n].shape))) for n in names)))
        assert_decoder_layer_joined(p)
        assert not np.array_equal(p["dec_a_b2"].value, snap["dec_a_b2"])
        p.restore(snap)
        assert_decoder_layer_joined(p)
        assert np.array_equal(p["dec_a_b2"].value, snap["dec_a_b2"])

    def test_after_gradcheck_perturbation(self, monkeypatch):
        made = []
        init = DignnParams.init.__func__

        def recording_init(cls, *args, **kwargs):
            made.append(init(cls, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(DignnParams, "init", classmethod(recording_init))
        assert gradcheck()["passed"]
        assert len(made) == 1
        assert_decoder_layer_joined(made[0])


class TestEncodeAndFuse:
    def test_dimension_mismatch_topology(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=0)
        batch = make_batch(n_nodes=7)
        with pytest.raises(DimensionError):
            M.encode_views(p, batch)

    def test_dimension_mismatch_features(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=0)
        batch = make_batch(d_in=9)
        with pytest.raises(DimensionError):
            M.encode_views(p, batch)

    def test_attention_weights_are_convex(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=4)
        batch = make_batch(seed=4)
        z_a, z_x = M.encode_views(p, batch)
        alpha_a, alpha_x, fused = M.attention_fuse(p, z_a, z_x)
        s = alpha_a.value + alpha_x.value
        assert np.allclose(s, 1.0, atol=1e-12)
        assert np.all(alpha_a.value > 0) and np.all(alpha_x.value > 0)

    def test_identical_views_split_evenly_under_shared_attention(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=5)
        z = ad.Var(np.random.default_rng(5).standard_normal((4, 3)))
        alpha_a, alpha_x, fused = M.attention_fuse(p, z, z)
        assert np.allclose(alpha_a.value, 0.5, atol=1e-12)
        assert np.allclose(fused.value, z.value, atol=1e-12)

    def test_fused_is_convex_combination(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=6)
        batch = make_batch(seed=6)
        z_a, z_x = M.encode_views(p, batch)
        alpha_a, alpha_x, fused = M.attention_fuse(p, z_a, z_x)
        manual = alpha_a.value * z_a.value + alpha_x.value * z_x.value
        assert np.allclose(fused.value, manual, atol=1e-12)


class TestForward:
    def test_zero_eps_equals_mean_path(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=7)
        batch = make_batch(seed=7)
        zero = np.zeros((4, 3))
        sampled = M.forward(p, batch, p.cfg, zero, zero)
        mean = M.forward(p, batch, p.cfg)
        assert np.allclose(sampled.logits.value, mean.logits.value, atol=1e-14)
        assert sampled.x_A_hat is None and mean.x_A_hat is None  # (b, N) never formed

    def test_predict_tie_goes_to_benign(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=9)
        for name, var in p.tensors.items():
            var.value[...] = 0.0
        batch = make_batch(seed=9)
        preds, scores = M.predict(p, batch, p.cfg)
        assert np.array_equal(preds, np.zeros(4, dtype=np.int64))
        assert np.allclose(scores, 0.5)

    def test_scores_are_class1_probabilities(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=10)
        batch = make_batch(seed=10)
        preds, scores = M.predict(p, batch, p.cfg)
        out = M.forward(p, batch, p.cfg)
        z = out.logits.value
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.allclose(scores, probs[:, 1], atol=1e-12)
        assert np.array_equal(preds, (probs[:, 1] > probs[:, 0]).astype(int))


class TestLosses:
    def test_rec_loss_matches_dense_two_view_mse(self):
        p = DignnParams.init(6, 4, small_cfg(), seed=11)
        rng = np.random.default_rng(11)
        for var in p.tensors.values():  # so that nonzero biases take part too
            var.value[...] += rng.uniform(-0.1, 0.1, var.shape)
        batch = make_batch(seed=11)
        eps = rng.standard_normal((4, 3))
        out = M.forward(p, batch, p.cfg, eps, -eps)
        loss = M.rec_loss(batch, p, out)

        def mlp2(x, prefix):
            v = {k: p[f"{prefix}_{k}"].value for k in ("w1", "b1", "w2", "b2")}
            return np.maximum(x @ v["w1"] + v["b1"], 0.0) @ v["w2"] + v["b2"]

        x_a_hat = mlp2(out.z_A_s.value, "dec_a")
        x_x_hat = mlp2(out.z_X_s.value, "dec_x")
        manual = (np.mean((x_a_hat - batch.topo_rows.toarray()) ** 2)
                  + np.mean((x_x_hat - batch.features) ** 2))
        assert loss.value[0, 0] == pytest.approx(manual, rel=1e-12)

    def test_exclusion_unit_value_example(self):
        # With zero noise, unit stds, mu_X = 0 and each ||mu_A_i||^2 = 4 the
        # symmetrized bound is exactly 1 per node.
        n, d = 5, 4
        cfg = small_cfg(embed_dim=d)
        mu_a = ad.Var(np.ones((n, d)))          # row norm^2 = 4
        mu_x = ad.Var(np.zeros((n, d)))
        loss = M.exc_loss(mu_a, mu_x, mu_a, mu_x, cfg)
        assert loss.value[0, 0] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _sampled(cfg, n, d, seed):
        rng = np.random.default_rng(seed)
        mu_a, mu_x = ad.Var(rng.standard_normal((n, d))), ad.Var(rng.standard_normal((n, d)))
        z_a = M.reparameterize(mu_a, cfg.sigma_enc, rng.standard_normal((n, d)))
        z_x = M.reparameterize(mu_x, cfg.sigma_enc, rng.standard_normal((n, d)))
        return mu_a, mu_x, z_a, z_x

    def test_exclusion_conditional_terms_carry_no_gradient(self):
        n, d = 4, 3
        cfg = small_cfg(embed_dim=d, sigma_enc=0.7, prior_mean=0.3, prior_std=1.3)
        grads = []
        for prior_only in (False, True):
            mu_a, mu_x, z_a, z_x = self._sampled(cfg, n, d, seed=12)
            if prior_only:
                p2 = cfg.prior_std ** 2
                prior = ad.add(M._mean_log_normal(z_a, cfg.prior_mean, p2, d, n),
                               M._mean_log_normal(z_x, cfg.prior_mean, p2, d, n))
                loss = ad.mul(ad.mul(prior, -1.0), 0.5)
            else:
                loss = M.exc_loss(mu_a, mu_x, z_a, z_x, cfg)
            ad.backward(loss)
            grads.append((mu_a.grad.copy(), mu_x.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_exclusion_value_closed_form(self):
        n, d = 5, 4
        cfg = small_cfg(embed_dim=d, sigma_enc=0.7, prior_mean=0.3, prior_std=1.3)
        mu_a, mu_x, z_a, z_x = self._sampled(cfg, n, d, seed=13)
        loss = M.exc_loss(mu_a, mu_x, z_a, z_x, cfg)

        def mean_log_normal(z, mu, var):
            return (-((z - mu) ** 2).sum() / (2 * var * n)
                    - 0.5 * d * math.log(2 * math.pi * var))

        s2, p2, m = cfg.sigma_enc ** 2, cfg.prior_std ** 2, cfg.prior_mean
        expected = 0.5 * sum(mean_log_normal(z.value, mu.value, s2)
                             - mean_log_normal(z.value, m, p2)
                             for z, mu in ((z_a, mu_a), (z_x, mu_x)))
        assert loss.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_total_loss_weighting(self):
        cfg = small_cfg(alpha=0.05, beta=0.8)
        ce = ad.Var([[1.0]])
        rec = ad.Var([[2.0]])
        exc = ad.Var([[3.0]])
        loss = M.total_loss(ce, rec, exc, cfg)
        assert loss.value[0, 0] == pytest.approx(1.0 + 0.05 * 2 + 0.8 * 3, abs=1e-14)

    def test_reparameterize_gradient_is_identity(self):
        mu = ad.Var(np.zeros((2, 3)))
        z = M.reparameterize(mu, 2.0, np.ones((2, 3)))
        assert np.allclose(z.value, 2.0)
        ad.backward(ad.sum_all(z))
        assert np.array_equal(mu.grad, np.ones((2, 3)))
