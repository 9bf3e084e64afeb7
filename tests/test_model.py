import math
import os
import struct
import threading
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
    # int8 ones, as gather_batch gives
    topo = sp.csr_matrix((np.ones(topo.nnz, dtype=np.int8), topo.indices, topo.indptr),
                         shape=topo.shape)
    return BatchSubgraph(
        node_ids=np.arange(b),
        features=rng.standard_normal((b, d_in)),
        topo_rows=topo,
        labels=rng.integers(0, 2, b).astype(np.int8),
    )


BIASES = {"enc_a_b1", "enc_a_b2", "enc_x_b1", "enc_x_b2", "att_b", "clf_b",
          "dec_a_b1", "dec_a_b2", "dec_x_b1", "dec_x_b2"}
# The tensors that forward reads, and so all that load keeps.
SCORING = ["enc_a_w1", "enc_a_b1", "enc_a_w2", "enc_a_b2", "enc_x_w1", "enc_x_b1",
           "enc_x_w2", "enc_x_b2", "att_w", "att_b", "att_q", "clf_w", "clf_b"]

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
        assert list(q.tensors) == SCORING
        for name in SCORING:
            assert np.array_equal(q[name].value, p[name].value)
        assert (q.n_nodes, q.feat_dim) == (6, 4)
        with open(path, "rb") as fh:
            assert fh.read(31)[30] == 1  # the header's flag byte

    def test_save_refuses_a_loaded_model(self, tmp_path):
        # A loaded model holds only the scoring tensors, and a file of those
        # alone is one that load refuses, so save raises before it opens one.
        path = tmp_path / "m.bin"
        DignnParams.init(6, 4, small_cfg(), seed=1).save(str(path))
        with pytest.raises(ValueError, match="a loaded model holds no decoders to save"):
            DignnParams.load(str(path)).save(str(tmp_path / "again.bin"))
        assert not (tmp_path / "again.bin").exists()

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
        with pytest.raises(GraphLoadError, match="truncated model file"):
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

    def test_init_allocates_only_the_tensors(self):
        cfg = DignnConfig()
        tracemalloc.start()
        try:
            DignnParams.init(20_000, 8, cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * DignnParams.nbytes(20_000, 8, cfg)

    def test_load_allocates_only_the_scoring_tensors(self, tmp_path):
        # The topology decoder's output layer is as large as the encoder's
        # first layer (20,000 x 64), so holding it would double the peak. The
        # rest is the file's read buffer and small objects, about 11 KB.
        cfg = DignnConfig()
        path = str(tmp_path / "m.bin")
        DignnParams.init(20_000, 8, cfg, seed=0).save(path)
        tracemalloc.start()
        try:
            DignnParams.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(8 * r * c for name, (r, c) in DignnParams.shape_spec(20_000, 8, cfg)
                   if name in SCORING)
        assert kept <= peak <= kept + 2 ** 16

    def test_load_never_reads_a_file_moved_over_the_checked_one(self, tmp_path,
                                                                monkeypatch):
        path, other = str(tmp_path / "m.bin"), str(tmp_path / "other.bin")
        cfg = DignnConfig()
        checked = DignnParams.init(2000, 8, cfg, seed=1)
        checked.save(path)
        DignnParams.init(2000, 8, cfg, seed=2).save(other)
        fromfile = np.fromfile
        replaced = []

        def replace_then_read(fh, *args):  # after the file's and enc_a_w1's headers
            if not replaced:
                replaced.append(fh.tell())
                os.replace(other, path)
            return fromfile(fh, *args)

        monkeypatch.setattr(np, "fromfile", replace_then_read)
        loaded = DignnParams.load(path)
        assert replaced == [51]  # enc_a_w1's first value
        for name in SCORING:
            assert np.array_equal(loaded[name].value, checked[name].value), name

    def test_header_cut_short_after_the_size_check_is_truncation(self, tmp_path,
                                                                 monkeypatch):
        # The file shrinks once its size was checked: enc_a_w1 is read whole,
        # and enc_a_b1's header, 3 bytes of it left, is a truncation.
        path = tmp_path / "m.bin"
        DignnParams.init(6, 4, small_cfg(), seed=1).save(str(path))
        fromfile = np.fromfile
        cut = []

        def cut_then_read(fh, dtype, count):
            if not cut:
                cut.append(fh.tell() + 8 * count + 3)
                os.truncate(path, cut[0])
            return fromfile(fh, dtype, count)

        monkeypatch.setattr(np, "fromfile", cut_then_read)
        with pytest.raises(GraphLoadError, match=f"truncated model file: {path}"):
            DignnParams.load(str(path))
        assert cut == [51 + 8 * 6 * 5 + 3]  # enc_a_w1 is (6, hidden_dim 5)

    def test_loaded_model_scores_as_the_saved_one(self, tmp_path):
        cfg = DignnConfig()
        p = DignnParams.init(300, 4, cfg, seed=6)
        path = str(tmp_path / "m.bin")
        p.save(path)
        q = DignnParams.load(path)
        batch = make_batch(n_nodes=300, b=40, d_in=4, seed=6)
        for got, want in zip(M.predict(q, batch, cfg), M.predict(p, batch, cfg)):
            assert np.array_equal(got, want)
        assert np.array_equal(M.forward(q, batch, cfg).z.value,
                              M.forward(p, batch, cfg).z.value)

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
    """``init`` fills the tensors as two runs, the second on a thread of its
    own."""

    @pytest.mark.parametrize("skip", [*range(8), 2 ** 20 + 3])
    def test_skipped_generator_continues_the_stream(self, skip):
        drawn = generator(7).random(skip + 9)
        assert np.array_equal(generator(7, skip).random(9), drawn[skip:])

    def test_runs_split_at_the_decoder_output_layer_at_yelpchi_scale(self, monkeypatch):
        # The topology encoder and the small tensors (2.95 M values) against
        # the decoder's output layer and the rest (2.99 M). The runs are
        # recorded, not run, so the tensors stay unfilled.
        runs = []
        monkeypatch.setattr(M.threads, "run_in_two",
                            lambda first, second: runs.append((first.args, second.args)))
        p = DignnParams.init(45_954, 32, DignnConfig(), seed=0)
        assert runs == [((0, 15), (15, 21))]
        assert list(p.tensors)[15] == "dec_a_w2"

    def test_without_a_thread_the_caller_fills_both_runs(self, monkeypatch):
        # init's second run falls back to the calling thread, with the same values.
        cfg = DignnConfig()
        threaded = DignnParams.init(2000, 8, cfg, seed=4)
        started = []

        def refuse(thread):
            started.append(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        p = DignnParams.init(2000, 8, cfg, seed=4)
        for name, var in threaded.tensors.items():
            assert np.array_equal(p[name].value, var.value), name
        assert len(started) == 1


class TestJoinedDecoderLayer:
    def test_after_init(self):
        assert_decoder_layer_joined(DignnParams.init(6, 4, small_cfg(), seed=1))

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
