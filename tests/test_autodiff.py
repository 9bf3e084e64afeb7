import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import dignn.autodiff as ad
import dignn.model as M
from dignn.errors import DimensionError, InvalidLabelError
from dignn.graphdata import build_union_adj


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at matrix x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5))


def _csr_x():
    """A CSR input with an empty row. Its entries are powers of two,
    each column holds one and each row at most two, so its products with any
    w are exact and equal the densified products bit for bit."""
    return sp.csr_matrix(np.array([
        [1.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -2.0, 0.25, 0.0],
    ]))


def _unfused(x, w, b, act, g):
    """The value, and the grads of x, w and b (None for no bias) for upstream
    grad g, of the product, bias and activation chain ``dense`` replaces."""
    z = x @ w if b is None else x @ w + b
    y = {None: z, "relu": np.maximum(z, 0.0), "tanh": np.tanh(z)}[act]
    dz = {None: g, "relu": g * (z > 0.0).astype(np.float64),
          "tanh": g * (1.0 - y * y)}[act]
    return y, dz @ w.T, x.T @ dz, None if b is None else dz.sum(axis=0, keepdims=True)


def _identity_dense(cols, act):
    """``act`` through ``dense`` with an identity weight and a zero bias,
    which leave each value of the product as it was."""
    w, b = ad.Var(np.eye(cols)), ad.Var(np.zeros((1, cols)))
    return lambda x: ad.dense(x, w, b, act)


class TestDense:
    @pytest.mark.parametrize("kind", ["var", "array", "csr"])
    @pytest.mark.parametrize("act, bias", [
        (None, True), ("relu", True), ("tanh", True), (None, False),
    ], ids=["none", "relu", "tanh", "none_no_bias"])
    def test_matches_unfused_chain(self, act, bias, kind):
        rng = np.random.default_rng(4)
        dense_x = _csr_x().toarray() if kind == "csr" else rng.standard_normal((5, 7))
        x = {"var": ad.Var(dense_x), "array": dense_x, "csr": _csr_x()}[kind]
        w, b = ad.Var(rng.standard_normal((7, 3))), ad.Var(rng.standard_normal((1, 3)))
        g = rng.standard_normal((5, 3))  # an upstream grad other than ones
        assert np.abs(dense_x @ w.value + b.value).min() > 1e-3  # relu's kink is far
        b = b if bias else None
        y = ad.dense(x, w, b, act)
        ad.backward(ad.sum_all(ad.mul(y, ad.Var(g))))
        want = _unfused(dense_x, w.value, None if b is None else b.value, act, g)
        assert np.array_equal(y.value, want[0])
        assert np.array_equal(w.grad, want[2])
        if bias:
            assert np.array_equal(b.grad, want[3])
        params = (w, b) if bias else (w,)
        if kind == "var":
            assert y.parents == (x, *params)
            assert np.array_equal(x.grad, want[1])
        else:
            assert y.parents == params  # data gets no grad

        def loss():
            return float((ad.dense(x, w, b, act).value * g).sum())
        for var in y.parents:
            assert rel_err(fd_grad(loss, var.value), var.grad) <= 1e-4

    def test_weight_grad_over_csr_is_an_array_after_backward(self):
        # w is computed, not a leaf, so the walk forms its grad before it
        # passes it on; after the pass both grads are arrays.
        rng = np.random.default_rng(6)
        leaf = ad.Var(rng.standard_normal((7, 3)))
        w = ad.mul(leaf, 2.0)
        g = rng.standard_normal((5, 3))
        ad.backward(ad.sum_all(ad.mul(ad.dense(_csr_x(), w, None), g)))
        want = _csr_x().toarray().T @ g
        assert isinstance(w.grad, np.ndarray) and np.array_equal(w.grad, want)
        assert np.array_equal(leaf.grad, 2.0 * want)

    @pytest.mark.parametrize("x, w, b", [
        (ad.Var(np.ones((2, 3))), (4, 1), (1, 1)),  # x width vs w rows
        (np.ones((2, 3)), (4, 1), (1, 1)),          # the same, ndarray x
        (sp.csr_matrix((2, 3)), (4, 1), (1, 1)),    # the same, CSR x
        (ad.Var(np.ones((2, 3))), (3, 2), (1, 3)),  # bias width
        (ad.Var(np.ones((2, 3))), (3, 2), (2, 2)),  # bias rows
        (ad.Var(np.ones((2, 2))), (3, 1), None),    # x width, no bias
    ], ids=["x_width", "array_x_width", "csr_x_width", "bias_width", "bias_rows",
            "no_bias_x_width"])
    def test_shape_mismatch(self, x, w, b):
        with pytest.raises(DimensionError, match="dense"):
            ad.dense(x, ad.Var(np.ones(w)), None if b is None else ad.Var(np.ones(b)))


@pytest.mark.parametrize("c", [-0.75, np.linspace(-2.0, 2.0, 12).reshape(4, 3)],
                         ids=["float", "array"])
class TestDataOperand:
    """``add`` and ``mul`` with plain data as ``b``, which gets no grad and is
    not a parent: a's value and grad are the plain sum or product's."""

    @staticmethod
    def _run(op, c):
        rng = np.random.default_rng(8)
        a = ad.Var(rng.standard_normal((4, 3)))
        g = rng.standard_normal((4, 3))
        y = op(a, c)
        ad.backward(ad.sum_all(ad.mul(y, g)))  # y's grad is g, bit for bit
        assert y.parents == (a,)
        return a, y, g

    def test_add(self, c):
        a, y, g = self._run(ad.add, c)
        assert np.array_equal(y.value, a.value + c)
        assert np.array_equal(a.grad, g)  # passed through

    def test_mul(self, c):
        a, y, g = self._run(ad.mul, c)
        assert np.array_equal(y.value, a.value * c)
        assert np.array_equal(a.grad, g * c)


def test_mul_by_itself_doubles_the_product_grad():
    # mul(a, a) writes g * a into a's grad twice, and doubling is exact.
    rng = np.random.default_rng(9)
    a = ad.Var(rng.standard_normal((4, 3)))
    g = rng.standard_normal((4, 3))
    y = ad.mul(a, a)
    ad.backward(ad.sum_all(ad.mul(y, g)))
    assert y.parents == (a, a)
    assert np.array_equal(y.value, a.value * a.value)
    assert np.array_equal(a.grad, 2.0 * a.value * g)


class TestElementwise:
    def test_tanh_at_zero(self):
        x = ad.Var([[0.0]])
        y = _identity_dense(1, "tanh")(x)
        ad.backward(ad.sum_all(y))
        assert y.value[0, 0] == 0.0
        assert x.grad[0, 0] == 1.0

    def test_relu_negative(self):
        x = ad.Var([[-2.5]])
        y = _identity_dense(1, "relu")(x)
        ad.backward(ad.sum_all(y))
        assert y.value[0, 0] == 0.0
        assert x.grad[0, 0] == 0.0

    def test_sigmoid_at_zero(self):
        x = ad.Var([[0.0]])
        y = ad.sigmoid(x)
        ad.backward(ad.sum_all(y))
        assert y.value[0, 0] == 0.5
        assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("op, value", [
        (ad.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
    ], ids=["sigmoid"])
    def test_value_and_grad_match_numpy(self, op, value):
        rng = np.random.default_rng(2)
        x_val = rng.uniform(-3.0, 3.0, size=(4, 3))
        w = rng.standard_normal((4, 3))
        x = ad.Var(x_val)
        y = op(x)
        assert np.max(np.abs(y.value - value(x_val))) <= 1e-15
        ad.backward(ad.sum_all(ad.mul(y, ad.Var(w))))
        fd = fd_grad(lambda: float((op(ad.Var(x_val)).value * w).sum()), x_val)
        assert rel_err(fd, x.grad) <= 1e-4

    @pytest.mark.parametrize("act, local", [
        ("tanh", lambda x, y: 1.0 - y * y),
        ("relu", lambda x, y: (x > 0.0).astype(np.float64)),
        ("sigmoid", lambda x, y: y * (1.0 - y)),
    ], ids=["tanh", "relu", "sigmoid"])
    def test_forward_keeps_only_its_value(self, act, local):
        # The local derivative is formed by the backward pass, so a forward
        # (a scoring pass, or a tape before backward) holds only the output;
        # the grad is the upstream grad times that derivative, bit for bit.
        # tanh and relu run through dense, whose identity weight and zero
        # bias keep x's values, and which adds and activates in place.
        rng = np.random.default_rng(3)
        x = ad.Var(rng.uniform(-3.0, 3.0, size=(500, 100)))
        op = ad.sigmoid if act == "sigmoid" else _identity_dense(100, act)
        tracemalloc.start()
        try:
            y = op(x)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 1.1 * y.value.nbytes
        w = rng.standard_normal(x.shape)
        ad.backward(ad.sum_all(ad.mul(y, ad.Var(w))))
        assert np.array_equal(x.grad, w * local(x.value, y.value))


def _fused_alphas(z_a, z_x, q):
    """alpha_A and alpha_X of ``attention_fuse`` on 1-wide embeddings z_a, z_x
    with W = 1, b = 0 and q as given, and the scores q*tanh(z) it forms."""
    p = M.DignnParams.init(2, 2, M.DignnConfig(embed_dim=1, hidden_dim=1), seed=0)
    p["att_w"].value[...] = 1.0
    p["att_b"].value[...] = 0.0
    p["att_q"].value[...] = q
    z_a, z_x = (np.asarray(z, dtype=np.float64).reshape(-1, 1) for z in (z_a, z_x))
    alpha_a, alpha_x, _ = M.attention_fuse(p, ad.Var(z_a), ad.Var(z_x))
    return (alpha_a.value[:, 0], alpha_x.value[:, 0],
            np.tanh(z_a)[:, 0] * q, np.tanh(z_x)[:, 0] * q)


class TestRowSoftmax:
    """The two-way attention softmax, which ``attention_fuse`` forms on the
    tape as alpha_A = sigmoid(s_A - s_X) and alpha_X = 1 - alpha_A."""

    def test_symmetry(self):
        alpha_a, alpha_x, _, _ = _fused_alphas([0.3, -1.2], [0.3, -1.2], 2.0)
        assert np.array_equal(alpha_a, [0.5, 0.5])
        assert np.array_equal(alpha_x, [0.5, 0.5])

    def test_stability_under_large_inputs(self):
        # tanh(20) rounds to 1, so both scores are exactly 1000
        alpha_a, alpha_x, s_a, s_x = _fused_alphas([20.0], [20.0], 1000.0)
        assert s_a[0] == s_x[0] == 1000.0
        assert np.all(np.isfinite(alpha_a)) and np.all(np.isfinite(alpha_x))
        assert np.allclose(alpha_a, 0.5) and np.allclose(alpha_x, 0.5)

    def test_closed_form(self):
        alpha_a, alpha_x, _, _ = _fused_alphas([math.atanh(math.log(3) / 2)], [0.0], 2.0)
        assert alpha_a[0] == pytest.approx(0.75, abs=1e-12)
        assert alpha_x[0] == pytest.approx(0.25, abs=1e-12)

    def test_rows_sum_to_one_for_extreme_entries(self):
        rng = np.random.default_rng(3)
        z_a, z_x = rng.uniform(-25.0, 25.0, size=(2, 30))
        alpha_a, alpha_x, _, _ = _fused_alphas(z_a, z_x, 1e4)
        assert np.all(alpha_a >= 0) and np.all(alpha_x >= 0)
        assert np.max(np.abs(alpha_a + alpha_x - 1.0)) <= 1e-12

    @pytest.mark.parametrize("q", [0.5, 3.0, 40.0, 1e4])
    def test_matches_numpy_two_way_softmax(self, q):
        rng = np.random.default_rng(int(q))
        z_a = np.concatenate([rng.uniform(-4.0, 4.0, 40), [20.0, -20.0, 20.0, 0.0]])
        z_x = np.concatenate([rng.uniform(-4.0, 4.0, 40), [-20.0, 20.0, 20.0, 20.0]])
        alpha_a, alpha_x, s_a, s_x = _fused_alphas(z_a, z_x, q)
        if q == 1e4:  # tanh(+-20) rounds to +-1: the scores reach +-1e4
            assert {1e4, -1e4} <= set(s_a) and {1e4, -1e4} <= set(s_x)
        scores = np.stack([s_a, s_x], axis=1)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        oracle = e / e.sum(axis=1, keepdims=True)
        for alpha in (alpha_a, alpha_x):
            assert np.all(np.isfinite(alpha)) and np.all((alpha >= 0) & (alpha <= 1))
        assert np.max(np.abs(alpha_a - oracle[:, 0])) <= 1e-15
        assert np.max(np.abs(alpha_x - oracle[:, 1])) <= 1e-15


class TestCeWithLogits:
    def test_confident_correct(self):
        loss = ad.ce_with_logits(ad.Var([[40.0, -40.0]]), [0])
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction(self):
        loss = ad.ce_with_logits(ad.Var([[0.0, 0.0]]), [1])
        assert loss.value[0, 0] == pytest.approx(math.log(2), abs=1e-12)

    def test_against_per_sample_oracle(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = [1, 0]
        expected = 0.0
        for row, lab in zip(logits, labels):
            p = np.exp(row) / np.exp(row).sum()
            expected += -math.log(p[lab])
        expected /= 2
        loss = ad.ce_with_logits(ad.Var(logits), labels)
        assert loss.value[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 2))
        labels = [0, 1, 1, 0]
        a = ad.ce_with_logits(ad.Var(z), labels).value[0, 0]
        b = ad.ce_with_logits(ad.Var(z + 7.3), labels).value[0, 0]
        assert abs(a - b) <= 1e-10

    def test_invalid_label(self):
        with pytest.raises(InvalidLabelError):
            ad.ce_with_logits(ad.Var([[0.0, 0.0]]), [2])


class TestMse:
    def test_zero_when_equal(self):
        t = np.array([[1.0, 2.0]])
        assert ad.mse(ad.Var(t), t).value[0, 0] == 0.0

    def test_single_entry(self):
        assert ad.mse(ad.Var([[1.0]]), [[0.0]]).value[0, 0] == 1.0

    def test_mean_over_entries(self):
        assert ad.mse(ad.Var([[1.0, 2.0]]), [[0.0, 0.0]]).value[0, 0] == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.mse(ad.Var(np.ones((2, 2))), np.ones((2, 3)))


def _binary_target(rows, cols, density, seed):
    """A random canonical CSR target of int8 ones, as ``gather_batch`` gives."""
    t = sp.random(rows, cols, density=density, random_state=seed, format="csr")
    return sp.csr_matrix((np.ones(t.nnz, dtype=np.int8), t.indices, t.indptr),
                         shape=t.shape)


def _sparse_targets(rows, cols, seed):
    """Named binary targets covering the cases the closed form must handle."""
    empty_rows = sp.random(rows, cols, density=0.5, random_state=seed + 2,
                           format="lil")
    empty_rows[::2] = 0.0
    empty_rows = sp.csr_matrix(empty_rows)
    empty_rows.data[:] = 1.0
    return {
        "binary": _binary_target(rows, cols, 0.3, seed),
        "float_ones": _binary_target(rows, cols, 0.3, seed + 1).astype(np.float64),
        "empty_rows": empty_rows,
        "all_zero": sp.csr_matrix((rows, cols)),
    }


def joined_leaves(w_val, b_val):
    """Leaves w and b as the first rows and the last row of one (k+1, cols)
    array, the layout ``sparse_target_mse`` reads in place."""
    buf = np.vstack([w_val, b_val])
    return ad.Var(buf[:-1]), ad.Var(buf[-1:])


class TestSparseTargetMse:
    ROWS, K, COLS = 6, 4, 9

    def _leaves(self, seed, cols=None):
        cols = cols or self.COLS
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((self.ROWS, self.K)),
                rng.standard_normal((self.K, cols)),
                rng.standard_normal((1, cols)))

    @staticmethod
    def _run(f, values):
        h_val, w_val, b_val = values
        leaves = [ad.Var(h_val), *joined_leaves(w_val, b_val)]
        loss = f(*leaves)
        ad.backward(ad.mul(loss, 1.7))  # an upstream gradient other than 1
        return [loss.value] + [v.grad for v in leaves]

    @pytest.mark.parametrize("kind", list(_sparse_targets(ROWS, COLS, 3)))
    def test_matches_dense_mse(self, kind):
        target = _sparse_targets(self.ROWS, self.COLS, 3)[kind]
        stored = target.nnz
        values = self._leaves(4)
        got = self._run(lambda h, w, b: ad.sparse_target_mse(h, w, b, target), values)
        assert target.nnz == stored  # the caller's matrix is left as it was
        want = self._run(lambda h, w, b: ad.mse(ad.dense(h, w, b), target.toarray()),
                         values)
        for g, d in zip(got, want):
            assert np.max(np.abs(g - d)) <= 1e-12 * np.max(np.abs(d))

    @pytest.mark.parametrize("kind", ["weighted", "duplicates", "unsorted"])
    def test_rejects_a_target_other_than_canonical_ones(self, kind):
        # The op reads the target in place and takes ||A||^2 as its entry
        # count, so a weighted target, or one that stores an entry twice or
        # out of order, raises rather than giving a wrong loss.
        data, indices = {
            "weighted": ([0.7, 0.4, -1.2, 2.0], [0, 1, 4, 0]),
            "duplicates": ([1.0] * 4, [1, 1, 4, 0]),  # entry (0, 1) stored twice
            "unsorted": ([1.0] * 4, [4, 1, 0, 0]),
        }[kind]
        indptr = np.array([0, 3, 3] + [4] * (self.ROWS - 2))
        target = sp.csr_matrix((np.array(data), np.array(indices), indptr),
                               shape=(self.ROWS, self.COLS))
        stored = [a.copy() for a in (target.data, target.indices, target.indptr)]
        h_val, w_val, b_val = self._leaves(4)
        with pytest.raises(DimensionError, match="canonical CSR matrix of ones"):
            ad.sparse_target_mse(ad.Var(h_val), *joined_leaves(w_val, b_val), target)
        for now, before in zip((target.data, target.indices, target.indptr), stored):
            assert np.array_equal(now, before)  # the caller's matrix is left as it was

    def test_matches_finite_differences(self):
        for cols in (self.COLS, 130):  # 130: the product runs as two column halves
            target = _sparse_targets(self.ROWS, cols, 5)["binary"]
            h_val, w_val, b_val = self._leaves(6, cols)
            leaves = [ad.Var(h_val), *joined_leaves(w_val, b_val)]
            ad.backward(ad.sparse_target_mse(*leaves, target))
            for var in leaves:
                fd = fd_grad(lambda: float(ad.sparse_target_mse(*leaves, target).value[0, 0]),
                             var.value)
                assert rel_err(fd, var.grad) <= 1e-4

    def test_grads_are_joined_too(self):
        target = _sparse_targets(self.ROWS, self.COLS, 5)["binary"]
        h_val, w_val, b_val = self._leaves(7)
        w, b = joined_leaves(w_val, b_val)
        ad.backward(ad.sparse_target_mse(ad.Var(h_val), w, b, target))
        assert ad._joined_rows(w.grad, b.grad).shape == (self.K + 1, self.COLS)

    @pytest.mark.parametrize("k", [64, 5])
    @pytest.mark.parametrize("cols", [45_954, 11_944, 129, 128, 127, 100])
    @pytest.mark.parametrize("thread", ["started", "refused"])
    def test_halves_match_one_call(self, thread, cols, k, monkeypatch):
        # The op splits its products over two threads; the oracle makes each
        # in one call, as the op did before it split them.
        rows = 64
        rng = np.random.default_rng(cols + k)
        target = _binary_target(rows, cols, min(10 / cols, 0.3), k)
        h_val = rng.standard_normal((rows, k))
        w1 = rng.standard_normal((k + 1, cols))
        starts, real_start = [], threading.Thread.start

        def start(t):
            starts.append(t.name)
            if thread == "refused":
                raise RuntimeError("can't start new thread")
            real_start(t)

        h, (w, b) = ad.Var(h_val), joined_leaves(w1[:k], w1[k:])
        with monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", start)
            loss = ad.sparse_target_mse(h, w, b, target)
            ad.backward(loss)
        assert len(starts) == 2  # the forward's split and the backward's

        used, col_of = ad._compact_columns(target.indices, cols)
        a_used = sp.csr_matrix((target.data, col_of, target.indptr),
                               shape=(rows, used.size))
        h1 = np.hstack([h_val, np.ones((rows, 1))])
        w1w1, aw1, gram = w1 @ w1.T, a_used @ w1[:, used].T, h1.T @ h1
        n = rows * cols
        want = (float((gram * w1w1).sum()) - 2.0 * float((h1 * aw1).sum())
                + float((target.data * target.data).sum())) / n
        c = 2.0 / n
        dw1 = (c * gram) @ w1
        h1ta = (a_used.T @ h1).T
        h1ta *= c
        for row, sub in zip(dw1, h1ta):
            row[used] -= sub
        assert loss.value[0, 0] == want
        assert np.array_equal(h.grad, c * (h1 @ w1w1 - aw1)[:, :k])
        assert np.array_equal(w.grad, dw1[:k]) and np.array_equal(b.grad, dw1[k:])

    @pytest.mark.parametrize("shapes", [
        ((6, 4), (3, 9), (1, 9), (6, 9)),   # h width vs w rows
        ((6, 4), (4, 9), (1, 8), (6, 9)),   # bias width
        ((6, 4), (4, 9), (2, 9), (6, 9)),   # bias rows
        ((6, 4), (4, 9), (1, 9), (5, 9)),   # target rows
        ((6, 4), (4, 9), (1, 9), (6, 8)),   # target cols
    ])
    def test_shape_mismatch(self, shapes):
        h, w, b, t = shapes
        with pytest.raises(DimensionError):
            ad.sparse_target_mse(ad.Var(np.ones(h)), ad.Var(np.ones(w)),
                                 ad.Var(np.ones(b)), sp.csr_matrix(t))

    @pytest.mark.parametrize("layout", ["separate", "bias_first", "gap", "other_buffers"])
    def test_weights_not_joined(self, layout):
        k, cols = self.K, self.COLS
        buf, wide = np.ones((k + 1, cols)), np.ones((k + 2, cols))
        w, b = {
            "separate": lambda: (np.ones((k, cols)), np.ones((1, cols))),
            "bias_first": lambda: (buf[1:], buf[:1]),
            "gap": lambda: (wide[:k], wide[k + 1:]),
            "other_buffers": lambda: (buf[:k], np.ones((k + 1, cols))[k:]),
        }[layout]()
        with pytest.raises(DimensionError, match="one C-contiguous array"):
            ad.sparse_target_mse(ad.Var(np.ones((self.ROWS, k))), ad.Var(w), ad.Var(b),
                                 sp.csr_matrix((self.ROWS, cols)))

    PEAK_ROWS, PEAK_K, PEAK_COLS = 256, 16, 20_000

    def _traced_bytes(self, row_nnz=10):
        """Traced bytes kept after one forward, and the traced peak of it plus
        its backward, leaves excluded, for a target of int8 ones with
        ``row_nnz`` entries per row."""
        rows, k, cols = self.PEAK_ROWS, self.PEAK_K, self.PEAK_COLS
        rng = np.random.default_rng(0)
        target = _binary_target(rows, cols, row_nnz / cols, 0)
        h = ad.Var(rng.standard_normal((rows, k)))
        w, b = joined_leaves(rng.standard_normal((k, cols)),
                             rng.standard_normal((1, cols)))
        tracemalloc.start()
        try:
            loss = ad.sparse_target_mse(h, w, b, target)
            kept, _ = tracemalloc.get_traced_memory()
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept, peak

    def test_never_allocates_dense_output(self):
        assert self._traced_bytes()[1] < 0.5 * self.PEAK_ROWS * self.PEAK_COLS * 8

    def test_peak_is_a_few_augmented_weight_copies(self):
        # The augmented weights [w; b] and their gradient are one (k+1, cols)
        # array each; nothing else of that size may be live at once.
        unit = (self.PEAK_K + 1) * self.PEAK_COLS * 8
        assert self._traced_bytes()[1] <= 2.5 * unit

    def test_weights_are_read_in_place(self):
        # [w; b] is read where it lies, so the gradient is the only (k+1, cols)
        # array the op allocates. The used-column gather and h1^T A are
        # arrays of about 0.13 of one each here (1.19 in all).
        unit = (self.PEAK_K + 1) * self.PEAK_COLS * 8
        assert self._traced_bytes()[1] <= 1.5 * unit

    def test_used_column_scatter_holds_two_temporaries(self):
        # 180 entries per row use about 90% of the columns. Beside the
        # gradient (one unit), the backward holds h1^T A, scaled in place:
        # about 0.9 of a unit (2.25 in all). The scatter subtracts it one row
        # at a time; dw1[:, used] -= h1ta would gather a copy of another 0.9
        # (3.1), and a scaled copy of h1^T A would add 0.9 more.
        unit = (self.PEAK_K + 1) * self.PEAK_COLS * 8
        assert self._traced_bytes(180)[1] <= 2.5 * unit

    def test_forward_keeps_no_copy_of_its_target(self):
        # After the forward the op holds h1 and A W1^T, W1 W1^T and h1^T h1,
        # and the used columns (at most 8 bytes a column) with each entry's
        # int32 position among them, beside the target's own arrays. A float64
        # copy of the target would add 12 bytes an entry, an int64 map 4 more.
        rows, k, cols, row_nnz = self.PEAK_ROWS, self.PEAK_K, self.PEAK_COLS, 180
        bound = (2 * rows * (k + 1) * 8 + 2 * (k + 1) ** 2 * 8
                 + 4 * rows * row_nnz + 8 * cols + 2 ** 16)
        assert self._traced_bytes(row_nnz)[0] <= bound


def _compaction_targets():
    """Column index arrays of CSR targets, each with the columns count."""
    rng = np.random.default_rng(12)
    empty_rows = sp.random(8, 30, density=0.2, random_state=1, format="lil")
    empty_rows[::2] = 0.0
    return {
        "empty_rows": (sp.csr_matrix(empty_rows).indices, 30),
        "no_entries": (np.array([], dtype=np.int32), 30),
        "one_column": (np.full(7, 4, dtype=np.int32), 9),
        "only_column": (np.zeros(5, dtype=np.int32), 1),
        "every_column": (rng.permutation(np.repeat(np.arange(25, dtype=np.int32), 3)), 25),
        "last_column": (np.array([24, 0, 24], dtype=np.int32), 25),
        "duplicates": (np.array([1, 1, 4, 0, 4, 4], dtype=np.int32), 9),
    }


@pytest.mark.parametrize("kind", list(_compaction_targets()))
def test_compact_columns_matches_unique(kind):
    indices, cols = _compaction_targets()[kind]
    used, col_of = ad._compact_columns(indices, cols)
    want_used, want_col_of = np.unique(indices, return_inverse=True)
    assert np.array_equal(used, want_used)
    assert np.array_equal(col_of, want_col_of)
    assert col_of.dtype == indices.dtype
    assert np.array_equal(used[col_of], indices)


class TestBackward:
    def test_tanh_at_zero_grad_ones(self):
        x = ad.Var(np.zeros((3, 2)))
        ad.backward(ad.sum_all(_identity_dense(2, "tanh")(x)))
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_unused_parameter_gets_zero_grad(self):
        # A grad is allocated by its first write; None reads as zero.
        x = ad.Var(np.ones((2, 2)))
        unused = ad.Var(np.ones((2, 2)))
        ad.backward(ad.sum_all(x))
        assert unused.grad is None

    def test_shared_upstream_grad_is_not_aliased(self):
        # Both operands of one add receive the add's incoming grad unchanged,
        # so a, b and s may hold one array; a receives a second contribution
        # through mul(a, a). A contribution added into a grad in place would
        # leak into every Var that shares its array, so no grad array may be
        # written once assigned, not even by a second pass.
        rng = np.random.default_rng(3)
        a_val, b_val = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))

        def build(a_v, b_v):
            a, b = ad.Var(a_v), ad.Var(b_v)
            s = ad.add(a, b)
            return ad.sum_all(ad.add(ad.sigmoid(s), ad.mul(a, a))), a, b, s

        loss, a, b, s = build(a_val, b_val)
        ad.backward(loss)
        kept = [(v.grad, v.grad.copy()) for v in (a, b, s)]
        for var, val in ((a, a_val), (b, b_val)):
            fd = fd_grad(lambda: float(build(a_val, b_val)[0].value[0, 0]), val)
            assert rel_err(fd, var.grad) <= 1e-4
        ad.backward(loss)
        for grad, copy in kept:
            assert np.array_equal(grad, copy)

    def test_accumulation_without_zeroing(self):
        x = ad.Var(np.zeros((2, 2)))
        ad.backward(ad.sum_all(ad.sigmoid(x)))
        first = x.grad.copy()
        ad.backward(ad.sum_all(ad.sigmoid(x)))
        assert np.array_equal(x.grad, 2 * first)

    def test_rejects_non_scalar(self):
        with pytest.raises(DimensionError):
            ad.backward(ad.Var(np.ones((2, 2))))

    def test_deterministic_loss(self):
        def run():
            rng = np.random.default_rng(11)
            x = ad.Var(rng.standard_normal((4, 3)))
            w = ad.Var(rng.standard_normal((3, 2)))
            return ad.ce_with_logits(ad.dense(ad.sigmoid(x), w, None),
                                     [0, 1, 0, 1]).value[0, 0]

        assert run() == run()


@pytest.mark.parametrize("seed", range(5))
def test_all_ops_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, k, m = rng.integers(2, 8, size=3)
    labels = rng.integers(0, 2, size=int(n)).tolist()
    target = rng.standard_normal((n, m))
    s = sp.random(int(n), int(k), density=0.4, random_state=int(seed), format="csr")

    def build(a_val, b_val):
        a = ad.Var(a_val)
        b = ad.Var(b_val)
        h = ad.dense(a, b, ad.Var(rng_bias), "tanh")     # (n, m)
        h = ad.add(h, ad.dense(s, b, ad.Var(rng_bias), "relu"))
        sg = ad.sigmoid(h)
        one_minus = ad.add(ad.mul(sg, -1.0), 1.0)
        ce = ad.ce_with_logits(ad.dense(ad.mul(sg, one_minus), ad.Var(proj), None), labels)
        return ad.add(ad.add(ce, ad.mse(h, target)),
                      ad.mul(ad.sum_all(ad.mul(one_minus, one_minus)), 0.1)), a, b

    a_val = rng.standard_normal((n, k))
    b_val = rng.standard_normal((k, m))
    rng_bias = rng.standard_normal((1, m))
    proj = rng.standard_normal((m, 2))
    loss, a, b = build(a_val, b_val)
    ad.backward(loss)
    for var, val in ((a, a_val), (b, b_val)):
        fd = fd_grad(lambda: float(build(val, b_val)[0].value[0, 0])
                     if var is a else float(build(a_val, val)[0].value[0, 0]),
                     val)
        assert rel_err(fd, var.grad) <= 1e-4


def injected_loss(*pairs):
    """A loss whose backward hands each Var p of the (p, g) pairs exactly g:
    ``sum_all`` gives ``mul(p, g)`` a grad of ones, and 1.0 * g is g."""
    loss = None
    for p, g in pairs:
        term = ad.sum_all(ad.mul(p, g))
        loss = term if loss is None else ad.add(loss, term)
    return loss


class TestAdam:
    def test_first_step_delta(self):
        p = ad.Var([[0.0]])
        opt = ad.Adam({"p": p}, lr=0.001, weight_decay=0.0)
        opt.step(injected_loss((p, np.ones((1, 1)))))
        assert p.value[0, 0] == pytest.approx(-0.001, rel=1e-6)
        assert opt.t == 1

    def test_zero_gradient_leaves_parameter(self):
        p = ad.Var([[1.5]])
        opt = ad.Adam({"p": p}, lr=0.001, weight_decay=0.0)
        opt.step(injected_loss((p, np.zeros((1, 1)))))
        assert p.value[0, 0] == 1.5

    def test_none_grad_skips_tensor(self):
        rng = np.random.default_rng(5)
        p = ad.Var(rng.standard_normal((3, 4)))
        q = ad.Var(rng.standard_normal((1, 4)))
        opt = ad.Adam({"p": p, "q": q}, lr=0.01, weight_decay=0.5)
        # Nonzero moments, so a skipped update would show.
        opt.step(injected_loss((p, rng.standard_normal((3, 4))),
                               (q, rng.standard_normal((1, 4)))))
        opt.zero_grad()
        assert p.grad is None and q.grad is None
        loss = injected_loss((q, rng.standard_normal((1, 4))))  # p is not reached
        before = [a.copy() for a in (p.value, opt.m["p"], opt.v["p"])]
        opt.step(loss)
        for a, b in zip(before, (p.value, opt.m["p"], opt.v["p"])):
            assert np.array_equal(a, b)
        assert p.grad is None and opt.t == 2

    def test_bias_correction_shrinks_step(self):
        p = ad.Var([[0.0]])
        opt = ad.Adam({"p": p}, lr=0.001, weight_decay=0.0)
        before = p.value[0, 0]
        opt.step(injected_loss((p, np.full((1, 1), 0.7))))
        d1 = abs(p.value[0, 0] - before)
        before = p.value[0, 0]
        opt.step(injected_loss((p, np.full((1, 1), 0.7))))
        d2 = abs(p.value[0, 0] - before)
        assert d2 <= d1 * (1 + 1e-6)

    def test_weight_decay_skips_no_decay(self):
        w = ad.Var([[1.0]])
        b = ad.Var([[1.0]])
        opt = ad.Adam({"w": w, "b": b}, lr=0.001, weight_decay=0.5, no_decay={"b"})
        opt.step(injected_loss((w, np.zeros((1, 1))), (b, np.zeros((1, 1)))))
        assert w.value[0, 0] != 1.0  # decay acted as a gradient on w
        assert b.value[0, 0] == 1.0

    @staticmethod
    def _unfused_step(opt):
        """The un-fused update the blocked ``Adam.step`` must reproduce bit
        for bit: full-size temporaries, the same operation order, and a
        tensor whose grad is None skipped."""
        opt.t += 1
        b1, b2 = opt.beta1, opt.beta2
        for name, p in opt.params.items():
            g = p.grad
            if g is None:
                continue
            if opt.weight_decay and name not in opt.no_decay:
                g = g + opt.weight_decay * p.value
            m = opt.m[name]
            v = opt.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** opt.t)
            vhat = v / (1.0 - b2 ** opt.t)
            p.value -= opt.lr * mhat / (np.sqrt(vhat) + opt.eps)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_matches_unfused_oracle(self, weight_decay):
        c = ad.ADAM_CHUNK
        shapes = {"one": (1, 1), "below": (7, 9), "chunk": (1, c),
                  "ragged": (3, c // 2 + 5), "bias": (1, c + 1)}
        rng = np.random.default_rng(11)
        init = {n: rng.standard_normal(s) for n, s in shapes.items()}
        grads = [{n: rng.standard_normal(s) for n, s in shapes.items()}
                 for _ in range(20)]
        runs = []
        for fused in (True, False):
            params = {n: ad.Var(v.copy()) for n, v in init.items()}
            opt = ad.Adam(params, lr=0.01, weight_decay=weight_decay,
                          no_decay={"bias"})
            for g in grads:
                if fused:
                    opt.step(injected_loss(*((p, g[n]) for n, p in params.items())))
                else:
                    for n, p in params.items():
                        p.grad = g[n]
                    self._unfused_step(opt)
            runs.append(opt)
        got, want = runs
        for n in shapes:
            assert np.array_equal(got.params[n].value, want.params[n].value), n
            assert np.array_equal(got.m[n], want.m[n]), n
            assert np.array_equal(got.v[n], want.v[n]), n

    @staticmethod
    def _shared_leaf_loss(t, x, labels):
        """A two-view classifier loss over the tensors ``t``. Like the
        attention weight of both views, ``att`` has two consumers, and so
        does the bias ``b``; ``h_a`` has four (``mul(h_a, h_a)`` reads it
        twice). ``unused`` is not reached."""
        h_a = ad.dense(x, t["w_a"], t["b"], "tanh")
        h_x = ad.dense(x, t["w_x"], t["b"], "relu")
        fused = ad.add(ad.mul(h_a, ad.sigmoid(ad.dense(h_a, t["att"], None))),
                       ad.mul(h_x, ad.sigmoid(ad.dense(h_x, t["att"], None))))
        ce = ad.ce_with_logits(ad.dense(fused, t["w_out"], t["b_out"]), labels)
        return ad.add(ce, ad.mul(ad.sum_all(ad.mul(h_a, h_a)), 0.01))

    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_step_matches_backward_then_unfused_oracle(self, weight_decay):
        rng = np.random.default_rng(13)
        shapes = {"w_a": (4, 5), "w_x": (4, 5), "b": (1, 5), "att": (5, 1),
                  "w_out": (5, 2), "b_out": (1, 2), "unused": (3, 3)}
        init = {n: rng.standard_normal(s) for n, s in shapes.items()}
        x = rng.standard_normal((6, 4))
        labels = [0, 1, 1, 0, 1, 0]
        runs = []
        for fused in (True, False):
            t = {n: ad.Var(v.copy()) for n, v in init.items()}
            opt = ad.Adam(t, lr=0.05, weight_decay=weight_decay,
                          no_decay={"b", "b_out"})
            for _ in range(5):
                loss = self._shared_leaf_loss(t, x, labels)
                if fused:
                    opt.step(loss)
                    for n, v in t.items():
                        assert v.grad is None, n
                else:
                    opt.zero_grad()
                    ad.backward(loss)
                    self._unfused_step(opt)
            runs.append(opt)
        got, want = runs
        for n in shapes:
            assert np.array_equal(got.params[n].value, want.params[n].value), n
            assert np.array_equal(got.m[n], want.m[n]), n
            assert np.array_equal(got.v[n], want.v[n]), n
        assert not np.array_equal(got.params["att"].value, init["att"])
        assert np.array_equal(got.params["unused"].value, init["unused"])
        assert not got.m["unused"].any() and not got.v["unused"].any()

    @staticmethod
    def _union_rows(n, kind, rng):
        """64 rows of a random union adjacency over n nodes: in ascending or
        in drawn (permuted) id order, over the first half of the nodes only
        (so the later columns, whole chunks of a wide w, are unused), or
        with no entry at all."""
        if kind == "empty":
            return sp.csr_matrix((64, n), dtype=np.int8)
        nodes = max(n // 2, 2) if kind == "unused_columns" else n
        pairs = rng.integers(nodes, size=(3 * n, 2))
        ids = rng.integers(nodes, size=64)
        return build_union_adj([pairs], n, len(pairs))[ids if kind == "permuted" else np.sort(ids)]

    @pytest.mark.parametrize("kind", ["sorted", "permuted", "unused_columns", "empty",
                                      "preset_grad"])
    @pytest.mark.parametrize("shape", [(30_000, 5), (3_000, 48), (2_100, 64), (3, 70_000)],
                             ids=["width_5", "width_48", "width_64", "rows_wider_than_a_chunk"])
    def test_dense_weight_grad_by_chunks_matches_the_formed_product(self, shape, kind):
        # Adam forms a dense weight's grad over CSR data a chunk at a time;
        # the oracle is fed the whole product x^T g, formed as x.T @ g, and
        # any grad set before the step added to it. Widths 5 and 48 put the
        # chunk boundaries and the split mid-row; a 70,000-wide row spans
        # more than a chunk.
        rng = np.random.default_rng(23)
        init = rng.standard_normal(shape)
        steps = []
        for _ in range(3):
            x = self._union_rows(shape[0], kind, rng)
            g = rng.standard_normal((x.shape[0], shape[1]))
            preset = rng.standard_normal(shape) if kind == "preset_grad" else None
            steps.append((x, g, preset))
        runs = []
        for by_chunks in (True, False):
            w = ad.Var(init.copy())
            opt = ad.Adam({"w": w}, lr=0.01, weight_decay=0.0005)
            for x, g, preset in steps:
                w.grad = preset
                if by_chunks:
                    opt.step(injected_loss((ad.dense(x, w, None), g)))
                    assert w.grad is None
                else:
                    formed = np.asarray(x.T @ g)
                    w.grad = formed if preset is None else preset + formed
                    self._unfused_step(opt)
            runs.append(opt)
        got, want = runs
        assert np.array_equal(got.params["w"].value, want.params["w"].value)
        assert np.array_equal(got.m["w"], want.m["w"])
        assert np.array_equal(got.v["w"], want.v["w"])
        assert not np.array_equal(got.params["w"].value, init)

    def test_step_forms_no_whole_dense_weight_grad(self):
        # The topology encoder's first layer at a small N: its grad over a
        # batch of union rows is formed a chunk at a time as Adam updates it.
        # Formed whole, it alone would be w's size.
        rng = np.random.default_rng(0)
        pairs = rng.integers(20_000, size=(100_000, 2))
        x = build_union_adj([pairs], 20_000, len(pairs))[rng.choice(20_000, 256, replace=False)]
        assert x.nnz == 2_564
        w = ad.Var(rng.standard_normal((20_000, 64)))
        opt = ad.Adam({"w": w}, lr=0.001, weight_decay=0.0005)
        loss = ad.sum_all(ad.dense(x, w, None))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            opt.step(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < w.value.nbytes / 4

    def test_applies_each_grad_as_soon_as_it_is_final(self, monkeypatch):
        # The walk reaches w_top's only consumer first. w_top is a leaf found
        # early in the depth-first order, so a plain post-order would put it
        # last, and an update there would hold both grads at once; pushed
        # before its consumer's other parents, it comes right after that
        # consumer.
        rng = np.random.default_rng(17)
        t = {"w_deep": ad.Var(rng.standard_normal((4, 5))),
             "w_top": ad.Var(rng.standard_normal((5, 2)))}
        opt = ad.Adam(t, lr=0.01, weight_decay=0.0)
        held, apply = [], ad.Adam._apply

        def spy(self, name, p):
            held.append((name, [n for n, v in t.items() if v.grad is not None]))
            apply(self, name, p)

        monkeypatch.setattr(ad.Adam, "_apply", spy)
        x = rng.standard_normal((3, 4))
        opt.step(ad.sum_all(ad.dense(ad.dense(x, t["w_deep"], None, "tanh"),
                                     t["w_top"], None)))
        assert held == [("w_top", ["w_top"]), ("w_deep", ["w_deep"])]

    def test_step_allocates_no_full_size_temporary(self):
        # p is split, and a second thread updates its second half.
        rng = np.random.default_rng(0)
        p = ad.Var(rng.standard_normal((2_000_000 // 64, 64)))
        loss = injected_loss((p, rng.standard_normal(p.shape)))
        opt = ad.Adam({"p": p}, lr=0.001, weight_decay=0.0005)
        tracemalloc.start()
        try:
            opt.step(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The loss's own backward makes two full-size arrays, both alive while
        # p is updated: the grad of ones that sum_all hands mul, and p's grad.
        # The update itself stays under an eighth of p.
        assert peak - 2 * p.value.nbytes < p.value.nbytes / 8
