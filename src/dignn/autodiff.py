"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D numpy array (scalars are 1x1). The graph is rebuilt on
every forward pass (define-by-run): each op returns a new Var that remembers
its parents and a closure that pushes the incoming gradient back to them.
Data never enters the tape: it reaches an op only as a plain array (a
float64 ndarray or a scipy CSR matrix) or a float, which gets no grad and is
no parent. That is ``dense``'s ``x``, ``add``'s and ``mul``'s ``b``, the
targets of ``mse`` and ``sparse_target_mse`` and ``ce_with_logits``' labels.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import threads
from .errors import DimensionError, InvalidLabelError


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got shape {a.shape}")
    return np.ascontiguousarray(a)


class Var:
    """A node in the computation graph: value, gradient (``None`` until a
    backward pass writes it; see ``backward``), parent links, and the
    closure that pushes its grad to its parents, which each op passes to
    the constructor (a leaf has none)."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = _as_matrix(value)
        self.grad = None
        self.parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, leaf={not self.parents})"


class _RowProduct:
    """x^T g for a CSR x, kept as its factors: ``dense``'s weight grad over
    data. It holds xt = x^T as CSR (cols, rows) and g (rows, width), and
    forms a range of its rows only when asked, into an array the caller
    gives, so a reader that walks it in chunks (``Adam``) never holds the
    whole (cols, width) array. A range is formed by scipy's own kernel
    behind ``csr @ ndarray``, ``csr_matvecs``, on that range's entries:
    rows start at 0 and add x's rows in ascending order (as xt lists them),
    as ``x.T @ g`` does, so every formed value has its bits."""

    __slots__ = ("xt", "g", "shape")

    def __init__(self, x: sp.csr_matrix, g: np.ndarray):
        self.xt = x.T.tocsr()
        self.g = np.ascontiguousarray(g)
        self.shape = (x.shape[1], g.shape[1])

    def rows_into(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """Rows [r0, r1) of x^T g into ``out``, a flat float64 array of
        (r1 - r0) * width values, returned. The kernel checks no size, and
        it would fill a copy of an array that is not C-contiguous."""
        if out.shape != ((r1 - r0) * self.shape[1],) or not out.flags.c_contiguous:
            raise DimensionError(f"rows [{r0}, {r1}) of {self.shape} into {out.shape}")
        indptr = self.xt.indptr
        a, b = indptr[r0], indptr[r1]
        out.fill(0.0)
        _sparsetools.csr_matvecs(r1 - r0, self.g.shape[0], self.shape[1], indptr[r0:r1 + 1] - a,
                                 self.xt.indices[a:b], self.xt.data[a:b], self.g.reshape(-1),
                                 out)
        return out

    def values(self, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        """The flat values [lo, hi) of x^T g, from the rows that hold them,
        formed into the front of the flat array ``buf``: at most
        (hi - lo) // width + 2 rows."""
        width = self.shape[1]
        r0, r1 = lo // width, -(-hi // width)
        rows = self.rows_into(r0, r1, buf[:(r1 - r0) * width])
        return rows[lo - r0 * width:hi - r0 * width]


def _formed(d):
    """``d`` as an array: a ``_RowProduct``'s rows all formed, else ``d``."""
    if not isinstance(d, _RowProduct):
        return d
    return d.rows_into(0, d.shape[0], np.empty(d.shape[0] * d.shape[1])).reshape(d.shape)


def _accumulate(v: Var, d) -> None:
    """Add the contribution ``d`` (an array or a ``_RowProduct``) to
    ``v.grad``. The first write assigns ``d`` itself, later ones assign the
    new sum of the two, each formed first. No grad array is written once
    assigned, so ``d`` may be an array that another Var also holds (an
    upstream grad passed through unchanged)."""
    v.grad = d if v.grad is None else _formed(v.grad) + _formed(d)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast from size 1."""
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcastable(sa, sb):
    return all(x == y or x == 1 or y == 1 for x, y in zip(sa, sb))


def add(a: Var, b) -> Var:
    """a + b with numpy broadcasting, for ``b`` a Var or plain data (a float
    or an array), which gets no grad and is not a parent."""
    data = not isinstance(b, Var)
    bv = _as_matrix(b) if data else b.value
    if not _broadcastable(a.shape, bv.shape):
        raise DimensionError(f"add: shape {a.shape} vs {bv.shape}")
    parents = (a,) if data else (a, b)

    def bwd(g):
        for v in parents:
            _accumulate(v, _unbroadcast(g, v.value.shape))

    return Var(a.value + bv, parents, backward=bwd)


def mul(a: Var, b) -> Var:
    """Elementwise product with numpy broadcasting, for ``b`` a Var or plain
    data as in ``add``. ``mul(a, a)`` is a's square."""
    data = not isinstance(b, Var)
    bv = _as_matrix(b) if data else b.value
    if not _broadcastable(a.shape, bv.shape):
        raise DimensionError(f"mul: shape {a.shape} vs {bv.shape}")

    def bwd(g):
        _accumulate(a, _unbroadcast(g * bv, a.value.shape))
        if not data:
            _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    return Var(a.value * bv, (a,) if data else (a, b), backward=bwd)


# The activations ``dense`` applies: each one's forward, which overwrites its
# argument z with act(z), and its local derivative, formed from the output y.
# Only a backward pass forms the derivative, so a forward that is never
# differentiated (scoring) does not, and the tape holds no array for it.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda y: (y > 0.0).astype(np.float64)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda y: 1.0 - y * y),
}


def dense(x, w: Var, b: Var | None, act: str | None = None) -> Var:
    """act(x @ w + b) as one tape node, for a (1, cols) bias row b or None (no
    bias) and an ``ACTIVATIONS`` name or None (no activation). ``x`` is a Var
    or plain data (a float64 ndarray or a CSR matrix); data gets no grad and
    is not a parent.

    The bias is added and ``act`` applied in place on the product, so the
    node holds one (rows, cols) array. Its backward takes the steps of the
    product, bias and activation chain it replaces, in that chain's order:
    g * act'(y), then the grads of b, x and w. For a CSR x, w's contribution
    x^T g is a ``_RowProduct``: ``Adam`` forms it a chunk of rows at a time
    as it updates w, and ``backward`` forms it whole, so a step never holds
    an array of w's size for it."""
    data = not isinstance(x, Var)
    xv = x if data else x.value
    b_shape = None if b is None else b.value.shape
    if xv.shape[1] != w.value.shape[0] or b_shape not in (None, (1, w.value.shape[1])):
        raise DimensionError(f"dense: x {xv.shape}, w {w.value.shape}, b {b_shape}")
    forward, derivative = ACTIVATIONS[act] if act is not None else (None, None)
    y = np.asarray(xv @ w.value)
    if b is not None:
        y += b.value
    if forward is not None:
        forward(y)

    def bwd(g):
        if derivative is not None:
            g = g * derivative(y)
        if b is not None:
            _accumulate(b, _unbroadcast(g, b_shape))
        if not data:
            _accumulate(x, g @ w.value.T)
        _accumulate(w, _RowProduct(xv, g) if sp.issparse(xv) else xv.T @ g)

    return Var(y, tuple(v for v in (x, w, b) if isinstance(v, Var)), backward=bwd)


def sigmoid(v: Var) -> Var:
    """Elementwise logistic function; like the ``ACTIVATIONS``, its local
    derivative y(1 - y) is formed only by a backward pass."""
    y = 0.5 * (1.0 + np.tanh(0.5 * v.value))

    def bwd(g):
        _accumulate(v, g * (y * (1.0 - y)))

    return Var(y, (v,), backward=bwd)


def sum_all(v: Var) -> Var:
    def bwd(g):
        _accumulate(v, np.full(v.value.shape, g[0, 0]))

    return Var(np.array([[v.value.sum()]]), (v,), backward=bwd)


def mse(pred: Var, target) -> Var:
    """Mean over all entries of the squared difference; target is plain data."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise DimensionError(f"mse: shape {pred.value.shape} vs {target.shape}")
    diff = pred.value - target
    n = diff.size

    def bwd(g):
        _accumulate(pred, (2.0 / n) * diff * g[0, 0])

    return Var(np.array([[float((diff * diff).sum()) / n]]), (pred,), backward=bwd)


def _compact_columns(indices: np.ndarray, cols: int):
    """The sorted distinct values ``used`` of ``indices`` (each in [0, cols))
    and each entry's position in ``used``, in the dtype of ``indices``: what
    ``np.unique(indices, return_inverse=True)`` gives, from a boolean mask
    over the columns and its running count, in O(nnz + cols), with no sort."""
    mask = np.zeros(cols, dtype=bool)
    mask[indices] = True
    return np.flatnonzero(mask), (np.cumsum(mask, dtype=indices.dtype) - 1)[indices]


def _joined_rows(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The C-contiguous (k+1, cols) array whose rows are [w; b], read in
    place; w and b must be its first k rows and its last row."""
    w1 = w.base
    if (not isinstance(w1, np.ndarray) or b.base is not w1
            or w1.shape != (w.shape[0] + 1, w.shape[1]) or not w1.flags.c_contiguous
            or w.ctypes.data != w1.ctypes.data or b.ctypes.data != w1[-1:].ctypes.data):
        raise DimensionError("sparse_target_mse: w and b must be the first rows and "
                             "the last row of one C-contiguous array")
    return w1


def sparse_target_mse(h: Var, w: Var, b: Var, target: sp.csr_matrix) -> Var:
    """mean((h @ w + b - target)**2) for a constant binary target, without
    forming the (rows, cols) prediction.

    With h1 = [h | 1], W1 = [w; b] and A = target, the prediction is h1 W1 and
    ||h1 W1 - A||^2 = <h1^T h1, W1 W1^T> - 2<h1, A W1^T> + nnz(A), so the
    forward needs only (k+1)-wide products, and A W1^T reads only the columns
    that A uses. The gradients take the same closed form (the Gramian identity
    of implicit-feedback matrix factorization): dh1 = c(h1 W1 W1^T - A W1^T)
    and dW1 = c(h1^T h1 W1 - h1^T A).

    W1 and A are read in place: w and b must be consecutive row-views of one
    (k+1, cols) array (``DignnParams`` allocates ``dec_a_w2`` and
    ``dec_a_b2`` so), and A a canonical CSR matrix (sorted, each entry once)
    of ones, as ``gather_batch``'s rows are; anything else raises
    ``DimensionError``. The grads of w and b are row-views of one array too.

    The cols-wide products run as two halves (``threads.run_in_two``), each
    with the bits of one call: in the forward, the one W1 W1^T call on the
    second thread while the caller forms A W1^T and h1^T h1; in the
    backward, (c h1^T h1) W1 as two column halves split at a multiple of 64
    columns, each half then subtracting c h1^T A on its own used columns.
    """
    rows, k = h.value.shape
    cols = w.value.shape[1]
    if (w.value.shape[0] != k or b.value.shape != (1, cols) or target.shape != (rows, cols)
            or getattr(target, "format", None) != "csr" or not target.has_canonical_format
            or (target.data != 1).any()):
        raise DimensionError(f"sparse_target_mse: h {h.value.shape}, w {w.value.shape}, "
                             f"b {b.value.shape}, target {target.shape} (a canonical CSR "
                             "matrix of ones)")
    w1 = _joined_rows(w.value, b.value)              # (k+1, cols)
    used, col_of = _compact_columns(target.indices, cols)
    a_used = sp.csr_matrix((target.data, col_of, target.indptr), shape=(rows, used.size))
    h1 = np.hstack([h.value, np.ones((rows, 1))])    # (rows, k+1)
    w1w1 = np.empty((k + 1, k + 1))
    aw1 = gram = None

    def batch_side():
        nonlocal aw1, gram
        aw1 = a_used @ w1[:, used].T                 # A W1^T, (rows, k+1)
        gram = h1.T @ h1                             # (k+1, k+1)

    # W1 W1^T stays one call (numpy runs it as SYRK; row halves would run as
    # GEMM, with other bits) on the second thread, beside the batch side.
    threads.run_in_two(batch_side, partial(np.matmul, w1, w1.T, out=w1w1))
    n = rows * cols
    loss = float((gram * w1w1).sum()) - 2.0 * float((h1 * aw1).sum()) + float(target.nnz)

    def bwd(g):
        c = 2.0 * g[0, 0] / n
        _accumulate(h, c * (h1 @ w1w1 - aw1)[:, :k])
        cg, dw1 = c * gram, np.empty_like(w1)
        h1ta = (a_used.T @ h1).T                     # h1^T A on the used columns
        h1ta *= c  # in place: a scaled copy would be a second (k+1, |used|) temporary

        def columns(lo, hi):
            part = dw1[:, lo:hi]
            np.matmul(cg, w1[:, lo:hi], out=part)
            first, last = np.searchsorted(used, (lo, hi))
            at = used[first:last] - lo
            for row, sub in zip(part, h1ta[:, first:last]):
                row[at] -= sub  # row by row: part[:, at] would gather a copy

        # Column halves split at a multiple of 64 give the bits of one call.
        mid = cols // 128 * 64
        threads.run_in_two(partial(columns, 0, mid), partial(columns, mid, cols))
        _accumulate(w, dw1[:k])                      # disjoint views of dw1
        _accumulate(b, dw1[k:])

    return Var(np.array([[loss / n]]), (h, w, b), backward=bwd)


def ce_with_logits(logits: Var, labels) -> Var:
    """Mean softmax cross-entropy, computed via log-sum-exp."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if logits.value.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"ce_with_logits: {logits.value.shape[0]} rows vs {labels.shape[0]} labels"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= logits.value.shape[1]):
        raise InvalidLabelError(f"labels must lie in [0, {logits.value.shape[1]})")
    z = logits.value
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    n = labels.shape[0]
    nll = lse - z[np.arange(n), labels]
    probs = np.exp(z - lse[:, None])

    def bwd(g):
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        _accumulate(logits, (g[0, 0] / n) * delta)

    return Var(np.array([[nll.mean()]]), (logits,), backward=bwd)


def _walk(loss: Var):
    """Run the backward of every node reachable from the scalar ``loss``, in
    reversed depth-first post-order, from a grad of ones at ``loss``, and
    yield each leaf (a Var with no parents) at its turn.

    Each node pushes its leaf parents before its other parents, so its
    leaves are expanded last. A leaf then comes right after the last node
    that reads it, with only that node's other leaves in between, so its
    grad is final when it is yielded. Leaves have no parents to push, so
    the non-leaves keep the order of a plain depth-first walk.
    """
    if loss.value.shape != (1, 1):
        raise DimensionError(f"backward: loss must be scalar, got {loss.value.shape}")
    topo: list[Var] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in sorted(node.parents, key=lambda v: bool(v.parents)):
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node.parents:
            node.grad = _formed(node.grad)
            node._backward(node.grad)
        else:
            yield node


def backward(loss: Var):
    """Populate .grad of everything reachable from a scalar loss.

    A grad's lifecycle: ``None`` until the first write, which assigns the
    contribution itself; each later contribution (within this pass or from
    a later call) replaces it with a new sum, so no grad array is written in
    place; ``Adam``'s update of a tensor, or ``Adam.zero_grad``, sets it back
    to ``None``. So a grad is never allocated just to be zero-filled, and
    after the pass every Var reachable from ``loss`` through ``parents``
    holds an array of its value's shape, while a Var the loss does not read
    keeps ``None``. A leaf's grad is formed as the walk yields it: a
    ``_RowProduct`` (``dense``'s weight grad over CSR data) becomes its
    array there.
    """
    for leaf in _walk(loss):
        leaf.grad = _formed(leaf.grad)


# Adam walks each tensor in chunks of this many float64 values (512 KB), so
# each part of a split update makes few numpy calls: between two calls its
# thread may wait for the interpreter lock while the other part's holds it.
# On a 2-core host, the split update of a 2.94 M-value tensor took 21-23 ms
# in 16,384-value chunks and 15-19 ms in these, and two processes updating
# one half each took 14 ms. A tensor under two chunks is updated inline:
# split, ``dec_a_b2``'s 45,954 values took no less time.
ADAM_CHUNK = 65_536


def _flat_range(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return a[lo:hi]


class Adam:
    """Adam with an additive weight-decay term folded into the gradient.

    Decay is applied to tensors whose name is not listed in ``no_decay``
    (bias vectors are exempt). One shared step counter, per-tensor moments.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay, no_decay=()):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.no_decay = frozenset(no_decay)
        self.t = 0
        self.m = {k: np.zeros(v.shape) for k, v in self.params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in self.params.items()}
        # One scratch pair for each part of a split update.
        self._scratch = np.empty((2, 2, ADAM_CHUNK))

    def zero_grad(self):
        """Unused in dignn; perfbench/spans.py wraps it by name (ROADMAP item 3)."""
        for p in self.params.values():
            p.grad = None

    def step(self, loss: Var):
        """Run the backward pass of the scalar ``loss`` (the walk of
        ``backward``) and update each tensor in place when the walk yields it,
        right after the last node that reads it, then set that grad to
        ``None``; so the grads of two tensors are alive together only while
        both are still being summed. A tensor the loss does not reach keeps
        its value, moments and grad. A trained tensor's grad is ``None``
        between steps; one set before the step is added to like any other
        contribution. A grad still in factors (a ``_RowProduct``, ``dense``'s
        weight grad over CSR data) is formed by ``_apply`` a chunk at a time,
        so the step never holds that whole array.
        """
        self.t += 1
        names = {id(p): name for name, p in self.params.items()}
        for leaf in _walk(loss):
            if id(leaf) in names:
                self._apply(names[id(leaf)], leaf)

    def _apply(self, name: str, p: Var):
        """Update p from its grad, ``ADAM_CHUNK`` values at a time, and drop
        the grad.

        Each value takes, in this order, g = grad + wd*p,
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        p -= (lr*(m/c1)) / (sqrt(v/c2) + eps) with ci = 1 - bi**t. A tensor
        of at least two chunks is split at the chunk boundary nearest half,
        and a thread started for the call updates the second part
        (``threads.run_in_two``), each part with its own scratch pair. Every
        value's arithmetic is the same whatever the chunking or the split.
        A grad that is an array is read in place, and nothing larger than
        the scratch pairs is allocated. A ``_RowProduct`` grad is formed a
        chunk at a time, each part forming the rows that hold its chunk into
        its own rows buffer, which this call allocates before the split: a
        chunk's values and two rows more. So the step's peak does not hang on
        whether the two parts form at the same moment.
        """
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        decay = self.weight_decay if name not in self.no_decay else 0.0
        size, g = p.value.size, p.grad
        if isinstance(g, _RowProduct):
            width = g.shape[1]
            rows = np.empty((2, (min(size, ADAM_CHUNK) // width + 2) * width))
            grads = [partial(g.values, buf=buf) for buf in rows]
        else:
            grads = 2 * [partial(_flat_range, g.reshape(-1))]
        flat = [a.reshape(-1) for a in (p.value, self.m[name], self.v[name])]
        update = partial(self._update, flat, decay, c1, c2)
        if size < 2 * ADAM_CHUNK:
            update(grads[0], 0, size, self._scratch[0])
        else:
            half = (size + ADAM_CHUNK) // (2 * ADAM_CHUNK) * ADAM_CHUNK
            threads.run_in_two(partial(update, grads[0], 0, half, self._scratch[0]),
                               partial(update, grads[1], half, size, self._scratch[1]))
        p.grad = None

    def _update(self, flat, decay, c1, c2, grad, start, stop, scratch):
        """``_apply``'s update of the flat range [start, stop) of p, m and v
        (``flat``), in chunks, with the grad values ``grad(lo, hi)`` and the
        (2, ``ADAM_CHUNK``) ``scratch``."""
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        for lo in range(start, stop, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, stop)
            pc, mc, vc = (a[lo:hi] for a in flat)
            gc = grad(lo, hi)
            s, u = (buf[:hi - lo] for buf in scratch)
            if decay:
                np.multiply(pc, decay, out=s)
                gc = np.add(gc, s, out=s)
            mc *= b1
            mc += np.multiply(gc, 1.0 - b1, out=u)
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=u)
            u *= gc
            vc += u
            np.divide(mc, c1, out=s)
            s *= lr
            np.divide(vc, c2, out=u)
            np.sqrt(u, out=u)
            u += eps
            s /= u
            pc -= s
