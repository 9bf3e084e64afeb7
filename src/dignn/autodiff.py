"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D numpy array (scalars are 1x1). The graph is rebuilt on
every forward pass (define-by-run): each op returns a new Var that remembers
its parents and a closure that pushes the incoming gradient back to them.
Data never enters the tape: it reaches an op only as a plain array (a
float64 ndarray or a scipy CSR matrix), which gets no grad and is no
parent. That is ``dense``'s ``x``, the targets of ``mse`` and
``sparse_target_mse``, ``add_const``'s ``c`` and ``ce_with_logits``' labels.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

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
    backward pass writes it; see ``backward``), parent links."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = _as_matrix(value)
        self.grad = None
        self.parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Var(shape={self.value.shape}, leaf={not self.parents})"


def _accumulate(v: Var, d: np.ndarray, shared: bool = False) -> None:
    """Add the contribution ``d`` to ``v.grad``. The first write assigns
    ``d`` itself, later ones add into it in place. ``shared`` marks a ``d``
    that another Var may also hold (an upstream grad passed through
    unchanged); it is copied on assignment so that no two Vars share a grad
    buffer."""
    if v.grad is None:
        v.grad = d.copy() if shared else d
    else:
        v.grad += d


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast from size 1."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(sa, sb):
    return all(x == y or x == 1 or y == 1 for x, y in zip(sa, sb))


def add(a: Var, b: Var) -> Var:
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"add: shape {a.shape} vs {b.shape}")
    out = Var(a.value + b.value, parents=(a, b))

    def bwd(g):
        for v in (a, b):
            d = _unbroadcast(g, v.value.shape)
            _accumulate(v, d, shared=d is g)

    out._backward = bwd
    return out


def mul(a: Var, b: Var) -> Var:
    """Elementwise product with numpy broadcasting."""
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"mul: shape {a.shape} vs {b.shape}")
    out = Var(a.value * b.value, parents=(a, b))

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = bwd
    return out


def add_const(a: Var, c) -> Var:
    """a + c where c is plain data; gradient flows through a only."""
    c = np.asarray(c, dtype=np.float64)
    out = Var(a.value + c, parents=(a,))

    def bwd(g):
        d = _unbroadcast(g, a.value.shape)
        _accumulate(a, d, shared=d is g)

    out._backward = bwd
    return out


def scale(a: Var, s: float) -> Var:
    s = float(s)
    out = Var(a.value * s, parents=(a,))

    def bwd(g):
        _accumulate(a, g * s)

    out._backward = bwd
    return out


def square(a: Var) -> Var:
    out = Var(a.value * a.value, parents=(a,))

    def bwd(g):
        _accumulate(a, 2.0 * a.value * g)

    out._backward = bwd
    return out


def matmul(a: Var, b: Var) -> Var:
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul: shape {a.value.shape} vs {b.value.shape}")
    out = Var(a.value @ b.value, parents=(a, b))

    def bwd(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    out._backward = bwd
    return out


# The activations ``dense`` applies: each one's forward, which overwrites its
# argument z with act(z), and its local derivative, formed from the output y.
# Only a backward pass forms the derivative, so a forward that is never
# differentiated (scoring) does not, and the tape holds no array for it.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda y: (y > 0.0).astype(np.float64)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda y: 1.0 - y * y),
}


def dense(x, w: Var, b: Var, act: str | None = None) -> Var:
    """act(x @ w + b) as one tape node, for a (1, cols) bias row b and an
    ``ACTIVATIONS`` name or None (no activation). ``x`` is a Var or plain
    data (a float64 ndarray or a CSR matrix); data gets no grad and is not
    a parent.

    The bias is added and ``act`` applied in place on the product, so the
    node holds one (rows, cols) array. Its backward takes the steps of the
    matmul, add and activation chain it replaces, in that chain's order:
    g * act'(y), then the grads of b, x and w."""
    data = not isinstance(x, Var)
    xv = x if data else x.value
    if xv.shape[1] != w.value.shape[0] or b.value.shape != (1, w.value.shape[1]):
        raise DimensionError(f"dense: x {xv.shape}, w {w.value.shape}, b {b.value.shape}")
    forward, derivative = ACTIVATIONS[act] if act is not None else (None, None)
    y = np.asarray(xv @ w.value)
    y += b.value
    if forward is not None:
        forward(y)
    out = Var(y, parents=(w, b) if data else (x, w, b))

    def bwd(g):
        if derivative is not None:
            g = g * derivative(y)
        d = _unbroadcast(g, b.value.shape)
        _accumulate(b, d, shared=d is g)
        if not data:
            _accumulate(x, g @ w.value.T)
        _accumulate(w, np.asarray(xv.T @ g))

    out._backward = bwd
    return out


def sigmoid(v: Var) -> Var:
    """Elementwise logistic function; like the ``ACTIVATIONS``, its local
    derivative y(1 - y) is formed only by a backward pass."""
    y = 0.5 * (1.0 + np.tanh(0.5 * v.value))
    out = Var(y, parents=(v,))

    def bwd(g):
        _accumulate(v, g * (y * (1.0 - y)))

    out._backward = bwd
    return out


def sum_all(v: Var) -> Var:
    out = Var(np.array([[v.value.sum()]]), parents=(v,))

    def bwd(g):
        _accumulate(v, np.full(v.value.shape, g[0, 0]))

    out._backward = bwd
    return out


def mse(pred: Var, target) -> Var:
    """Mean over all entries of the squared difference; target is plain data."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise DimensionError(f"mse: shape {pred.value.shape} vs {target.shape}")
    diff = pred.value - target
    n = diff.size
    out = Var(np.array([[float((diff * diff).sum()) / n]]), parents=(pred,))

    def bwd(g):
        _accumulate(pred, (2.0 / n) * diff * g[0, 0])

    out._backward = bwd
    return out


def _compact_columns(indices: np.ndarray, cols: int):
    """The sorted distinct values ``used`` of ``indices`` (each in
    [0, cols)) and each entry's position in ``used``: the result of
    ``np.unique(indices, return_inverse=True)``, from a boolean mask over the
    columns and its running count, in O(nnz + cols) and without a sort."""
    mask = np.zeros(cols, dtype=bool)
    mask[indices] = True
    return np.flatnonzero(mask), np.cumsum(mask)[indices] - 1


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
    """mean((h @ w + b - target)**2) for a constant sparse target, without
    forming the (rows, cols) prediction.

    With h1 = [h | 1], W1 = [w; b] and A = target, the prediction is h1 W1 and
    ||h1 W1 - A||^2 = <h1^T h1, W1 W1^T> - 2<h1, A W1^T> + ||A||^2, so the
    forward needs only (k+1)-wide products, and A W1^T reads only the columns
    that A uses. The gradients take the same closed form (the Gramian identity
    of implicit-feedback matrix factorization): dh1 = c(h1 W1 W1^T - A W1^T)
    and dW1 = c(h1^T h1 W1 - h1^T A).

    W1 is read in place, so w and b must be consecutive row-views of one
    (k+1, cols) array (``DignnParams`` allocates ``dec_a_w2`` and
    ``dec_a_b2`` so); anything else raises ``DimensionError``. Their grads
    are row-views of one array too.
    """
    rows, k = h.value.shape
    cols = w.value.shape[1]
    if w.value.shape[0] != k or b.value.shape != (1, cols) or target.shape != (rows, cols):
        raise DimensionError(
            f"sparse_target_mse: h {h.value.shape}, w {w.value.shape}, "
            f"b {b.value.shape}, target {target.shape}"
        )
    w1 = _joined_rows(w.value, b.value)              # (k+1, cols)
    target = sp.csr_matrix(target, dtype=np.float64, copy=True)
    target.sum_duplicates()  # ||A||^2 = sum(data^2) holds for unique entries only
    used, col_of = _compact_columns(target.indices, cols)
    a_used = sp.csr_matrix((target.data, col_of, target.indptr), shape=(rows, used.size))
    h1 = np.hstack([h.value, np.ones((rows, 1))])    # (rows, k+1)
    w1w1 = w1 @ w1.T                                 # (k+1, k+1)
    aw1 = a_used @ w1[:, used].T                     # A W1^T, (rows, k+1)
    gram = h1.T @ h1                                 # (k+1, k+1)
    a_sq = float((target.data * target.data).sum())
    n = rows * cols
    loss = float((gram * w1w1).sum()) - 2.0 * float((h1 * aw1).sum()) + a_sq
    out = Var(np.array([[loss / n]]), parents=(h, w, b))

    def bwd(g):
        c = 2.0 * g[0, 0] / n
        _accumulate(h, c * (h1 @ w1w1 - aw1)[:, :k])
        dw1 = (c * gram) @ w1
        h1ta = (a_used.T @ h1).T                     # h1^T A on the used columns
        h1ta *= c  # in place: a second (k+1, |used|) array would be a third temporary
        dw1[:, used] -= h1ta
        _accumulate(w, dw1[:k])                      # disjoint views of dw1
        _accumulate(b, dw1[k:])

    out._backward = bwd
    return out


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
    out = Var(np.array([[nll.mean()]]), parents=(logits,))
    probs = np.exp(z - lse[:, None])

    def bwd(g):
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        _accumulate(logits, (g[0, 0] / n) * delta)

    out._backward = bwd
    return out


def backward(loss: Var):
    """Populate .grad of everything reachable from a scalar loss.

    A grad's lifecycle: ``None`` until the first write, which assigns the
    contribution itself; later contributions (within this pass or from a
    later call) are added into it in place; ``zero_grad`` sets it back to
    ``None``. So a grad is never allocated just to be zero-filled, and after
    the pass every Var reachable from ``loss`` through ``parents`` holds an
    array of its value's shape, while a Var the loss does not read keeps
    ``None``.
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
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# Adam walks each tensor in chunks of this many float64 values (128 KB), so
# the chunk of value, grad, both moments and the two scratch buffers stays in
# L2 cache between the operations of one update.
ADAM_CHUNK = 16_384


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
        self._scratch = np.empty((2, ADAM_CHUNK))

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        """Update every tensor that has a grad in place, ``ADAM_CHUNK``
        values at a time; a tensor whose grad is ``None`` keeps its value and
        moments.

        Each value takes, in this order, g = grad + wd*p,
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        p -= (lr*(m/c1)) / (sqrt(v/c2) + eps) with ci = 1 - bi**t. Every
        value's arithmetic is the same whatever the chunking, and nothing
        larger than the two chunk-sized scratch buffers is allocated.
        """
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            decay = self.weight_decay if name not in self.no_decay else 0.0
            state = (p.value, p.grad, self.m[name], self.v[name])
            flat = [a.reshape(-1) for a in state]
            for lo in range(0, p.value.size, ADAM_CHUNK):
                pc, gc, mc, vc = (a[lo:lo + ADAM_CHUNK] for a in flat)
                s, u = (buf[:pc.size] for buf in self._scratch)
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
