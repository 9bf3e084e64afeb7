"""Two-view fraud detector: MLP encoders, attention fusion, classifier,
decoders, and the three loss terms (cross-entropy, reconstruction,
cross-view exclusion)."""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass
from collections import OrderedDict
from functools import partial
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import threads
from .autodiff import Var
from .errors import GraphLoadError
from .graphdata import BatchSubgraph, require_finite_floats
from .rng import generator

MODEL_MAGIC = b"DIGNN\x00"
MODEL_VERSION = 1
MODEL_FLAG = 1  # header byte kept so that saved models stay readable; always 1
MODEL_HEADER = struct.Struct("<6s6IB")  # magic, version, N, D, d, h, tensors, flag
DIM_LIMIT = 2 ** 32  # the header stores each size as a uint32


@dataclass
class DignnConfig:
    embed_dim: int = 32          # d
    hidden_dim: int = 64         # width of the 2-layer encoders/decoders
    alpha: float = 0.05          # reconstruction weight
    beta: float = 0.8            # exclusion weight
    sigma_enc: float = 1.0       # fixed sampling std of the encoder posteriors
    prior_mean: float = 0.0      # shared prior mean (per coordinate)
    prior_std: float = 1.0

    def validate(self):
        require_finite_floats(self)
        for name in ("embed_dim", "hidden_dim"):
            if not 1 <= getattr(self, name) < DIM_LIMIT:
                raise ValueError(f"{name} = {getattr(self, name)} must be >= 1 and "
                                 f"< 2**32 (model.bin stores it as a uint32)")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.sigma_enc <= 0 or self.prior_std <= 0:
            raise ValueError("stds must be positive")


@dataclass
class ForwardOut:
    z_A: Var
    z_X: Var
    z_A_s: Var
    z_X_s: Var
    alpha_A: Var        # (b, 1)
    alpha_X: Var        # (b, 1)
    z: Var              # fused (b, d)
    logits: Var         # (b, 2)
    # Always None: rec_loss never forms the (b, N) output. It stays while
    # perfbench/spans.py reads it, or every --trace 1 run raises (ROADMAP item 3).
    x_A_hat: None = None


class DignnParams:
    """The trainable tensors in a fixed serialization order; after ``load``,
    only those that scoring reads."""

    def __init__(self, tensors: "OrderedDict[str, Var]", n_nodes: int,
                 feat_dim: int, cfg: DignnConfig):
        self.tensors = tensors
        self.n_nodes = n_nodes
        self.feat_dim = feat_dim
        self.cfg = cfg

    @staticmethod
    def shape_spec(n_nodes: int, feat_dim: int, cfg: DignnConfig):
        d, h = cfg.embed_dim, cfg.hidden_dim
        return [
            ("enc_a_w1", (n_nodes, h)), ("enc_a_b1", (1, h)),
            ("enc_a_w2", (h, d)), ("enc_a_b2", (1, d)),
            ("enc_x_w1", (feat_dim, h)), ("enc_x_b1", (1, h)),
            ("enc_x_w2", (h, d)), ("enc_x_b2", (1, d)),
            ("att_w", (d, d)), ("att_b", (1, d)), ("att_q", (d, 1)),
            ("clf_w", (d, 2)), ("clf_b", (1, 2)),
            ("dec_a_w1", (d, h)), ("dec_a_b1", (1, h)),
            ("dec_a_w2", (h, n_nodes)), ("dec_a_b2", (1, n_nodes)),
            ("dec_x_w1", (d, h)), ("dec_x_b1", (1, h)),
            ("dec_x_w2", (h, feat_dim)), ("dec_x_b2", (1, feat_dim)),
        ]

    @classmethod
    def nbytes(cls, n_nodes: int, feat_dim: int, cfg: DignnConfig) -> int:
        """Bytes of the float64 tensors of ``shape_spec``, computed without
        allocating them."""
        return sum(8 * r * c for _, (r, c) in cls.shape_spec(n_nodes, feat_dim, cfg))

    @classmethod
    def empty_tensors(cls, n_nodes: int, feat_dim: int,
                      cfg: DignnConfig) -> "OrderedDict[str, np.ndarray]":
        """Uninitialized arrays in ``shape_spec`` order. ``dec_a_w2`` and
        ``dec_a_b2`` are the first rows and the last row of one C-contiguous
        (hidden_dim + 1, n_nodes) buffer, the [w; b] that
        ``ad.sparse_target_mse`` reads in place."""
        h = cfg.hidden_dim
        dec_a = np.empty((h + 1, n_nodes))
        joined = {"dec_a_w2": dec_a[:h], "dec_a_b2": dec_a[h:]}
        return OrderedDict(
            (name, joined[name] if name in joined else np.empty(shape))
            for name, shape in cls.shape_spec(n_nodes, feat_dim, cfg))

    @classmethod
    def init(cls, n_nodes: int, feat_dim: int, cfg: DignnConfig, seed) -> "DignnParams":
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases: the bits
        of one ``glorot`` pass over the tensors in order, drawn as two runs
        (``_fill_in_two_runs``), the second from the init stream advanced to
        its first value."""
        cfg.validate()
        items = list(cls.empty_tensors(n_nodes, feat_dim, cfg).items())
        # The init stream's draws before each tensor: one per weight value.
        skips = list(accumulate((0 if cls.is_bias(n) else a.size for n, a in items),
                                initial=0))

        def draw(lo: int, hi: int):
            rng = generator(seed, skips[lo])
            for name, a in items[lo:hi]:
                if cls.is_bias(name):
                    a[...] = 0.0
                else:
                    glorot(rng, a)

        _fill_in_two_runs([a for _, a in items], draw)
        return cls(OrderedDict((name, Var(a)) for name, a in items),
                   n_nodes, feat_dim, cfg)

    @staticmethod
    def is_bias(name: str) -> bool:
        return name.split("_")[-1].startswith("b")

    def no_decay_names(self):
        return {n for n in self.tensors if self.is_bias(n)}

    def __getitem__(self, name: str) -> Var:
        return self.tensors[name]

    def snapshot(self, names) -> dict[str, np.ndarray]:
        """Copies of the named tensors' values, which ``restore`` writes back."""
        return {n: self.tensors[n].value.copy() for n in names}

    def restore(self, snap: dict[str, np.ndarray]):
        for n, value in snap.items():
            self.tensors[n].value[...] = value

    def save(self, path: str):
        if len(self.tensors) < len(self.shape_spec(self.n_nodes, self.feat_dim, self.cfg)):
            raise ValueError("a loaded model holds no decoders to save")
        with open(path, "wb") as fh:
            fh.write(_file_header(self.n_nodes, self.feat_dim, self.cfg, len(self.tensors)))
            for name, var in self.tensors.items():
                fh.write(_tensor_header(name, var.value.shape))
                fh.write(np.asarray(var.value, "<f8"))

    @classmethod
    def load(cls, path: str) -> "DignnParams":
        """Read a model written by ``save``, keeping the tensors that ``forward``
        reads: the encoders', attention's and classifier's. The decoders serve
        only training's losses, so their values are skipped, and a loaded model
        scores but does not train. The header, each tensor's header and its size
        must be what ``save`` writes for the ``shape_spec`` its sizes imply. One
        pass through the opened descriptor checks each tensor's header, and that
        the file holds the tensor, before it allocates it or seeks past it."""
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise GraphLoadError(f"cannot open model file {path}: {exc}") from exc
        truncated = GraphLoadError(f"truncated model file: {path}")
        with fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(MODEL_HEADER.size)
            if not head.startswith(MODEL_MAGIC):
                raise GraphLoadError(f"not a model file: {path}")
            if len(head) < MODEL_HEADER.size:
                raise truncated
            _, version, n, d_in, d, h, n_tensors, flag = MODEL_HEADER.unpack(head)
            cfg = DignnConfig(embed_dim=d, hidden_dim=h)
            spec = cls.shape_spec(n, d_in, cfg)
            if head != _file_header(n, d_in, cfg, len(spec)):
                raise GraphLoadError(f"unsupported model header in {path}: version "
                                     f"{version}, flag byte {flag}, {n_tensors} tensors "
                                     f"(want {MODEL_VERSION}, {MODEL_FLAG}, {len(spec)})")
            tensors = OrderedDict()
            for name, shape in spec:
                expected = _tensor_header(name, shape)
                found = fh.read(len(expected))
                if found != expected:
                    raise truncated if len(found) < len(expected) else GraphLoadError(
                        f"unexpected tensor header in {path}: {name!r} of shape "
                        f"{shape} belongs there")
                count = shape[0] * shape[1]
                if fh.tell() + 8 * count > size:
                    raise truncated
                if name.startswith("dec_"):
                    fh.seek(8 * count, os.SEEK_CUR)
                    continue
                a = np.fromfile(fh, np.float64, count)
                if a.size < count:
                    raise truncated
                if sys.byteorder != "little":
                    a.byteswap(inplace=True)
                tensors[name] = Var(a.reshape(shape))
            if fh.tell() != size:
                raise GraphLoadError(f"trailing bytes in model file {path}: {size} "
                                     f"bytes, the last tensor ends at {fh.tell()}")
        return cls(tensors, n, d_in, cfg)


def _fill_in_two_runs(arrays: list[np.ndarray], fill):
    """Have ``fill(lo, hi)``, which fills ``arrays[lo:hi]`` and allocates
    nothing large, fill the arrays as two runs split at the array boundary
    nearest half of their values, the second on a thread of its own
    (``threads.run_in_two``). ``init`` alone uses it."""
    ends = list(accumulate(a.size for a in arrays))
    k = 1 + min(range(len(ends)), key=lambda i: abs(2 * ends[i] - ends[-1]))
    threads.run_in_two(partial(fill, 0, k), partial(fill, k, len(arrays)))


def _file_header(n_nodes: int, feat_dim: int, cfg: DignnConfig,
                 n_tensors: int) -> bytes:
    return MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, n_nodes, feat_dim,
                             cfg.embed_dim, cfg.hidden_dim, n_tensors, MODEL_FLAG)


def _tensor_header(name: str, shape) -> bytes:
    raw = name.encode()
    return struct.pack("<I", len(raw)) + raw + struct.pack("<II", *shape)


def glorot(rng, out: np.ndarray) -> np.ndarray:
    """Fill the (fan_in, fan_out) array ``out`` with uniform
    +-sqrt(6/(fan_in+fan_out)) weights and return it: the same bits as
    ``rng.uniform(-limit, limit, out.shape)``. The draw goes
    ``ad.ADAM_CHUNK`` values at a time, as each half of Adam's split update
    goes, so that the scale and shift run on values still in cache."""
    limit = math.sqrt(6.0 / (out.shape[0] + out.shape[1]))
    flat = out.reshape(-1)
    for lo in range(0, flat.size, ad.ADAM_CHUNK):
        chunk = rng.random(out=flat[lo:lo + ad.ADAM_CHUNK])
        chunk *= 2.0 * limit
        chunk -= limit
    return out


def mlp2(x, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """relu(x W1 + b1) W2 + b2 for ``x`` a Var or plain data (a float64
    ndarray or a CSR matrix), which ``ad.dense`` reads as data."""
    return ad.dense(ad.dense(x, w1, b1, "relu"), w2, b2)


def encode_views(params: DignnParams, batch: BatchSubgraph) -> tuple[Var, Var]:
    """Topology rows and attribute rows, both data, through their 2-layer
    MLP encoders."""
    z_a = mlp2(batch.topo_rows, params["enc_a_w1"], params["enc_a_b1"],
               params["enc_a_w2"], params["enc_a_b2"])
    z_x = mlp2(batch.features, params["enc_x_w1"],
               params["enc_x_b1"], params["enc_x_w2"], params["enc_x_b2"])
    return z_a, z_x


def reparameterize(mu: Var, sigma: float, eps: np.ndarray) -> Var:
    """mu + sigma * eps with eps fixed data; gradient flows through mu only."""
    return ad.add(mu, sigma * eps)


def _attention_score(z: Var, w: Var, b: Var, q: Var) -> Var:
    return ad.dense(ad.dense(z, w, b, "tanh"), q, None)


def attention_fuse(params: DignnParams, z_a: Var, z_x: Var):
    """Per-node scalar scores, two-way softmax, convex combination. The
    softmax over two scores is alpha_A = sigmoid(s_A - s_X), alpha_X = 1 - alpha_A."""
    w, b, q = params["att_w"], params["att_b"], params["att_q"]
    s_a = _attention_score(z_a, w, b, q)
    s_x = _attention_score(z_x, w, b, q)
    alpha_a = ad.sigmoid(ad.add(s_a, ad.mul(s_x, -1.0)))
    alpha_x = ad.add(ad.mul(alpha_a, -1.0), 1.0)
    fused = ad.add(ad.mul(alpha_a, z_a), ad.mul(alpha_x, z_x))
    return alpha_a, alpha_x, fused


def classify(params: DignnParams, z: Var) -> Var:
    return ad.dense(z, params["clf_w"], params["clf_b"])


@threads.one_blas_thread()
def forward(params: DignnParams, batch: BatchSubgraph, cfg: DignnConfig,
            eps_a: np.ndarray | None = None,
            eps_x: np.ndarray | None = None) -> ForwardOut:
    """Full forward pass. Pass eps arrays to use sampled embeddings
    (training); omit them for the deterministic mean path (evaluation)."""
    mu_a, mu_x = encode_views(params, batch)
    z_a_s = reparameterize(mu_a, cfg.sigma_enc, eps_a) if eps_a is not None else mu_a
    z_x_s = reparameterize(mu_x, cfg.sigma_enc, eps_x) if eps_x is not None else mu_x
    alpha_a, alpha_x, fused = attention_fuse(params, z_a_s, z_x_s)
    logits = classify(params, fused)
    return ForwardOut(
        z_A=mu_a, z_X=mu_x, z_A_s=z_a_s, z_X_s=z_x_s,
        alpha_A=alpha_a, alpha_X=alpha_x, z=fused, logits=logits,
    )


def rec_loss(batch: BatchSubgraph, params: DignnParams, out: ForwardOut) -> Var:
    """Decoder mean-squared errors of the sampled embeddings against the
    two original views. The topology decoder's output layer is folded into
    the loss, so its (b, N) reconstruction is never formed."""
    h_a = ad.dense(out.z_A_s, params["dec_a_w1"], params["dec_a_b1"], "relu")
    topo = ad.sparse_target_mse(h_a, params["dec_a_w2"], params["dec_a_b2"],
                                batch.topo_rows)
    x_hat = mlp2(out.z_X_s, params["dec_x_w1"], params["dec_x_b1"],
                 params["dec_x_w2"], params["dec_x_b2"])
    return ad.add(topo, ad.mse(x_hat, batch.features))


def _mean_log_normal(z: Var, mu: float, var: float, dim: int, n: int) -> Var:
    """Mean over nodes of log N(z_i; mu, var*I) for a scalar mean mu."""
    d = ad.add(z, -mu)
    out = ad.mul(ad.sum_all(ad.mul(d, d)), -1.0 / (2.0 * var * n))
    return ad.add(out, -0.5 * dim * math.log(2.0 * math.pi * var))


def exc_loss(mu_a: Var, mu_x: Var, z_a_s: Var, z_x_s: Var, cfg: DignnConfig) -> Var:
    """Cross-view exclusion bound: mean conditional log-densities of the
    samples minus their log-densities under the shared prior, symmetrized."""
    n, d = mu_a.value.shape
    s2 = cfg.sigma_enc ** 2
    p2 = cfg.prior_std ** 2
    prior_a = _mean_log_normal(z_a_s, cfg.prior_mean, p2, d, n)
    prior_x = _mean_log_normal(z_x_s, cfg.prior_mean, p2, d, n)
    # With a fixed sigma, z_s - mu = sigma * eps does not depend on mu, so the
    # conditional log-densities are constants with exactly zero gradient.
    cond = 0.0
    for z_s, mu in ((z_a_s, mu_a), (z_x_s, mu_x)):
        diff = z_s.value - mu.value
        cond += (float((diff * diff).sum()) * (-1.0 / (2.0 * s2 * n))
                 - 0.5 * d * math.log(2.0 * math.pi * s2))
    total = ad.add(ad.mul(ad.add(prior_a, prior_x), -1.0), cond)
    return ad.mul(total, 0.5)


def total_loss(ce: Var, rec: Var, exc: Var, cfg: DignnConfig) -> Var:
    return ad.add(ce, ad.add(ad.mul(rec, cfg.alpha), ad.mul(exc, cfg.beta)))


def predict(params: DignnParams, batch: BatchSubgraph, cfg: DignnConfig):
    """Deterministic scores and classes; exact ties go to class 0."""
    return softmax_predict(forward(params, batch, cfg).logits.value)


def softmax_predict(logits: np.ndarray):
    """Classes and class-1 probabilities of (n, 2) logits; exact ties go to
    class 0."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64), probs[:, 1]
