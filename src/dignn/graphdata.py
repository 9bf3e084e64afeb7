"""Fraud-network data model, on-disk format, batching, and a synthetic generator.

On-disk layout of a graph directory:
  meta.json            num_nodes, feature_dim, relations (list of names), label_values
  features.f32le       row-major little-endian float32, num_nodes x feature_dim
  labels.i8            one signed byte per node: -1 unlabeled, 0 benign, 1 fraud
  edges_<rel>.u32le    little-endian uint32 (src, dst) pairs, undirected,
                       duplicates allowed (the loader deduplicates)
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

from .errors import GraphLoadError, InvalidLabelError, SplitError
from .rng import generator


@dataclass
class FraudGraph:
    features: np.ndarray              # (N, D) as read: float32 loaded, float64 from synth
    labels: np.ndarray                # (N,) int8 in {-1, 0, 1}
    relations: dict[str, np.ndarray] | None  # name -> (E, 2) uint32; None once loaded
    union_adj: sp.csr_matrix          # (N, N) symmetric, no self-loops, int8 ones
    zscore: tuple | None = None       # normalize_features' mean, scale, constant columns

    def feature_rows(self, ids) -> np.ndarray:
        """Rows ``ids`` as C-contiguous float64, z-scored once ``zscore`` is set."""
        rows = np.take(self.features, ids, axis=0).astype(np.float64, copy=False)
        if self.zscore is not None:
            mean, scale, constant = self.zscore
            rows -= mean
            rows /= scale
            if constant.size:
                rows[:, constant] = 0.0
        return rows

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def labeled_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)


@dataclass
class SplitIndex:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class BatchSubgraph:
    node_ids: np.ndarray
    features: np.ndarray      # (b, D) float64, from FraudGraph.feature_rows
    topo_rows: sp.csr_matrix  # (b, N) full-graph adjacency rows, int8 ones
    labels: np.ndarray        # (b,) in {0, 1}


def require_finite_floats(cfg):
    """Raise ``ValueError`` naming the first float field of the dataclass
    ``cfg`` that is NaN or infinite."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, not {value}")


@dataclass
class SynthConfig:
    num_nodes: int = 1000
    feature_dim: int = 16
    fraud_rate: float = 0.15
    mean_separation: float = 2.33
    homophily: float = 0.19
    avg_degree: float = 10.0
    seed: int = 0

    def validate(self):
        require_finite_floats(self)
        if self.num_nodes < 4:
            raise ValueError("num_nodes must be at least 4")
        if not 0.0 < self.fraud_rate < 1.0:
            raise ValueError("fraud_rate must lie in (0, 1)")
        if self.mean_separation < 0.0:
            raise ValueError("mean_separation must be >= 0")
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must lie in [0, 1]")
        if self.avg_degree <= 0.0:
            raise ValueError("avg_degree must be positive")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def nbytes(self) -> float:
        """An upper bound on the bytes ``synth_generate`` holds at its peak,
        computed without drawing anything: the features and a copy of the
        fraud rows, and the per-edge draws and codes (measured with
        ``tracemalloc`` and rounded up)."""
        n, d = self.num_nodes, self.feature_dim
        return 16 * n * d + 24 * n + 68 * (self.avg_degree * n / 2) + 2 ** 16


def build_union_adj(pairs, num_nodes: int, num_pairs: int) -> sp.csr_matrix:
    """Symmetric deduplicated union of ``num_pairs`` edge pairs, self-loops
    dropped. ``pairs`` yields them as (E, 2) integer arrays, one at a time.

    Each directed edge's int64 code ``src * N + dst`` is written both ways
    into one preallocated array, sorted in place. Blocks of 65,536 codes drop
    repeats and self-loops (``code % (N + 1) == 0``) and compact the rest to
    the front: the entries in row-major order, ``code % N`` the column. The
    ones are int8, exact in scipy's float64 upcast. A sort, not ``np.unique``,
    which hashes in numpy 2.4: 10 s on YelpChi's 7.7 M codes against 0.14 s.
    Pairs past ``num_pairs`` do not fit the array, and pairs short of it would
    leave its tail unset: either raises ``ValueError``.
    """
    n = num_nodes
    codes = np.empty(2 * num_pairs, dtype=np.int64)
    at = 0
    for e in pairs:
        for a, b in ((e[:, 0], e[:, 1]), (e[:, 1], e[:, 0])):
            out = codes[at:at + len(e)]
            np.multiply(a, n, out=out, dtype=np.int64)
            out += b
            at += len(e)
    if at != codes.size:
        raise ValueError(f"{at // 2} edge pairs, not the {num_pairs} counted")
    codes.sort()
    kept, prev = 0, -1
    for lo in range(0, codes.size, 65_536):
        block = codes[lo:lo + 65_536]
        keep = block % (n + 1) != 0
        keep[0] &= block[0] != prev
        keep[1:] &= block[1:] != block[:-1]
        prev, block = block[-1], block[keep]
        codes[kept:kept + block.size] = block
        kept += block.size
    codes = codes[:kept]
    indptr = np.searchsorted(codes, np.arange(n + 1) * n)
    np.remainder(codes, n, out=codes)
    return sp.csr_matrix((np.ones(kept, dtype=np.int8), codes, indptr), shape=(n, n))


def _read_exact(path: str, dtype, count: int, what: str) -> np.ndarray:
    """The ``count`` values of ``dtype`` in ``path``, read through the one
    descriptor whose size is checked first, so nothing past what it holds is
    allocated; a file that holds another count, or changes size while it is
    read, is a load error. One that cannot be opened raises ``OSError``."""
    with open(path, "rb") as fh:
        itemsize = np.dtype(dtype).itemsize
        found, rest = divmod(os.fstat(fh.fileno()).st_size, itemsize)
        if rest:
            raise GraphLoadError(f"{what}: {path} ends in a partial value "
                                 f"({rest} of {itemsize} bytes)")
        if found == count:
            values = np.fromfile(fh, dtype=dtype, count=count)
            found = values.size
    if found != count:
        raise GraphLoadError(f"{what}: expected {count} values in {path}, found {found}")
    return values


def load_graph(path: str) -> FraudGraph:
    try:
        with open(os.path.join(path, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        n, d, rel_names = meta["num_nodes"], meta["feature_dim"], meta["relations"]
        # ``type(...) is int`` also rejects a bool, which is an int subclass.
        if not (type(n) is int and type(d) is int and n >= 0 and d >= 0):
            raise ValueError(f"num_nodes {n!r} and feature_dim {d!r} must be "
                             "integers >= 0")
        if not (isinstance(rel_names, list) and all(isinstance(r, str) for r in rel_names)):
            raise ValueError(f"relations {rel_names!r} must be a list of names")
        # An edge file's name is its relation's UTF-8 under any locale, as meta.json is.
        epaths = [os.path.join(path, os.fsdecode(f"edges_{r}.u32le".encode()))
                  for r in rel_names]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or value
        raise GraphLoadError(f"bad meta.json in {path}: {exc}") from exc

    feats = _read_exact(
        os.path.join(path, "features.f32le"), "<f4", n * d, "features"
    ).astype(np.float32, copy=False).reshape(n, d)
    if not np.all(np.isfinite(feats)):
        raise GraphLoadError("features contain non-finite values")
    labels = _read_exact(os.path.join(path, "labels.i8"), np.int8, n, "labels")
    if not np.isin(labels, (-1, 0, 1)).all():
        raise GraphLoadError("labels must lie in {-1, 0, 1}")

    # Each edge file counted once: the sum sizes the union, and each read must match.
    counts = [os.path.getsize(p) // 4 for p in epaths]

    def edges():  # one file's pairs at a time, none kept
        for epath, count in zip(epaths, counts):
            raw = _read_exact(epath, "<u4", count, "edges")
            if raw.size % 2:
                raise GraphLoadError(f"odd number of endpoints in {epath}")
            if raw.size and raw.max() >= n:
                raise GraphLoadError(
                    f"edge endpoint {raw.max()} out of range in {epath} (num_nodes={n})")
            yield raw.reshape(-1, 2)

    return FraudGraph(features=feats, labels=labels, relations=None,
                      union_adj=build_union_adj(edges(), n, sum(counts) // 2))


def save_graph(g: FraudGraph, path: str):
    if g.relations is None:
        raise ValueError("a loaded graph holds no edge pairs to save")
    os.makedirs(path, exist_ok=True)
    meta = {
        "num_nodes": g.num_nodes,
        "feature_dim": g.feature_dim,
        "relations": sorted(g.relations),
        "label_values": "-1 unlabeled, 0 benign, 1 fraud",
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    g.features.astype("<f4").tofile(os.path.join(path, "features.f32le"))
    g.labels.astype(np.int8).tofile(os.path.join(path, "labels.i8"))
    for name in sorted(g.relations):
        g.relations[name].astype("<u4").tofile(
            os.path.join(path, os.fsdecode(f"edges_{name}.u32le".encode())))


def stratified_split(g: FraudGraph, ratios, seed) -> SplitIndex:
    """Per-class shuffle then proportional train/val/test assignment."""
    ratios = tuple(float(r) for r in ratios)
    # ``not r > 0`` also rejects NaN, which every comparison fails.
    if (len(ratios) != 3 or not all(r > 0 for r in ratios)
            or abs(sum(ratios) - 1) > 1e-9):
        raise SplitError(f"ratios must be three positive values summing to 1: {ratios}")
    rng = generator(seed)
    parts = ([], [], [])
    for cls in (0, 1):
        ids = np.flatnonzero(g.labels == cls)
        if ids.size < 3:
            raise SplitError(f"class {cls} has only {ids.size} labeled nodes")
        ids = rng.permutation(ids)
        b1 = int(round(ratios[0] * ids.size))
        b2 = int(round((ratios[0] + ratios[1]) * ids.size))
        # Every set must hold both classes: training needs them, and so do
        # the validation and test AUCs, which would otherwise fail only after
        # an epoch or a whole run.
        for name, part, chunk in zip(("train", "validation", "test"), parts,
                                     (ids[:b1], ids[b1:b2], ids[b2:])):
            if chunk.size == 0:
                raise SplitError(f"ratios {ratios} leave class {cls} ({ids.size} "
                                 f"labeled nodes) no {name} node")
            part.append(chunk)
    train, val, test = (np.sort(np.concatenate(p)) for p in parts)
    return SplitIndex(train=train, val=val, test=test)


def downsample_epoch(train_ids, labels, seed) -> np.ndarray:
    """Keep all positives; sample negatives without replacement to match."""
    train_ids = np.asarray(train_ids)
    lab = np.asarray(labels)[train_ids]
    pos = train_ids[lab == 1]
    neg = train_ids[lab == 0]
    if pos.size == 0:
        raise ValueError("down-sampling requires at least one positive sample")
    rng = generator(seed)
    if neg.size > pos.size:
        neg = rng.choice(neg, size=pos.size, replace=False)
    return rng.permutation(np.concatenate([pos, neg]))


def make_batches(ids, batch_size: int) -> list[np.ndarray]:
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("cannot batch an empty id list")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [ids[i:i + batch_size] for i in range(0, ids.size, batch_size)]


def gather_batch(g: FraudGraph, ids) -> BatchSubgraph:
    """Nodes ``ids``' float64 ``feature_rows``, adjacency rows and labels. The
    rows are canonical int8 ones, which ``ad.sparse_target_mse`` reads in place."""
    ids = np.asarray(ids)
    labels = g.labels[ids].astype(np.int64)
    if (labels < 0).any():
        raise InvalidLabelError("unlabeled node in training batch")
    return BatchSubgraph(
        node_ids=ids,
        features=g.feature_rows(ids),
        topo_rows=g.union_adj[ids],
        labels=labels,
    )


def normalize_features(g: FraudGraph, split: SplitIndex) -> FraudGraph:
    """Per-feature z-score using statistics of the train nodes only, kept as
    ``zscore`` (the mean, the std or 1 where it is below 1e-12, the constant
    columns) for ``feature_rows`` to apply to each batch it gathers."""
    train_x = g.features[split.train].astype(np.float64, copy=False)
    std = train_x.std(axis=0)
    ok = std >= 1e-12
    return replace(g, zscore=(train_x.mean(axis=0), np.where(ok, std, 1.0),
                              np.flatnonzero(~ok)))


def synth_generate(cfg: SynthConfig) -> FraudGraph:
    """Camouflage-style synthetic graph.

    Labels are Bernoulli(fraud_rate); features are unit-variance Gaussians
    whose class means are mean_separation apart (Euclidean). Each edge picks
    a same-class endpoint pair with probability ``homophily`` (class then
    uniform between the two), a cross-class pair otherwise; endpoints are
    uniform within their class. At homophily h the fraction of a fraudster's
    neighbors that are benign concentrates at 1 - h.
    """
    cfg.validate()
    rng = generator(cfg.seed)
    n, d = cfg.num_nodes, cfg.feature_dim

    labels = (rng.random(n) < cfg.fraud_rate).astype(np.int8)
    if labels.sum() == 0 or labels.sum() == n:
        raise ValueError("degenerate draw: one class is empty; change seed or rate")

    offset = cfg.mean_separation / math.sqrt(d)
    features = rng.standard_normal((n, d))
    features[labels == 1] += offset

    by_class = [np.flatnonzero(labels == c) for c in (0, 1)]
    n_edges = int(round(cfg.avg_degree * n / 2))
    same = rng.random(n_edges) < cfg.homophily
    same_cls = rng.integers(0, 2, n_edges)
    # A same-class edge needs two nodes of its class: on a class of one the
    # redraw loop below would never end.
    for c in (0, 1):
        if by_class[c].size == 1 and (same & (same_cls == c)).any():
            raise ValueError(f"class {c} has one node but a same-class edge; "
                             "change seed, rate or homophily")
    cls_u = np.where(same, same_cls, 0)
    cls_v = np.where(same, same_cls, 1)
    u = np.empty(n_edges, dtype=np.int64)
    v = np.empty(n_edges, dtype=np.int64)
    for c in (0, 1):
        mask = cls_u == c
        u[mask] = by_class[c][rng.integers(0, by_class[c].size, mask.sum())]
        mask = cls_v == c
        v[mask] = by_class[c][rng.integers(0, by_class[c].size, mask.sum())]
    clash = u == v
    while clash.any():
        for c in (0, 1):
            mask = clash & (cls_v == c)
            v[mask] = by_class[c][rng.integers(0, by_class[c].size, mask.sum())]
        clash = u == v

    relations = {"SYN": np.column_stack([u, v]).astype(np.uint32)}
    # build_union_adj reads only the relations: at YelpChi's edge count these
    # per-edge arrays are about 165 MB that would stay alive through its peak.
    del by_class, same, same_cls, cls_u, cls_v, clash, mask, u, v
    return FraudGraph(features=features, labels=labels, relations=relations,
                      union_adj=build_union_adj(relations.values(), n, n_edges))


def neighbor_label_distribution(g: FraudGraph) -> dict[int, dict[int, float] | None]:
    """Per-class fractions of labeled-neighbor classes; None where undefined."""
    coo = g.union_adj.tocoo()
    src_lab = g.labels[coo.row]
    dst_lab = g.labels[coo.col]
    out: dict[int, dict[int, float] | None] = {}
    for cls in (0, 1):
        mask = (src_lab == cls) & (dst_lab >= 0)
        total = int(mask.sum())
        if total == 0:
            out[cls] = None
            continue
        out[cls] = {
            nb: float((dst_lab[mask] == nb).sum()) / total for nb in (0, 1)
        }
    return out

