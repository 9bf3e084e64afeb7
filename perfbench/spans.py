"""Spans around dignn's public functions, installed from outside the package.

A ``Tracer`` replaces each traced name in the namespace where its caller
looks it up (``dignn.trainer.gather_batch``, ``dignn.model.encode_views``,
``dignn.autodiff.mse``, ``Adam.step`` ...) with a wrapper that records a span
``[name, start, end, parent]`` in memory. Leaving the ``with`` block puts
the original functions back. Counters that the package does not expose are
computed from the call's arguments and results, in a span of their own
(``trace.counters``) so that their cost is not charged to any layer.
"""

from __future__ import annotations

import functools
import statistics
import time

import dignn.autodiff as ad
import dignn.graphdata as graphdata
import dignn.model as model
import dignn.trainer as trainer

NAME, START, END, PARENT = range(4)


def _tape_size(loss) -> tuple[int, int]:
    """Nodes reachable from ``loss`` through ``Var.parents`` and the bytes of
    their values and gradients."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        v = stack.pop()
        nbytes += v.value.nbytes + v.grad.nbytes
        for p in v.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


class Tracer:
    """Records spans and counters while installed (``with Tracer() as t``)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, value: float, how: str = "sum") -> None:
        old = self.counters.get(key, 0)
        self.counters[key] = max(old, value) if how == "max" else old + value

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                cidx = tracer.open("trace.counters")
                after(result, *args, **kwargs)
                tracer.close(cidx)
            return result

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, traced)

    # -- counters computed from arguments and results ---------------------------

    def _after_gather(self, batch, *args, **kwargs):
        self._count("graphdata.gather_batch.topo_nnz", batch.topo_rows.nnz)

    def _after_forward(self, out, params, batch, *args, **kwargs):
        if out.x_A_hat is not None:
            b = batch.node_ids.size
            flops = 2 * b * params.cfg.hidden_dim * params.n_nodes
            self._count("model.forward.topo_decoder_flops", flops, "max")

    def _after_rec_loss(self, loss, batch, *args, **kwargs):
        b, n = batch.topo_rows.shape
        self._count("model.rec_loss.target_bytes", b * n * 8, "max")

    def _after_backward(self, result, loss, *args, **kwargs):
        nodes, nbytes = _tape_size(loss)
        self._count("autodiff.backward.tape_nodes", nodes, "max")
        self._count("autodiff.backward.tape_bytes", nbytes, "max")

    def _after_adam_step(self, result, opt, *args, **kwargs):
        state = sum(a.nbytes for a in opt.m.values()) + sum(
            a.nbytes for a in opt.v.values())
        self._count("autodiff.adam.state_bytes", state, "max")

    # -- install / uninstall ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        w = self._wrap
        for mod in (graphdata, trainer):
            w(mod, "gather_batch", "graphdata.gather_batch", self._after_gather)
        for fn in ("load_graph", "stratified_split", "normalize_features"):
            w(graphdata, fn, f"graphdata.{fn}")
        w(trainer, "downsample_epoch", "graphdata.downsample_epoch")
        w(trainer, "train", "trainer.train")
        w(trainer, "evaluate", "trainer.evaluate")
        w(trainer, "compute_report", "metrics.compute_report")
        w(model, "forward", "model.forward", self._after_forward)
        for fn in ("encode_views", "attention_fuse", "classify", "exc_loss",
                   "predict"):
            w(model, fn, f"model.{fn}")
        w(model, "rec_loss", "model.rec_loss", self._after_rec_loss)
        w(model.DignnParams, "snapshot", "model.snapshot")
        w(ad, "mse", "autodiff.mse")
        w(ad, "ce_with_logits", "autodiff.ce_with_logits")
        w(ad, "backward", "autodiff.backward", self._after_backward)
        w(ad.Adam, "step", "autodiff.adam_step", self._after_adam_step)
        w(ad.Adam, "zero_grad", "autodiff.zero_grad")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- derived figures ---------------------------------------------------------

    def durations(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total seconds, self seconds and calls per span name. A span's self
        time is its duration minus the durations of its direct children."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: list[float] = [0.0] * len(self.spans)
        for s in self.spans:
            d = s[END] - s[START]
            total[s[NAME]] = total.get(s[NAME], 0.0) + d
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        own: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            own[s[NAME]] = own.get(s[NAME], 0.0) + (s[END] - s[START]) - c
        return total, own, calls

    def step_seconds(self) -> list[float]:
        """Training steps, each from the ``gather_batch`` that starts it to
        the ``Adam.step`` that ends it, both called directly by ``train``."""
        out = []
        start = None
        for s in self.spans:
            if s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != "trainer.train":
                continue
            if s[NAME] == "graphdata.gather_batch":
                start = s[START]
            elif s[NAME] == "autodiff.adam_step" and start is not None:
                out.append(s[END] - start)
                start = None
        return out

    def to_json(self) -> list[list]:
        t0 = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT]]
                for s in self.spans]


def quantile(values, q: float) -> float:
    """Inclusive quantile; 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
