"""Span tracer for the traced benchmark run.

The tracer replaces public pacn functions under the names their callers look
up (``pacn.ops.batch_norm_forward``, ``pacn.train.extract_feature``, ...)
with wrappers that record spans, and restores the originals on ``uninstall``.
Nothing under ``src/`` knows about it.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the training step or clip id.
Spans stay in memory; the caller writes them out when the run ends.

Per-row attribution: while the subject model runs a forward pass, each
``pacn.ops`` call is mapped to its ``pacn profile`` row by the identity of
the parameter tensors it receives. Pool rows, which own no parameters, are
matched by call order. The backward time of a row is measured by wrapping
the ``_backward`` closure of every graph node that row's call created.
Forward and backward time that matches no row is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import pacn.audio
import pacn.evalstats
import pacn.model
import pacn.ops
import pacn.train
from pacn.tensor import Tensor

# The package re-exports the function pacn.tensor.tensor under this name.
tensor_module = importlib.import_module("pacn.tensor")

# Which profiler rows a parameter-free call fills, in call order.
POOL_CALLS = {
    "maxpool2d": lambda row: row.kind == "maxpool",
    "tmean": lambda row: row.kind == "avgpool" and row.name.startswith("gci."),
    "global_avg_pool": lambda row: row.kind == "avgpool" and row.name.startswith("lci."),
}

# (module, attribute, span name) of the layer boundaries outside pacn.ops.
LAYER_CALLS = (
    (pacn.audio, "read_wav", "audio.read_wav"),
    (pacn.train, "read_wav", "audio.read_wav"),
    (pacn.audio, "extract_feature", "audio.extract_feature"),
    (pacn.train, "extract_feature", "audio.extract_feature"),
    (pacn.train, "extract_features", "train.extract_features"),
    (pacn.train, "estimate_dataset_correction", "train.estimate_dataset_correction"),
    (pacn.train, "split_train_val", "train.split_train_val"),
    (pacn.evalstats, "predict", "evalstats.predict"),
)


def _tensors(args, kwargs):
    for a in args:
        if isinstance(a, Tensor):
            yield a
    for a in kwargs.values():
        if isinstance(a, Tensor):
            yield a


def param_rows(model, rows) -> dict[int, str]:
    """id(parameter tensor) -> profiler row name, by longest path prefix."""
    names = sorted((r.name for r in rows), key=len, reverse=True)
    out = {}
    for path, t in model.params.items():
        row = next((n for n in names if path.startswith(n + ".")), None)
        if row is None:
            raise ValueError(f"parameter {path!r} matches no profiler row")
        out[id(t)] = row
    return out


class _Forward:
    """Attribution state of one forward pass of the subject model."""

    def __init__(self, rows_by_id, pool_rows):
        self.rows_by_id = rows_by_id
        self.pools = {fn: list(names) for fn, names in pool_rows.items()}
        self.in_row = False

    def row_of(self, fname, args, kwargs):
        rows = {self.rows_by_id.get(id(t)) for t in _tensors(args, kwargs)}
        rows.discard(None)
        if len(rows) == 1:
            return rows.pop()
        if not rows and self.pools.get(fname):
            return self.pools[fname].pop(0)
        return None


class Tracer:
    """Records spans and counters around the public pacn functions."""

    def __init__(self, profile_rows, teacher=None):
        self.rows = list(profile_rows)
        self.pool_rows = {fn: [r.name for r in self.rows if pick(r)]
                          for fn, pick in POOL_CALLS.items()}
        self.teacher = teacher
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.row_fwd: dict[str, float] = defaultdict(float)
        self.row_bwd: dict[str, float] = defaultdict(float)
        self._fwd: _Forward | None = None
        self._models: dict[int, tuple] = {}
        self._batch = {"rows": 0, "clean": 0, "mixed": False}
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for module, attr, name in LAYER_CALLS:
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        for attr in pacn.ops.__all__:
            fn = getattr(pacn.ops, attr)
            if callable(fn) and fn.__module__ == "pacn.ops":
                self._patch(pacn.ops, attr, self._ops_call(attr, fn, f"ops.{attr}"))
        self._patch(pacn.model, "tmean",
                    self._ops_call("tmean", pacn.model.tmean, "model.tmean"))
        self._patch(pacn.train, "augment_clip", self._augment_clip(pacn.train.augment_clip))
        self._patch(pacn.train, "draw_mixup", self._draw_mixup(pacn.train.draw_mixup))
        self._patch(pacn.train, "kd_loss", self._kd_loss(pacn.train.kd_loss))
        self._patch(tensor_module, "backward", self._backward(tensor_module.backward))
        self._patch(pacn.train.Adam, "step", self._adam_step(pacn.train.Adam.step))
        self._patch(pacn.model.PacnModel, "forward",
                    self._forward(pacn.model.PacnModel.forward))
        load = pacn.model.PacnModel.load.__func__
        self._patch(pacn.model.PacnModel, "load",
                    classmethod(self._span("model.load", load)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers with side effects ---------------------------------------

    def _forward(self, fn):
        @functools.wraps(fn)
        def forward(model, x, training=False):
            if model is self.teacher:
                name = "train.teacher_infer"
            elif any(self.spans[i][0] == "evalstats.predict" for i in self.stack):
                name = "evalstats.forward"
            else:
                name = "model.forward"
            if name != "model.forward":
                return self._span(name, fn)(model, x, training)
            self._fwd = _Forward(self._rows_of(model), self.pool_rows)
            idx = self.begin(name)
            try:
                return fn(model, x, training)
            finally:
                self.end(idx)
                self._fwd = None
                self.counts["model.forward.clips"] += x.data.shape[0]
        return forward

    def _rows_of(self, model):
        entry = self._models.get(id(model))
        if entry is None:
            entry = (model, param_rows(model, self.rows))
            self._models[id(model)] = entry
        return entry[1]

    def _ops_call(self, fname, fn, name):
        plain = self._span(name, fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            fwd = self._fwd
            row = None if fwd is None or fwd.in_row else fwd.row_of(fname, args, kwargs)
            if row is None:
                return plain(*args, **kwargs)
            fwd.in_row = True
            idx = self.begin(name)
            t0 = self.spans[idx][1]
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
                fwd.in_row = False
            self.row_fwd[row] += self.spans[idx][2] - t0
            self._claim(out, args, kwargs, row)
            return out
        return call

    def _claim(self, out, args, kwargs, row):
        """Time the backward of every graph node this row's call created."""
        inputs = {id(t) for t in _tensors(args, kwargs)}
        seen = set()
        stack = [out]
        acc = self.row_bwd
        while stack:
            t = stack.pop()
            if id(t) in inputs or id(t) in seen:
                continue
            seen.add(id(t))
            bw = t._backward
            if bw is None:
                continue

            def timed(g, bw=bw):
                t0 = perf_counter()
                bw(g)
                acc[row] += perf_counter() - t0
            t._backward = timed
            stack.extend(t._parents)

    def _augment_clip(self, fn):
        span = self._span("augment.augment_clip", fn)

        @functools.wraps(fn)
        def augment_clip(clip, *args, **kwargs):
            out = span(clip, *args, **kwargs)
            self.counts["augment.clips_drawn"] += 1
            self._batch["rows"] += 1
            if out is clip:
                self._batch["clean"] += 1
            else:
                self.counts["augment.clips_modified"] += 1
            return out
        return augment_clip

    def _draw_mixup(self, fn):
        @functools.wraps(fn)
        def draw_mixup(*args, **kwargs):
            self._batch["mixed"] = True
            return fn(*args, **kwargs)
        return draw_mixup

    def _kd_loss(self, fn):
        span = self._span("train.kd_loss", fn)

        @functools.wraps(fn)
        def kd_loss(*args, **kwargs):
            b = self._batch
            self.counts["train.batches"] += 1
            self.counts["train.mixup_batches"] += b["mixed"]
            self.counts["train.rows"] += b["rows"]
            self.counts["train.cacheable_rows"] += 0 if b["mixed"] else b["clean"]
            self._batch = {"rows": 0, "clean": 0, "mixed": False}
            return span(*args, **kwargs)
        return kd_loss

    def _backward(self, fn):
        span = self._span("tensor.backward", fn)

        @functools.wraps(fn)
        def backward(loss):
            nodes, nbytes = graph_size(loss)
            self.counts["tensor.backwards"] += 1
            self.counts["tensor.graph_nodes"] += nodes
            self.counts["tensor.graph_bytes"] += nbytes
            return span(loss)
        return backward

    def _adam_step(self, fn):
        span = self._span("train.adam_step", fn)

        @functools.wraps(fn)
        def step(opt, lr):
            try:
                return span(opt, lr)
            finally:
                self.op += 1
                self.counts["train.steps"] += 1
        return step

    # -- summaries ----------------------------------------------------------

    def total_ms(self, name) -> float:
        return 1e3 * sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_ms(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return {k: 1e3 * v for k, v in sorted(out.items())}

    def write(self, fh, phase):
        """One JSON list per span: phase, name, start, end, parent, op."""
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps([phase, name, start, end, parent, op]) + "\n")


def graph_size(loss) -> tuple[int, int]:
    """(op nodes, bytes of their outputs) in the graph recorded under loss."""
    seen = set()
    stack = [loss]
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
            nbytes += t.data.nbytes
        stack.extend(t._parents)
    return nodes, nbytes
