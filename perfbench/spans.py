"""Spans around seqrig's public functions, installed from outside the package.

:meth:`Tracer.install` replaces each function or method named in
:data:`LAYER_SPANS` with a wrapper that records a span: name, start, end,
parent span, run id and the decode phase it ran in.  Spans stay in memory
until :meth:`Tracer.write`.  A span's self time is its duration minus the
time its child spans cover.

Work the tracer does for itself (walking a loss graph to count its nodes)
runs on a paused clock, so it falls outside every span and every phase
timing taken with :meth:`Tracer.clock`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, owner inside the module or None, attribute, span name)
LAYER_SPANS = [
    ("configlang", None, "parse_config", "configlang.parse"),
    ("configlang", None, "resolve_anchors", "configlang.parse"),
    ("configlang", None, "serialize_config", "configlang.serialize"),
    ("resolver", None, "instantiate_graph", "resolver.instantiate"),
    ("resolver", None, "dump_spec", "resolver.dump_spec"),
    ("data", "Vocab", "from_file", "data.read"),
    ("data", "PlainTextReader", "read", "data.read"),
    ("data", "FeatureReader", "read", "data.read"),
    ("data", "SrcBatcher", "make_batches", "data.batch"),
    ("data", "SrcBatcher", "shuffled", "data.batch"),
    ("nn", "DefaultTranslator", "encode", "nn.encode"),
    ("nn", "MlpSoftmaxDecoder", "step", "nn.decoder_step"),
    ("nn", "MlpAttender", "init_sent", "nn.attention"),
    ("nn", "MlpAttender", "calc", "nn.attention"),
    ("nn", "DefaultTranslator", "start_decode", "inference.start_decode"),
    ("nn", "DefaultTranslator", "next_logprobs", "inference.next_logprobs"),
    ("inference", None, "decode", "inference.search_self"),
    ("tensor", None, "backward", "tensor.backward"),
    ("tensor", None, "clip_global_norm", "tensor.clip"),
    ("optim", "AdamTrainer", "step", "optim.step"),
    ("tasks", "LossEvalTask", "run", "tasks.dev_loss"),
    ("training", None, "save_weights", "training.save_weights"),
    ("training", None, "load_weights", "training.load_weights"),
    ("training", None, "apply_weights", "training.apply_weights"),
]
SCORE_SPAN = "metrics.score"
LOSS_SPAN = "nn.loss_forward"      # calc_loss with train=True only
COUNTED_SPAN = "inference.next_logprobs"    # its calls are counted too
DECODE_PHASES = ("greedy", "beam5")

# per-layer metrics: (name, unit, better); decode-phase ones get a suffix
TIMED = ["configlang.parse", "configlang.serialize", "resolver.instantiate",
         "resolver.dump_spec", "data.read", "data.batch", LOSS_SPAN, "nn.encode",
         "nn.decoder_step", "nn.attention", "tensor.backward", "tensor.clip",
         "optim.step", "tasks.dev_loss", "training.save_weights",
         "training.load_weights", "training.apply_weights"]
DECODE_TIMED = ["inference.start_decode", "inference.next_logprobs",
                "inference.search_self", SCORE_SPAN, "nn.encode", "nn.decoder_step",
                "nn.attention", "data.read"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = [(f"{name}_s", "s", "lower") for name in TIMED]
    out += [("tensor.nodes", "nodes", "lower"), ("training.batches", "batches", "higher")]
    for phase in DECODE_PHASES:
        out += [(f"{name}_s.{phase}", "s", "lower") for name in DECODE_TIMED]
        out.append((f"inference.next_logprobs_calls.{phase}", "calls", "lower"))
    out += [("trace.spans", "spans", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


class NullTracer:
    """The untraced run: phase marks only, no wrappers."""

    phase = ""

    def clock(self) -> float:
        return time.perf_counter()

    @contextmanager
    def span(self, name: str, phase: str = ""):
        yield


class Tracer(NullTracer):
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent, phase]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.phase])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str, phase: str = ""):
        """A phase span; inside a decode phase, layer spans carry its name."""
        outer = self.phase
        self.phase = phase or outer
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self.phase = outer

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    # -- installing wrappers -------------------------------------------------

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def _wrap_calc_loss(self, fn):
        train_flag = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not train_flag.bind(*args, **kwargs).arguments.get("train"):
                return fn(*args, **kwargs)
            index = self.begin(LOSS_SPAN)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.counts["training.batches"] += 1
            with self.paused():
                self.counts["tensor.nodes"] += count_nodes(result[0])
            return result
        return traced

    def install(self) -> None:
        """Wrap every entry of LAYER_SPANS, plus calc_loss and the scorers."""
        import seqrig.metrics
        import seqrig.nn

        for module_name, owner, attr, name in LAYER_SPANS:
            module = importlib.import_module(f"seqrig.{module_name}")
            if owner is None:
                _replace_function(getattr(module, attr), self.wrap(getattr(module, attr), name))
            else:
                _replace_method(getattr(module, owner), attr, lambda fn, n=name: self.wrap(fn, n))
        _replace_method(seqrig.nn.DefaultTranslator, "calc_loss", self._wrap_calc_loss)
        table = seqrig.metrics.METRICS
        for key, (fn, direction) in list(table.items()):
            traced = self.wrap(fn, SCORE_SPAN)
            _replace_function(fn, traced)
            table[key] = (traced, direction)

    # -- reading the spans ---------------------------------------------------

    def self_times(self) -> list[float]:
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def metrics(self, per_span_cost: float) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name, phase = span[0], span[4]
            suffix = f".{phase}" if phase in DECODE_PHASES else ""
            totals[f"{name}_s{suffix}"] += own
            if name == COUNTED_SPAN:
                totals[f"{name}_calls{suffix}"] += 1
        totals.update(self.counts)
        totals["trace.spans"] = len(self.spans)
        totals["trace.overhead_s"] = per_span_cost * len(self.spans)
        return {name: totals.get(name, 0.0) if unit == "s" else int(totals.get(name, 0))
                for name, unit, _ in per_layer_metrics()}

    def phase_coverage(self) -> dict[str, tuple[float, float]]:
        """Per top-level span name: its wall seconds and the self seconds of
        the layer spans under it, each summed over the run."""
        layer_names = set(TIMED) | set(DECODE_TIMED)
        own = self.self_times()
        top: list[int] = []
        for i, span in enumerate(self.spans):
            parent = span[3]
            top.append(i if parent < 0 else top[parent])
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i, span in enumerate(self.spans):
            if span[3] < 0:
                totals[span[0]][0] += span[2] - span[1]
            if span[0] in layer_names:
                totals[self.spans[top[i]][0]][1] += own[i]
        return {name: (wall, covered) for name, (wall, covered) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "phase": phase}) + "\n")


def count_nodes(loss) -> int:
    """Graph nodes reachable from ``loss`` through ``Expr.parents``."""
    seen = {loss.uid}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if parent.uid not in seen:
                seen.add(parent.uid)
                stack.append(parent)
    return len(seen)


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds one span adds to a call, measured on an empty function."""
    def empty():
        return None

    probe = Tracer("calibration")
    traced = probe.wrap(empty, "probe")
    start = time.perf_counter()
    for _ in range(repeats):
        empty()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / repeats


def _replace_function(original, replacement) -> None:
    """Rebind ``original`` in every seqrig module that imported it."""
    for name, module in list(sys.modules.items()):
        if name == "seqrig" or name.startswith("seqrig."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _replace_method(cls, attr: str, make_wrapper) -> None:
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, attr, make_wrapper(raw))
