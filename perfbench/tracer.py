"""Spans around divproj's public functions, recorded from outside the library.

`install` replaces every public function defined in a divproj module by a
timing wrapper, in every divproj module namespace that references it, so
aliases (``fit as projection_fit``) and call-time imports (the
``from .projection import pc_factors`` inside ``rolling_window_weights``)
are traced too.  Wrappers pass arguments and results through unchanged.

Spans are kept in memory: name, layer, start, end, parent and thread id.
A span's self time is its duration minus the part of it that its child
spans cover.  Warnings recorded during a traced pass are attributed to the
innermost wrapped call that was open when they were raised; the library
warns with ``stacklevel=2``, so the warning's own file names the caller.

``io.format_value`` is left unwrapped: the CSV writers call it once per
matrix entry, millions of times for an N x N covariance, so a wrapper there
would measure the tracer.  Its time stays in the io writer that calls it.

With ``alloc_layers``, tracemalloc runs only inside the outermost span of
each of those layers, and the span records its peak traced memory above
what was traced at its start.  Tracing allocations everywhere would slow
the Python-level CSV code more than tenfold.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import statistics
import threading
import time
import tracemalloc
import types
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "simulation", "weights", "projection", "forecast", "inference", "covariance",
    "spectest", "fdr", "io", "cli", "experiments",
)

# Per-layer metrics computed from the spans of one traced pass.
SPAN_METRICS = (
    "projection.pc_factors.calls", "projection.pc_factors.self_s", "projection.fit.calls",
    "projection.self_s", "projection.pinv_fallbacks",
    "weights.calls", "weights.self_s",
    "simulation.calls", "simulation.self_s",
    "covariance.sparse_idio_cov.calls", "covariance.invert_sparse_cov.calls", "covariance.self_s",
    "covariance.invert_sparse_cov.self_s", "covariance.eig_shift_fallbacks", "covariance.eig_shift_ratio",
    "experiments.self_s",
    "forecast.windows", "forecast.self_s", "forecast.pinv_fallbacks",
    "inference.double_selection.calls", "inference.double_selection.p50_ms", "inference.self_s",
    "spectest.spec_test.calls", "spectest.self_s", "spectest.sigma_bootstrap.self_s",
    "fdr.farm_test.calls", "fdr.self_s",
    "io.self_s", "io.bytes_read", "io.bytes_written", "cli.self_s",
)
# Per-layer metrics computed from the tracemalloc pass.
ALLOC_METRICS = ("weights.peak_alloc_mb", "simulation.peak_alloc_mb", "covariance.peak_alloc_mb")
ALLOC_LAYERS = tuple(m.split(".")[0] for m in ALLOC_METRICS)
UNWRAPPED = {"divproj.io.format_value"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tid: int = 0
    alloc_base: int = 0
    alloc_peak: int = 0


@dataclass
class Tracer:
    warning_log: list | None = None   # the list from warnings.catch_warnings(record=True)
    alloc_layers: tuple = ()
    spans: list = field(default_factory=list)
    warnings: list = field(default_factory=list)   # (layer, category name)
    io_bytes: dict = field(default_factory=lambda: {"read": 0, "written": 0})
    _stacks: dict = field(default_factory=lambda: defaultdict(list))
    _alloc_stack: list = field(default_factory=list)   # open spans measured by tracemalloc
    _claimed: int = 0

    def _claim_warnings(self, layer: str | None) -> None:
        if self.warning_log is None:
            return
        for w in self.warning_log[self._claimed:]:
            self.warnings.append((layer, w.category.__name__))
        self._claimed = len(self.warning_log)

    def enter(self, name: str, layer: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks[tid]
        parent = stack[-1] if stack else None
        self._claim_warnings(self.spans[parent].layer if parent is not None else None)
        span = Span(name, layer, 0.0, parent=parent, tid=tid)
        self.spans.append(span)
        index = len(self.spans) - 1
        if layer in self.alloc_layers and not any(self.spans[i].layer == layer for i in stack):
            if self._alloc_stack:
                outer = self.spans[self._alloc_stack[-1]]
                outer.alloc_peak = max(outer.alloc_peak, tracemalloc.get_traced_memory()[1])
            else:
                tracemalloc.start()
            tracemalloc.reset_peak()
            span.alloc_base = span.alloc_peak = tracemalloc.get_traced_memory()[0]
            self._alloc_stack.append(index)
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def exit(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        self._stacks[span.tid].pop()
        self._claim_warnings(span.layer)
        if self._alloc_stack and self._alloc_stack[-1] == index:
            span.alloc_peak = max(span.alloc_peak, tracemalloc.get_traced_memory()[1])
            self._alloc_stack.pop()
            if self._alloc_stack:
                outer = self.spans[self._alloc_stack[-1]]
                outer.alloc_peak = max(outer.alloc_peak, span.alloc_peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()


def _wrap(fn, layer: str, tracer: Tracer):
    name = f"{layer}.{fn.__name__}"
    io_kind = {"read": "read", "write": "written"}.get(fn.__name__.split("_")[0]) if layer == "io" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if io_kind and args:
            tracer.io_bytes[io_kind] += os.path.getsize(args[0])
        return result

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap divproj's public functions; returns what `uninstall` restores."""
    import divproj

    modules = [divproj] + [
        importlib.import_module(f"divproj.{info.name}") for info in pkgutil.iter_modules(divproj.__path__)
    ]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for name, obj in vars(mod).items():
            public = not name.startswith("_") and f"{mod.__name__}.{name}" not in UNWRAPPED
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and public:
                wrappers[obj] = _wrap(obj, layer, tracer)
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                patched.append((mod, name, obj))
    return patched


def uninstall(patched: list) -> None:
    for mod, name, obj in patched:
        setattr(mod, name, obj)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """The SPAN_METRICS of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls, fn_self, layer_self = defaultdict(int), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        calls[s.layer] += 1
        fn_self[s.name] += t
        layer_self[s.layer] += t
        durations[s.name].append(s.end - s.start)
    numerical = defaultdict(int)
    for layer, category in tracer.warnings:
        if category == "NumericalWarning":
            numerical[layer] += 1
    ds = durations["inference.double_selection"]
    inversions = calls["covariance.invert_sparse_cov"]
    derived = {
        "projection.pinv_fallbacks": numerical["projection"],
        "covariance.eig_shift_fallbacks": numerical["covariance"],
        "covariance.eig_shift_ratio": numerical["covariance"] / inversions if inversions else 0.0,
        "forecast.windows": calls["forecast.fit_augmented"],
        "forecast.pinv_fallbacks": numerical["forecast"],
        "inference.double_selection.p50_ms": 1e3 * statistics.median(ds) if ds else 0.0,
        "io.bytes_read": tracer.io_bytes["read"],
        "io.bytes_written": tracer.io_bytes["written"],
    }
    out = {}
    for metric in SPAN_METRICS:
        key, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif kind == "calls":
            out[metric] = calls[key]
        elif key in LAYERS:
            out[metric] = layer_self[key]
        else:
            out[metric] = fn_self[key]
    return out


def alloc_metrics(tracer: Tracer) -> dict[str, float]:
    """Largest tracemalloc peak of a top-level span of each layer, in MiB."""
    peaks = defaultdict(int)
    for s in tracer.spans:
        peaks[s.layer] = max(peaks[s.layer], s.alloc_peak - s.alloc_base)
    return {m: peaks[m.split(".")[0]] / 2**20 for m in ALLOC_METRICS}
