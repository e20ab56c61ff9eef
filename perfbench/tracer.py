"""Call tracing from outside the library.

``Tracer.install`` replaces every attribute of a loaded ``psdnorm`` module
that is bound to one of the traced function objects (matched by identity, so
names imported with ``from .spectral import welch_psd`` are covered too) with
a timing wrapper.  Each call records a span (name, start, end, parent span,
call id, measured amount).  The benchmark opens one root span per workload
call, so every library span belongs to exactly one call.  Spans stay in
memory until ``write`` is called once at the end; ``restore`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


def _samples(args, result):
    return int(np.size(args[0]))


def _generated_signals(args, result):
    return int(args[0].n_signals)


def _read_bytes(args, result):
    # Computed from the returned shape: 20-byte header + float32 payload.
    return 20 + 4 * int(np.size(result))


def _written_bytes(args, result):
    return 20 + 4 * int(np.size(args[1]))


def _filter_size(args, result):
    return int(args[0].filter_size)


#: Traced functions as ``module.function`` under ``psdnorm``, each with an
#: optional measure of the work it was given, taken after the call returns.
TRACED = {
    "spectral.welch_psd": _samples,
    "geometry.wasserstein_barycenter": None,
    "geometry.running_update": None,
    "geometry.bures_distance": None,
    "monge.monge_filter": None,
    "monge.apply_mapping": _samples,
    "layers.psdnorm_forward": _filter_size,
    "layers.psdnorm_stack_forward": None,
    "layers.tma_fit": None,
    "layers.tma_transform": None,
    "layers.instancenorm_forward": None,
    "layers.batchnorm_forward": None,
    "layers.layernorm_forward": None,
    "synth.sample_gaussian_with_psd": _generated_signals,
    "synth.evaluate_alignment": None,
    "io.read_signal": _read_bytes,
    "io.write_signal": _written_bytes,
    "cli.main": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root span
    call_id: int
    amount: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._call_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "psdnorm" or name.startswith("psdnorm.")
        }
        originals = {}
        for qualname, measure in TRACED.items():
            mod_name, fn_name = qualname.rsplit(".", 1)
            fn = getattr(modules[f"psdnorm.{mod_name}"], fn_name)
            originals[id(fn)] = (fn, self._wrap(qualname, fn, measure))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._call_id)
            if measure is not None:
                spans[index].amount = measure(args, result)
            return result

        wrapper.__perfbench_traced__ = True
        return wrapper

    @contextmanager
    def root(self, kind: str):
        """Root span of one workload call; library spans inside it are its
        children and share its call id."""
        self._call_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(kind, start, end, -1, self._call_id)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans: list[Span], root_kind: str) -> dict:
    """Per-function totals over the spans under roots of ``root_kind``.

    Returns {"roots": count, "root_seconds": total root duration,
    "root_self_seconds": root time outside library spans, "functions":
    {name: {"calls", "self_s", "amount", "inclusive_by_amount"}}}.
    """
    own = self_times(spans)
    root_of = [0] * len(spans)
    for i, s in enumerate(spans):
        root_of[i] = i if s.parent < 0 else root_of[s.parent]
    functions = defaultdict(lambda: {
        "calls": 0, "self_s": 0.0, "amount": 0.0,
        "inclusive_by_amount": defaultdict(list),
    })
    roots = root_seconds = root_self = 0
    for i, s in enumerate(spans):
        if spans[root_of[i]].name != root_kind:
            continue
        if s.parent < 0:
            roots += 1
            root_seconds += s.end - s.start
            root_self += own[i]
            continue
        entry = functions[s.name]
        entry["calls"] += 1
        entry["self_s"] += own[i]
        entry["amount"] += s.amount
        entry["inclusive_by_amount"][s.amount].append(s.end - s.start)
    return {
        "roots": roots,
        "root_seconds": root_seconds,
        "root_self_seconds": root_self,
        "functions": functions,
    }


def layer_metrics(summary: dict, unit_samples: int, distinct_signals: int) -> dict:
    """Per-layer metrics per root call, as {name: (value, unit)}, from
    ``summarize``.  ``unit_samples`` is the input size of one root call and
    ``distinct_signals`` the number of distinct signals it generates."""
    n = max(summary["roots"], 1)
    total = summary["root_seconds"] or 1.0
    fns = summary["functions"]
    empty = {"calls": 0, "self_s": 0.0, "amount": 0.0, "inclusive_by_amount": {}}
    m = {}
    for name in TRACED:
        e = fns.get(name, empty)
        m[f"{name}.calls"] = (e["calls"] / n, "count")
        m[f"{name}.self_ms"] = (e["self_s"] * 1e3 / n, "ms")
        m[f"{name}.share"] = (e["self_s"] / total, "ratio")
    for name in ("spectral.welch_psd", "monge.apply_mapping"):
        m[f"{name}.passes"] = (
            fns.get(name, empty)["amount"] / (unit_samples * n), "ratio")
    generated = fns.get("synth.sample_gaussian_with_psd", empty)["amount"]
    m["synth.regen_ratio"] = (
        generated / (distinct_signals * n) if distinct_signals else 0.0,
        "ratio")
    for name in ("io.read_signal", "io.write_signal"):
        m[f"{name}.bytes"] = (fns.get(name, empty)["amount"] / n, "B")
    per_f = fns.get("layers.psdnorm_forward", empty)["inclusive_by_amount"]
    for f in (16, 8, 4):  # the train_batches stack
        spans = per_f.get(f, [])
        m[f"layers.psdnorm_forward.f{f}.ms"] = (
            1e3 * sum(spans) / len(spans) if spans else 0.0, "ms")
    m["unit_call.ms"] = (1e3 * summary["root_seconds"] / n, "ms")
    m["unit_call.self_share"] = (summary["root_self_seconds"] / total, "ratio")
    return m
