"""Span tracing from outside the program, and per-layer arithmetic.

The benchmark never edits ``repro``: it times each layer by wrapping
the layer's public entry points where they are looked up — the
defining module *and* every ``repro.*`` module that bound the function
with ``from ... import`` (``simulate_block`` is imported by name into
every scheme module), plus the methods of the classes named in
:data:`METHOD_TARGETS`.  A wrapper records one span per call (name,
start, end, parent, run id, work count) in memory; :meth:`Tracer.dump`
writes them out when the run ends.

Self time of a span is its duration minus the part of its interval
covered by its children (:func:`self_times`).  Busy time of a layer
counts only its outermost spans, so a ``super().access_block`` chain
is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: ``(module, function, span name, work counter)``.  The counter maps
#: ``(args, result)`` to a number recorded as the span's ``n``.
FUNCTION_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.sim.lru", "simulate_block", "lru_kernel", lambda a, r: len(a[2])),
    ("repro.sim.lru", "simulate_assoc_block", "lru_kernel",
     lambda a, r: len(a[1])),
    ("repro.vmos.scenarios", "build_mapping", "mapping_build", None),
    ("repro.vmos.distance", "select_distance", "distance", None),
    ("repro.vmos.contiguity", "contiguity_histogram", "distance", None),
    ("repro.schemes.registry", "make_scheme", "scheme_build", None),
    ("repro.sim.tenants", "run_schedule", "schedule", None),
    ("repro.sim.engine", "run_trace", "run_trace", lambda a, r: r.epochs),
    ("repro.sim.sweep", "static_ideal", "static_ideal", None),
)

#: ``(module, class, method, span name, work counter)``.  A class listed
#: here is wrapped together with every subclass that overrides the
#: method in its own body.
METHOD_TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.schemes.base", "TranslationScheme", "access_block",
     "access_block", lambda a, r: len(a[1])),
    ("repro.schemes.base", "TranslationScheme", "sync_mapping", "sync", None),
    ("repro.schemes.base", "TranslationScheme", "clone_fresh", "clone", None),
    ("repro.schemes.base", "TranslationScheme", "reselect_distance",
     "distance", lambda a, r: int(bool(r[1]))),
    ("repro.vmos.anchor", "AnchorDirectory", "build", "anchor_dir.build",
     None),
    ("repro.vmos.anchor", "AnchorDirectory", "note_unmap",
     "anchor_dir.incremental", None),
    ("repro.vmos.anchor", "AnchorDirectory", "note_map",
     "anchor_dir.incremental", None),
    ("repro.vmos.anchor", "AnchorDirectory", "note_protect",
     "anchor_dir.incremental", None),
    ("repro.vmos.mapping", "MemoryMapping", "frozen", "frozen", None),
    ("repro.vmos.mapping", "FrozenMapping", "__init__", "frozen.build", None),
    ("repro.hw.pwc", "PageWalkCache", "accesses_for_block", "pwc", None),
    ("repro.sim.stats", "TranslationStats", "snapshot", "stats", None),
    ("repro.sim.stats", "TranslationStats", "accumulate", "stats", None),
    ("repro.sim.workloads", "Workload", "make_trace", "trace_gen", None),
    ("repro.sim.trace_store", "TraceStore", "get_or_create", "trace_store",
     None),
    ("repro.sim.trace_store", "TraceStore", "get", "trace_store", None),
)

#: Span fields, in the order :meth:`Tracer.dump` writes them.
SPAN_FIELDS = ("name", "start", "end", "parent", "run", "n", "nested")


class Tracer:
    """In-memory span recorder for one thread.

    A span is a list ``[name, start, end, parent, run, n, nested]``:
    ``parent`` is the index of the enclosing span (-1 at the root), ``run`` the run id current when it started, ``n``
    the work the call did (keys, references, epochs; 0 when uncounted)
    and ``nested`` whether a span of the same name encloses it.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.run = "setup"
        #: Off while the benchmark digests outputs, so checking is
        #: never counted as layer work.
        self.enabled = True
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        stack = self._stack
        nested = any(self.spans[i][0] == name for i in stack)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else -1, self.run, 0, nested])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def end(self, index: int, n: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = n
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark itself opens around a block."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def dump(self, path: Path) -> Path:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
        return path


def _wrap(tracer: Tracer, name: str, func: Callable,
          count: Callable | None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return func(*args, **kwargs)
        index = tracer.begin(name)
        n = 0
        try:
            result = func(*args, **kwargs)
            if count is not None:
                n = int(count(args, result))
            return result
        finally:
            tracer.end(index, n)

    return wrapper


def _classes_overriding(root: type, method: str) -> list[type]:
    found: list[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if method in cls.__dict__ and cls not in found:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Instrumentation:
    """Installs the wrappers of :data:`FUNCTION_TARGETS` and
    :data:`METHOD_TARGETS` into a tracer, and removes them again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Instrumentation":
        if self._undo:
            raise RuntimeError("instrumentation is already installed")
        # Every scheme class must exist before subclasses are listed.
        importlib.import_module("repro.schemes.registry")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "repro" or n.startswith("repro.")) and m]
        for module_name, func_name, name, count in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = _wrap(self.tracer, name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        for module_name, class_name, method, name, count in METHOD_TARGETS:
            root = getattr(importlib.import_module(module_name), class_name)
            for cls in _classes_overriding(root, method):
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    value: Any = classmethod(
                        _wrap(self.tracer, name, raw.__func__, count))
                else:
                    value = _wrap(self.tracer, name, raw, count)
                self._set(cls, method, value)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per span: its duration minus the union of its children's
    intervals (children may nest or overlap one another)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1])
        - _covered(span[1], span[2], children.get(index, []))
        for index, span in enumerate(spans)
    ]


class LayerTotals:
    """Per span name: outermost calls, busy time, self time and work,
    over the spans ``include`` selects (self times use every span)."""

    def __init__(self, spans: list[list[Any]],
                 include: Callable[[list[Any]], bool]) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.child_calls: dict[tuple[str, str], int] = {}
        for span, own in zip(spans, self_times(spans)):
            if not include(span):
                continue
            name = span[0]
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if span[6]:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + span[2] - span[1]
            self.work[name] = self.work.get(name, 0) + span[5]
            if span[3] >= 0:
                pair = (spans[span[3]][0], name)
                self.child_calls[pair] = self.child_calls.get(pair, 0) + 1
