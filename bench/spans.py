"""Span recording around predictorlab's module boundaries.

The traced run replaces, from the benchmark only, the public functions that
predictorlab's modules call on each other with thin wrappers that record a
span per call: name (``<defining module>.<function>``), start, end, parent
span and request id.  Spans stay in memory and are written out once the run
ends; a layer's self time is its span's duration minus the union of the
intervals its child spans cover, which stays right when an experiment's
children overlap on the worker pool.

Pool threads start with an empty span stack.  The experiments only hand work
to the pool while the calling thread waits inside the experiment, so a span
opened on a thread with an empty stack is parented to the innermost span open
on the thread that started the request.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int


class SpanRecorder:
    """Thread-safe in-memory span store with one open request at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request = -1
        self._root_stack: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request: int) -> None:
        self._request = request
        self._root_stack = self._stack()

    def call(self, name: str, fn: Callable, args, kwargs, on_return=None):
        """Run fn(*args, **kwargs) inside a span named ``name``.

        ``on_return(args, kwargs, result)`` runs after the span has closed,
        so work done to compute counts is not charged to the layer.
        """
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if stack:
                parent = stack[-1]
            elif self._root_stack:
                parent = self._root_stack[-1]
            else:
                parent = None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       self._request, threading.get_ident()))
        if on_return is not None:
            on_return(args, kwargs, result)
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def install(recorder: SpanRecorder, targets, hooks=None) -> Callable[[], None]:
    """Wrap ``module.attr`` for each (module, attr, span name) in targets.

    Returns a function that puts the original attributes back.  ``hooks``
    maps a span name to an ``on_return`` callback for counts computed from
    arguments and results.
    """
    hooks = hooks or {}
    saved = []
    for module, attr, name in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            return recorder.call(_name, _fn, args, kwargs, hooks.get(_name))
        functools.update_wrapper(wrapper, original)
        setattr(module, attr, wrapper)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore
