"""Span recording around the public calls of the moi layers, from outside.

The program is not edited: `Tracer.install` replaces each target attribute
with a wrapper that records a span (name, start, end, parent span,
request id) and `Tracer.uninstall` puts the original objects back.  Names
that a module bound with ``from ... import`` are patched where they are
looked up (for example ``pipeline.top_p_truncate`` as well as
``sampler.top_p_truncate``), so every call site is covered.

Spans stay in memory until the run ends.  A span opened while no request
is active, under one of the request names, starts a new request; every
span under it carries that request's id.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

_NO_PARENT = -1


@dataclass
class Spans:
    """Column store of finished and open spans, in the order they started."""

    names: list = field(default_factory=list)
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))
    parent: array = field(default_factory=lambda: array("q"))
    request: array = field(default_factory=lambda: array("q"))
    # per-span values a target's probe extracted (position, support size...)
    info: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: int, end: int, parent: int = _NO_PARENT, request: int = -1) -> int:
        """Append a span; returns its index."""
        idx = len(self.names)
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return idx

    def clear(self) -> None:
        del self.names[:], self.start[:], self.end[:], self.parent[:], self.request[:]
        self.info.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,request\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]},{self.end[i]},{self.parent[i]},{self.request[i]}\n")


def self_times(spans: Spans) -> list[int]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.

    Children are visited in start order (the order spans were opened), so
    one running high-water mark per parent merges overlapping children and
    clips any part of a child that lies outside its parent.
    """
    n = len(spans)
    covered = [0] * n
    mark = [0] * n
    for i in range(n):
        mark[i] = spans.start[i]
    for i in range(n):
        p = spans.parent[i]
        if p == _NO_PARENT:
            continue
        lo = max(spans.start[i], mark[p])
        hi = min(spans.end[i], spans.end[p])
        if hi > lo:
            covered[p] += hi - lo
            mark[p] = hi
    return [spans.end[i] - spans.start[i] - covered[i] for i in range(n)]


@dataclass(frozen=True)
class Target:
    """One traced call: the span name and every place the callable is
    looked up.  `probe(args, result)` may return a value stored with the
    span (it runs after the call, outside the span's interval)."""

    name: str
    sites: tuple  # ((owner, attribute), ...)
    probe: Callable | None = None


class Tracer:
    def __init__(self, targets, request_names=()):
        self.targets = tuple(targets)
        self.request_names = frozenset(request_names)
        self.spans = Spans()
        self._stack: list[int] = []
        self._request = -1
        self._next_request = 0
        self._originals: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            for owner, attr in target.sites:
                # a class attribute is read from __dict__ so the raw function,
                # not a bound or unwrapped descriptor, is what gets restored
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(target.name, original, target.probe))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        opens_request = name in self.request_names
        tracer = self

        def traced(*args, **kwargs):
            own_request = opens_request and tracer._request < 0
            if own_request:
                tracer._request = tracer._next_request
                tracer._next_request += 1
            idx = spans.add(name, 0, 0, stack[-1] if stack else _NO_PARENT, tracer._request)
            stack.append(idx)
            spans.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()
                if own_request:
                    tracer._request = -1
            if probe is not None:
                spans.info[idx] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def wrapper_cost_ns(probe=None, result=None, calls: int = 20000, repeats: int = 7) -> float:
    """What one traced call adds over the plain call, in ns: a function that
    returns `result` is called `calls` times wrapped and unwrapped, and the
    smallest per-call difference of `repeats` tries is kept.  Most of the
    cost lies outside the span's own interval (entering the wrapper, the
    bookkeeping, `probe`), so it lands in the parent span's self time."""

    def empty():
        return result

    tracer = Tracer(())
    wrapped = tracer.wrap("calibration", empty, probe)
    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            empty()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
