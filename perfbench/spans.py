"""Span recording for the traced benchmark run, and the statistics the
benchmark reports.

A traced run replaces public functions of the program's layers with
wrappers that record one span per call: ``(span id, parent span id,
name, start ns, end ns)``.  The wrappers live only inside
:func:`patched`, which puts every original attribute back when it
exits, so an untraced run -- which never enters it -- runs the program
exactly as shipped.  Spans stay in memory and are written out when the
run ends.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence

# A layer's reported percentile needs this many samples beyond it.
MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name`` per call; ``on_result``
        sees ``(tracer, args, result)`` to count work done.  The span is
        recorded inline, not through :meth:`span`, to keep the cost per
        call low on the hot paths it wraps."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(self, args, out)
            return out
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _, name, t0, t1 in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += (t1 - t0) / 1e9
            agg["self_s"] += selfs[sid] / 1e9
        return dict(out)

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, ordered by start time."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1 in sorted(
                    self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1}) + "\n")


def self_times(spans: Sequence[tuple[int, int, str, int, int]]
               ) -> dict[int, int]:
    """Span id -> its duration minus the part of its interval that its
    child spans cover; overlapping children count once."""
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        covered, end = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


@contextlib.contextmanager
def patched(targets: Sequence[tuple[object, str, Callable]]
            ) -> Iterator[None]:
    """Set ``owner.attr = make(original)`` for each target while the
    block runs; restore every original on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, only if at least
    :data:`MIN_BEYOND` samples lie above it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has only {n - rank} "
                         f"beyond it (need {MIN_BEYOND})")
    return sorted(samples)[rank - 1]


def typical(samples: Sequence[float]) -> tuple[float, str]:
    """The median when it has :data:`MIN_BEYOND` samples beyond it,
    else the mean; returns ``(value, statistic name)``."""
    try:
        return percentile(samples, 50), "p50"
    except ValueError:
        return sum(samples) / len(samples), "mean"
