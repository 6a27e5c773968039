"""In-memory spans for the traced run, and the statistics taken from them.

A span is (name, start, end, parent).  The recorder keeps spans in a list
and a stack of open spans, so a call made while another is open becomes
its child.  Spans are written out only when the run ends.

The traced run records a span around every call the benchmark makes into
a layer, and, through ``rebound``, around the calls one layer makes into
another: for the duration of a traced round the named module attributes
are replaced by recording wrappers and then put back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at the top
    info: dict | None = None    # counts read from the call's result

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: dict | None = None,
             info: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span named `name`.  `info`, if
        given, maps (args, kwargs, result) to counts kept on the span."""
        kwargs = kwargs or {}
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        span.start = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self._clock()
            self._open.pop()
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.info] for s in self.spans], fh)


@contextmanager
def rebound(recorder: Recorder, bindings):
    """Replace module attributes by recording wrappers for the duration.

    ``bindings`` holds (module, attribute, name, info): `name` is a span
    name or a function of (args, kwargs) giving one, `info` as in
    ``Recorder.call``.
    """
    saved = []
    try:
        for module, attr, name, info in bindings:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _recording(recorder, original, name, info))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _recording(recorder: Recorder, fn: Callable, name, info):
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        return recorder.call(label, fn, args, kwargs, info)
    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between order statistics
    (the median of an even count is the mean of the middle two)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover (children
    are clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - _union_length(children.get(i, ())) for i, s in enumerate(spans)]


def by_name(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, durations, total self time, and the summed
    counts from `info`."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_time in zip(spans, selfs):
        entry = out.setdefault(s.name, {"count": 0, "durations": [], "self": 0.0, "info": {}})
        entry["count"] += 1
        entry["durations"].append(s.duration)
        entry["self"] += self_time
        for key, value in (s.info or {}).items():
            entry["info"][key] = entry["info"].get(key, 0) + value
    return out


def child_time(spans: list[Span], parent_name: str, child_names) -> float:
    """Total duration of spans named in `child_names` whose parent span is
    named `parent_name`."""
    return sum(s.duration for s in spans
               if s.parent >= 0 and s.name in child_names and spans[s.parent].name == parent_name)
