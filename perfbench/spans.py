"""In-memory span recording around the program's public functions.

A traced run installs :class:`Hook` wrappers from the benchmark's own code:
each hook replaces one name where the caller looks it up (a module
attribute or a class attribute) and restores it when the run ends, so
nothing under ``src/`` is edited. Every call through a hooked name records
a :class:`Span` with its parent (the innermost hooked call active in the
same thread or asyncio task, tracked with a context variable).

Attribution turns the spans into per-layer self time. A span's self time is
its duration minus the part of it its children cover. When spans run
concurrently (threads, or asyncio tasks suspended inside a span), an
instant covered by several spans' self intervals is split evenly between
them, so the layer rows plus ``unattributed`` (time no span covers) always
sum to the traced wall time.
"""

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


@dataclass
class Span:
    """One hooked call: name, layer, interval and the span that caused it."""

    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    thread: int
    tag: object = None


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` (``"module:attr"`` or ``"module:Class.attr"``).

    ``name`` is the span name (``None`` records no span, only counts);
    ``layer`` the package the time is charged to. ``count`` maps the call's
    ``(args, kwargs)`` to counter increments; ``tag`` maps them to a value
    kept on the span, to match spans across threads.
    """

    target: str
    name: Optional[str]
    layer: str = ""
    count: Optional[Callable[[tuple, dict], Dict[str, float]]] = None
    tag: Optional[Callable[[tuple, dict], object]] = None


class Recorder:
    """Keeps spans and counters in memory for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._parent: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_parent", default=None)
        )

    def add_counts(self, increments: Dict[str, float]) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that records ``hook``'s span and counts."""
        recorder = self

        def enter(args, kwargs):
            if hook.count is not None:
                recorder.add_counts(hook.count(args, kwargs))
            if hook.name is None:
                return None
            parent = recorder._parent.get()
            span_id = next(recorder._ids)
            tag = None if hook.tag is None else hook.tag(args, kwargs)
            return span_id, recorder._parent.set(span_id), parent, tag

        def leave(state, start):
            if state is None:
                return
            span_id, token, parent, tag = state
            end = time.perf_counter()
            recorder._parent.reset(token)
            span = Span(
                span_id,
                parent,
                hook.name,
                hook.layer,
                start,
                end,
                threading.get_ident(),
                tag,
            )
            with recorder._lock:
                recorder.spans.append(span)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(state, start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(args, kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state, start)

        return wrapper

    @contextmanager
    def installed(self, hooks: Sequence[Hook]) -> Iterator["Recorder"]:
        """Patch every hook's target for the block, then restore them all."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for hook in hooks:
                owner, attr = _resolve(hook.target)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(hook, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        """Write the spans (without tags), one JSON object per line, in
        start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = {k: v for k, v in span.__dict__.items() if k != "tag"}
                handle.write(json.dumps(record) + "\n")


@contextmanager
def observe(
    target: str, before: Optional[Callable[[], None]] = None
) -> Iterator[List[Tuple[float, object]]]:
    """Collect ``(wall seconds, return value)`` of every call through
    ``target``, calling ``before`` (untimed) ahead of each.

    The only hook an untraced run uses: two clock reads per call and no
    span, for latencies and outputs of operations the entry point makes
    internally.
    """
    owner, attr = _resolve(target)
    original = owner.__dict__[attr]
    samples: List[Tuple[float, object]] = []

    @functools.wraps(original)
    def timed(*args, **kwargs):
        if before is not None:
            before()
        start = time.perf_counter()
        result = original(*args, **kwargs)
        samples.append((time.perf_counter() - start, result))
        return result

    setattr(owner, attr, timed)
    try:
        yield samples
    finally:
        setattr(owner, attr, original)


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in owner.__dict__:
        raise AttributeError(f"{target}: no attribute {attr!r} to hook")
    return owner, attr


def union(intervals: Sequence[Interval]) -> List[Interval]:
    """Sorted, disjoint union of closed intervals."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def subtract(interval: Interval, covered: Sequence[Interval]) -> List[Interval]:
    """``interval`` minus the union of ``covered``."""
    start, end = interval
    pieces: List[Interval] = []
    cursor = start
    for c_start, c_end in union(covered):
        c_start, c_end = max(c_start, start), min(c_end, end)
        if c_end <= c_start:
            continue
        if c_start > cursor:
            pieces.append((cursor, c_start))
        cursor = max(cursor, c_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_intervals(spans: Sequence[Span]) -> Dict[int, List[Interval]]:
    """Per span id: its interval minus the part its children cover."""
    children: Dict[int, List[Interval]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: subtract((span.start, span.end), children.get(span.id, ()))
        for span in spans
    }


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: duration minus the part its children cover."""
    return {
        span_id: sum(end - start for start, end in pieces)
        for span_id, pieces in self_intervals(spans).items()
    }


def attribute(
    spans: Sequence[Span], wall: Interval
) -> Tuple[Dict[int, float], float]:
    """Split ``wall`` between spans' self intervals; return the rest too.

    Returns ``(credit per span id, unattributed seconds)``. An instant
    inside several spans' self intervals is shared evenly between them, so
    ``sum(credit) + unattributed`` equals the wall time; without
    concurrency each credit equals :func:`self_times`.
    """
    pieces = self_intervals(spans)
    events: Dict[float, int] = {}
    for intervals in pieces.values():
        for start, end in intervals:
            start, end = max(start, wall[0]), min(end, wall[1])
            if end > start:
                events[start] = events.get(start, 0) + 1
                events[end] = events.get(end, 0) - 1
    times = sorted(events)
    # share[i]: integral of dt / active from times[0] to times[i].
    share = [0.0] * len(times)
    active = 0
    covered = 0.0
    for index in range(1, len(times)):
        active += events[times[index - 1]]
        step = times[index] - times[index - 1]
        share[index] = share[index - 1] + (step / active if active else 0.0)
        covered += step if active else 0.0

    def integral(t: float) -> float:
        return share[bisect.bisect_left(times, t)]

    credit: Dict[int, float] = {}
    for span_id, intervals in pieces.items():
        total = 0.0
        for start, end in intervals:
            start, end = max(start, wall[0]), min(end, wall[1])
            if end > start:
                total += integral(end) - integral(start)
        credit[span_id] = total
    return credit, (wall[1] - wall[0]) - covered


def layer_report(
    spans: Sequence[Span], wall: Interval, layers: Sequence[str]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(self seconds per layer incl. 'unattributed', per span name)``.

    Every name in ``layers`` gets a row (zero when untouched); a span whose
    layer is not listed is charged to ``unattributed``.
    """
    credit, unattributed = attribute(spans, wall)
    by_layer = {layer: 0.0 for layer in layers}
    by_name: Dict[str, float] = {}
    for span in spans:
        seconds = credit[span.id]
        by_name[span.name] = by_name.get(span.name, 0.0) + seconds
        if span.layer in by_layer:
            by_layer[span.layer] += seconds
        else:
            unattributed += seconds
    by_layer["unattributed"] = unattributed
    return by_layer, by_name
