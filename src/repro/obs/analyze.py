"""Trace analytics: span trees, self time, critical path, occupancy.

:mod:`repro.obs.trace` answers *what happened*; this module answers *where
the time went*.  It consumes exported span dicts (``Tracer.to_dicts()`` or
:func:`repro.obs.trace.read_jsonl`) and derives:

* a **span tree** (:func:`build_span_tree`) -- absorbed worker roots and
  spans whose parent was dropped by the retention cap become roots, so a
  truncated trace still analyzes instead of erroring;
* **per-name aggregates** (:func:`aggregate_spans`) -- call count, total
  (inclusive) time, *self* time (total minus direct children), mean/max,
  and the summed ``trials`` attribute;
* the **critical path** (:func:`critical_path`) -- the chain of heaviest
  spans from the heaviest root down, i.e. the minimum wall-clock the run
  could take with infinite parallelism elsewhere;
* **worker occupancy** (:func:`worker_occupancy`) -- per-lane busy time,
  utilization over the chunked window, idle gaps, and straggler chunks
  whose duration dwarfs the median (the pool-imbalance signal);
* a **collapsed-stack export** (:func:`collapsed_stacks` /
  :func:`write_collapsed`) in Brendan Gregg's ``stack;frames count``
  format, loadable by speedscope and ``flamegraph.pl`` (values are
  self-time microseconds).

:func:`analyze_trace` bundles all of it for the CLI's
``obs-report --analyze`` renderer.  Chunk spans are recognized by the
``start``/``count`` attributes :func:`repro.runtime.runner._run_chunk`
attaches, and worker lanes by the ``worker`` (pid) attribute the parent
stamps on absorbed subprocess spans -- traces from older revisions without
the pid fall into a single ``"subprocess"`` lane.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SpanNode",
    "SpanAggregate",
    "CriticalPathEntry",
    "WorkerLane",
    "StragglerChunk",
    "TraceAnalysis",
    "build_span_tree",
    "aggregate_spans",
    "critical_path",
    "worker_occupancy",
    "collapsed_stacks",
    "write_collapsed",
    "analyze_trace",
]


@dataclass
class SpanNode:
    """One span plus its children in the reconstructed tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    attrs: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    @property
    def self_s(self) -> float:
        """Duration not covered by direct children (clamped at 0)."""
        return max(
            0.0, self.duration_s - sum(c.duration_s for c in self.children)
        )


@dataclass
class SpanAggregate:
    """Accumulated cost of every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    trials: int = 0
    """Sum of the spans' ``trials`` attribute (0 where absent)."""

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class CriticalPathEntry:
    """One hop of the heaviest root-to-leaf chain."""

    name: str
    duration_s: float
    self_s: float
    depth: int


@dataclass
class WorkerLane:
    """Chunk activity of one execution lane (a worker pid or "main")."""

    worker: str
    chunks: int
    busy_s: float
    first_start_s: float
    last_end_s: float
    utilization: float
    """busy_s over the global chunk window (all lanes)."""
    idle_s: float
    """Gap time between this lane's consecutive chunks."""
    idle_gaps: int
    """Number of inter-chunk gaps at least ``idle_gap_min_s`` long."""


@dataclass
class StragglerChunk:
    """A chunk span whose duration dwarfs the median chunk."""

    name: str
    worker: str
    duration_s: float
    median_ratio: float
    start: Optional[int]
    count: Optional[int]


@dataclass
class TraceAnalysis:
    """Everything ``obs-report --analyze`` renders."""

    span_count: int
    roots: List[SpanNode]
    orphans: int
    """Spans whose parent_id did not resolve (promoted to roots)."""
    aggregates: List[SpanAggregate]
    critical_path: List[CriticalPathEntry]
    lanes: List[WorkerLane]
    stragglers: List[StragglerChunk]
    window_s: float
    """Wall-clock extent of the chunked region (0 without chunk spans)."""


def build_span_tree(
    span_dicts: Sequence[Dict[str, Any]],
) -> Tuple[List[SpanNode], int]:
    """Reconstruct the span forest from exported span dicts.

    Returns ``(roots, orphan_count)``.  A span whose ``parent_id`` does not
    resolve within the trace (its parent was dropped by the retention cap,
    or the file was truncated) is promoted to a root and counted as an
    orphan rather than discarded -- analytics on a capped trace degrade
    gracefully instead of failing.
    """
    nodes: Dict[int, SpanNode] = {}
    for payload in span_dicts:
        node = SpanNode(
            name=str(payload["name"]),
            span_id=int(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None
                else int(payload["parent_id"])
            ),
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            attrs=dict(payload.get("attrs") or {}),
        )
        nodes[node.span_id] = node
    roots: List[SpanNode] = []
    orphans = 0
    for node in nodes.values():
        if node.parent_id is not None and node.parent_id in nodes:
            nodes[node.parent_id].children.append(node)
        else:
            if node.parent_id is not None:
                orphans += 1
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.start_s)
    roots.sort(key=lambda node: node.start_s)
    return roots, orphans


def _walk(roots: Sequence[SpanNode]):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def aggregate_spans(roots: Sequence[SpanNode]) -> List[SpanAggregate]:
    """Per-name totals over the forest, heaviest self time first."""
    by_name: Dict[str, SpanAggregate] = {}
    for node in _walk(roots):
        entry = by_name.setdefault(node.name, SpanAggregate(name=node.name))
        entry.count += 1
        entry.total_s += node.duration_s
        entry.self_s += node.self_s
        entry.max_s = max(entry.max_s, node.duration_s)
        entry.trials += int(node.attrs.get("trials") or 0)
    return sorted(
        by_name.values(), key=lambda a: (-a.self_s, -a.total_s, a.name)
    )


def critical_path(roots: Sequence[SpanNode]) -> List[CriticalPathEntry]:
    """The heaviest root-to-leaf chain (descend into the longest child).

    For a span tree whose siblings run sequentially this is the classic
    critical path: the chain that bounds the run's wall clock from below
    no matter how much everything off the chain is parallelized.
    """
    if not roots:
        return []
    node = max(roots, key=lambda n: n.duration_s)
    path: List[CriticalPathEntry] = []
    depth = 0
    while node is not None:
        path.append(
            CriticalPathEntry(
                name=node.name,
                duration_s=node.duration_s,
                self_s=node.self_s,
                depth=depth,
            )
        )
        node = (
            max(node.children, key=lambda n: n.duration_s)
            if node.children
            else None
        )
        depth += 1
    return path


def _is_chunk(node: SpanNode) -> bool:
    """Runner chunk spans carry start/count attrs (see _run_chunk)."""
    return "start" in node.attrs and "count" in node.attrs


def _lane_of(node: SpanNode) -> str:
    worker = node.attrs.get("worker")
    if worker is not None:
        return str(worker)
    return "subprocess" if node.attrs.get("subprocess") else "main"


def worker_occupancy(
    roots: Sequence[SpanNode],
    idle_gap_min_s: float = 0.0,
    straggler_factor: float = 2.0,
) -> Tuple[List[WorkerLane], List[StragglerChunk], float]:
    """Per-lane busy/idle breakdown of the runner's chunk spans.

    Returns ``(lanes, stragglers, window_s)`` where ``window_s`` spans the
    first chunk start to the last chunk end across all lanes.  Utilization
    is each lane's busy time over that shared window, so a worker that
    finished early (then idled while a straggler ran) shows up directly.
    A chunk is a straggler when its duration is at least
    ``straggler_factor`` times the median chunk duration (and there are
    at least two chunks to compare).
    """
    chunks = [node for node in _walk(roots) if _is_chunk(node)]
    if not chunks:
        return [], [], 0.0
    window_lo = min(node.start_s for node in chunks)
    window_hi = max(node.end_s for node in chunks)
    window_s = max(0.0, window_hi - window_lo)
    by_lane: Dict[str, List[SpanNode]] = {}
    for node in chunks:
        by_lane.setdefault(_lane_of(node), []).append(node)
    lanes: List[WorkerLane] = []
    for worker in sorted(by_lane):
        members = sorted(by_lane[worker], key=lambda n: n.start_s)
        busy = sum(node.duration_s for node in members)
        idle = 0.0
        gaps = 0
        for left, right in zip(members, members[1:]):
            gap = right.start_s - left.end_s
            if gap > 0:
                idle += gap
                if gap >= idle_gap_min_s:
                    gaps += 1
        lanes.append(
            WorkerLane(
                worker=worker,
                chunks=len(members),
                busy_s=busy,
                first_start_s=members[0].start_s,
                last_end_s=members[-1].end_s,
                utilization=(busy / window_s) if window_s > 0 else 1.0,
                idle_s=idle,
                idle_gaps=gaps,
            )
        )
    durations = sorted(node.duration_s for node in chunks)
    mid = len(durations) // 2
    median = (
        durations[mid]
        if len(durations) % 2
        else 0.5 * (durations[mid - 1] + durations[mid])
    )
    stragglers: List[StragglerChunk] = []
    if len(chunks) >= 2 and median > 0:
        for node in chunks:
            ratio = node.duration_s / median
            if ratio >= straggler_factor:
                stragglers.append(
                    StragglerChunk(
                        name=node.name,
                        worker=_lane_of(node),
                        duration_s=node.duration_s,
                        median_ratio=ratio,
                        start=node.attrs.get("start"),
                        count=node.attrs.get("count"),
                    )
                )
        stragglers.sort(key=lambda s: -s.median_ratio)
    return lanes, stragglers, window_s


def collapsed_stacks(
    span_dicts: Sequence[Dict[str, Any]],
) -> Dict[str, int]:
    """Aggregate self time by call stack, in microseconds.

    The keys are semicolon-joined root-to-span name paths, the values
    integer self-time microseconds -- Brendan Gregg's collapsed format,
    importable by speedscope and ``flamegraph.pl``.  Zero-microsecond
    stacks are omitted (they would render as empty frames).
    """
    roots, _ = build_span_tree(span_dicts)
    stacks: Dict[str, int] = {}

    def descend(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.name}" if prefix else node.name
        micros = int(round(node.self_s * 1e6))
        if micros > 0:
            stacks[stack] = stacks.get(stack, 0) + micros
        for child in node.children:
            descend(child, stack)

    for root in roots:
        descend(root, "")
    return stacks


def write_collapsed(path, span_dicts: Sequence[Dict[str, Any]]) -> None:
    """Write :func:`collapsed_stacks` output as ``stack count`` lines."""
    stacks = collapsed_stacks(span_dicts)
    with open(path, "w", encoding="utf-8") as handle:
        for stack in sorted(stacks):
            handle.write(f"{stack} {stacks[stack]}\n")


def analyze_trace(
    span_dicts: Sequence[Dict[str, Any]],
    idle_gap_min_s: float = 0.0,
    straggler_factor: float = 2.0,
) -> TraceAnalysis:
    """Full analysis bundle for a list of exported span dicts."""
    roots, orphans = build_span_tree(span_dicts)
    lanes, stragglers, window_s = worker_occupancy(
        roots,
        idle_gap_min_s=idle_gap_min_s,
        straggler_factor=straggler_factor,
    )
    return TraceAnalysis(
        span_count=len(span_dicts),
        roots=roots,
        orphans=orphans,
        aggregates=aggregate_spans(roots),
        critical_path=critical_path(roots),
        lanes=lanes,
        stragglers=stragglers,
        window_s=window_s,
    )
