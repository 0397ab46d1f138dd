"""Plain-text tabular reports for experiment results.

Every experiment returns a :class:`Table`; the benchmark harness prints it
so each bench regenerates the same rows/series the paper's figure shows.
"""

from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.obs.analyze import SpanAggregate, aggregate_spans, build_span_tree


@dataclass
class Table:
    """A titled table with typed-ish formatting.

    Attributes:
        title: Table caption (e.g. "Fig. 9 -- gain vs number of antennas").
        headers: Column names.
        rows: Row values; floats are formatted compactly.
    """

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values for {len(self.headers)} columns"
            )
        self.rows.append(values)

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == 0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def render(self) -> str:
        """Render the table as aligned monospace text."""
        formatted = [[self._format(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(header)), *(len(row[i]) for row in formatted))
            if formatted
            else len(str(header))
            for i, header in enumerate(self.headers)
        ]
        lines = [self.title]
        header_line = "  ".join(
            str(h).ljust(widths[i]) for i, h in enumerate(self.headers)
        )
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in formatted:
            lines.append(
                "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def column(self, name: str) -> List[Any]:
        """All values of one column (for assertions in tests/benches)."""
        try:
            index = list(self.headers).index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; have {list(self.headers)}"
            ) from None
        return [row[index] for row in self.rows]


def _aggregates_by_name(span_dicts: Sequence[dict]) -> List[SpanAggregate]:
    """:func:`aggregate_spans` over exported span dicts, sorted by name."""
    roots, _ = build_span_tree(span_dicts)
    return sorted(aggregate_spans(roots), key=lambda a: a.name)


def runtime_table(span_dicts: Sequence[dict]) -> Table:
    """Per-stage wall-clock/throughput table for the Monte-Carlo runtime.

    Args:
        span_dicts: Exported span dicts (``Tracer.to_dicts()``).  Only the
            stage spans count -- those opened by
            :meth:`repro.obs.context.ObsContext.stage_span`, which carry
            ``stage: true`` and a ``trials`` attribute.
    """
    stages = [
        span for span in span_dicts if (span.get("attrs") or {}).get("stage")
    ]
    table = Table(
        title="Runtime -- per-stage wall clock and trial throughput",
        headers=("stage", "wall (s)", "calls", "trials", "trials/s"),
    )
    total_s = 0.0
    for entry in _aggregates_by_name(stages):
        rate = entry.trials / entry.total_s if entry.total_s > 0.0 else 0.0
        table.add_row(
            entry.name, entry.total_s, entry.count, entry.trials, rate
        )
        total_s += entry.total_s
    table.add_row("TOTAL", total_s, "", "", "")
    return table


def trace_summary_table(span_dicts: Sequence[dict]) -> Table:
    """Aggregate a span list (e.g. a JSONL trace) into a per-name table.

    Args:
        span_dicts: Exported span dicts (``repro.obs.trace`` schema), as
            returned by :func:`repro.obs.read_jsonl` or
            ``Tracer.to_dicts()``.
    """
    table = Table(
        title="Trace -- spans aggregated by name",
        headers=("span", "count", "total (s)", "mean (s)", "max (s)"),
    )
    for entry in _aggregates_by_name(span_dicts):
        table.add_row(
            entry.name, entry.count, entry.total_s, entry.mean_s, entry.max_s
        )
    return table


def self_time_table(analysis) -> Table:
    """Per-name self/total time table for a :class:`TraceAnalysis`.

    Self time is the part of a span not covered by its children -- the
    column that actually localizes cost, since inclusive totals double
    count every ancestor of a hot leaf.
    """
    total_self = sum(a.self_s for a in analysis.aggregates) or 1.0
    table = Table(
        title="Trace -- per-span self time (heaviest first)",
        headers=(
            "span", "count", "self (s)", "self %", "total (s)",
            "mean (s)", "max (s)",
        ),
    )
    for aggregate in analysis.aggregates:
        table.add_row(
            aggregate.name,
            aggregate.count,
            aggregate.self_s,
            100.0 * aggregate.self_s / total_self,
            aggregate.total_s,
            aggregate.mean_s,
            aggregate.max_s,
        )
    return table


def critical_path_table(analysis) -> Table:
    """The heaviest root-to-leaf span chain of a :class:`TraceAnalysis`."""
    table = Table(
        title="Trace -- critical path (heaviest chain, root to leaf)",
        headers=("depth", "span", "total (s)", "self (s)"),
    )
    for entry in analysis.critical_path:
        table.add_row(
            entry.depth,
            "  " * entry.depth + entry.name,
            entry.duration_s,
            entry.self_s,
        )
    return table


def occupancy_table(analysis) -> Table:
    """Worker-lane busy/idle breakdown of a :class:`TraceAnalysis`.

    Utilization is each lane's busy time over the shared chunk window, so
    an early-finishing worker idling behind a straggler reads directly
    off the column.
    """
    table = Table(
        title=(
            "Trace -- worker occupancy over "
            f"{analysis.window_s:.3f}s chunk window"
        ),
        headers=(
            "worker", "chunks", "busy (s)", "util %", "idle (s)", "gaps",
        ),
    )
    for lane in analysis.lanes:
        table.add_row(
            lane.worker,
            lane.chunks,
            lane.busy_s,
            100.0 * lane.utilization,
            lane.idle_s,
            lane.idle_gaps,
        )
    return table


def metrics_table(metrics_dict: dict) -> Table:
    """Render a ``MetricsRegistry.to_dict()`` snapshot as one table.

    Counters and gauges show their value; histograms show count, mean and
    observed extremes (buckets stay in the JSON for machine consumers).
    """
    table = Table(
        title="Metrics -- counters, gauges, histograms",
        headers=("metric", "type", "value", "mean", "min", "max"),
    )
    for name, value in sorted((metrics_dict.get("counters") or {}).items()):
        table.add_row(name, "counter", value, "", "", "")
    for name, value in sorted((metrics_dict.get("gauges") or {}).items()):
        table.add_row(name, "gauge", value, "", "", "")
    for name, data in sorted((metrics_dict.get("histograms") or {}).items()):
        count = int(data.get("count") or 0)
        mean = (float(data.get("total") or 0.0) / count) if count else 0.0
        table.add_row(
            name,
            "histogram",
            count,
            mean,
            "" if data.get("min") is None else data["min"],
            "" if data.get("max") is None else data["max"],
        )
    return table


def ascii_series(
    x: Sequence[float],
    y: Sequence[float],
    width: int = 60,
    height: int = 12,
    title: str = "",
) -> str:
    """Render an (x, y) series as a monospace scatter/line plot.

    A terminal stand-in for the paper's line figures; used by the CLI and
    examples so results are inspectable without matplotlib.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length, non-empty sequences")
    if width < 10 or height < 4:
        raise ValueError("plot must be at least 10x4 characters")
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0
    grid = [[" "] * width for _ in range(height)]
    for px, py in zip(xs, ys):
        column = int((px - x_min) / x_span * (width - 1))
        row = int((py - y_min) / y_span * (height - 1))
        grid[height - 1 - row][column] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:10.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{y_min:10.3g} +" + "-" * width)
    lines.append(
        " " * 12 + f"{x_min:<10.3g}" + " " * max(0, width - 20) + f"{x_max:>10.3g}"
    )
    return "\n".join(lines)


def ascii_cdf(
    samples: Sequence[float], width: int = 60, height: int = 12, title: str = ""
) -> str:
    """Render an empirical CDF (the Figs. 6/12 presentation) in ASCII."""
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("samples must be non-empty")
    fractions = [(index + 1) / len(values) for index in range(len(values))]
    return ascii_series(values, fractions, width=width, height=height, title=title)
