"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig09
    python -m repro.experiments fig13 --fast
    python -m repro.experiments all --fast
    python -m repro.experiments fig09 --workers 4 --timings
    python -m repro.experiments fig09 --adaptive --ci-relative 0.05 \
        --max-trials 400
    python -m repro.experiments fig09 --fast --trace-out t.jsonl \
        --metrics-out m.json --manifest-out r.json
    python -m repro.experiments obs-report --trace-in t.jsonl \
        --metrics-in m.json
    python -m repro.experiments obs-report --trace-in t.jsonl --analyze \
        --collapsed-out t.collapsed
    python -m repro.experiments fig09 --fast --workers 4 --profile \
        --trace-out t.jsonl

Each experiment prints the table(s) the corresponding paper figure shows.
Monte-Carlo experiments run on the batched :mod:`repro.runtime` engine;
``--workers`` fans trial chunks across processes (results are bit-identical
for any worker count), ``--search-islands N`` runs every frequency search
as N independent islands merged deterministically (fanned across the same
workers; the island count is part of the plan-cache key), ``--adaptive``
streams trials in batches and stops each sweep point once its confidence
interval meets the ``--ci-target`` / ``--ci-relative`` target (results are
the exact bitwise prefix of the fixed run; the policy is part of the
plan-cache key), ``--timings`` prints the per-stage runtime table
(worker-process stages are merged back into it) plus plan-cache hit/miss
counts, and ``--no-plan-cache`` disables the frequency-search cache.

Every invocation runs inside its own observability scope
(:func:`repro.obs.obs_context`): ``--trace-out`` writes the span tree as
JSONL, ``--metrics-out`` writes the metrics registry as JSON, and
``--manifest-out`` writes a run manifest (configs, seeds, git rev,
versions, metric summary) sufficient to reproduce the printed tables. The
``obs-report`` subcommand renders those files back into summary tables;
``--analyze`` adds trace analytics (critical path, per-span self time,
worker occupancy with straggler/idle-gap detection) and
``--collapsed-out`` exports the trace as collapsed stacks for
speedscope / ``flamegraph.pl``. ``--profile`` opts the runtime into its
pool-profiling hooks (dispatch latency, queue wait, chunk skew,
serialization overhead) for the run.
"""

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    ablations,
    ber,
    constraint_check,
    degradation,
    fig04,
    fig05,
    fig06,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fleet,
    invivo,
    inventory_throughput,
    optogenetics,
    sensitivity,
    wakeup_latency,
)


def _tables_of(result) -> List:
    """Collect every table a result object can produce."""
    tables = []
    many = getattr(result, "tables", None)
    if callable(many):
        tables.extend(many())
        return tables
    for attribute in (
        "table",
        "monte_carlo_table",
        "depth_table",
        "orientation_table",
    ):
        method = getattr(result, attribute, None)
        if callable(method):
            tables.append(method())
    if not tables and hasattr(result, "render"):
        tables.append(result)
    return tables


def _configure(config, workers: int, adaptive=None):
    """Apply the --workers / --adaptive overrides to configs that support them."""
    fields = {f.name for f in dataclasses.fields(config)}
    overrides = {}
    if workers > 1 and "workers" in fields:
        overrides["workers"] = workers
    if adaptive is not None and "adaptive" in fields:
        overrides["adaptive"] = adaptive
    if overrides:
        return dataclasses.replace(config, **overrides)
    return config


def _run_figure(
    module,
    fast: bool,
    workers: int = 1,
    record: Optional[dict] = None,
    adaptive=None,
):
    config_cls = next(
        (
            cls
            for name in dir(module)
            if name.endswith("Config")
            # Defined by the module itself, not imported into it (the
            # drivers import AdaptiveConfig, which also matches *Config).
            for cls in [getattr(module, name)]
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ),
        None,
    )
    if config_cls is None:
        return module.run()
    config = config_cls.fast() if fast and hasattr(config_cls, "fast") else config_cls()
    config = _configure(config, workers, adaptive)
    if record is not None:
        record["config"] = config
    return module.run(config)


def _run_ablations(
    fast: bool,
    workers: int = 1,
    record: Optional[dict] = None,
    adaptive=None,
):
    config = (
        ablations.AblationConfig.fast() if fast else ablations.AblationConfig()
    )
    config = _configure(config, workers, adaptive)
    if record is not None:
        record["config"] = config
    return ablations.run(config)


EXPERIMENTS: Dict[str, Callable[..., object]] = {
    "fig04": lambda fast, workers, record=None, adaptive=None: _run_figure(fig04, fast, workers, record, adaptive),
    "fig05": lambda fast, workers, record=None, adaptive=None: _run_figure(fig05, fast, record=record),
    "fig06": lambda fast, workers, record=None, adaptive=None: _run_figure(fig06, fast, record=record),
    "fig09": lambda fast, workers, record=None, adaptive=None: _run_figure(fig09, fast, workers, record, adaptive),
    "fig10": lambda fast, workers, record=None, adaptive=None: _run_figure(fig10, fast, workers, record, adaptive),
    "fig11": lambda fast, workers, record=None, adaptive=None: _run_figure(fig11, fast, workers, record, adaptive),
    "fig12": lambda fast, workers, record=None, adaptive=None: _run_figure(fig12, fast, workers, record),
    "fig13": lambda fast, workers, record=None, adaptive=None: _run_figure(fig13, fast, workers, record, adaptive),
    "fleet": lambda fast, workers, record=None, adaptive=None: _run_figure(fleet, fast, workers, record),
    "invivo": lambda fast, workers, record=None, adaptive=None: _run_figure(invivo, fast, record=record),
    "optogenetics": lambda fast, workers, record=None, adaptive=None: _run_figure(optogenetics, fast, record=record),
    "throughput": lambda fast, workers, record=None, adaptive=None: _run_figure(inventory_throughput, fast, record=record),
    "wakeup": lambda fast, workers, record=None, adaptive=None: _run_figure(wakeup_latency, fast, record=record, adaptive=adaptive),
    "sensitivity": lambda fast, workers, record=None, adaptive=None: _run_figure(sensitivity, fast, record=record),
    "ber": lambda fast, workers, record=None, adaptive=None: _run_figure(ber, fast, workers, record, adaptive),
    "constraints": lambda fast, workers, record=None, adaptive=None: constraint_check.run(),
    "degradation": lambda fast, workers, record=None, adaptive=None: _run_figure(degradation, fast, workers, record),
    "ablations": _run_ablations,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the IVN paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all", "obs-report", "serve"],
        help="which experiment to run ('list' to enumerate, 'all' for every "
        "one, 'obs-report' to summarize previously written trace/metrics "
        "files, 'serve' to run the long-lived planning server)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use reduced trial counts (quick smoke run)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render ASCII plots for results with natural series/CDFs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for Monte-Carlo trial chunks (default 1; "
        "results are identical for any value)",
    )
    parser.add_argument(
        "--search-islands",
        type=int,
        default=1,
        metavar="N",
        help="independent islands per frequency search (default 1); islands "
        "are fanned across --workers processes and merged deterministically",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="stream Monte-Carlo trials in batches and stop each sweep "
        "point once its confidence interval is tight (defaults to a 10%% "
        "relative half-width when no --ci-* target is given)",
    )
    parser.add_argument(
        "--ci-target",
        type=float,
        metavar="W",
        help="absolute CI half-width target per sweep point (requires "
        "--adaptive)",
    )
    parser.add_argument(
        "--ci-relative",
        type=float,
        metavar="FRAC",
        help="relative CI half-width target, as a fraction of the "
        "estimate (requires --adaptive)",
    )
    parser.add_argument(
        "--min-trials",
        type=int,
        metavar="N",
        help="trials every point runs before the stop rule applies "
        "(requires --adaptive; default 32)",
    )
    parser.add_argument(
        "--batch-trials",
        type=int,
        metavar="N",
        help="trials requested per adaptive batch (requires --adaptive; "
        "default 32)",
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        metavar="N",
        help="per-point trial budget (requires --adaptive; default: the "
        "experiment's configured trial count)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print the per-stage runtime table (worker-process stages are "
        "merged in) and plan-cache hit/miss counts",
    )
    parser.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="disable the frequency-search plan cache",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the run's span trace as JSONL (one span per line)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's aggregated metrics registry as JSON",
    )
    parser.add_argument(
        "--tables-out",
        metavar="PATH",
        help="write results that expose a JSON payload (e.g. degradation "
        "tables) as one JSON document keyed by experiment name",
    )
    parser.add_argument(
        "--manifest-out",
        metavar="PATH",
        help="write a JSON run manifest (configs, seeds, git rev, versions, "
        "metric summary) sufficient to rerun the experiment",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable pool profiling hooks (dispatch latency, queue wait, "
        "chunk skew, serialization overhead); adds measurable overhead, "
        "so it is opt-in",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="serve: bind port (default 8787; 0 picks an ephemeral port, "
        "announced on the SERVE_READY stdout line)",
    )
    parser.add_argument(
        "--flush-ms",
        type=float,
        default=10.0,
        metavar="MS",
        help="serve: micro-batch flush window in milliseconds (default 10)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="N",
        help="serve: flush a batch as soon as N requests are pending "
        "(default 32)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="serve: persistent SQLite plan store (the durable cache tier); "
        "omitted = memory-only caching",
    )
    parser.add_argument(
        "--store-max-entries",
        type=int,
        metavar="N",
        help="serve: LRU cap on the persistent plan store (default "
        "unbounded)",
    )
    parser.add_argument(
        "--mem-entries",
        type=int,
        metavar="N",
        help="serve: LRU cap on the in-memory plan-cache tier (default "
        "unbounded)",
    )
    parser.add_argument(
        "--trace-in",
        metavar="PATH",
        help="obs-report: trace JSONL file to summarize",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="obs-report: run trace analytics on --trace-in (critical "
        "path, per-span self time, worker occupancy, stragglers)",
    )
    parser.add_argument(
        "--collapsed-out",
        metavar="PATH",
        help="obs-report: write --trace-in as collapsed stacks "
        "(speedscope / flamegraph.pl format, self-time microseconds)",
    )
    parser.add_argument(
        "--metrics-in",
        metavar="PATH",
        help="obs-report: metrics JSON file to summarize",
    )
    parser.add_argument(
        "--manifest-in",
        metavar="PATH",
        help="obs-report: run manifest to summarize",
    )
    return parser


def _adaptive_config(args, parser):
    """Build the AdaptiveConfig the --adaptive flags describe (or None)."""
    sub_flags = {
        "--ci-target": args.ci_target,
        "--ci-relative": args.ci_relative,
        "--min-trials": args.min_trials,
        "--batch-trials": args.batch_trials,
        "--max-trials": args.max_trials,
    }
    if not args.adaptive:
        given = [name for name, value in sub_flags.items() if value is not None]
        if given:
            parser.error(f"{', '.join(given)} require(s) --adaptive")
        return None
    from repro.runtime import AdaptiveConfig

    ci_target = args.ci_target
    ci_relative = args.ci_relative
    if ci_target is None and ci_relative is None:
        ci_relative = 0.1
    kwargs = {"ci_target": ci_target, "ci_relative": ci_relative}
    if args.min_trials is not None:
        kwargs["min_trials"] = args.min_trials
    if args.batch_trials is not None:
        kwargs["batch_trials"] = args.batch_trials
    if args.max_trials is not None:
        kwargs["max_trials"] = args.max_trials
    try:
        return AdaptiveConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _obs_report(args) -> int:
    """Render previously written trace / metrics / manifest files."""
    from repro.experiments.report import (
        Table,
        metrics_table,
        trace_summary_table,
    )
    from repro.obs import read_jsonl, read_manifest, validate_manifest

    if not (args.trace_in or args.metrics_in or args.manifest_in):
        print(
            "obs-report needs at least one of --trace-in, --metrics-in, "
            "--manifest-in",
            file=sys.stderr,
        )
        return 2
    if args.manifest_in:
        manifest = read_manifest(args.manifest_in)
        problems = validate_manifest(manifest)
        table = Table(
            title=f"Run manifest -- {manifest.get('experiment', '?')}",
            headers=("field", "value"),
        )
        environment = manifest.get("environment") or {}
        table.add_row("schema_version", manifest.get("schema_version"))
        table.add_row("experiment", manifest.get("experiment"))
        table.add_row("workers", manifest.get("workers"))
        table.add_row(
            "engine_tiers", ",".join(manifest.get("engine_tiers") or []) or "-"
        )
        table.add_row(
            "seeds",
            ",".join(
                str(run.get("seed"))
                for run in manifest.get("runs", [])
            )
            or "-",
        )
        table.add_row("git_rev", environment.get("git_rev") or "-")
        table.add_row("package", environment.get("package_version") or "-")
        table.add_row(
            "command",
            " ".join(manifest.get("command") or []) or "-",
        )
        table.add_row("valid", not problems)
        print()
        print(table.render())
        for problem in problems:
            print(f"  manifest problem: {problem}")
    if args.trace_in:
        spans = read_jsonl(args.trace_in)
        print()
        print(trace_summary_table(spans).render())
        print(f"({len(spans)} spans in {args.trace_in})")
        if args.analyze:
            from repro.experiments.report import (
                critical_path_table,
                occupancy_table,
                self_time_table,
            )
            from repro.obs import analyze_trace

            analysis = analyze_trace(spans)
            print()
            print(critical_path_table(analysis).render())
            print()
            print(self_time_table(analysis).render())
            if analysis.lanes:
                print()
                print(occupancy_table(analysis).render())
            for straggler in analysis.stragglers:
                print(
                    f"  straggler: {straggler.name} on worker "
                    f"{straggler.worker} took {straggler.duration_s:.3f}s "
                    f"({straggler.median_ratio:.1f}x median chunk)"
                )
            if analysis.orphans:
                print(
                    f"  note: {analysis.orphans} span(s) had dropped "
                    "parents (retention cap) and were promoted to roots"
                )
        if args.collapsed_out:
            from repro.obs import write_collapsed

            write_collapsed(args.collapsed_out, spans)
            print(f"collapsed stacks written to {args.collapsed_out}")
    elif args.analyze or args.collapsed_out:
        print(
            "--analyze/--collapsed-out need --trace-in",
            file=sys.stderr,
        )
        return 2
    if args.metrics_in:
        with open(args.metrics_in, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        print()
        print(metrics_table(metrics).render())
    return 0


def _serve(args, parser) -> int:
    """Run the planning server until POST /shutdown (or Ctrl-C)."""
    import asyncio

    from repro.obs import obs_context
    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    if args.flush_ms < 0:
        parser.error("--flush-ms must be >= 0")
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    config = ServeConfig(
        workers=args.workers,
        flush_window_s=args.flush_ms / 1e3,
        max_batch=args.max_batch,
        store_path=args.store,
        store_max_entries=args.store_max_entries,
        mem_entries=args.mem_entries,
        cache_enabled=not args.no_plan_cache,
    )
    with obs_context(profile=args.profile) as obs:
        try:
            asyncio.run(run_server(config, host=args.host, port=args.port))
        except KeyboardInterrupt:
            pass
        if args.trace_out:
            obs.tracer.write_jsonl(args.trace_out)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(
                    obs.metrics.to_dict(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.experiment == "obs-report":
        return _obs_report(args)
    if args.experiment == "serve":
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        return _serve(args, parser)

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.search_islands < 1:
        parser.error("--search-islands must be >= 1")
    adaptive = _adaptive_config(args, parser)
    if args.no_plan_cache:
        from repro.runtime import configure_plan_cache

        configure_plan_cache(enabled=False)
    if args.search_islands > 1 or args.workers > 1 or adaptive is not None:
        from repro.runtime import configure_search

        configure_search(
            islands=args.search_islands,
            workers=args.workers,
            adaptive_token=(
                adaptive.cache_token() if adaptive is not None else None
            ),
        )

    from repro.obs import build_manifest, obs_context, run_record, write_manifest

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    runs = []
    payloads: Dict[str, dict] = {}
    with obs_context(profile=args.profile) as obs:
        for name in names:
            record: dict = {}
            start = time.perf_counter()
            with obs.tracer.span("cli.experiment", experiment=name):
                result = EXPERIMENTS[name](
                    args.fast, args.workers, record, adaptive=adaptive
                )
            elapsed = time.perf_counter() - start
            runs.append(
                run_record(
                    name, config=record.get("config"), elapsed_s=elapsed
                )
            )
            print()
            print(f"### {name} ({elapsed:.1f} s)")
            items = result if isinstance(result, list) else _tables_of(result)
            for table in items:
                print()
                print(table.render() if hasattr(table, "render") else table)
            if args.plot:
                for plot in _plots_of(result):
                    print()
                    print(plot)
            dump = getattr(result, "to_json_dict", None)
            if callable(dump):
                payloads[name] = dump()
        if args.tables_out:
            with open(args.tables_out, "w", encoding="utf-8") as handle:
                json.dump(
                    {"experiments": payloads}, handle, indent=2, sort_keys=True
                )
                handle.write("\n")
        if args.timings:
            from repro.experiments.report import runtime_table

            counters = obs.metrics.counters()
            print()
            print(runtime_table(obs.tracer.to_dicts()).render())
            print(
                "plan cache: "
                f"{int(counters.get('plan_cache.hits', 0))} hits, "
                f"{int(counters.get('plan_cache.misses', 0))} misses, "
                f"{int(counters.get('plan_cache.evictions', 0))} evictions"
            )
        if args.trace_out:
            obs.tracer.write_jsonl(args.trace_out)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(obs.metrics.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        if args.manifest_out:
            command = ["python", "-m", "repro.experiments"] + list(
                argv if argv is not None else sys.argv[1:]
            )
            write_manifest(
                args.manifest_out,
                build_manifest(
                    runs,
                    workers=args.workers,
                    command=command,
                    metrics=obs.metrics.summary(),
                    trace_path=args.trace_out,
                ),
            )
    return 0


def _plots_of(result) -> List[str]:
    """ASCII plots for results exposing natural series or sample sets."""
    from repro.experiments.report import ascii_cdf, ascii_series

    plots: List[str] = []
    if hasattr(result, "antenna_counts") and hasattr(result, "medians"):
        plots.append(
            ascii_series(
                result.antenna_counts,
                result.medians,
                title="median gain vs antennas",
            )
        )
    if hasattr(result, "ratios"):
        plots.append(ascii_cdf(result.ratios, title="CIB/baseline ratio CDF"))
    if hasattr(result, "best_gains") and hasattr(result, "worst_gains"):
        plots.append(ascii_cdf(result.best_gains, title="best-set gain CDF"))
        plots.append(ascii_cdf(result.worst_gains, title="worst-set gain CDF"))
    if hasattr(result, "panels"):
        for (tag, medium), series in result.panels.items():
            plots.append(
                ascii_series(
                    [n for n, _ in series],
                    [value for _, value in series],
                    title=f"{tag} tag range/depth vs antennas ({medium})",
                )
            )
    return plots


if __name__ == "__main__":
    sys.exit(main())
