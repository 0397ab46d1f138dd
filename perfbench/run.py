"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload link_invivo --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no spans and prints the end-to-end metrics;
``--trace 1`` re-runs the workload with every layer wrapped and prints the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the output digest and the workload's own figures. Both
are also written under ``perfbench/.out/``.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("link_invivo", "depth_sweep", "plan_serve", "fleet_inventory")
SETUP_REPEATS = 3
SETUP_KERNELS = 3  # reference kernel timings on each side of a set-up probe
READY = "PERFBENCH_READY"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up once, print a ready line, and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_sample(workload: str, clock) -> Tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the workload being set
    up (imports, fixtures, warm-up, and for ``plan_serve`` the server), at
    the reference host speed and on the wall clock."""
    for _ in range(SETUP_KERNELS):
        clock.sample()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--setup-probe"],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        for line in child.stdout:
            if line.strip() == READY:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"{workload} setup probe never got ready")
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=60)
    if code != 0:
        raise RuntimeError(f"{workload} setup probe exited with {code}")
    for _ in range(SETUP_KERNELS):
        clock.sample()
    return clock.scaled(start, start + elapsed), elapsed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The program caches plans on disk when this is set; keep runs in-memory.
    os.environ.pop("REPRO_CACHE_DIR", None)
    # Temporary files (worker-pool sockets too) stay inside the checkout.
    out_dir = ROOT / "perfbench" / ".out"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(out_dir / "tmp")
    from perfbench import common, metrics

    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    teardown = getattr(workload, "teardown", lambda state: None)
    if args.setup_probe:
        state = workload.setup()
        print(READY, flush=True)
        teardown(state)
        return 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = workload.setup()
    try:
        if args.trace:
            traced = workload.trace(state, args.seed, args.seconds)
            traced["recorder"].write_jsonl(out_dir / f"{stem}.spans.jsonl")
            values = metrics.per_layer(traced)
            units = metrics.PER_LAYER
            result = {
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "errors": traced["errors"],
                "digest": traced["digest"],
                "report": {"spans": len(traced["recorder"].spans)},
            }
        else:
            result = workload.measure(state, args.seed, args.seconds)
            values = dict(result["metrics"])
            units = metrics.END_TO_END
    finally:
        teardown(state)
    # After teardown, so the workload's own processes have been waited for
    # and count, and before the set-up probes, which are children too.
    values.setdefault("peak_rss_mb", common.peak_rss_mb())
    if not args.trace:
        clock = common.HostSpeed()
        scaled, wall = zip(
            *(_setup_sample(args.workload, clock) for _ in range(SETUP_REPEATS))
        )
        values["setup_s"] = common.median(scaled)
        result["report"]["setup_samples_s"] = scaled
        result["report"]["setup_wall_samples_s"] = wall

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": result["digest"],
        "errors": result["errors"],
        **result["report"],
    }
    final = {
        "correct": not result["errors"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": final}, indent=1) + "\n"
    )
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
