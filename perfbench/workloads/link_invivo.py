"""Sec. 6.2 swine matrix through ``IvnLink.run_trial``: the whole paper.

Gastric/subcutaneous x standard/miniature tag, 8 antennas, six placements
each, through ``repro.experiments.invivo.run`` with the workload seed as
``InVivoConfig.seed``. A quarter of the trials stop at power-up
(gastric/miniature); the rest run the PIE query, the Gen2 reply, the
out-of-band capture and the FM0 decode. Serial: ``runtime`` is never used.
"""

import time
from typing import Dict, List, Tuple

from perfbench import common, spans
from perfbench.hooks import HOOKS

RUN_TRIAL = "repro.reader.link:IvnLink.run_trial"
RESPOND = "repro.sensors.sensor:BatteryFreeSensor.respond_to_query"
TAIL_PERCENTILE = 99.0
MIN_MATRICES = 42  # 24 trials each: a p99 with ten trials beyond it


def setup() -> None:
    from repro.experiments import invivo

    invivo.run(invivo.InVivoConfig())
    return None


def _matrix(seed: int):
    """One matrix, with every reply the tags sent, in trial order."""
    from repro.experiments import invivo

    with spans.observe(RESPOND) as replies:
        result = invivo.run(invivo.InVivoConfig(seed=seed))
    return result, [reply for _, reply in replies if reply is not None]


def output(result) -> Dict:
    """The matrix as plain data (what the digest and the checks see)."""
    return {
        f"{placement}/{tag}": [
            {
                "powered": trial.powered,
                "query_decoded": trial.query_decoded,
                "replied": trial.reply_sent,
                "success": trial.success,
                "correlation": trial.correlation,
                "bits": list(trial.decode.bits) if trial.decode else [],
            }
            for trial in trials
        ]
        for (placement, tag), trials in result.trials.items()
    }


def check(matrix: Dict, replies: List[Tuple[int, ...]]) -> List[str]:
    """Sec. 6.2 shape, and every success decodes exactly the tag's reply."""
    errors = []
    if any(t["powered"] for t in matrix["gastric/miniature"]):
        errors.append("gastric/miniature powered up")
    for tag in ("standard", "miniature"):
        if not all(t["success"] for t in matrix[f"subcutaneous/{tag}"]):
            errors.append(f"subcutaneous/{tag} failed a trial")
    replied = [t for cell in matrix.values() for t in cell if t["replied"]]
    if len(replied) != len(replies):
        errors.append(f"{len(replied)} trials replied, {len(replies)} replies sent")
    for trial, bits in zip(replied, replies):
        if trial["success"] and trial["bits"] != list(bits):
            errors.append("a successful decode differs from the reply")
    return errors


def _run_matrix(seed: int):
    result, replies = _matrix(seed)
    matrix = output(result)
    return matrix, check(matrix, [tuple(r.bits) for r in replies])


def measure(state, seed: int, seconds: float) -> Dict:
    first: List[Dict] = []
    errors: List[str] = []
    units: List[Tuple[float, float]] = []
    trial_s: List[float] = []
    clock = common.HostSpeed()
    with spans.observe(RUN_TRIAL) as trials:
        def step():
            (matrix, problems), unit = clock.timed(_run_matrix, seed)
            units.append(unit)
            errors.extend(problems)
            # Keep only the first matrix and the trial times, so memory does
            # not grow with the number of matrices a run completes.
            if not first:
                first.append(matrix)
            elif matrix != first[0]:
                errors.append("repeated matrices on one seed differ")
            trial_s.extend(call_s for call_s, _ in trials)
            trials.clear()

        common.repeat_for(seconds, step, MIN_MATRICES)
    clock.sample()
    # Trials per second over the window, including what invivo.run does
    # around the trials, at the reference host speed.
    wall = [end - start for start, end in units]
    rate = len(trial_s) / sum(clock.scaled(*unit) for unit in units)
    return {
        "attempted": len(trial_s),
        "failed": 0,
        "errors": sorted(set(errors)),
        "digest": common.digest(first[0]),
        "metrics": {"rate_per_s": rate},
        "report": {
            "link_trials_per_s": rate,
            "wall_trials_per_s": len(trial_s) / sum(wall),
            "reference_kernel_s": common.median(clock.seconds),
            "matrix_s": common.mean(wall),
            "trial_mean_s": common.mean(trial_s),
            "trial_latency": common.latency_stats(trial_s, TAIL_PERCENTILE),
            "matrices": len(wall),
            "successes_per_matrix": sum(
                t["success"] for cell in first[0].values() for t in cell
            ),
        },
    }


def trace(state, seed: int, seconds: float) -> Dict:
    from repro.obs.context import obs_context

    # Untraced pass first (the overhead base), then the same matrices traced.
    count = common.repeat_for(seconds / 3.0, lambda: _matrix(seed))
    start = time.perf_counter()
    for _ in range(count):
        _matrix(seed)
    untraced = time.perf_counter() - start
    recorder = spans.Recorder()
    results = []
    with obs_context() as obs, recorder.installed(HOOKS):
        start = time.perf_counter()
        for _ in range(count):
            results.append(_matrix(seed))
        end = time.perf_counter()
    errors = []
    for result, replies in results:
        errors.extend(check(output(result), [tuple(r.bits) for r in replies]))
    trials = [
        t for result, _ in results for cell in result.trials.values() for t in cell
    ]
    counts = {
        "link.trials": len(trials),
        "link.powered": sum(t.powered for t in trials),
        "link.query_decoded": sum(t.query_decoded for t in trials),
        "link.replied": sum(t.reply_sent for t in trials),
        "link.success": sum(t.success for t in trials),
        "kernels.capture_samples": obs.metrics.counters().get(
            "kernels.capture_samples", 0
        ),
    }
    counts["link.success_ratio"] = counts["link.success"] / len(trials)
    return {
        "recorder": recorder,
        "wall": (start, end),
        "untraced_s": untraced,
        "counts": counts,
        "attempted": len(trials),
        "failed": 0,
        "errors": errors,
        "digest": common.digest(output(results[0][0])),
    }
