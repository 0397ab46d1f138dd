"""Bench: the batched Monte-Carlo runtime vs the legacy scalar loop.

The PR's acceptance gate, executable: at the paper's Fig. 4 trial count the
batched engine must be at least 5x faster than the per-trial scalar path,
and every path -- batched, process-pooled, legacy scalar -- must agree
numerically (the direct tier bitwise, the FFT tier to floating-point
noise). The paper plan takes the FFT tier; making ``fft_compatible``
answer no sends a serial run to the direct tier.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.mc import spawn_rngs
from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.phantoms import WaterTankPhantom
from repro.experiments import fig04
from repro.experiments.common import TankChannelFactory, measure_gain_trials
from repro.experiments.report import Table
from repro.runtime import engine as engine_mod
from tests.reference.measurement import (
    measure_gain_trials_scalar,
    peak_amplitudes_scalar,
)
from conftest import run_once

PAPER_TRIALS = 500  # Fig. 4 Monte-Carlo phase draws
GAIN_TRIALS = 150  # Fig. 9's paper trial count


def _best_of(fn, repeats=2):
    """Smallest wall-clock of ``repeats`` runs (noise guard on 1 core)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@contextmanager
def _direct_tier():
    """A block in which every serial evaluation takes the direct tier."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod, "fft_compatible", lambda *args: False)
        yield


def test_runtime_engine_speedup_and_equivalence(benchmark, emit):
    offsets = paper_plan().offsets_array()
    assert engine_mod.fft_compatible(offsets, 1.0)
    betas = np.random.default_rng(0).uniform(
        0.0, 2.0 * np.pi, (PAPER_TRIALS, offsets.size)
    )
    # Warm caches (BLAS/FFT plan setup) outside the timed region.
    engine_mod.peak_amplitudes(offsets, betas[:8], 1.0)

    def timed_comparison():
        scalar, t_scalar = _best_of(
            lambda: peak_amplitudes_scalar(offsets, betas, 1.0)
        )
        with _direct_tier():
            direct, _ = _best_of(
                lambda: engine_mod.peak_amplitudes(offsets, betas, 1.0)
            )
        batched, t_batched = _best_of(
            lambda: engine_mod.peak_amplitudes(offsets, betas, 1.0)
        )
        return scalar, direct, batched, t_scalar, t_batched

    scalar, direct, batched, t_scalar, t_batched = run_once(
        benchmark, timed_comparison
    )
    speedup = t_scalar / t_batched

    table = Table(
        title=(
            f"Runtime -- batched vs scalar peak evaluation "
            f"({PAPER_TRIALS} draws, 10 antennas)"
        ),
        headers=("path", "wall (s)", "speedup"),
    )
    table.add_row("legacy scalar loop", t_scalar, 1.0)
    table.add_row("batched fft", t_batched, speedup)
    emit(table)

    # The acceptance criteria: >= 5x, with all paths numerically identical.
    np.testing.assert_array_equal(direct, scalar)
    np.testing.assert_allclose(batched, scalar, rtol=1e-9)
    assert speedup >= 5.0, f"batched engine only {speedup:.1f}x faster"


def test_fig04_paths_identical_across_workers(benchmark, emit):
    offsets = paper_plan().offsets_array()

    def all_paths():
        auto = fig04.peak_factors(PAPER_TRIALS, 4)
        pooled = fig04.peak_factors(PAPER_TRIALS, 4, workers=4)
        # The per-draw loop over fig04's phase draws.
        betas = np.vstack(
            [
                rng.uniform(0.0, 2.0 * np.pi, offsets.size)
                for rng in spawn_rngs(4, PAPER_TRIALS)
            ]
        )
        scalar = peak_amplitudes_scalar(offsets, betas, 1.0)
        with _direct_tier():
            direct = fig04.peak_factors(PAPER_TRIALS, 4)
        return auto, pooled, scalar, direct

    auto, pooled, scalar, direct = run_once(benchmark, all_paths)
    np.testing.assert_array_equal(auto, pooled)
    np.testing.assert_array_equal(direct, scalar)
    np.testing.assert_allclose(auto, scalar, rtol=1e-9)

    table = Table(
        title=f"Fig. 4 MC peak factors over {PAPER_TRIALS} draws -- all paths",
        headers=("path", "median"),
    )
    for label, values in (
        ("auto (fft)", auto),
        ("pooled x4", pooled),
        ("direct", direct),
        ("scalar", scalar),
    ):
        table.add_row(label, float(np.median(values)))
    emit(table)


def test_gain_trials_batched_vs_scalar(benchmark, emit):
    plan = paper_plan()
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    factory = TankChannelFactory(
        tank, plan.n_antennas, 0.10, plan.center_frequency_hz
    )

    def timed_comparison():
        legacy, t_scalar = _best_of(
            lambda: measure_gain_trials_scalar(
                factory, plan, GAIN_TRIALS, 9
            ),
            repeats=1,
        )
        batched, t_batched = _best_of(
            lambda: measure_gain_trials(
                factory, plan, GAIN_TRIALS, 9
            ),
            repeats=1,
        )
        return legacy, batched, t_scalar, t_batched

    legacy, batched, t_scalar, t_batched = run_once(benchmark, timed_comparison)
    table = Table(
        title=f"Sec. 6.1.1 gain sweep ({GAIN_TRIALS} trials) -- wall clock",
        headers=("path", "wall (s)"),
    )
    table.add_row("legacy scalar loop", t_scalar)
    table.add_row("batched runtime", t_batched)
    emit(table)

    assert t_batched < t_scalar, "batched gain sweep slower than legacy loop"
    np.testing.assert_allclose(
        [s.cib_gain for s in batched],
        [s.cib_gain for s in legacy],
        rtol=1e-9,
    )
    assert [s.baseline_gain for s in batched] == [
        s.baseline_gain for s in legacy
    ]
