"""Parity tests: batched wake-up latency path vs the legacy trial loop."""

import numpy as np
import pytest

from repro.experiments import wakeup_latency as wl
from tests.reference.wakeup import run_reference
from repro.faults.plan import (
    EMPTY_PLAN,
    FaultPlan,
    antenna_dropout,
    reference_holdover,
    tag_detuning,
)

_BASE = dict(depths_m=(0.05, 0.24), n_trials=3, max_periods=2)

_FAULTS = FaultPlan(
    events=antenna_dropout(probability=0.6).events
    + reference_holdover(0.5, probability=0.7).events
    + tag_detuning(0.4, probability=0.5).events
)


class TestHealthyParity:
    def test_kernel_rows_match_legacy(self):
        kernel = wl.run(wl.WakeupConfig(**_BASE))
        legacy = run_reference(wl.WakeupConfig(**_BASE))
        assert kernel.rows == legacy.rows

    def test_worker_count_invariance(self):
        single = wl.run(wl.WakeupConfig(**_BASE))
        pooled = wl.run(wl.WakeupConfig(**_BASE, workers=2))
        assert single.rows == pooled.rows

    def test_chunking_invariance(self):
        # Chunks that straddle the depth boundary must still reproduce the
        # per-depth generator streams.
        from repro.core.plan import paper_plan

        config = wl.WakeupConfig(**_BASE)
        plan = paper_plan().subset(config.n_antennas)
        fn = wl._chunk_fn(config, plan, config.depths_m, config.n_trials)
        whole = fn(0, 6)
        pieces = np.concatenate([fn(0, 2), fn(2, 2), fn(4, 2)])
        assert np.array_equal(whole, pieces, equal_nan=True)


class TestFaultParity:
    def test_faulted_rows_match_legacy(self):
        kernel = wl.run(wl.WakeupConfig(**_BASE, fault_plan=_FAULTS))
        legacy = run_reference(wl.WakeupConfig(**_BASE, fault_plan=_FAULTS))
        assert kernel.rows == legacy.rows

    def test_empty_plan_matches_none(self):
        healthy = wl.run(wl.WakeupConfig(**_BASE))
        empty = wl.run(wl.WakeupConfig(**_BASE, fault_plan=EMPTY_PLAN))
        assert healthy.rows == empty.rows

    def test_faulted_worker_invariance(self):
        single = wl.run(wl.WakeupConfig(**_BASE, fault_plan=_FAULTS))
        pooled = wl.run(
            wl.WakeupConfig(**_BASE, fault_plan=_FAULTS, workers=2)
        )
        assert single.rows == pooled.rows


class TestResultShape:
    def test_latency_at_lookup(self):
        result = wl.run(wl.WakeupConfig(**_BASE))
        result.latency_at(0.05)  # known depth resolves
        with pytest.raises(KeyError):
            result.latency_at(0.99)

    def test_table_renders(self):
        result = wl.run(wl.WakeupConfig(**_BASE))
        text = result.table().render()
        assert "wake-up latency" in text
