"""Tests for repro.faults.inject -- deterministic fault realization."""

import numpy as np
import pytest

from repro.faults.inject import (
    STREAM_DROPOUT,
    STREAM_PERTURB,
    FaultInjector,
    PerturbedTrial,
)
from repro.faults.plan import (
    EMPTY_PLAN,
    FaultEvent,
    FaultPlan,
    antenna_dropout,
    bit_corruption,
    pll_relock,
    reference_holdover,
    tag_detuning,
)

N = 6


def arrays():
    offsets = np.arange(N, dtype=float) * 10.0
    betas = np.linspace(0.0, 1.0, N)
    amplitudes = np.ones(N)
    return offsets, betas, amplitudes


class TestInactiveInjector:
    def test_empty_plan_is_inactive(self):
        assert not FaultInjector(EMPTY_PLAN, 3).active

    def test_perturb_aliases_inputs(self):
        offsets, betas, amplitudes = arrays()
        p = FaultInjector(EMPTY_PLAN, 3).perturb_trial(
            0, offsets, betas, amplitudes
        )
        assert p.offsets_hz is offsets
        assert p.betas is betas
        assert p.amplitudes is amplitudes
        assert p.voltage_scale == 1.0
        assert not p.offsets_changed
        assert p.events_applied == ()

    def test_no_dropouts_or_trigger_extras(self):
        injector = FaultInjector(EMPTY_PLAN, 3)
        assert injector.dropped_antennas(0, N) == ()

    def test_corruption_is_identity(self):
        injector = FaultInjector(EMPTY_PLAN, 3)
        wave = np.ones(24)
        assert injector.corrupt_waveform(0, wave, 2) is not None
        assert np.array_equal(injector.corrupt_waveform(0, wave, 2), wave)
        envelope = np.linspace(0.0, 1.0, 8)
        assert injector.corrupt_envelope(0, envelope) is envelope


class TestDeterminism:
    def test_realization_is_a_pure_function_of_trial_index(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="antenna_dropout", probability=0.5),
                FaultEvent(kind="pll_relock", severity=0.7),
                FaultEvent(kind="reference_holdover", severity=0.4),
            )
        )
        offsets, betas, amplitudes = arrays()
        a = FaultInjector(plan, 11)
        b = FaultInjector(plan, 11)
        for trial in (0, 3, 17):
            pa = a.perturb_trial(trial, offsets, betas, amplitudes)
            pb = b.perturb_trial(trial, offsets, betas, amplitudes)
            np.testing.assert_array_equal(pa.offsets_hz, pb.offsets_hz)
            np.testing.assert_array_equal(pa.betas, pb.betas)
            np.testing.assert_array_equal(pa.amplitudes, pb.amplitudes)
            assert pa.events_applied == pb.events_applied

    def test_trials_differ(self):
        injector = FaultInjector(pll_relock(1.0), 11)
        offsets, betas, amplitudes = arrays()
        p0 = injector.perturb_trial(0, offsets, betas, amplitudes)
        p1 = injector.perturb_trial(1, offsets, betas, amplitudes)
        assert not np.array_equal(p0.betas, p1.betas)

    def test_seeds_differ(self):
        offsets, betas, amplitudes = arrays()
        p0 = FaultInjector(pll_relock(1.0), 1).perturb_trial(
            0, offsets, betas, amplitudes
        )
        p1 = FaultInjector(pll_relock(1.0), 2).perturb_trial(
            0, offsets, betas, amplitudes
        )
        assert not np.array_equal(p0.betas, p1.betas)

    def test_streams_are_independent(self):
        injector = FaultInjector(antenna_dropout(), 5)
        a = injector.trial_rng(0, STREAM_DROPOUT).random(4)
        b = injector.trial_rng(0, STREAM_PERTURB).random(4)
        assert not np.array_equal(a, b)

    def test_inputs_never_mutated(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="antenna_dropout", antennas=(0,)),
                FaultEvent(kind="pll_relock"),
                FaultEvent(kind="reference_holdover"),
            )
        )
        offsets, betas, amplitudes = arrays()
        keep = (offsets.copy(), betas.copy(), amplitudes.copy())
        FaultInjector(plan, 5).perturb_trial(2, offsets, betas, amplitudes)
        np.testing.assert_array_equal(offsets, keep[0])
        np.testing.assert_array_equal(betas, keep[1])
        np.testing.assert_array_equal(amplitudes, keep[2])


class TestCarrierPlane:
    def test_explicit_dropout_zeroes_amplitudes(self):
        injector = FaultInjector(antenna_dropout(antennas=(1, 3)), 5)
        offsets, betas, amplitudes = arrays()
        p = injector.perturb_trial(0, offsets, betas, amplitudes)
        assert p.amplitudes[1] == 0.0 and p.amplitudes[3] == 0.0
        assert np.count_nonzero(p.amplitudes) == N - 2
        assert "antenna_dropout" in p.events_applied

    def test_random_dropout_kills_exactly_one(self):
        injector = FaultInjector(antenna_dropout(), 5)
        seen = set()
        for trial in range(40):
            dead = injector.dropped_antennas(trial, N)
            assert len(dead) == 1
            seen.add(dead[0])
        assert len(seen) > 1  # spreads across antennas

    def test_relock_changes_only_betas(self):
        injector = FaultInjector(pll_relock(1.0), 5)
        offsets, betas, amplitudes = arrays()
        p = injector.perturb_trial(0, offsets, betas, amplitudes)
        np.testing.assert_array_equal(p.offsets_hz, offsets)
        np.testing.assert_array_equal(p.amplitudes, amplitudes)
        assert not np.array_equal(p.betas, betas)
        assert not p.offsets_changed

    def test_holdover_marks_offsets_changed(self):
        injector = FaultInjector(reference_holdover(1.0), 5)
        offsets, betas, amplitudes = arrays()
        p = injector.perturb_trial(0, offsets, betas, amplitudes)
        assert p.offsets_changed
        assert not np.array_equal(p.offsets_hz, offsets)

    def test_detuning_scales_voltage_only(self):
        injector = FaultInjector(tag_detuning(1.0), 5)
        offsets, betas, amplitudes = arrays()
        p = injector.perturb_trial(0, offsets, betas, amplitudes)
        assert p.voltage_scale == pytest.approx(0.1)  # 1 - 0.9 * 1.0
        np.testing.assert_array_equal(p.betas, betas)

    def test_zero_probability_never_fires(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="pll_relock", probability=0.0),)
        )
        injector = FaultInjector(plan, 5)
        offsets, betas, amplitudes = arrays()
        for trial in range(10):
            p = injector.perturb_trial(trial, offsets, betas, amplitudes)
            assert p.events_applied == ()
            np.testing.assert_array_equal(p.betas, betas)


class TestLinkPlane:
    def test_waveform_corruption_flips_whole_chips(self):
        spc = 4
        wave = np.ones(40 * spc)
        out = FaultInjector(bit_corruption(1.0), 5).corrupt_waveform(
            0, wave, spc
        )
        flipped = out != wave
        assert np.any(flipped)
        # flips come in chip-aligned blocks
        for row in flipped.reshape(-1, spc):
            assert row.all() or not row.any()

    def test_envelope_corruption_stays_in_range(self):
        envelope = np.concatenate([np.zeros(50), np.ones(50)])
        out = FaultInjector(bit_corruption(1.0), 5).corrupt_envelope(
            0, envelope
        )
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.any(out != envelope)


def test_perturbed_trial_defaults():
    p = PerturbedTrial(
        offsets_hz=np.zeros(1), betas=np.zeros(1), amplitudes=np.ones(1)
    )
    assert p.voltage_scale == 1.0
    assert p.events_applied == ()
