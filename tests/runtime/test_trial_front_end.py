"""Parity of the runtime's CIB trial front end with the per-trial loop.

:func:`repro.runtime.engine.realize_trials` draws each arc-tank trial with
one ``rng.random(out=row)`` call and evaluates the channel as array
operations over the chunk; every other factory keeps the per-trial loop.
Both must equal :func:`tests.reference.trials.realize_trials_reference`
bit for bit -- gains, phases, amplitudes, reference peaks and the
generator states they leave behind -- so the Fig. 13 tables built on them
cannot depend on worker count, chunking or the path taken.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.analysis.mc import spawn_rngs
from repro.core import waveform
from repro.core.optimizer import fft_grid
from repro.core.plan import paper_plan
from repro.em.media import AIR, WATER
from repro.em.multipath import IN_BODY_MULTIPATH
from repro.em.phantoms import HeadPhantom, WaterTankPhantom
from repro.experiments import fig13
from repro.experiments.common import TankChannelFactory
from repro.experiments.degradation import HeadChannelFactory
from repro.reader.link import cib_peak
from repro.runtime import engine
from repro.runtime.runner import TrialRunner
from tests.reference.trials import realize_trials_reference

N_RANDOM_CONFIGS = 500


def _assert_bitwise(got, want):
    for name, a, b in zip(got._fields, got, want):
        assert a.shape == b.shape, name
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _both(factory, plan, seed, start, count, scale, frequency_hz):
    """Front end and reference over twin generators, plus their states."""
    ours = spawn_rngs(seed, count, start)
    theirs = spawn_rngs(seed, count, start)
    got = engine.realize_trials(factory, plan, ours, scale, frequency_hz)
    want = realize_trials_reference(factory, plan, theirs, scale, frequency_hz)
    _assert_bitwise(got, want)
    assert [r.bit_generator.state for r in ours] == [
        r.bit_generator.state for r in theirs
    ]
    return got


def _random_tank_config(rng):
    plan = paper_plan().subset(int(rng.integers(1, 9)))
    extra = int(rng.integers(0, 3)) if rng.random() < 0.25 else 0
    tank = WaterTankPhantom(
        medium=AIR if rng.random() < 0.5 else WATER,
        standoff_m=float(rng.uniform(0.05, 40.0)),
    )
    factory = TankChannelFactory(
        tank,
        plan.n_antennas + extra,
        float(rng.uniform(0.0, 0.4)),
        plan.center_frequency_hz,
        orientation_gain=float(rng.uniform(0.01, 1.0)),
    )
    frequency_hz = (None, plan.center_frequency_hz, 2.45e9)[
        int(rng.integers(0, 3))
    ]
    return plan, factory, frequency_hz


class TestArrayPath:
    def test_random_tank_configs_match_the_per_trial_loop(self):
        rng = np.random.default_rng(20261021)
        for _ in range(N_RANDOM_CONFIGS):
            plan, factory, frequency_hz = _random_tank_config(rng)
            assert factory.arc_channel() is not None
            _both(
                factory,
                plan,
                seed=int(rng.integers(0, 2**32)),
                start=int(rng.integers(0, 1000)),
                count=int(rng.integers(1, 24)),
                scale=float(rng.uniform(0.1, 50.0)),
                frequency_hz=frequency_hz,
            )

    def test_generators_continue_where_the_loop_leaves_them(self):
        plan = paper_plan().subset(4)
        factory = TankChannelFactory(
            WaterTankPhantom(), 4, 0.1, plan.center_frequency_hz
        )
        ours, theirs = spawn_rngs(5, 7, 3), spawn_rngs(5, 7, 3)
        engine.realize_trials(factory, plan, ours, 1.0)
        realize_trials_reference(factory, plan, theirs, 1.0)
        for a, b in zip(ours, theirs):
            assert a.normal(size=4).tobytes() == b.normal(size=4).tobytes()

    def test_too_few_channel_antennas_raise(self):
        plan = paper_plan().subset(4)
        factory = TankChannelFactory(
            WaterTankPhantom(), 3, 0.1, plan.center_frequency_hz
        )
        with pytest.raises(ValueError, match="antennas"):
            engine.realize_trials(factory, plan, spawn_rngs(1, 2), 1.0)


class TestFallbackFactories:
    @pytest.mark.parametrize(
        "make",
        [
            lambda f: TankChannelFactory(
                WaterTankPhantom(), 5, 0.1, f, multipath=IN_BODY_MULTIPATH
            ),
            lambda f: TankChannelFactory(
                WaterTankPhantom(), 5, 0.1, f, phase_mode="perturbed"
            ),
            lambda f: TankChannelFactory(
                WaterTankPhantom(), 5, 0.1, f, phase_mode="geometric"
            ),
            lambda f: TankChannelFactory(
                WaterTankPhantom(geometry="linear"), 5, 0.1, f
            ),
            lambda f: HeadChannelFactory(HeadPhantom(), 0.02, 5, f),
        ],
        ids=["multipath", "perturbed", "geometric", "linear", "head"],
    )
    @pytest.mark.parametrize("start,count", [(0, 1), (7, 5), (101, 9)])
    def test_per_trial_loop_matches_reference(self, make, start, count):
        plan = paper_plan().subset(5)
        factory = make(plan.center_frequency_hz)
        if isinstance(factory, TankChannelFactory):
            assert factory.arc_channel() is None
        _both(factory, plan, 99, start, count, 3.5, plan.center_frequency_hz)

    def test_too_few_channel_antennas_raise(self):
        plan = paper_plan().subset(4)
        factory = HeadChannelFactory(
            HeadPhantom(), 0.02, 3, plan.center_frequency_hz
        )
        with pytest.raises(ValueError, match="antennas"):
            engine.realize_trials(factory, plan, spawn_rngs(1, 2), 1.0)


class TestFftGridCache:
    def test_engine_and_link_share_one_grid(self):
        offsets = paper_plan().offsets_array()
        grid = engine.fft_compatible(offsets, 1.0)
        assert grid is fft_grid(
            tuple(offsets.tolist()), 1.0, waveform.DEFAULT_OVERSAMPLE
        )
        assert not grid.bins.flags.writeable
        assert not grid.times.flags.writeable
        before = fft_grid.cache_info().hits
        cib_peak(offsets, np.zeros(offsets.size), np.ones(offsets.size))
        assert fft_grid.cache_info().hits == before + 1

    def test_rejected_offsets_cache_none(self):
        assert engine.fft_compatible(np.array([0.0, 7.5]), 1.0) is None
        assert fft_grid((0.0, 7.5), 1.0, waveform.DEFAULT_OVERSAMPLE) is None


_SMALL_TABLE = fig13.Fig13Config(
    antenna_counts=(1, 3), n_trials=9, calibrate=False
)


def _panels(monkeypatch, workers=1, chunk_size=None):
    monkeypatch.setattr(
        fig13, "TrialRunner", functools.partial(TrialRunner, chunk_size=chunk_size)
    )
    return fig13.run(dataclasses.replace(_SMALL_TABLE, workers=workers)).panels


class TestFig13Tables:
    @pytest.fixture(scope="class")
    def serial(self):
        return fig13.run(_SMALL_TABLE).panels

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 4])
    def test_workers_and_chunking_do_not_change_the_table(
        self, serial, monkeypatch, workers, chunk_size
    ):
        assert _panels(monkeypatch, workers, chunk_size) == serial

    def test_per_trial_loop_gives_the_same_table(self, serial, monkeypatch):
        monkeypatch.setattr(TankChannelFactory, "arc_channel", lambda self: None)
        assert _panels(monkeypatch) == serial
