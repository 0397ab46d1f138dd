"""Tests for the Dickson pump oracle: Eq. 1 validated at carrier level."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harvester.diode import IdealDiode
from repro.harvester.rectifier import ideal_output_voltage
from tests.reference.dickson import DicksonPump


class TestSingleCell:
    def test_matches_fig1_doubler(self):
        """Sec. 2.1: the Fig. 1 cell settles at 2 (V_s - V_th)."""
        pump = DicksonPump(n_stages=1)
        for amplitude in (0.5, 1.0, 2.0):
            out = pump.steady_state_output(amplitude)
            assert out == pytest.approx(2 * (amplitude - 0.3), abs=0.03)

    def test_dead_below_threshold(self):
        """Fig. 4c at circuit level: sub-threshold drive harvests nothing."""
        pump = DicksonPump(n_stages=1)
        assert pump.steady_state_output(0.25) == pytest.approx(0.0, abs=1e-6)

    def test_ideal_diode_reaches_full_doubling(self):
        pump = DicksonPump(n_stages=1, diode=IdealDiode(on_conductance_s=5e-3))
        out = pump.steady_state_output(1.0)
        assert out == pytest.approx(2.0, abs=0.05)

    def test_matches_eq1_with_diode_count(self):
        """The simulated cell equals Eq. 1 with N = 2 diode stages."""
        pump = DicksonPump(n_stages=1)
        out = pump.steady_state_output(1.5)
        assert out == pytest.approx(ideal_output_voltage(1.5, 2, 0.3), abs=0.05)


class TestCascade:
    def test_each_cell_adds_one_diode_stage(self):
        outputs = []
        for cells in (1, 2, 3):
            pump = DicksonPump(n_stages=cells)
            outputs.append(pump.steady_state_output(1.0, n_cycles=800))
        increments = np.diff(outputs)
        assert np.allclose(increments, 0.7, atol=0.05)
        for cells, out in zip((1, 2, 3), outputs):
            assert out == pytest.approx(
                ideal_output_voltage(1.0, cells + 1, 0.3), abs=0.08
            )

    def test_monotone_in_stages(self):
        outputs = [
            DicksonPump(n_stages=n).steady_state_output(1.0, n_cycles=600)
            for n in (1, 2, 3)
        ]
        assert outputs[0] < outputs[1] < outputs[2]


class TestDynamics:
    def test_charging_is_monotone_open_circuit(self):
        pump = DicksonPump(n_stages=1)
        dt = 1.0 / (10e6 * 40)
        t = np.arange(4000) * dt
        trace = pump.simulate(np.sin(2 * np.pi * 10e6 * t), dt)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_load_causes_droop(self):
        loaded = DicksonPump(n_stages=1, load_resistance_ohms=50e3)
        open_circuit = DicksonPump(n_stages=1)
        assert loaded.steady_state_output(1.0) < open_circuit.steady_state_output(1.0)

    def test_state_persists(self):
        pump = DicksonPump(n_stages=1)
        dt = 1.0 / (10e6 * 40)
        t = np.arange(2000) * dt
        waveform = np.sin(2 * np.pi * 10e6 * t)
        first = pump.simulate(waveform, dt)
        second = pump.simulate(waveform, dt)
        assert second[-1] >= first[-1]

    def test_reset(self):
        pump = DicksonPump(n_stages=1)
        pump.steady_state_output(1.0, n_cycles=50)
        pump.reset()
        assert pump.state.output_v == 0.0
        assert np.all(pump.state.coupling_v == 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DicksonPump(n_stages=0)
        with pytest.raises(ValueError):
            DicksonPump().simulate(np.ones(10), dt_s=0.0)
        with pytest.raises(ValueError):
            DicksonPump().steady_state_output(-1.0)
