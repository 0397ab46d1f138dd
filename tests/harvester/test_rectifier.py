"""Tests for repro.harvester.rectifier (Eq. 1, Fig. 4) and the time-stepped
rectifier oracle in tests/reference/rectifier.py."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harvester.rectifier import (
    conduction_angle_rad,
    harvesting_efficiency,
    ideal_output_voltage,
)
from tests.reference.rectifier import MultiStageRectifier


class TestEq1:
    def test_basic(self):
        assert ideal_output_voltage(0.5, 4, 0.3) == pytest.approx(0.8)

    def test_below_threshold_zero(self):
        """Fig. 4c: below the threshold nothing is harvested."""
        assert ideal_output_voltage(0.25, 4, 0.3) == 0.0

    def test_linear_in_stages(self):
        assert ideal_output_voltage(0.5, 8, 0.3) == pytest.approx(
            2 * ideal_output_voltage(0.5, 4, 0.3)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_output_voltage(-0.1)
        with pytest.raises(ValueError):
            ideal_output_voltage(0.5, 0)
        with pytest.raises(ValueError):
            ideal_output_voltage(0.5, 4, -0.1)


class TestConductionAngle:
    def test_zero_below_threshold(self):
        assert conduction_angle_rad(0.2, 0.3) == 0.0
        assert conduction_angle_rad(0.3, 0.3) == 0.0

    def test_full_half_cycle_with_zero_threshold(self):
        assert conduction_angle_rad(1.0, 0.0) == pytest.approx(math.pi)

    def test_known_value(self):
        # V_th / V_s = 0.5 -> omega = 2 arccos(0.5) = 2 pi / 3.
        assert conduction_angle_rad(0.6, 0.3) == pytest.approx(2 * math.pi / 3)

    def test_monotone_in_amplitude(self):
        """Fig. 4: the conduction angle grows as the sensor gets more
        signal (air > shallow > deep)."""
        angles = [conduction_angle_rad(v, 0.3) for v in (0.35, 0.6, 1.5, 5.0)]
        assert all(b > a for a, b in zip(angles, angles[1:]))
        assert angles[-1] < math.pi


class TestEfficiency:
    def test_zero_below_threshold(self):
        assert harvesting_efficiency(0.2, 0.3) == 0.0

    def test_increases_with_amplitude(self):
        low = harvesting_efficiency(0.4, 0.3)
        high = harvesting_efficiency(2.0, 0.3)
        assert high > low > 0

    def test_bounded(self):
        assert 0 <= harvesting_efficiency(10.0, 0.3) <= 1.0


class TestMultiStageRectifier:
    def test_charges_toward_open_circuit(self):
        rectifier = MultiStageRectifier(
            n_stages=4,
            source_resistance_ohms=1e3,
            storage_capacitance_f=1e-9,
            load_resistance_ohms=None,
        )
        envelope = np.full(4000, 0.8)
        trace = rectifier.simulate(envelope, dt_s=1e-8)
        v_oc = 4 * (0.8 - 0.3)
        assert trace[-1] == pytest.approx(v_oc, rel=0.05)

    def test_no_charge_below_threshold(self):
        rectifier = MultiStageRectifier()
        trace = rectifier.simulate(np.full(100, 0.2), dt_s=1e-6)
        assert np.all(trace == 0.0)

    def test_monotone_while_charging_open_circuit(self):
        rectifier = MultiStageRectifier(load_resistance_ohms=None)
        trace = rectifier.simulate(np.full(500, 1.0), dt_s=1e-8)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_load_discharges_when_source_off(self):
        rectifier = MultiStageRectifier(
            load_resistance_ohms=1e4, storage_capacitance_f=1e-9
        )
        rectifier.simulate(np.full(2000, 1.0), dt_s=1e-8)
        peak = rectifier.capacitor_voltage_v
        rectifier.simulate(np.zeros(2000), dt_s=1e-8)
        assert rectifier.capacitor_voltage_v < peak

    def test_state_persists_across_calls(self):
        rectifier = MultiStageRectifier(load_resistance_ohms=None)
        first = rectifier.simulate(np.full(100, 1.0), dt_s=1e-8)
        second = rectifier.simulate(np.full(100, 1.0), dt_s=1e-8)
        assert second[0] >= first[-1]

    def test_reset(self):
        rectifier = MultiStageRectifier()
        rectifier.simulate(np.full(100, 1.0), dt_s=1e-8)
        rectifier.reset()
        assert rectifier.capacitor_voltage_v == 0.0

    def test_steady_state_with_load_divider(self):
        rectifier = MultiStageRectifier(
            source_resistance_ohms=1e3, load_resistance_ohms=9e3
        )
        steady = rectifier.steady_state_voltage(0.8)
        assert steady == pytest.approx(4 * 0.5 * 0.9)

    def test_coarse_step_stability(self):
        """Large dt must not oscillate past the source voltage."""
        rectifier = MultiStageRectifier(
            source_resistance_ohms=1e3,
            storage_capacitance_f=1e-12,
            load_resistance_ohms=None,
        )
        trace = rectifier.simulate(np.full(50, 1.0), dt_s=1e-3)
        v_oc = 4 * 0.7
        assert np.all(trace <= v_oc + 1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiStageRectifier(n_stages=0)
        with pytest.raises(ValueError):
            MultiStageRectifier().simulate(np.ones(10), dt_s=0)
