"""Tests for repro.harvester.tag_power."""

import numpy as np
import pytest

from repro.em import media
from repro.errors import ConfigurationError
from repro.harvester.tag_power import HarvesterFrontEnd, TagPowerModel
from repro.rf.antenna import MINIATURE_TAG_ANTENNA, STANDARD_TAG_ANTENNA
from tests.reference.measurement import input_voltage_reference
from tests.reference.rectifier import evaluate_envelope

F = 915e6


def _pow_sensitive_fields(count=60_000, seed=23):
    """Fields whose libm ``x**2`` differs from ``x * x`` on this platform.

    These are the values where squaring the array with numpy (``x * x``,
    ``np.square``) would change V_s bits against the scalar path.
    """
    fields = np.random.default_rng(seed).lognormal(0.0, 2.0, count)
    return np.array([x for x in fields.tolist() if x * x != x**2])


@pytest.fixture
def standard_front_end():
    return HarvesterFrontEnd(antenna=STANDARD_TAG_ANTENNA)


class TestFrontEnd:
    def test_voltage_grows_with_field(self, standard_front_end):
        low = standard_front_end.input_voltage_amplitude_v(1.0, media.AIR, F)
        high = standard_front_end.input_voltage_amplitude_v(2.0, media.AIR, F)
        assert high == pytest.approx(2.0 * low)

    def test_miniature_harvests_less(self):
        mini = HarvesterFrontEnd(antenna=MINIATURE_TAG_ANTENNA)
        standard = HarvesterFrontEnd(antenna=STANDARD_TAG_ANTENNA)
        assert mini.available_power_w(1.0, media.AIR, F) < 0.05 * (
            standard.available_power_w(1.0, media.AIR, F)
        )

    def test_liquid_detuning_applies_only_in_liquid(self):
        detuned = HarvesterFrontEnd(
            antenna=STANDARD_TAG_ANTENNA, liquid_aperture_factor=0.25
        )
        air_aperture = detuned.effective_aperture_in(media.AIR, F)
        water_aperture = detuned.effective_aperture_in(media.WATER, F)
        assert water_aperture == pytest.approx(0.25 * air_aperture)

    def test_voltage_from_power(self, standard_front_end):
        voltage = standard_front_end.voltage_from_power(1e-5)
        assert voltage == pytest.approx(np.sqrt(2 * 1e-5 * 1500))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HarvesterFrontEnd(antenna=STANDARD_TAG_ANTENNA, chip_resistance_ohms=0)
        with pytest.raises(ConfigurationError):
            HarvesterFrontEnd(
                antenna=STANDARD_TAG_ANTENNA, liquid_aperture_factor=0
            )


class TestArrayFrontEnd:
    """The array front end is the scalar path, element by element."""

    @pytest.mark.parametrize("medium", [media.AIR, media.WATER])
    def test_array_matches_scalar_bitwise(self, medium):
        front_end = HarvesterFrontEnd(
            antenna=STANDARD_TAG_ANTENNA, liquid_aperture_factor=0.5
        )
        sensitive = _pow_sensitive_fields()
        fields = np.concatenate(
            [
                sensitive,
                [0.0, np.nan],
                np.random.default_rng(4).lognormal(0.0, 1.0, 200),
            ]
        )
        got = front_end.input_voltage_amplitude_v(fields, medium, F)
        want = np.array(
            [
                input_voltage_reference(front_end, field, medium, F)
                for field in fields.tolist()
            ]
        )
        assert got.dtype == np.float64 and got.shape == fields.shape
        assert got.tobytes() == want.tobytes()
        assert got[sensitive.size] == 0.0
        assert np.isnan(got[sensitive.size + 1])

    def test_scalar_in_float_out(self, standard_front_end):
        voltage = standard_front_end.input_voltage_amplitude_v(
            1.7, media.AIR, F
        )
        assert type(voltage) is float
        assert voltage == input_voltage_reference(
            standard_front_end, 1.7, media.AIR, F
        )
        assert type(TagPowerModel(standard_front_end).powers_up_at_peak(
            voltage
        )) is bool

    def test_two_dimensional_fields_keep_their_shape(self, standard_front_end):
        fields = np.arange(6.0).reshape(2, 3)
        voltages = standard_front_end.input_voltage_amplitude_v(
            fields, media.AIR, F
        )
        assert voltages.shape == (2, 3)
        assert voltages[1, 2] == standard_front_end.input_voltage_amplitude_v(
            5.0, media.AIR, F
        )

    def test_negative_element_raises(self, standard_front_end):
        with pytest.raises(ValueError, match="non-negative"):
            standard_front_end.input_voltage_amplitude_v(
                np.array([1.0, np.nan, -0.5]), media.AIR, F
            )
        with pytest.raises(ValueError):
            TagPowerModel(standard_front_end).powers_up_at_peak(
                np.array([0.9, -1.0])
            )

    def test_nan_peak_stays_unpowered(self, standard_front_end):
        model = TagPowerModel(standard_front_end)
        peaks = np.array([0.0, np.nan, 0.70, 0.80])
        powered = model.powers_up_at_peak(peaks)
        assert powered.dtype == bool
        assert powered.tolist() == [False, False, False, True]
        assert model.powers_up_at_peak(float("nan")) is False


class TestTagPowerModel:
    def test_minimum_input_voltage(self, standard_front_end):
        model = TagPowerModel(standard_front_end, n_stages=4, threshold_v=0.3)
        # V_th + V_operate / N = 0.3 + 1.8 / 4.
        assert model.minimum_input_voltage_v() == pytest.approx(0.75)

    def test_rejects_nonpositive_operate_voltage(self, standard_front_end):
        with pytest.raises(ConfigurationError):
            TagPowerModel(standard_front_end, operate_voltage_v=0.0)

    def test_fast_threshold_test(self, standard_front_end):
        model = TagPowerModel(standard_front_end)
        assert model.powers_up_at_peak(0.80)
        assert not model.powers_up_at_peak(0.70)

    def test_envelope_evaluation_matches_threshold(self, standard_front_end):
        model = TagPowerModel(standard_front_end)
        dt = 1e-5
        strong = np.full(20000, 1.2)
        weak = np.full(20000, 0.5)
        assert evaluate_envelope(model, strong, dt).powered
        assert not evaluate_envelope(model, weak, dt).powered

    def test_duty_cycled_envelope_accumulates(self, standard_front_end):
        """A CIB-like peaky envelope still powers the tag (Fig. 5b)."""
        model = TagPowerModel(standard_front_end)
        dt = 1e-5
        envelope = np.zeros(30000)
        envelope[::100] = 3.0  # sparse tall peaks
        result = evaluate_envelope(model, envelope, dt)
        assert result.peak_input_voltage_v == pytest.approx(3.0)
        assert result.powered

    def test_conduction_angle_reported(self, standard_front_end):
        model = TagPowerModel(standard_front_end)
        result = evaluate_envelope(model, np.full(1000, 0.6), 1e-5)
        assert result.conduction_angle_rad > 0

    def test_invalid_envelope(self, standard_front_end):
        model = TagPowerModel(standard_front_end)
        with pytest.raises(ValueError):
            evaluate_envelope(model, np.array([]), 1e-5)
        with pytest.raises(ValueError):
            model.powers_up_at_peak(-1.0)
