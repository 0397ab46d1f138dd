"""Tests for repro.em.propagation (Eqs. 2 and 3)."""

import math

import numpy as np
import pytest

from repro.em import media
from repro.errors import ConfigurationError
from repro.em.propagation import (
    field_scale,
    field_transmittance,
    free_space_field_amplitude,
    friis_received_power,
    harvested_power,
    power_transmittance,
    tissue_field_amplitude,
)

F = 915e6


class TestFreeSpaceField:
    def test_inverse_distance(self):
        near = free_space_field_amplitude(1.0, 1.0)
        far = free_space_field_amplitude(1.0, 2.0)
        assert near == pytest.approx(2.0 * far)

    def test_known_value(self):
        # E_rms = sqrt(30 * 1 W) / 1 m = 5.477 V/m; peak = x sqrt(2).
        assert free_space_field_amplitude(1.0, 1.0) == pytest.approx(
            math.sqrt(30.0) * math.sqrt(2.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            free_space_field_amplitude(-1.0, 1.0)
        with pytest.raises(ValueError):
            free_space_field_amplitude(1.0, 0.0)

    def test_zero_eirp_gives_zero_field(self):
        assert free_space_field_amplitude(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("eirp", [-1.0, math.nan, math.inf])
    def test_rejects_bad_eirp(self, eirp):
        with pytest.raises(ConfigurationError, match="EIRP"):
            free_space_field_amplitude(eirp, 1.0)

    @pytest.mark.parametrize("distance", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_distance(self, distance):
        with pytest.raises(ConfigurationError, match="distance"):
            free_space_field_amplitude(1.0, distance)


class TestBoundary:
    def test_air_tissue_loss_is_3_to_5_db(self):
        """Sec. 2.2.1: boundary reflection costs ~3-5 dB for ~1 GHz."""
        for medium in (media.MUSCLE, media.WATER, media.GASTRIC_FLUID):
            loss_db = -10.0 * math.log10(
                power_transmittance(media.AIR, medium, F)
            )
            assert 2.5 <= loss_db <= 5.5, medium.name

    def test_same_medium_full_transmission(self):
        assert field_transmittance(media.AIR, media.AIR, F) == pytest.approx(1.0)
        assert power_transmittance(media.AIR, media.AIR, F) == pytest.approx(1.0)

    def test_power_transmittance_below_one(self):
        assert 0 < power_transmittance(media.AIR, media.MUSCLE, F) < 1


class TestTissueField:
    def test_eq2_shape(self):
        """|E| = T*A/r * exp(-alpha d): halving with the right depth."""
        shallow = tissue_field_amplitude(1.0, 0.5, 0.01, media.MUSCLE, F)
        alpha = media.MUSCLE.attenuation_np_per_m(F)
        half_depth = math.log(2.0) / alpha
        deeper = tissue_field_amplitude(
            1.0, 0.5, 0.01 + half_depth, media.MUSCLE, F
        )
        assert deeper == pytest.approx(shallow / 2.0, rel=1e-6)

    def test_zero_depth_keeps_boundary_loss(self):
        in_air = tissue_field_amplitude(1.0, 0.5, 0.0, media.AIR, F)
        at_surface = tissue_field_amplitude(1.0, 0.5, 0.0, media.MUSCLE, F)
        expected = field_transmittance(media.AIR, media.MUSCLE, F)
        assert at_surface / in_air == pytest.approx(expected)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            tissue_field_amplitude(1.0, 0.5, -0.01, media.MUSCLE, F)

    @pytest.mark.parametrize("depth", [-0.01, math.nan, math.inf])
    def test_rejects_bad_depth(self, depth):
        with pytest.raises(ConfigurationError, match="depth"):
            tissue_field_amplitude(1.0, 0.5, depth, media.MUSCLE, F)

    @pytest.mark.parametrize(
        "eirp, distance",
        [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_rejects_non_finite_source(self, eirp, distance):
        with pytest.raises(ConfigurationError):
            tissue_field_amplitude(eirp, distance, 0.05, media.MUSCLE, F)

    def test_fig04_rejects_nan_eirp(self):
        from repro.experiments.fig04 import Fig04Config, run

        with pytest.raises(ConfigurationError, match="EIRP"):
            run(Fig04Config(eirp_w=math.nan, n_trials=4))


class TestHarvestedPower:
    def test_eq3_proportional_to_aperture(self):
        small = harvested_power(1.0, media.AIR, F, 1e-4)
        large = harvested_power(1.0, media.AIR, F, 2e-4)
        assert large == pytest.approx(2.0 * small)

    def test_eq3_quadratic_in_field(self):
        weak = harvested_power(1.0, media.AIR, F, 1e-4)
        strong = harvested_power(2.0, media.AIR, F, 1e-4)
        assert strong == pytest.approx(4.0 * weak)

    def test_validation(self):
        with pytest.raises(ValueError):
            harvested_power(-1.0, media.AIR, F, 1e-4)
        with pytest.raises(ValueError):
            harvested_power(1.0, media.AIR, F, 0.0)


    def test_array_fields_match_scalar_calls(self):
        fields = np.random.default_rng(9).lognormal(0.0, 2.0, 2000)
        fields[:2] = (0.0, np.nan)
        powers = harvested_power(fields, media.MUSCLE, F, 1e-4)
        scalar = [
            harvested_power(field, media.MUSCLE, F, 1e-4)
            for field in fields.tolist()
        ]
        assert powers.tobytes() == np.array(scalar).tobytes()
        assert type(scalar[2]) is float

    def test_negative_array_element_rejected(self):
        with pytest.raises(ValueError, match="-2.0"):
            harvested_power(np.array([1.0, -2.0]), media.AIR, F, 1e-4)


class TestFieldScale:
    def test_is_sqrt_60_eirp(self):
        for eirp in (0.5, 2.0, 6.0, 7.3):
            assert field_scale(eirp) == math.sqrt(60.0 * eirp)

    @pytest.mark.parametrize("eirp", [0.0, -1.0])
    def test_rejects_non_positive_eirp(self, eirp):
        with pytest.raises(ValueError, match="EIRP"):
            field_scale(eirp)

    @pytest.mark.parametrize("eirp", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("error", [ValueError, ConfigurationError])
    def test_rejects_bad_eirp_as_both_error_types(self, eirp, error):
        with pytest.raises(error, match="positive and finite"):
            field_scale(eirp)


class TestFriis:
    def test_inverse_square(self):
        near = friis_received_power(1.0, 1.0, 1.0, 1.0, F)
        far = friis_received_power(1.0, 1.0, 1.0, 2.0, F)
        assert near == pytest.approx(4.0 * far)

    def test_consistent_with_field_model(self):
        """Friis power should match E^2/(2 eta) * A_eff in free space."""
        eirp = 4.0
        distance = 3.0
        aperture = 0.01
        field = free_space_field_amplitude(eirp, distance)
        power_from_field = harvested_power(field, media.AIR, F, aperture)
        gain_rx = aperture * 4.0 * math.pi / media.AIR.wavelength_m(F) ** 2
        power_friis = friis_received_power(eirp, 1.0, gain_rx, distance, F)
        assert power_from_field == pytest.approx(power_friis, rel=1e-3)
