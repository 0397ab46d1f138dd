"""Tests for repro.em.media."""

import math

import numpy as np
import pytest

from repro.em import media
from repro.em.media import Medium, get_medium
from repro.errors import ConfigurationError

F = 915e6


class TestMediumProperties:
    def test_air_is_lossless(self):
        assert media.AIR.is_lossless
        assert media.AIR.attenuation_np_per_m(F) == pytest.approx(0.0, abs=1e-9)

    def test_air_impedance_is_free_space(self):
        eta = media.AIR.wave_impedance(F)
        assert abs(eta) == pytest.approx(376.73, rel=1e-3)
        assert eta.imag == pytest.approx(0.0, abs=1e-6)

    def test_air_wavelength(self):
        assert media.AIR.wavelength_m(F) == pytest.approx(0.3276, rel=1e-3)

    def test_tissue_attenuation_in_paper_range(self):
        """Sec. 2.2.1 cites 2.3-6.9 dB/cm for low-GHz signals in tissue;
        [39] cites alpha of 13-80 Np/m."""
        for medium in (media.MUSCLE, media.STEAK, media.CHICKEN,
                       media.GASTRIC_FLUID, media.INTESTINAL_FLUID):
            alpha = medium.attenuation_np_per_m(F)
            assert 13.0 <= alpha <= 80.0, medium.name

    def test_fat_is_low_loss(self):
        assert media.FAT.attenuation_db_per_cm(F) < 1.0

    def test_water_impedance_below_air(self):
        assert abs(media.WATER.wave_impedance(F)) < abs(
            media.AIR.wave_impedance(F)
        )

    def test_loss_tangent_positive_for_conductive(self):
        assert media.MUSCLE.loss_tangent(F) > 0.1
        assert media.AIR.loss_tangent(F) == 0.0

    def test_wavelength_shrinks_in_dielectric(self):
        assert media.WATER.wavelength_m(F) < media.AIR.wavelength_m(F) / 8.0

    def test_phase_velocity_below_c(self):
        assert media.MUSCLE.phase_velocity_m_per_s(F) < 3e8 / 7

    def test_propagation_constant_parts(self):
        gamma = media.MUSCLE.propagation_constant(F)
        assert gamma.real > 0  # attenuation
        assert gamma.imag > 0  # phase

    def test_complex_permittivity_sign(self):
        eps = media.MUSCLE.complex_permittivity(F)
        assert eps.real > 0
        assert eps.imag < 0


class TestMediumValidation:
    def test_permittivity_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Medium("bad", relative_permittivity=0.5, conductivity_s_per_m=0)

    def test_negative_conductivity_rejected(self):
        with pytest.raises(ConfigurationError):
            Medium("bad", relative_permittivity=2.0, conductivity_s_per_m=-1)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            media.WATER.attenuation_np_per_m(0.0)
        with pytest.raises(ValueError):
            media.WATER.wave_impedance(-1.0)


class TestLibrary:
    def test_lookup(self):
        assert get_medium("water") is media.WATER

    def test_unknown_medium(self):
        with pytest.raises(KeyError):
            get_medium("plasma")

    def test_fig11_media_order(self):
        names = [m.name for m in media.FIG11_MEDIA]
        assert names == [
            "air", "water", "gastric fluid", "intestinal fluid",
            "steak", "bacon", "chicken",
        ]

    def test_library_covers_swine_layers(self):
        for name in ("skin", "fat", "muscle", "stomach wall", "gastric content"):
            assert name in media.MEDIA_LIBRARY


class TestCachedConstants:
    """The per-(medium, frequency) cache returns what a fresh computation
    gives, for Python-float and NumPy-scalar frequencies alike."""

    @pytest.mark.parametrize("medium", list(media.MEDIA_LIBRARY.values()))
    def test_cached_equals_fresh(self, medium):
        for frequency in (880e6, 915e6, np.float64(915e6), 2.4e9):
            for cached, fresh in (
                (medium.wave_impedance, media._wave_impedance.__wrapped__),
                (
                    medium.propagation_constant,
                    media._propagation_constant.__wrapped__,
                ),
            ):
                for _ in range(2):  # a miss, then a hit
                    got = cached(frequency)
                    want = fresh(medium, frequency)
                    assert type(got) is type(want)
                    assert got.real.hex() == want.real.hex()
                    assert got.imag.hex() == want.imag.hex()

    def test_invalid_frequency_still_raises(self):
        for frequency in (0.0, -1.0):
            with pytest.raises(ValueError):
                media.WATER.wave_impedance(frequency)
            with pytest.raises(ValueError):
                media.WATER.propagation_constant(frequency)
