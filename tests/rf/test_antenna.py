"""Tests for repro.rf.antenna."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.rf.antenna import (
    Antenna,
    MINIATURE_TAG_ANTENNA,
    MT242025_PANEL,
    STANDARD_TAG_ANTENNA,
)

F = 915e6


class TestAntenna:
    def test_gain_linear(self):
        antenna = Antenna("test", gain_dbi=10.0)
        assert antenna.gain_linear == pytest.approx(10.0)

    def test_isotropic_aperture(self):
        """A 0 dBi antenna has A_eff = lambda^2 / 4 pi."""
        antenna = Antenna("iso", gain_dbi=0.0)
        wavelength = 299792458.0 / F
        assert antenna.effective_aperture_m2(F) == pytest.approx(
            wavelength**2 / (4 * math.pi)
        )

    def test_aperture_efficiency_scales(self):
        full = Antenna("a", gain_dbi=2.0, aperture_efficiency=1.0)
        half = Antenna("b", gain_dbi=2.0, aperture_efficiency=0.5)
        assert half.effective_aperture_m2(F) == pytest.approx(
            0.5 * full.effective_aperture_m2(F)
        )

    def test_miniature_far_smaller_than_standard(self):
        """Sec. 2.2.2: the miniature antenna's harvesting area is tiny."""
        ratio = STANDARD_TAG_ANTENNA.effective_aperture_m2(
            F
        ) / MINIATURE_TAG_ANTENNA.effective_aperture_m2(F)
        assert ratio > 30

    def test_orientation_gain_linear(self):
        linear = STANDARD_TAG_ANTENNA
        assert linear.orientation_gain(0.0) == pytest.approx(1.0)
        assert linear.orientation_gain(math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert linear.orientation_gain(math.pi / 3) == pytest.approx(0.5)

    def test_orientation_gain_circular_flat(self):
        assert MT242025_PANEL.orientation_gain(1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Antenna("bad", gain_dbi=0.0, aperture_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            Antenna("bad", gain_dbi=0.0, polarization="elliptical")

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            MT242025_PANEL.effective_aperture_m2(0.0)
