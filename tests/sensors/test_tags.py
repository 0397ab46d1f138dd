"""Tests for repro.sensors.tags."""

import pytest

from repro.errors import ConfigurationError
from repro.sensors.tags import TagSpec, miniature_tag_spec, standard_tag_spec
from repro.rf.antenna import STANDARD_TAG_ANTENNA


class TestSpecs:
    def test_standard_dimensions(self):
        """The AD-238u8 inlay measures 1.4 cm x 7 cm (Sec. 5c)."""
        spec = standard_tag_spec()
        assert spec.dimensions_m[0] == pytest.approx(0.07)
        assert spec.dimensions_m[1] == pytest.approx(0.014)

    def test_miniature_dimensions(self):
        """The Xerafy Dash-On XS measures 1.2 x 0.3 x 0.22 cm."""
        spec = miniature_tag_spec()
        assert spec.dimensions_m == (0.012, 0.003, 0.0022)

    def test_minimum_input_voltage(self):
        spec = standard_tag_spec()
        assert spec.minimum_input_voltage_v() == pytest.approx(
            spec.threshold_v + spec.operate_voltage_v / spec.n_stages
        )

    def test_miniature_harvests_worse(self):
        standard = standard_tag_spec()
        miniature = miniature_tag_spec()
        assert (
            miniature.antenna.effective_aperture_m2(915e6)
            < standard.antenna.effective_aperture_m2(915e6) / 10
        )

    def test_standard_detunes_in_liquid_miniature_does_not(self):
        """Sec. 5c: the miniature tag sits in a matching tube; the
        air-matched standard inlay detunes in liquid."""
        assert standard_tag_spec().liquid_aperture_factor < 0.2
        assert miniature_tag_spec().liquid_aperture_factor == 1.0

    def test_front_end_carries_the_spec(self):
        for spec in (standard_tag_spec(), miniature_tag_spec()):
            front_end = spec.front_end()
            assert front_end.antenna is spec.antenna
            assert front_end.chip_resistance_ohms == spec.chip_resistance_ohms
            assert (
                front_end.liquid_aperture_factor
                == spec.liquid_aperture_factor
            )

    def test_threshold_in_ic_range(self):
        for spec in (standard_tag_spec(), miniature_tag_spec()):
            assert 0.2 <= spec.threshold_v <= 0.4


class TestValidation:
    def base_kwargs(self):
        return dict(
            name="t",
            dimensions_m=(0.01, 0.01, 0.001),
            antenna=STANDARD_TAG_ANTENNA,
        )

    def test_bad_dimensions(self):
        kwargs = self.base_kwargs()
        kwargs["dimensions_m"] = (0.0, 0.01, 0.01)
        with pytest.raises(ConfigurationError):
            TagSpec(**kwargs)

    def test_bad_modulation_depth(self):
        with pytest.raises(ConfigurationError):
            TagSpec(**self.base_kwargs(), modulation_depth=0.0)

    def test_fluctuation_tolerance_capped(self):
        with pytest.raises(ConfigurationError):
            TagSpec(**self.base_kwargs(), max_query_fluctuation=0.7)

    def test_bad_liquid_factor(self):
        with pytest.raises(ConfigurationError):
            TagSpec(**self.base_kwargs(), liquid_aperture_factor=1.5)
