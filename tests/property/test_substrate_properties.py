"""Property-based tests on the EM and harvester substrates."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em.layers import LayeredPath
from repro.em.media import AIR, FAT, MUSCLE, SKIN, WATER, Medium
from repro.em.propagation import (
    free_space_field_amplitude,
    power_transmittance,
    tissue_field_amplitude,
)
from repro.harvester.rectifier import (
    conduction_angle_rad,
    harvesting_efficiency,
    ideal_output_voltage,
)

F = 915e6

media_strategy = st.sampled_from([WATER, MUSCLE, FAT, SKIN])
positive = st.floats(0.01, 100.0, allow_nan=False)


class TestPropagationProperties:
    @settings(max_examples=50)
    @given(positive, st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    def test_field_monotone_in_distance(self, eirp, r1, r2):
        near, far = sorted([r1, r2])
        assert free_space_field_amplitude(eirp, near) >= (
            free_space_field_amplitude(eirp, far)
        )

    @settings(max_examples=50)
    @given(media_strategy, st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    def test_field_monotone_in_depth(self, medium, d1, d2):
        shallow, deep = sorted([d1, d2])
        assert tissue_field_amplitude(1.0, 0.5, shallow, medium, F) >= (
            tissue_field_amplitude(1.0, 0.5, deep, medium, F)
        )

    @settings(max_examples=50)
    @given(media_strategy)
    def test_power_transmittance_in_unit_interval(self, medium):
        assert 0.0 < power_transmittance(AIR, medium, F) <= 1.0

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(media_strategy, st.floats(0.0, 0.05)),
            min_size=1,
            max_size=5,
        )
    )
    def test_layered_amplitude_never_amplifies(self, pairs):
        path = LayeredPath.from_pairs(pairs)
        assert path.amplitude_factor(F) <= 1.0 + 1e-9

    @settings(max_examples=50)
    @given(
        st.floats(1.5, 80.0),
        st.floats(0.0, 3.0),
        st.floats(0.001, 0.2),
    )
    def test_attenuation_increases_with_conductivity(
        self, permittivity, conductivity, depth
    ):
        low = Medium("low", permittivity, conductivity)
        high = Medium("high", permittivity, conductivity + 0.5)
        assert high.attenuation_np_per_m(F) > low.attenuation_np_per_m(F)


class TestHarvesterProperties:
    @settings(max_examples=60)
    @given(st.floats(0.0, 10.0), st.integers(1, 10), st.floats(0.0, 1.0))
    def test_eq1_nonnegative_and_monotone(self, amplitude, stages, threshold):
        value = ideal_output_voltage(amplitude, stages, threshold)
        assert value >= 0.0
        higher = ideal_output_voltage(amplitude + 0.5, stages, threshold)
        assert higher >= value

    @settings(max_examples=60)
    @given(st.floats(0.0, 10.0), st.floats(0.0, 1.0))
    def test_conduction_angle_bounds(self, amplitude, threshold):
        angle = conduction_angle_rad(amplitude, threshold)
        assert 0.0 <= angle <= math.pi

    @settings(max_examples=60)
    @given(st.floats(0.01, 10.0), st.floats(0.0, 0.5))
    def test_efficiency_bounds(self, amplitude, threshold):
        assert 0.0 <= harvesting_efficiency(amplitude, threshold) <= 1.0
