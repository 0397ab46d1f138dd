"""Wall time scaled to the reference host speed."""

import pytest

from perfbench import common
from perfbench.common import NEAR_S, REFERENCE_S


def _clock(samples):
    """A clock with ``(end time, kernel seconds)`` timings already taken."""
    clock = common.HostSpeed()
    clock.times = [end for end, _ in samples]
    clock.seconds = [seconds for _, seconds in samples]
    return clock


def test_a_host_twice_as_slow_halves_the_time():
    clock = _clock([(1.0, 2 * REFERENCE_S), (3.0, 2 * REFERENCE_S)])
    assert clock.scaled(1.5, 2.5) == pytest.approx(0.5)


def test_only_timings_near_the_interval_count():
    # The far timings are neither within NEAR_S nor the nearest on either
    # side, so only the two slow ones count.
    near = 1.0 + 2 * NEAR_S
    clock = _clock(
        [(0.0, REFERENCE_S), (near, 2 * REFERENCE_S), (near + 0.5, 2 * REFERENCE_S),
         (near + 0.5 + 2 * NEAR_S + 1.0, REFERENCE_S)]
    )
    assert clock.factor(near + 0.1, near + 0.4) == pytest.approx(0.5)


def test_kernel_time_inside_an_interval_is_not_work():
    clock = _clock([(1.0, REFERENCE_S), (2.0, REFERENCE_S), (3.0, REFERENCE_S)])
    assert clock.scaled(1.5, 2.5) == pytest.approx(1.0 - REFERENCE_S)


def test_scaling_needs_a_timing():
    with pytest.raises(ValueError):
        common.HostSpeed().scaled(0.0, 1.0)
