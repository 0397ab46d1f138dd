"""The arc placement jitter is one expression for one array or a table.

:func:`repro.em.channel.arc_array_distances` draws ``rng.random(n)`` and
passes it through :func:`repro.em.channel.arc_jitter_distances`; both must
equal the ``standoff * (1 + rng.uniform(-f, f, n))`` draw they replace,
bit for bit, with the generator left in the same state.
"""

import math

import numpy as np
import pytest

from repro.em.channel import (
    ARC_JITTER_FRACTION,
    arc_array_distances,
    arc_jitter_distances,
)


@pytest.mark.parametrize(
    "jitter_fraction", [ARC_JITTER_FRACTION, 1e-9, 0.5, 3.0]
)
@pytest.mark.parametrize("n_antennas", [1, 2, 7, 16])
def test_matches_uniform_draw(jitter_fraction, n_antennas):
    for seed in range(20):
        standoff = float(np.random.default_rng(seed).uniform(0.05, 2.0))
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = arc_array_distances(
            standoff, n_antennas, jitter_fraction, rng=got_rng
        )
        want = standoff * (
            1.0
            + want_rng.uniform(
                -jitter_fraction, jitter_fraction, size=n_antennas
            )
        )
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_table_rows_match_single_arrays():
    rng = np.random.default_rng(4)
    uniforms = rng.random((50, 9))
    table = arc_jitter_distances(0.8, uniforms)
    for row, draws in zip(table, uniforms):
        assert row.tobytes() == arc_jitter_distances(0.8, draws).tobytes()


@pytest.mark.parametrize("jitter_fraction", [-0.1, math.inf, math.nan])
def test_rejects_bad_jitter_fraction(jitter_fraction):
    with pytest.raises(ValueError):
        arc_array_distances(
            1.0, 3, jitter_fraction, rng=np.random.default_rng(0)
        )
