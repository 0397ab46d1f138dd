"""The vectorised preamble correlator equals the per-offset loop bit for bit."""

import numpy as np
import pytest

from repro.gen2.decoder import correlate_preamble, preamble_template
from tests.reference.decoder import correlate_preamble_loop

PREAMBLE_CHIPS = 12


def assert_same(waveform, samples_per_chip):
    value, offset = correlate_preamble(waveform, samples_per_chip)
    ref_value, ref_offset = correlate_preamble_loop(waveform, samples_per_chip)
    assert type(value) is float and type(offset) is int
    assert (value.hex(), offset) == (ref_value.hex(), ref_offset)
    return value, offset


@pytest.mark.parametrize("samples_per_chip", range(1, 13))
@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 10.0, 1e3])
def test_random_waveforms(samples_per_chip, scale):
    rng = np.random.default_rng(1000 * samples_per_chip + int(np.log10(scale)))
    template = preamble_template(samples_per_chip)
    for _ in range(10):
        n = int(rng.integers(template.size, template.size + 400))
        waveform = scale * rng.normal(0.0, 1.0, n)
        start = int(rng.integers(0, n - template.size + 1))
        waveform[start : start + template.size] += scale * template
        assert_same(waveform, samples_per_chip)


@pytest.mark.parametrize("samples_per_chip", [1, 4, 10])
def test_all_zero(samples_per_chip):
    waveform = np.zeros(PREAMBLE_CHIPS * samples_per_chip + 50)
    assert assert_same(waveform, samples_per_chip) == (0.0, 0)


@pytest.mark.parametrize("prefix", [1, 37, 200])
def test_zero_filled_prefix(prefix):
    rng = np.random.default_rng(prefix)
    waveform = rng.normal(0.0, 1.0, 300)
    waveform[:prefix] = 0.0
    assert_same(waveform, 5)


@pytest.mark.parametrize("samples_per_chip", [1, 3, 12])
def test_exact_template_length(samples_per_chip):
    template = preamble_template(samples_per_chip)
    value, offset = assert_same(-2.5 * template, samples_per_chip)
    assert offset == 0 and value == pytest.approx(1.0)
    noisy = template + np.random.default_rng(3).normal(0.0, 0.3, template.size)
    assert_same(noisy, samples_per_chip)


@pytest.mark.parametrize("nan_at", [0, 60, 150, 299])
def test_nan_sample(nan_at):
    waveform = np.random.default_rng(nan_at).normal(0.0, 1.0, 300)
    waveform[nan_at] = np.nan
    assert_same(waveform, 4)


def test_exact_tie_picks_first_offset():
    template = preamble_template(6)
    waveform = np.concatenate(
        [np.zeros(5), 3.0 * template, np.zeros(7), 3.0 * template, np.zeros(4)]
    )
    value, offset = assert_same(waveform, 6)
    assert offset == 5 and value == pytest.approx(1.0)
    # The second copy alone scores exactly the same: a true tie.
    second = 5 + template.size + 7
    assert correlate_preamble(waveform[6:], 6) == (value, second - 6)


def test_rejects_what_the_loop_rejects():
    from repro.errors import DecodingError

    for fn in (correlate_preamble, correlate_preamble_loop):
        with pytest.raises(ValueError):
            fn(np.ones(100), 0)
        with pytest.raises(DecodingError):
            fn(np.ones(10), 1)
