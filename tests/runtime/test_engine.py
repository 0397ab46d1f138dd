"""Unit tests for the batched envelope-evaluation engine."""

import numpy as np

from repro.core import waveform
from repro.core.plan import paper_plan
from repro.runtime import engine
from tests.reference.measurement import peak_amplitudes_scalar


def _random_betas(n_draws, n, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_draws, n))


class TestFftCompatible:
    def test_integer_offsets_are_compatible(self):
        assert engine.fft_compatible(np.array([0.0, 7.0, 23.0]), 1.0)

    def test_paper_plan_is_compatible(self):
        assert engine.fft_compatible(paper_plan().offsets_array(), 2.0)

    def test_fractional_bins_rejected(self):
        assert not engine.fft_compatible(np.array([0.0, 7.5]), 1.0)

    def test_duplicate_bins_rejected(self):
        assert not engine.fft_compatible(np.array([3.0, 3.0]), 1.0)

    def test_negative_offsets_rejected(self):
        assert not engine.fft_compatible(np.array([-1.0, 2.0]), 1.0)

    def test_bins_beyond_nyquist_rejected(self):
        # A narrow spread keeps the capture grid at its MIN_TIME_SAMPLES
        # floor, so a large absolute offset overruns grid//2.
        assert not engine.fft_compatible(np.array([2000.0, 2001.0]), 1.0)

    def test_zero_duration_rejected(self):
        assert not engine.fft_compatible(np.array([0.0, 7.0]), 0.0)


class TestTierFromInput:
    """The offsets alone pick the tier; no caller can select one."""

    @staticmethod
    def _tiers_taken(monkeypatch, offsets, duration_s):
        taken = []
        for tier in ("fft", "direct"):
            original = getattr(engine, f"_{tier}_peaks")

            def spy(*args, _tier=tier, _original=original):
                taken.append(_tier)
                return _original(*args)

            monkeypatch.setattr(engine, f"_{tier}_peaks", spy)
        betas = _random_betas(3, len(offsets))
        engine.peak_amplitudes(np.asarray(offsets), betas, duration_s)
        return taken

    def test_integer_bin_offsets_take_fft(self, monkeypatch):
        assert self._tiers_taken(monkeypatch, [0.0, 7.0], 1.0) == ["fft"]

    def test_fractional_offsets_take_direct(self, monkeypatch):
        assert self._tiers_taken(monkeypatch, [0.0, 7.3], 1.0) == ["direct"]


# Offsets the FFT tier cannot take (half-integer bins over 2 s), so
# peak_amplitudes evaluates them on the direct tier.
_FRACTIONAL = paper_plan().offsets_array() + 0.25


class TestPeakAmplitudes:
    def test_direct_matches_scalar_bitwise(self):
        betas = _random_betas(40, _FRACTIONAL.size, seed=1)
        assert not engine.fft_compatible(_FRACTIONAL, 2.0)
        np.testing.assert_array_equal(
            engine.peak_amplitudes(_FRACTIONAL, betas, 2.0),
            peak_amplitudes_scalar(_FRACTIONAL, betas, 2.0),
        )

    def test_fft_close_to_direct(self):
        offsets = paper_plan().offsets_array()
        betas = _random_betas(40, offsets.size, seed=2)
        np.testing.assert_allclose(
            engine.peak_amplitudes(offsets, betas, 2.0),
            peak_amplitudes_scalar(offsets, betas, 2.0),
            rtol=1e-10,
        )

    def test_single_row_promoted(self):
        offsets = np.array([0.0, 7.0, 23.0])
        betas = _random_betas(1, 3, seed=3)[0]
        batched = engine.peak_amplitudes(offsets, betas, 1.0)
        assert batched.shape == (1,)
        reference, _ = waveform.peak_envelope(offsets, betas, 1.0)
        np.testing.assert_allclose(batched[0], reference, rtol=1e-10)

    def test_per_draw_amplitudes(self):
        offsets = np.array([0.0, 7.5, 23.25])
        betas = _random_betas(12, 3, seed=4)
        amplitudes = np.random.default_rng(5).uniform(0.5, 2.0, (12, 3))
        batched = engine.peak_amplitudes(offsets, betas, 1.0, amplitudes)
        for index in range(12):
            reference, _ = waveform.peak_envelope(
                offsets, betas[index], 1.0, amplitudes[index]
            )
            assert batched[index] == reference

    def test_chunk_boundaries_do_not_change_results(self, monkeypatch):
        offsets = paper_plan().offsets_array()
        betas = _random_betas(30, offsets.size, seed=6)
        direct_full = engine.peak_amplitudes(_FRACTIONAL, betas, 2.0)
        fft_full = engine.peak_amplitudes(offsets, betas, 2.0)
        # Force many tiny chunks through both tiers.
        monkeypatch.setattr(engine, "DIRECT_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(engine, "FFT_CHUNK_ELEMENTS", 1)
        np.testing.assert_array_equal(
            direct_full, engine.peak_amplitudes(_FRACTIONAL, betas, 2.0)
        )
        np.testing.assert_array_equal(
            fft_full, engine.peak_amplitudes(offsets, betas, 2.0)
        )
