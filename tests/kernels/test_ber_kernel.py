"""Parity tests: block-decoded BER kernel vs the per-word reference."""

import numpy as np
import pytest

from repro.experiments import ber
from repro.kernels import ber_block
from tests.reference.ber import word_errors_chunk

_KW = dict(
    seed=54,
    samples_per_chip=10,
    miller_orders=(2, 8),
    averaging_periods=10,
)


class TestChunkParity:
    @pytest.mark.parametrize("noise_std", [0.2, 0.9, 1.4])
    def test_full_range_equal(self, noise_std):
        kernel = ber_block(0, 30, noise_std=noise_std, **_KW)
        scalar = word_errors_chunk(0, 30, noise_std=noise_std, **_KW)
        assert kernel == scalar

    def test_split_invariance(self):
        whole = ber_block(0, 30, noise_std=1.1, **_KW)
        first = ber_block(0, 13, noise_std=1.1, **_KW)
        second = ber_block(13, 17, noise_std=1.1, **_KW)
        combined = {
            key: first[key] + second[key] for key in whole
        }
        assert combined == whole

    def test_empty_span(self):
        empty = ber_block(30, 0, noise_std=1.1, **_KW)
        assert all(value == 0 for value in empty.values())


class TestExperimentParity:
    def test_kernel_run_matches_scalar_run(self, monkeypatch):
        config = ber.BerConfig.fast()
        kernel = ber.run(config).curves
        monkeypatch.setattr(ber, "ber_block", word_errors_chunk)
        assert ber.run(config).curves == kernel

    def test_worker_count_invariance(self):
        base = ber.BerConfig(snr_db_points=(-6.0,), n_words=24)
        pooled = ber.BerConfig(
            snr_db_points=(-6.0,), n_words=24, workers=3
        )
        assert ber.run(base).curves == ber.run(pooled).curves

    def test_ber_monotone_in_snr(self):
        result = ber.run(ber.BerConfig.fast())
        fm0 = [value for _, value in result.curves["FM0"]]
        assert fm0 == sorted(fm0, reverse=True)
