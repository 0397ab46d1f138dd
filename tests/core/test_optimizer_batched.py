"""Equivalence tests for the batched coarse-to-fine frequency search.

The batched pipeline (stacked IFFTs, coarse shortlisting, steepest-ascent
neighborhood batching, search islands) must select *bit-identical* plans to
scoring every candidate row on its own under common random numbers --
these tests pin that contract for ``optimize``, ``optimize_conduction`` and
``rank_random_sets``, plus the envelope primitive every sparse-spectrum
path shares, its offset validation and the per-search evaluation
accounting.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import optimizer as optimizer_module
from repro.core.optimizer import (
    DEFAULT_GRID_SIZE,
    FrequencyOptimizer,
    envelope_series_fft,
    evaluate_stacked_specs,
    peak_amplitudes_fft,
    sparse_envelope,
    validate_offset_bins,
)
from repro.core.waveform import envelope
from repro.errors import ConfigurationError


def _pair(n_antennas, seed, n_draws=16):
    """Two independent optimizers with identical common random numbers."""
    return (
        FrequencyOptimizer(n_antennas, n_draws=n_draws, seed=seed),
        FrequencyOptimizer(n_antennas, n_draws=n_draws, seed=seed),
    )


def _row_by_row(specs):
    """The stacked kernel, scoring every candidate row on its own."""
    return [
        np.array(
            [
                evaluate_stacked_specs(
                    [replace(spec, scatter=spec.scatter[row : row + 1])]
                )[0][0]
                for row in range(spec.n_candidates)
            ]
        )
        for spec in specs
    ]


@pytest.fixture
def row_by_row(monkeypatch):
    """``row_by_row(call, *args)`` runs ``call`` with the optimizer's
    kernel swapped for :func:`_row_by_row`."""

    def run(call, *args):
        with monkeypatch.context() as patch:
            patch.setattr(optimizer_module, "evaluate_stacked_specs", _row_by_row)
            return call(*args)

    return run


class TestSparseSpectrumBuilder:
    def test_duplicate_bins_raise(self):
        betas = np.zeros((2, 4))
        with pytest.raises(ValueError):
            envelope_series_fft((0, 7, 7, 20), betas, DEFAULT_GRID_SIZE)

    def test_out_of_range_bins_raise(self):
        betas = np.zeros((1, 2))
        with pytest.raises(ValueError):
            envelope_series_fft(
                (0, DEFAULT_GRID_SIZE // 2), betas, DEFAULT_GRID_SIZE
            )

    def test_fractional_bins_raise(self):
        with pytest.raises(ValueError):
            validate_offset_bins((0.0, 1.5), DEFAULT_GRID_SIZE)

    def test_validator_returns_int_bins(self):
        bins = validate_offset_bins((0.0, 3.0, 10.0), 64)
        assert bins.tolist() == [0, 3, 10]

    def test_conduction_objective_rejects_duplicates(self):
        optimizer = FrequencyOptimizer(5, n_draws=4, seed=0)
        with pytest.raises(ValueError):
            optimizer.conduction_objective((0, 7, 7, 20, 30), threshold=1.0)

    def test_conduction_objective_rejects_out_of_range(self):
        optimizer = FrequencyOptimizer(3, n_draws=4, seed=0)
        with pytest.raises(ValueError):
            optimizer.conduction_objective(
                (0, 5, DEFAULT_GRID_SIZE), threshold=1.0
            )


class TestBatchedScoring:
    def test_score_candidates_matches_objective(self):
        scorer = FrequencyOptimizer(5, n_draws=12, seed=3)
        reference = FrequencyOptimizer(5, n_draws=12, seed=3)
        candidates = [scorer.random_candidate() for _ in range(8)]
        reference.random_candidates(1)  # keep streams independent of this
        batched = scorer.score_candidates(candidates)
        sequential = [reference.objective(c) for c in candidates]
        assert batched.tolist() == sequential

    def test_both_modes_are_validated(self):
        optimizer = FrequencyOptimizer(3, n_draws=4, seed=0)
        with pytest.raises(ValueError):
            optimizer.score_candidates([(0, 4, 4)])

    def test_coarse_values_lower_bound_fine_peaks(self):
        optimizer = FrequencyOptimizer(5, n_draws=8, seed=9)
        assert optimizer.coarse_grid_size is not None
        candidates = optimizer.random_candidates(12)
        coarse = optimizer._score_matrix(candidates, "coarse", "peak", 0.0)
        fine = optimizer._score_matrix(candidates, "fine", "peak", 0.0)
        # Coarse time samples are a subset of the fine grid, so coarse
        # peaks cannot exceed fine peaks (up to single-precision noise,
        # after undoing the coarse path's skipped 1/M rescale).
        rescaled = coarse * optimizer.coarse_grid_size
        assert np.all(rescaled <= fine * (1.0 + 1e-5))

    def test_random_candidates_feasible_and_deterministic(self):
        one = FrequencyOptimizer(6, n_draws=4, seed=11)
        two = FrequencyOptimizer(6, n_draws=4, seed=11)
        a = one.random_candidates(25)
        b = two.random_candidates(25)
        assert np.array_equal(a, b)
        assert a.shape == (25, 6)
        assert all(one.is_feasible(tuple(row)) for row in a)

    def test_random_candidates_tight_budget_raises(self):
        from repro.core.constraints import FlatnessConstraint

        cramped = FrequencyOptimizer(
            40, FlatnessConstraint(alpha=0.001), n_draws=2, seed=0
        )
        with pytest.raises(ConfigurationError):
            cramped.random_candidates(5)


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_optimize_modes_bit_identical(self, seed, row_by_row):
        batched, sequential = _pair(5, seed)
        a = batched.optimize(30, 1)
        b = row_by_row(sequential.optimize, 30, 1)
        assert a.plan.offsets_hz == b.plan.offsets_hz
        assert a.expected_peak == b.expected_peak
        assert a.history == b.history
        assert a.n_evaluations == b.n_evaluations

    def test_optimize_conduction_modes_bit_identical(self, row_by_row):
        batched, sequential = _pair(5, 7)
        a = batched.optimize_conduction(2.0, 15, 1)
        b = row_by_row(sequential.optimize_conduction, 2.0, 15, 1)
        assert a.plan.offsets_hz == b.plan.offsets_hz
        assert a.expected_peak == b.expected_peak
        assert a.history == b.history

    def test_rank_random_sets_modes_bit_identical(self, row_by_row):
        batched, sequential = _pair(6, 2)
        assert batched.rank_random_sets(20) == row_by_row(
            sequential.rank_random_sets, 20
        )

    def test_zero_refinement_budget(self, row_by_row):
        batched, sequential = _pair(4, 5)
        a = batched.optimize(10, 0)
        b = row_by_row(sequential.optimize, 10, 0)
        assert a.plan.offsets_hz == b.plan.offsets_hz
        assert a.expected_peak == b.expected_peak


class TestSearchIslands:
    def test_islands_bit_identical_across_workers(self):
        solo, pooled = _pair(5, 4)
        a = solo.optimize(20, 1, islands=3, workers=1)
        b = pooled.optimize(20, 1, islands=3, workers=2)
        assert a == b

    def test_islands_explore_independent_streams(self):
        one, three = _pair(5, 4)
        single = one.optimize(20, 1, islands=1)
        multi = three.optimize(20, 1, islands=3)
        # Three islands scored three candidate streams; the merged best
        # cannot be worse than any single island's stream would allow.
        assert multi.n_evaluations > single.n_evaluations
        assert multi.expected_peak >= single.expected_peak or (
            multi.plan.offsets_hz != single.plan.offsets_hz
        )

    def test_islands_reject_bad_count(self):
        optimizer = FrequencyOptimizer(4, n_draws=4, seed=0)
        with pytest.raises(ValueError):
            optimizer.optimize(10, 0, islands=0)


class TestEvaluationAccounting:
    def test_result_counts_are_per_search(self):
        optimizer = FrequencyOptimizer(4, n_draws=8, seed=6)
        first = optimizer.optimize(12, 1)
        second = optimizer.optimize(12, 1)
        assert first.n_evaluations > 0
        assert second.n_evaluations > 0
        # Lifetime counter accumulates, per-result counts do not.
        assert (
            optimizer.n_evaluations
            == first.n_evaluations + second.n_evaluations
        )

    def test_objective_still_counts_lifetime(self):
        optimizer = FrequencyOptimizer(3, n_draws=4, seed=0)
        optimizer.objective((0, 1, 2))
        optimizer.objective((0, 2, 5))
        assert optimizer.n_evaluations == 2


def _inline_envelope(bins, betas, amplitudes, grid_size):
    """The spectrum-then-IFFT expression each caller once wrote out."""
    spectrum = np.zeros((betas.shape[0], grid_size), dtype=complex)
    spectrum[:, bins] = amplitudes * np.exp(1j * betas)
    return np.abs(np.fft.ifft(spectrum, axis=1) * grid_size)


class TestSparseEnvelope:
    GRID = 512

    def _draws(self, seed, n_draws=6, n=5):
        rng = np.random.default_rng(seed)
        bins = np.sort(rng.choice(self.GRID // 2, size=n, replace=False))
        betas = rng.uniform(0.0, 2.0 * np.pi, (n_draws, n))
        return rng, bins, betas

    @pytest.mark.parametrize("kind", ["ones", "shared", "per_draw"])
    def test_matches_inline_ifft_bitwise(self, kind):
        rng, bins, betas = self._draws(11)
        amplitudes = {
            "ones": np.ones(bins.size),
            "shared": rng.uniform(0.0, 3.0, bins.size),
            "per_draw": rng.uniform(0.0, 3.0, betas.shape),
        }[kind]
        got = sparse_envelope(bins, betas, amplitudes, self.GRID)
        want = _inline_envelope(bins, betas, amplitudes, self.GRID)
        assert got.tobytes() == want.tobytes()

    def test_rows_do_not_depend_on_the_batch(self):
        rng, bins, betas = self._draws(12)
        amplitudes = rng.uniform(0.0, 3.0, betas.shape)
        batched = sparse_envelope(bins, betas, amplitudes, self.GRID)
        for row in range(betas.shape[0]):
            single = sparse_envelope(
                bins, betas[row : row + 1], amplitudes[row], self.GRID
            )
            assert single[0].tobytes() == batched[row].tobytes()

    def test_wrappers_reduce_the_primitive_rows(self):
        _, bins, betas = self._draws(13)
        rows = sparse_envelope(bins, betas, np.ones(bins.size), self.GRID)
        offsets = bins.astype(float)
        assert (
            peak_amplitudes_fft(offsets, betas, self.GRID).tobytes()
            == rows.max(axis=1).tobytes()
        )
        assert (
            envelope_series_fft(offsets, betas, self.GRID).tobytes()
            == rows.tobytes()
        )

    def test_conduction_objective_thresholds_the_rows(self):
        optimizer = FrequencyOptimizer(4, n_draws=8, seed=3)
        offsets = (0, 5, 17, 40)
        rows = envelope_series_fft(
            offsets, optimizer._betas, optimizer.grid_size
        )
        assert optimizer.conduction_objective(offsets, 2.0) == float(
            np.mean(rows > 2.0)
        )


class TestEnvelopeSeriesFft:
    def test_matches_direct_envelope(self):
        rng = np.random.default_rng(5)
        offsets = np.array([0.0, 28.0, 57.0, 96.0])
        betas = rng.uniform(0, 2 * np.pi, size=(3, 4))
        amplitudes = rng.uniform(0.5, 2.0, size=4)
        n_samples, duration = 4096, 2.0
        series = envelope_series_fft(
            offsets, betas, n_samples, duration, amplitudes
        )
        t = np.arange(n_samples) * (duration / n_samples)
        for row in range(3):
            direct = envelope(offsets, betas[row], t, amplitudes)
            assert np.allclose(series[row], direct, rtol=1e-9, atol=1e-12)

    def test_rejects_non_bin_offsets(self):
        with pytest.raises(ValueError):
            envelope_series_fft((0.0, 0.5), np.zeros((1, 2)), 1024, 1.0)
