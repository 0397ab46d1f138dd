"""Per-candidate loops behind the batched frequency-search kernels.

* :func:`evaluate_spec_loop` is the reference of
  :func:`repro.core.optimizer.evaluate_stacked_specs` for one spec: the
  same chunked IFFT, but the spectrum is scattered and every candidate
  reduced one row at a time.
* :func:`neighborhood_loop` is the reference of
  :meth:`repro.core.optimizer.FrequencyOptimizer._neighborhood`: the
  index x step x direction triple loop with a ``seen`` set and the scalar
  :meth:`~repro.core.optimizer.FrequencyOptimizer.is_feasible`.
"""

from typing import List, Tuple

import numpy as np
from scipy.fft import ifft as _coarse_ifft

from repro.core.optimizer import (
    FFT_ROW_CHUNK_ELEMENTS,
    FrequencyOptimizer,
    StackedScoreSpec,
)


def _reduce_block(spec: StackedScoreSpec, magnitude: np.ndarray) -> float:
    """One candidate's objective from its (draws, grid) envelope block."""
    if spec.kind == "peak":
        return float(np.mean(np.max(magnitude, axis=1)))
    with np.errstate(over="ignore"):
        above = np.count_nonzero(magnitude > spec.cutoff)
    return float(above / (spec.n_draws * spec.grid_size))


def evaluate_spec_loop(spec: StackedScoreSpec) -> np.ndarray:
    """One spec's candidate values, scattered and reduced row by row."""
    grid_size, draws = spec.grid_size, spec.n_draws
    dtype = np.complex64 if spec.single else complex
    values = np.empty(spec.n_candidates)
    per_chunk = max(1, FFT_ROW_CHUNK_ELEMENTS // grid_size // draws)
    for lo in range(0, spec.n_candidates, per_chunk):
        chunk = spec.scatter[lo : lo + per_chunk]
        spectrum = np.zeros((chunk.shape[0] * draws, grid_size), dtype=dtype)
        for row, bins in enumerate(chunk):
            spectrum[row * draws : (row + 1) * draws, bins] = spec.phasors
        if spec.single:
            signal = _coarse_ifft(spectrum, axis=1)
        else:
            signal = np.fft.ifft(spectrum, axis=1) * grid_size
        magnitude = np.abs(signal)
        for row in range(chunk.shape[0]):
            values[lo + row] = _reduce_block(
                spec, magnitude[row * draws : (row + 1) * draws]
            )
    return values


def neighborhood_loop(
    optimizer: FrequencyOptimizer,
    incumbent: np.ndarray,
    refine_steps: Tuple[int, ...],
) -> np.ndarray:
    """Feasible, deduplicated perturbations in (index, step, +/-) order."""
    base = np.asarray(incumbent, dtype=np.int64)
    seen = {tuple(int(v) for v in base)}
    trials: List[np.ndarray] = []
    for index in range(1, optimizer.n_antennas):
        for step in refine_steps:
            for direction in (step, -step):
                trial = base.copy()
                trial[index] += direction
                trial[1:] = np.sort(trial[1:])
                key = tuple(int(v) for v in trial)
                if key in seen:
                    continue
                seen.add(key)
                if optimizer.is_feasible(key):
                    trials.append(trial)
    if not trials:
        return np.empty((0, optimizer.n_antennas), dtype=np.int64)
    return np.stack(trials)
