"""Per-offset reference of the FM0 preamble correlator.

:func:`correlate_preamble_loop` slides the preamble template over the
waveform one offset at a time; the vectorised
:func:`repro.gen2.decoder.correlate_preamble` returns the same
``(value, offset)`` tuple bit for bit.
"""

from typing import Tuple

import numpy as np

from repro.errors import DecodingError
from repro.gen2.decoder import preamble_template


def correlate_preamble_loop(
    waveform: np.ndarray, samples_per_chip: int
) -> Tuple[float, int]:
    """Slide the preamble template over the waveform.

    Returns:
        ``(best_abs_normalized_correlation, best_offset)``. The absolute
        value handles the unknown backscatter polarity.
    """
    if samples_per_chip < 1:
        raise ValueError(
            f"samples_per_chip must be >= 1, got {samples_per_chip}"
        )
    data = np.asarray(waveform, dtype=float)
    template = preamble_template(samples_per_chip)
    if data.size < template.size:
        raise DecodingError(
            f"waveform ({data.size}) shorter than preamble ({template.size})"
        )
    template_energy = float(np.linalg.norm(template))
    n_positions = data.size - template.size + 1
    # Normalized cross-correlation via cumulative sums for the local energy.
    squared = np.concatenate([[0.0], np.cumsum(data**2)])
    best_value = 0.0
    best_offset = 0
    dots = np.correlate(data, template, mode="valid")
    for offset in range(n_positions):
        local_energy = squared[offset + template.size] - squared[offset]
        if local_energy <= 0:
            continue
        value = abs(dots[offset]) / (template_energy * np.sqrt(local_energy))
        if value > best_value:
            best_value = value
            best_offset = offset
    return float(best_value), int(best_offset)
