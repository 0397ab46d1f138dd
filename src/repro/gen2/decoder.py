"""Sample-level backscatter decoding (Section 6.2's decision rule).

The reader captures a noisy baseband waveform containing the tag's FM0
response. Decoding proceeds as the paper describes: correlate against the
known 12-chip preamble ``110100100011``; declare communication successful
when the normalized correlation exceeds 0.8; then slice the remaining
chips into bits.
"""

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.constants import (
    PAPER_PREAMBLE_BITS,
    PREAMBLE_CORRELATION_THRESHOLD,
)
from repro.errors import DecodingError
from repro.gen2 import fm0

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.inject import FaultInjector


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a backscatter decode attempt.

    Attributes:
        success: Whether the preamble correlation cleared the threshold.
        correlation: Peak normalized preamble correlation in [-1, 1].
        bits: Decoded data bits (empty when unsuccessful).
        preamble_offset: Sample index where the preamble starts.
    """

    success: bool
    correlation: float
    bits: Tuple[int, ...] = ()
    preamble_offset: int = 0


def preamble_template(samples_per_chip: int) -> np.ndarray:
    """Bipolar sampled template of the FM0 preamble."""
    return fm0.chips_to_waveform(PAPER_PREAMBLE_BITS, samples_per_chip)


@functools.lru_cache(maxsize=64)
def _cached_preamble(samples_per_chip: int) -> Tuple[np.ndarray, float]:
    """Read-only preamble template and its norm, shared by every decode."""
    template = preamble_template(samples_per_chip)
    template.setflags(write=False)
    return template, float(np.linalg.norm(template))


def correlate_preamble(
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
    template, template_energy = _cached_preamble(samples_per_chip)
    if data.size < template.size:
        raise DecodingError(
            f"waveform ({data.size}) shorter than preamble ({template.size})"
        )
    n_positions = data.size - template.size + 1
    # Normalized cross-correlation via cumulative sums for the local energy.
    squared = np.concatenate([[0.0], np.cumsum(data**2)])
    local_energy = squared[template.size :] - squared[:n_positions]
    dots = np.correlate(data, template, mode="valid")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(dots) / (template_energy * np.sqrt(local_energy))
    # Offsets without energy, and NaN correlations, never win; argmax takes
    # the first maximum, and offset 0 with value 0 when nothing correlates.
    values[~(local_energy > 0) | np.isnan(values)] = 0.0
    best_offset = int(np.argmax(values))
    return float(values[best_offset]), best_offset


def decode_fm0_response(
    waveform: np.ndarray,
    n_bits: int,
    samples_per_chip: int,
    threshold: float = PREAMBLE_CORRELATION_THRESHOLD,
    expect_dummy: bool = True,
    faults: Optional["FaultInjector"] = None,
    trial_index: int = 0,
) -> DecodeResult:
    """Full decode: preamble search, polarity fix, chip slicing.

    Args:
        waveform: Real-valued baseband samples (e.g. the in-phase
            projection of the averaged backscatter capture).
        n_bits: Expected payload size (16 for an RN16).
        samples_per_chip: Half-bit duration in samples.
        threshold: Success threshold on the preamble correlation.
        expect_dummy: Whether the tag appended the dummy data-1.
        faults: Optional fault injector; its bit-corruption events flip
            chip-long waveform segments ahead of the correlator. Inactive
            injectors leave the waveform untouched.
        trial_index: Absolute trial index keying the corruption stream.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    if faults is not None and faults.active:
        waveform = faults.corrupt_waveform(trial_index, waveform, samples_per_chip)
    correlation, offset = correlate_preamble(waveform, samples_per_chip)
    if correlation < threshold:
        return DecodeResult(
            success=False, correlation=correlation, preamble_offset=offset
        )
    data = np.asarray(waveform, dtype=float)
    n_payload_chips = 2 * (n_bits + (1 if expect_dummy else 0))
    total_chips = len(PAPER_PREAMBLE_BITS) + n_payload_chips
    needed = offset + total_chips * samples_per_chip
    if data.size < needed:
        return DecodeResult(
            success=False, correlation=correlation, preamble_offset=offset
        )
    segment = data[offset : offset + total_chips * samples_per_chip]
    chips = fm0.waveform_to_chips(segment, samples_per_chip)
    try:
        bits = fm0.decode_chips(chips, has_preamble=True, expect_dummy=expect_dummy)
    except DecodingError:
        return DecodeResult(
            success=False, correlation=correlation, preamble_offset=offset
        )
    if len(bits) < n_bits:
        return DecodeResult(
            success=False, correlation=correlation, preamble_offset=offset
        )
    return DecodeResult(
        success=True,
        correlation=correlation,
        bits=bits[:n_bits],
        preamble_offset=offset,
    )


def matched_filter_snr(
    waveform: np.ndarray, samples_per_chip: int
) -> Optional[float]:
    """Rough SNR estimate from the preamble correlation geometry.

    Returns ``correlation^2 / (1 - correlation^2)``, the equivalent
    matched-filter SNR of the best alignment, or ``None`` when no
    alignment is found.
    """
    correlation, _ = correlate_preamble(waveform, samples_per_chip)
    if correlation >= 1.0:
        return float("inf")
    if correlation <= 0.0:
        return None
    return correlation**2 / (1.0 - correlation**2)
