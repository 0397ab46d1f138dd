"""Miller-modulated subcarrier encoding (Gen2 uplink, M = 2/4/8).

Miller baseband inverts its phase between two consecutive data-0s and in
the middle of a data-1; the baseband is then multiplied by a square-wave
subcarrier with M cycles per bit. Readers trade data rate for robustness
by asking tags for higher M -- useful at the low SNRs of deep-tissue links.
"""

import functools
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import DecodingError, ProtocolError

VALID_M = (2, 4, 8)


def miller_baseband_halfbits(bits: Sequence[int]) -> Tuple[int, ...]:
    """Miller baseband at half-bit resolution (before the subcarrier).

    Rules (Gen2 6.3.1.3.2.2): the phase inverts at a bit boundary only
    between two data-0s; a data-1 inverts phase at its midpoint.
    """
    values = [int(b) for b in bits]
    if any(v not in (0, 1) for v in values):
        raise ProtocolError(f"bits must be 0/1, got {bits!r}")
    halfbits: List[int] = []
    level = 0
    previous_bit = None
    for bit in values:
        if previous_bit == 0 and bit == 0:
            level ^= 1
        if bit == 1:
            halfbits.extend([level, level ^ 1])
            level ^= 1
        else:
            halfbits.extend([level, level])
        previous_bit = bit
    return tuple(halfbits)


def encode_waveform(
    bits: Sequence[int],
    m: int = 4,
    samples_per_subcarrier_halfcycle: int = 2,
) -> np.ndarray:
    """Miller-M waveform: baseband XOR square subcarrier, as +/-1 samples.

    Each bit spans ``m`` subcarrier cycles; the returned waveform has
    ``2 * m * samples_per_subcarrier_halfcycle`` samples per bit.
    """
    if m not in VALID_M:
        raise ProtocolError(f"M must be one of {VALID_M}, got {m}")
    if samples_per_subcarrier_halfcycle < 1:
        raise ProtocolError("need >= 1 sample per subcarrier half-cycle")
    halfbits = miller_baseband_halfbits(bits)
    spc = samples_per_subcarrier_halfcycle
    # One half-bit spans m/2 * 2 = m subcarrier half-cycles. Expand the
    # levels to half-cycle resolution, XOR with the alternating subcarrier
    # phase, and repeat to sample resolution -- no per-half-cycle loop.
    levels = np.repeat(np.asarray(halfbits, dtype=int), m)
    subcarrier = np.arange(levels.size) % 2
    chips = levels ^ subcarrier
    return np.repeat(np.where(chips == 1, 1.0, -1.0), spc)


def decode_waveform(
    waveform: np.ndarray,
    n_bits: int,
    m: int = 4,
    samples_per_subcarrier_halfcycle: int = 2,
) -> Tuple[int, ...]:
    """Decode a Miller-M waveform by correlating both bit hypotheses.

    For each bit position the decoder builds the expected data-0 and
    data-1 waveforms given the current phase state and picks the better
    correlate -- a maximum-likelihood sequence built greedily, adequate at
    the SNRs the link simulation produces.
    """
    if m not in VALID_M:
        raise ProtocolError(f"M must be one of {VALID_M}, got {m}")
    if n_bits < 1:
        raise DecodingError("need at least one bit to decode")
    spc = samples_per_subcarrier_halfcycle
    samples_per_bit = 2 * m * spc
    data = np.asarray(waveform, dtype=float)
    if data.size < n_bits * samples_per_bit:
        raise DecodingError(
            f"waveform too short: {data.size} samples for {n_bits} bits"
        )

    # Backscatter polarity is unknown: decode under both and keep the
    # sequence whose accumulated correlation is larger.
    best_bits: Tuple[int, ...] = ()
    best_score = -np.inf
    for polarity in (1.0, -1.0):
        bits, score = _decode_with_polarity(
            data, n_bits, m, spc, samples_per_bit, polarity
        )
        if score > best_score:
            best_bits, best_score = bits, score
    return best_bits


def _decode_with_polarity(
    data: np.ndarray,
    n_bits: int,
    m: int,
    spc: int,
    samples_per_bit: int,
    polarity: float,
) -> Tuple[Tuple[int, ...], float]:
    bits: List[int] = []
    level = 0
    previous_bit = None
    total_score = 0.0
    for index in range(n_bits):
        segment = data[index * samples_per_bit : (index + 1) * samples_per_bit]
        scores = {}
        end_levels = {}
        for hypothesis in (0, 1):
            start_level = level
            if previous_bit == 0 and hypothesis == 0:
                start_level ^= 1
            if hypothesis == 1:
                halfbits = (start_level, start_level ^ 1)
            else:
                halfbits = (start_level, start_level)
            template = _halfbits_to_samples(halfbits, m, spc)
            scores[hypothesis] = polarity * float(np.dot(segment, template))
            end_levels[hypothesis] = halfbits[-1]
        decided = 1 if scores[1] >= scores[0] else 0
        total_score += scores[decided]
        bits.append(decided)
        level = end_levels[decided]
        previous_bit = decided
    return tuple(bits), total_score


@functools.lru_cache(maxsize=None)
def _halfbits_to_samples(
    halfbits: Tuple[int, ...], m: int, spc: int
) -> np.ndarray:
    """Expand two half-bits into +/-1 samples with the running subcarrier.

    Only four half-bit patterns exist per (m, spc), and the greedy decoder
    rebuilds one for every bit hypothesis, so the templates are cached
    (read-only arrays) instead of reallocated per call.
    """
    # Subcarrier phase is continuous across bits: each bit consumes 2*m
    # half-cycles, an even count, so each bit starts at phase 0.
    levels = np.repeat(np.asarray(halfbits, dtype=int), m)
    subcarrier = np.arange(levels.size) % 2
    chips = levels ^ subcarrier
    samples = np.repeat(np.where(chips == 1, 1.0, -1.0), spc)
    samples.setflags(write=False)
    return samples


def bit_duration_s(blf_hz: float, m: int) -> float:
    """Airtime of one Miller-M bit: ``m / BLF``."""
    if blf_hz <= 0:
        raise ValueError("BLF must be positive")
    if m not in VALID_M:
        raise ProtocolError(f"M must be one of {VALID_M}, got {m}")
    return m / blf_hz
