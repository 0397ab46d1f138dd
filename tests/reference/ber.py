"""Per-word reference of the BER block kernel.

:func:`word_errors_chunk` has the signature of
:func:`repro.kernels.ber_block` and returns the same per-scheme error
counts bit for bit.
"""

from typing import Dict, Tuple

import numpy as np

from repro.gen2.fm0 import (
    chips_to_waveform,
    decode_chips,
    encode_chips,
    waveform_to_chips,
)
from repro.gen2.miller import decode_waveform, encode_waveform
from repro.reader.averaging import coherent_average


def _fm0_trial(
    bits: Tuple[int, ...],
    noise_std: float,
    spc: int,
    rng: np.random.Generator,
    n_periods: int = 1,
) -> int:
    """Bit errors of one FM0 word at the given noise level."""
    chips = encode_chips(bits)
    clean = chips_to_waveform(chips, spc)
    captures = [
        clean + rng.normal(0.0, noise_std, clean.size)
        for _ in range(n_periods)
    ]
    waveform = coherent_average(captures)
    try:
        decoded_chips = waveform_to_chips(waveform, spc)
        decoded = decode_chips(decoded_chips)
    except Exception:
        return len(bits)
    return sum(a != b for a, b in zip(bits, decoded))


def _miller_trial(
    bits: Tuple[int, ...],
    noise_std: float,
    m: int,
    rng: np.random.Generator,
) -> int:
    clean = encode_waveform(bits, m=m)
    noisy = clean + rng.normal(0.0, noise_std, clean.size)
    decoded = decode_waveform(noisy, len(bits), m=m)
    return sum(a != b for a, b in zip(bits, decoded))


def word_errors_chunk(
    start: int,
    count: int,
    seed: int,
    noise_std: float,
    samples_per_chip: int,
    miller_orders: Tuple[int, ...],
    averaging_periods: int,
) -> Dict[str, int]:
    """Per-scheme bit-error counts for words ``[start, start + count)``.

    Replicates the legacy per-word draw order exactly (bits, FM0, each
    Miller order, averaged FM0 -- all from the same generator), so summing
    the chunk counts reproduces the serial sweep bit for bit.
    """
    errors: Dict[str, int] = {"FM0": 0}
    for m in miller_orders:
        errors[f"Miller-{m}"] = 0
    errors[f"FM0 avg x{averaging_periods}"] = 0
    children = np.random.SeedSequence(seed).spawn(start + count)[start:]
    rngs = [np.random.default_rng(child) for child in children]
    for rng in rngs:
        bits = tuple(int(b) for b in rng.integers(0, 2, 16))
        errors["FM0"] += _fm0_trial(bits, noise_std, samples_per_chip, rng)
        for m in miller_orders:
            errors[f"Miller-{m}"] += _miller_trial(bits, noise_std, m, rng)
        errors[f"FM0 avg x{averaging_periods}"] += _fm0_trial(
            bits, noise_std, samples_per_chip, rng,
            n_periods=averaging_periods,
        )
    return errors
