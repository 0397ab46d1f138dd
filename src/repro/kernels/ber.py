"""Block-decoded BER trial kernel.

:func:`ber_block` is a drop-in replacement for the per-word chunk
function of :mod:`repro.experiments.ber`: same signature, same per-scheme
error counts, bit for bit. Each word's randomness still comes from its own
spawned generator (that is the worker-count-invariance contract), but the
kernel draws each word's noise in single C-order RNG calls, encodes each
word once (the scalar path re-encodes the same word for the plain and the
averaged FM0 trials), stacks the noisy waveforms into ``(W, T)`` blocks,
and hard-decides + FM0-decodes the whole block with array operations.

The FM0 block decoder mirrors :func:`repro.gen2.fm0.decode_chips` exactly:
preamble match (direct or globally inverted), the boundary-inversion rule
on every data pair, and the trailing dummy-1 check; any failure scores the
word as all bits wrong, like the scalar trial's ``except`` clause. Miller
decoding is a sequential per-word trellis (its greedy state walk has no
batch form), so those trials reuse the reference decoder unchanged.
"""

from typing import Dict, Tuple

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.gen2.fm0 import PREAMBLE_CHIPS, chips_to_waveform, encode_chips
from repro.gen2.miller import decode_waveform, encode_waveform
from repro.obs.context import current_obs

_PREAMBLE = np.asarray(PREAMBLE_CHIPS, dtype=np.int64)
_PREAMBLE_LEN = _PREAMBLE.size


def fm0_block_errors(
    tx_bits: np.ndarray,
    waveforms: np.ndarray,
    samples_per_chip: int,
) -> np.ndarray:
    """Per-word bit-error counts of a block of FM0 waveforms.

    Public: the fleet collision resolver stacks one row per decode-attempt
    slot and scores every RN16 of a round in a single call (a zero count
    is a successful capture). Semantically identical to hard-deciding the
    chips with :func:`repro.gen2.fm0.waveform_to_chips` and decoding with
    :func:`repro.gen2.fm0.decode_chips` word by word.

    Args:
        tx_bits: Transmitted data bits, shape ``(W, n_bits)``.
        waveforms: Received waveforms, shape ``(W, T)`` with
            ``T = (preamble + 2 * (n_bits + 1)) * samples_per_chip``.
        samples_per_chip: Oversampling factor.

    Returns:
        Shape ``(W,)`` integer error counts; a word that fails preamble,
        boundary, or dummy-bit checks counts every bit as wrong.
    """
    tx = np.asarray(tx_bits, dtype=np.int64)
    n_words, n_bits = tx.shape
    waves = np.asarray(waveforms)
    n_chips = waves.shape[1] // samples_per_chip
    trimmed = waves[:, : n_chips * samples_per_chip]
    means = np.mean(
        trimmed.reshape(n_words, n_chips, samples_per_chip), axis=2
    )
    chips = (means > 0.0).astype(np.int64)

    preamble = chips[:, :_PREAMBLE_LEN]
    direct = np.all(preamble == _PREAMBLE, axis=1)
    inverted = np.all(preamble == 1 - _PREAMBLE, axis=1)
    stream = np.where(inverted[:, None], 1 - chips, chips)

    firsts = stream[:, _PREAMBLE_LEN::2]
    seconds = stream[:, _PREAMBLE_LEN + 1 :: 2]
    # The level entering each pair: the preamble's last chip, then the
    # previous pair's second chip.
    levels = np.concatenate(
        [stream[:, _PREAMBLE_LEN - 1 : _PREAMBLE_LEN], seconds[:, :-1]],
        axis=1,
    )
    violation = np.any(firsts == levels, axis=1)
    decoded = (seconds == firsts).astype(np.int64)  # (W, n_bits + 1)
    failed = (
        ~(direct | inverted) | violation | (decoded[:, -1] != 1)
    )
    mismatches = np.sum(
        (decoded[:, :n_bits] != tx).astype(np.int64), axis=1
    )
    current_obs().metrics.counter("kernels.ber_chips").inc(chips.size)
    return np.where(
        failed, np.asarray(n_bits, dtype=mismatches.dtype), mismatches
    )


def ber_block(
    start: int,
    count: int,
    seed: int,
    noise_std: float,
    samples_per_chip: int,
    miller_orders: Tuple[int, ...],
    averaging_periods: int,
) -> Dict[str, int]:
    """Per-scheme bit-error counts for words ``[start, start + count)``.

    Bit-identical to the per-word reference chunk in ``tests/reference/``
    for any chunking: word ``i``'s generator is child ``i`` of
    ``SeedSequence(seed)`` and each word's draws (bits, FM0
    noise, per-Miller noise, averaged-FM0 noise) happen in the legacy
    order, with the multi-period noise taken in one C-order call.
    """
    errors: Dict[str, int] = {"FM0": 0}
    for m in miller_orders:
        errors[f"Miller-{m}"] = 0
    avg_key = f"FM0 avg x{averaging_periods}"
    errors[avg_key] = 0

    rngs = spawn_rngs(seed, count, start)
    if not rngs:
        return errors
    n_bits = 16
    tx_bits = np.empty((len(rngs), n_bits), dtype=int)
    plain = None
    averaged = None
    for index, rng in enumerate(rngs):
        bits = tuple(int(b) for b in rng.integers(0, 2, n_bits))
        tx_bits[index] = bits
        chips = encode_chips(bits)  # encoded once, reused by both trials
        clean = chips_to_waveform(chips, samples_per_chip)
        if plain is None:
            plain = np.empty((len(rngs), clean.size))
            averaged = np.empty((len(rngs), clean.size))
        plain[index] = clean + rng.normal(0.0, noise_std, clean.size)
        for m in miller_orders:
            miller_clean = encode_waveform(bits, m=m)
            noisy = miller_clean + rng.normal(
                0.0, noise_std, miller_clean.size
            )
            decoded = decode_waveform(noisy, n_bits, m=m)
            errors[f"Miller-{m}"] += sum(
                a != b for a, b in zip(bits, decoded)
            )
        period_noise = rng.normal(
            0.0, noise_std, (averaging_periods, clean.size)
        )
        averaged[index] = np.mean(clean[None, :] + period_noise, axis=0)

    errors["FM0"] = int(
        np.sum(fm0_block_errors(tx_bits, plain, samples_per_chip))
    )
    errors[avg_key] = int(
        np.sum(fm0_block_errors(tx_bits, averaged, samples_per_chip))
    )
    return errors
