"""Batched multi-period reader capture.

:func:`capture_batch` replicates the scalar period loop of the reader's
capture (``capture_response_scalar`` in ``tests/reference/kernels.py``,
one receive-chain pass per period) -- SAW filter, thermal noise, AGC + ADC
quantization per period, coherent average -- with all the per-period math
stacked into ``(P, T)`` arrays.

Bit-identity with the scalar loop rests on three facts. First, a numpy
``Generator`` fills arrays in C order, so one ``normal(size=(P, 2, T))``
call consumes the bitstream exactly like ``P`` sequential pairs of
``normal(size=T)`` calls. Second, every per-period operation in the chain
is elementwise (or a per-row reduction), so evaluating it on the stacked
block applies the identical IEEE-754 operations to the identical values.
Third, complex addition and multiplication by a real value are
componentwise on (I, Q), so this module carries the two components as
separate real arrays -- which also lets it skip quantizing the Q
component, whose quantized value the scalar loop computes and then
discards when it averages only the real part. The only wrinkle is
jamming: the scalar loop draws a uniform jam phase before each period's
two noise draws, so the jammed path keeps a per-period loop for the
draws alone -- one scalar phase draw and one ``normal(size=(2, T))``
draw per period, the latter filling I then Q exactly like the scalar
loop's two ``normal(size=T)`` calls -- while the arithmetic stays
batched.

The AGC normally scales each period by ``agc_target * full_scale / peak``;
a period with zero peak is passed to the quantizer unscaled, which the
batched path reproduces with a gain of exactly ``1.0`` (multiplying and
dividing by 1.0 are exact in IEEE-754).

All randomness comes from the caller's NumPy generators, drawn in the
legacy order above; the worker-invariance and fault-injection contracts
are keyed to those streams.
"""

import math

import numpy as np

from repro.obs.context import current_obs

CAPTURE_BLOCK_ELEMENTS = 50_000
"""Cap on the ``(rows, P, 2, T)`` float64 noise draws one
:func:`capture_block` block holds (about 0.4 MB, so a block's draws and
temporaries stay in a core's L2 cache)."""


def _complex_staged(signal: np.ndarray) -> np.ndarray:
    """Coerce to a complex array, preserving precision.

    complex64 (or float32) inputs stay single precision; everything else
    lands on complex128, as the scalar loop's ``dtype=complex`` does.
    """
    staged = np.asarray(signal)
    if staged.dtype == np.complex64:
        return staged
    if staged.dtype == np.float32:
        return staged.astype(np.complex64)
    return staged.astype(np.complex128)


def _agc_gains(peaks, agc_target: float, full_scale: float):
    """Per-period AGC gains: ``target * full_scale / peak``, 1.0 if flat."""
    gains = np.ones(peaks.shape, dtype=peaks.dtype)
    if agc_target <= 0:
        return gains
    np.divide(
        agc_target * full_scale, peaks,
        out=gains, where=peaks > 0,
    )
    return gains


def _quantize_scaled(in_phase, column, adc):
    """``quantize(in_phase * gain) / gain`` with two-rounding division.

    The scalar loop divides a *complex* array by the real gain, and
    numpy's complex division (Smith's algorithm) computes that as
    ``a * (1/gain)`` -- two roundings, not one. Match it exactly.
    Overwrites ``in_phase``, which both kernels own.
    """
    quantized = adc.quantize_real(np.multiply(in_phase, column, out=in_phase))
    return np.multiply(quantized, 1.0 / column, out=quantized)


def capture_batch(
    chain,
    signal: np.ndarray,
    n_periods: int,
    rng: np.random.Generator,
    jam_amplitude_v: float = 0.0,
    beamformer_frequency_hz: float = 915e6,
    agc_target: float = 0.5,
) -> np.ndarray:
    """Coherently averaged real waveform of ``n_periods`` receptions.

    Args:
        chain: A :class:`repro.rf.receiver.ReceiveChain`-shaped object
            (``saw``, ``tuned_frequency_hz``, ``noise_std()``, ``adc``).
        signal: Complex baseband samples of one period (amplitude already
            applied), shape ``(T,)``. complex64/float32 inputs keep the
            chain in single precision; everything else runs complex128.
        n_periods: Periods to receive and average.
        rng: The trial's generator; consumed exactly as the scalar
            period loop consumes it.
        jam_amplitude_v: Pre-filter jam amplitude; 0 disables jamming.
        beamformer_frequency_hz: Carrier of the jam, for the SAW stopband.
        agc_target: Per-period AGC target: each period is scaled so its
            peak sits at this fraction of ADC full scale before
            quantization, then referred back to the input; 0 disables it.

    Returns:
        The ``(T,)`` mean of the per-period real parts -- the scalar
        loop's coherent average, before any DC blocking.
    """
    if n_periods < 1:
        raise ValueError(f"need >= 1 period, got {n_periods}")
    staged = _complex_staged(signal)
    if staged.ndim != 1 or staged.size == 0:
        raise ValueError("signal must be non-empty 1-D")
    n_samples = staged.size
    real_dtype = (
        np.float32 if staged.dtype == np.complex64 else np.float64
    )
    base = staged * chain.saw.amplitude_response(chain.tuned_frequency_hz)
    base_i = np.ascontiguousarray(base.real)
    base_q = np.ascontiguousarray(base.imag)

    if jam_amplitude_v > 0:
        # Per-period draw order is uniform phase, then the two noise
        # components; replicate it draw for draw.
        phases = np.empty(n_periods)
        draws = np.empty((n_periods, 2, n_samples))
        # ``2 pi * random()`` is ``uniform(0.0, 2 pi)`` bit for bit (NumPy
        # computes the latter as 0.0 + 2 pi * random()), minus its
        # per-call argument handling.
        two_pi = 2.0 * math.pi
        random, normal = rng.random, rng.normal
        for period in range(n_periods):
            phases[period] = two_pi * random()
            draws[period] = normal(size=(2, n_samples))
        jam_values = (jam_amplitude_v * np.exp(1j * phases)) * (
            chain.saw.amplitude_response(beamformer_frequency_hz)
        )
        jam_i = jam_values.real.astype(real_dtype, copy=False)
        jam_q = jam_values.imag.astype(real_dtype, copy=False)
        xdraws = draws.astype(real_dtype, copy=False)
        in_phase = base_i[None, :] + jam_i[:, None]
        quadrature = base_q[None, :] + jam_q[:, None]
    else:
        draws = rng.normal(size=(n_periods, 2, n_samples))
        xdraws = draws.astype(real_dtype, copy=False)
        in_phase = np.broadcast_to(base_i, (n_periods, n_samples))
        quadrature = np.broadcast_to(base_q, (n_periods, n_samples))

    # The draw buffer is this call's own: scale it and sum into it in
    # place (the same products and sums, without the temporaries).
    noise = np.multiply(xdraws, chain.noise_std() / math.sqrt(2.0), out=xdraws)
    in_phase = np.add(in_phase, noise[:, 0, :], out=noise[:, 0, :])
    quadrature = np.add(quadrature, noise[:, 1, :], out=noise[:, 1, :])

    adc = getattr(chain, "adc", None)
    if adc is not None:
        peaks = np.maximum(
            np.max(np.abs(in_phase), axis=1),
            np.max(np.abs(quadrature, out=quadrature), axis=1),
        )
        gains = _agc_gains(peaks, agc_target, adc.full_scale)
        in_phase = _quantize_scaled(in_phase, gains[:, None], adc)

    averaged = np.mean(in_phase, axis=0)
    current_obs().metrics.counter("kernels.capture_samples").inc(
        n_periods * n_samples
    )
    return averaged


def capture_block(
    chain,
    signals: np.ndarray,
    n_periods: int,
    rngs,
    agc_target: float = 0.5,
) -> np.ndarray:
    """Coherently averaged captures of ``A`` independent signals at once.

    The multi-signal extension of :func:`capture_batch` (un-jammed path)
    for workloads that capture many short responses per step -- the fleet
    collision resolver stacks one row per decode-attempt slot and
    receives a whole round in a single call. Each signal keeps its own
    generator (per-slot decode streams are keyed on absolute slot
    coordinates), consumed exactly as one ``capture_batch`` call would
    consume it; every chain operation is elementwise or a per-(signal,
    period) row reduction, so the stacked evaluation is bit-identical to
    ``A`` separate ``capture_batch`` calls -- and therefore to the scalar
    per-period loop those are pinned against.

    The signals go through the chain in blocks of rows sized by
    :data:`CAPTURE_BLOCK_ELEMENTS`, every block reusing one draw buffer,
    so the working set stays cache-resident however many attempts a round
    stacks. A row's value never depends on which rows share its block.

    Args:
        chain: A :class:`repro.rf.receiver.ReceiveChain`-shaped object.
        signals: Complex baseband samples, shape ``(A, T)`` (amplitudes
            already applied). complex64/float32 inputs keep the chain in
            single precision.
        n_periods: Periods to receive and average per signal.
        rngs: Sequence of ``A`` NumPy generators, one per signal.
        agc_target: Per-period AGC target (as in :func:`capture_batch`).

    Returns:
        The ``(A, T)`` per-signal means of the per-period real parts,
        before any DC blocking.
    """
    if n_periods < 1:
        raise ValueError(f"need >= 1 period, got {n_periods}")
    staged = _complex_staged(signals)
    if staged.ndim != 2 or staged.size == 0:
        raise ValueError("signals must be non-empty (A, T)")
    n_signals, n_samples = staged.shape
    if len(rngs) != n_signals:
        raise ValueError(f"need {n_signals} generators, got {len(rngs)}")
    real_dtype = (
        np.float32 if staged.dtype == np.complex64 else np.float64
    )
    base = staged * chain.saw.amplitude_response(chain.tuned_frequency_hz)
    base_i = np.ascontiguousarray(base.real)
    base_q = np.ascontiguousarray(base.imag)
    factor = chain.noise_std() / math.sqrt(2.0)
    adc = getattr(chain, "adc", None)

    rows = max(1, CAPTURE_BLOCK_ELEMENTS // (n_periods * 2 * n_samples))
    draws = np.empty((min(rows, n_signals), n_periods, 2, n_samples))
    averaged = np.empty((n_signals, n_samples), dtype=real_dtype)
    for start in range(0, n_signals, rows):
        stop = min(start + rows, n_signals)
        block = draws[: stop - start]
        for row, rng in zip(block, rngs[start:stop]):
            rng.standard_normal(out=row)
        # ``normal(size=...)`` is ``0.0 + 1.0 * x`` of these same draws
        # x; ``1.0 * x`` is exact and ``0.0 + x`` is x except that it
        # turns -0.0 into +0.0, so this in-place add makes the buffer
        # bitwise what ``capture_batch``'s ``normal`` call returns.
        np.add(block, 0.0, out=block)
        # Then the chain of capture_batch on this block, in place:
        # ``base + factor * draw`` (both operations commute exactly).
        noise = block.astype(real_dtype, copy=False)
        np.multiply(noise, factor, out=noise)
        in_phase = np.add(
            noise[:, :, 0, :], base_i[start:stop, None, :],
            out=noise[:, :, 0, :],
        )
        if adc is not None:
            quadrature = np.add(
                noise[:, :, 1, :], base_q[start:stop, None, :],
                out=noise[:, :, 1, :],
            )
            # The quadrature is only needed for its peak, so its storage
            # then holds |in_phase| for the in-phase peak.
            quadrature_peaks = np.max(
                np.abs(quadrature, out=quadrature), axis=2
            )
            in_phase_peaks = np.max(
                np.abs(in_phase, out=quadrature), axis=2
            )
            gains = _agc_gains(
                np.maximum(in_phase_peaks, quadrature_peaks),
                agc_target,
                adc.full_scale,
            )
            in_phase = _quantize_scaled(in_phase, gains[:, :, None], adc)
        np.mean(in_phase, axis=1, out=averaged[start:stop])

    current_obs().metrics.counter("kernels.capture_samples").inc(
        n_signals * n_periods * n_samples
    )
    return averaged
