"""Per-period loop behind the reader's capture kernel.

:func:`capture_response_scalar` is the reference of
:meth:`repro.reader.out_of_band.OutOfBandReader.capture_response`
(:func:`repro.kernels.capture_batch`): one :func:`receive` pass of the
reader's :class:`~repro.rf.receiver.ReceiveChain` per period, then
:func:`coherent_average`.
"""

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.reader.jamming import JammingEstimate
from repro.reader.out_of_band import OutOfBandReader, ReaderCapture
from repro.rf.receiver import AnalogToDigitalConverter, ReceiveChain


def quantize(adc: AnalogToDigitalConverter, samples: np.ndarray) -> np.ndarray:
    """Quantize complex samples (I and Q independently), with clipping."""
    samples = np.asarray(samples, dtype=complex)
    return adc.quantize_real(samples.real) + 1j * adc.quantize_real(
        samples.imag
    )


def receive(
    chain: ReceiveChain,
    in_band: np.ndarray,
    rng: np.random.Generator,
    out_of_band: np.ndarray = None,
    out_of_band_frequency_hz: float = None,
    agc_target: float = 0.5,
) -> np.ndarray:
    """Run signals through the chain and return digitized samples.

    Args:
        in_band: Complex baseband samples at the tuned frequency.
        out_of_band: Optional interferer samples (e.g. CIB jamming)
            whose carrier is ``out_of_band_frequency_hz``; the SAW
            stopband rejection applies to them.
        agc_target: The automatic gain control scales the composite
            (signal + interference + noise) so its peak sits at this
            fraction of ADC full scale, then the returned samples are
            referred back to the input. Quantization noise therefore
            scales with the *strongest* component -- a surviving jammer
            steals dynamic range from the backscatter signal, which is
            precisely the Section 4 failure mode. Set to 0 to disable.
    """
    in_band = np.asarray(in_band, dtype=complex)
    total = in_band * chain.saw.amplitude_response(chain.tuned_frequency_hz)
    if out_of_band is not None:
        if out_of_band_frequency_hz is None:
            raise ValueError(
                "out_of_band samples need out_of_band_frequency_hz"
            )
        interferer = np.asarray(out_of_band, dtype=complex)
        if interferer.shape != in_band.shape:
            raise ValueError("in-band and out-of-band lengths must match")
        total = total + interferer * chain.saw.amplitude_response(
            out_of_band_frequency_hz
        )
    std = chain.noise_std()
    noise = std / math.sqrt(2.0) * (
        rng.normal(size=total.shape) + 1j * rng.normal(size=total.shape)
    )
    total = total + noise
    if chain.adc is not None:
        peak = float(
            max(np.max(np.abs(total.real)), np.max(np.abs(total.imag)))
        )
        if agc_target > 0 and peak > 0:
            gain = agc_target * chain.adc.full_scale / peak
            total = quantize(chain.adc, total * gain) / gain
        else:
            total = quantize(chain.adc, total)
    return total


def coherent_average(captures: Sequence[np.ndarray]) -> np.ndarray:
    """Average equal-length, time-aligned captures (Sec. 5b).

    Averaging M aligned captures leaves the signal intact while shrinking
    zero-mean noise by sqrt(M) in amplitude (M in power).

    Raises:
        ConfigurationError: when captures are missing or misaligned.
    """
    if not captures:
        raise ConfigurationError("need at least one capture to average")
    stack = [np.asarray(c) for c in captures]
    length = stack[0].shape
    if any(c.shape != length for c in stack):
        raise ConfigurationError("captures must all have the same shape")
    return np.mean(np.stack(stack, axis=0), axis=0)


def capture_response_scalar(
    reader: OutOfBandReader,
    response_waveform: np.ndarray,
    amplitude_v: float,
    n_periods: int,
    rng: np.random.Generator,
    jamming: Optional[JammingEstimate] = None,
    beamformer_frequency_hz: float = 915e6,
) -> ReaderCapture:
    """``reader.capture_response(...)`` with one receive-chain pass per period."""
    signal, jam_amplitude = reader._capture_inputs(
        response_waveform, amplitude_v, n_periods, jamming
    )
    template_size = signal.size
    captures: List[np.ndarray] = []
    for _ in range(n_periods):
        jam = None
        if jam_amplitude > 0:
            # The jam is a CW-like interferer with a random phase and
            # slow envelope; within one response window treat it flat.
            phase = rng.uniform(0.0, 2.0 * math.pi)
            jam = jam_amplitude * np.exp(1j * phase) * np.ones(
                template_size, dtype=complex
            )
        received = receive(
            reader.chain,
            signal,
            rng,
            out_of_band=jam,
            out_of_band_frequency_hz=beamformer_frequency_hz,
        )
        captures.append(np.real(received))
    averaged = coherent_average(captures)
    return reader._finish_capture(averaged, amplitude_v, n_periods)
