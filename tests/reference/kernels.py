"""Per-sample and per-period loops behind two vectorized kernels.

* :func:`powered_mask_scalar` is the reference of
  :meth:`repro.harvester.storage.PowerManager.powered_mask`
  (:func:`repro.kernels.hysteresis_mask_batch`).
* :func:`capture_response_scalar` is the reference of
  :meth:`repro.reader.out_of_band.OutOfBandReader.capture_response`
  (:func:`repro.kernels.capture_batch`).
"""

import math
from typing import List, Optional

import numpy as np

from repro.harvester.storage import PowerManager
from repro.reader.averaging import coherent_average
from repro.reader.jamming import JammingEstimate
from repro.reader.out_of_band import OutOfBandReader, ReaderCapture


def powered_mask_scalar(
    manager: PowerManager, voltage_trace: np.ndarray
) -> np.ndarray:
    """``manager.powered_mask(voltage_trace)`` as a per-sample loop."""
    trace = np.asarray(voltage_trace, dtype=float)
    mask = np.empty(trace.size, dtype=bool)
    powered = False
    for index, voltage in enumerate(trace):
        if powered:
            powered = voltage >= manager.brownout_voltage_v
        else:
            powered = voltage >= manager.operate_voltage_v
        mask[index] = powered
    return mask


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
        received = reader.chain.receive(
            signal,
            rng,
            out_of_band=jam,
            out_of_band_frequency_hz=beamformer_frequency_hz,
        )
        captures.append(np.real(received))
    averaged = coherent_average(captures)
    return reader._finish_capture(averaged, amplitude_v, n_periods)
