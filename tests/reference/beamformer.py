"""Sample-level CIB beamformer (Sections 3 and 5).

:class:`CIBBeamformer` produces the per-antenna complex baseband streams
the radios transmit: the *same* command envelope (coherent content,
synchronized timing) modulated atop *different* carrier offsets (incoherent
channel). The streams, combined through a channel realization, give the
waveform a sensor actually sees. The tests use it to show, at sample
level, that a PIE command survives CIB, that trigger skew breaks it, and
that the ensemble stays in one channel (:mod:`tests.reference.spectrum`).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.constraints import FlatnessConstraint, validate_plan
from repro.core.plan import CarrierPlan
from repro.em.channel import ChannelRealization
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TransmitFrame:
    """Per-antenna baseband streams for one transmission.

    Attributes:
        streams: Complex array of shape (n_antennas, n_samples); antenna i
            transmits ``streams[i]`` mixed up to ``plan.frequencies()[i]``.
        sample_rate_hz: Baseband sample rate.
        oscillator_phases: The random initial phase theta_i each PLL
            contributed (recorded for analysis; a real system cannot
            observe them).
    """

    streams: np.ndarray
    sample_rate_hz: float
    oscillator_phases: np.ndarray

    @property
    def n_antennas(self) -> int:
        return int(self.streams.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.streams.shape[1])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    def received_baseband(self, realization: ChannelRealization) -> np.ndarray:
        """Combine the streams through a channel: ``y = sum_i h_i x_i``."""
        gains = realization.gains
        if gains.size != self.n_antennas:
            raise ValueError(
                f"channel has {gains.size} antennas, frame has {self.n_antennas}"
            )
        return gains @ self.streams

    def received_envelope(self, realization: ChannelRealization) -> np.ndarray:
        """Envelope of the combined signal at the sensor."""
        return np.abs(self.received_baseband(realization))


class CIBBeamformer:
    """Generates synchronized multi-carrier command transmissions.

    Args:
        plan: Carrier plan (center frequency plus per-antenna offsets).
        sample_rate_hz: Baseband sample rate for generated frames.
        validate: When True (default), enforce the Section 3.6 cyclic and
            flatness constraints on the plan at construction.
        constraint: Flatness budget used for validation.
    """

    def __init__(
        self,
        plan: CarrierPlan,
        sample_rate_hz: float = 1e6,
        validate: bool = True,
        constraint: Optional[FlatnessConstraint] = None,
    ):
        if sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample rate must be positive, got {sample_rate_hz}"
            )
        nyquist = sample_rate_hz / 2.0
        if plan.max_offset_hz() >= nyquist:
            raise ConfigurationError(
                f"max offset {plan.max_offset_hz()} Hz exceeds Nyquist "
                f"{nyquist} Hz"
            )
        if validate:
            validate_plan(
                plan.offsets_hz,
                constraint if constraint is not None else FlatnessConstraint(),
            )
        self.plan = plan
        self.sample_rate_hz = float(sample_rate_hz)

    @property
    def n_antennas(self) -> int:
        return self.plan.n_antennas

    def carrier_streams(
        self,
        n_samples: int,
        rng: np.random.Generator,
        start_time_s: float = 0.0,
        timing_offsets_s: Optional[np.ndarray] = None,
    ) -> TransmitFrame:
        """Unmodulated carrier streams (continuous-wave power delivery).

        Args:
            n_samples: Stream length.
            rng: Source of the per-PLL random initial phases.
            start_time_s: Absolute start time (keeps the envelope's cyclic
                phase consistent across frames).
            timing_offsets_s: Optional per-antenna trigger error from
                imperfect synchronization (seconds).
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        offsets = self.plan.offsets_array()
        amplitudes = self.plan.amplitudes_array()
        phases = rng.uniform(0.0, 2.0 * np.pi, size=self.n_antennas)
        t = start_time_s + np.arange(n_samples) / self.sample_rate_hz
        if timing_offsets_s is not None:
            timing = np.asarray(timing_offsets_s, dtype=float)
            if timing.shape != (self.n_antennas,):
                raise ValueError(
                    "timing_offsets_s must have one entry per antenna"
                )
            time_matrix = t[None, :] + timing[:, None]
        else:
            time_matrix = np.broadcast_to(t, (self.n_antennas, n_samples))
        carriers = amplitudes[:, None] * np.exp(
            1j * (2.0 * np.pi * offsets[:, None] * time_matrix + phases[:, None])
        )
        return TransmitFrame(
            streams=carriers,
            sample_rate_hz=self.sample_rate_hz,
            oscillator_phases=phases,
        )

    def modulated_streams(
        self,
        command_envelope: np.ndarray,
        rng: np.random.Generator,
        start_time_s: float = 0.0,
        timing_offsets_s: Optional[np.ndarray] = None,
    ) -> TransmitFrame:
        """Command-modulated streams: identical envelope on every carrier.

        The coherent half of CIB -- all antennas transmit the same command
        at the same instants -- so the battery-free sensor, which decodes by
        envelope detection, observes one consistent energy envelope.

        Args:
            command_envelope: Real-valued amplitude envelope in [0, 1],
                e.g. a PIE-encoded query.
        """
        command = np.asarray(command_envelope, dtype=float)
        if command.ndim != 1 or command.size == 0:
            raise ValueError("command_envelope must be a non-empty 1-D array")
        if np.any(command < 0):
            raise ValueError("command envelope amplitudes must be non-negative")
        frame = self.carrier_streams(
            command.size, rng, start_time_s, timing_offsets_s
        )
        # A trigger error shifts that antenna's *command* in time as well
        # as its carrier phase: a late radio keeps transmitting while the
        # others have already gated off, filling in the PIE low-pulses.
        envelopes = np.broadcast_to(
            command, (self.n_antennas, command.size)
        ).copy()
        if timing_offsets_s is not None:
            for index, offset in enumerate(np.asarray(timing_offsets_s)):
                shift = int(round(float(offset) * self.sample_rate_hz))
                if shift:
                    envelopes[index] = np.roll(command, shift)
        return TransmitFrame(
            streams=frame.streams * envelopes,
            sample_rate_hz=frame.sample_rate_hz,
            oscillator_phases=frame.oscillator_phases,
        )

    def envelope_period_s(self) -> float:
        """Period of the combined envelope (1 s for integer-Hz offsets)."""
        if self.plan.is_cyclic(1.0):
            return 1.0
        raise ConfigurationError(
            "plan offsets are not integer Hz; envelope is not 1-second cyclic"
        )
