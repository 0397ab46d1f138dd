"""A complete battery-free sensor: harvester + envelope decoder + Gen2 FSM.

This is the in-vivo endpoint of the system: it harvests the CIB envelope,
decodes downlink queries by envelope detection (enforcing the Eq. 7
flatness tolerance), and backscatters FM0 responses.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.em.media import Medium
from repro.errors import ConfigurationError, DecodingError, ProtocolError
from repro.gen2.commands import Query
from repro.gen2.fm0 import chips_to_waveform, encode_chips
from repro.gen2.pie import PIEDecoder
from repro.gen2.tag_state import Gen2Tag, TagReply
from repro.sensors.tags import TagSpec


@dataclass
class QueryDecodeOutcome:
    """Result of the sensor's envelope-detection of a downlink command.

    Attributes:
        decoded: Whether the command was recovered.
        fluctuation: Envelope fluctuation (Amax-Amin)/Amax over the window.
        reason: Failure explanation for reports.
    """

    decoded: bool
    fluctuation: float
    reason: str = ""


class BatteryFreeSensor:
    """A tag-like sensor bound to a spec, an EPC, and a medium.

    Args:
        spec: Electrical/protocol parameters.
        epc_bits: The sensor's identifier.
        rng: Randomness (RN16s, slot draws).
    """

    def __init__(
        self,
        spec: TagSpec,
        epc_bits: Tuple[int, ...],
        rng: np.random.Generator,
    ):
        self.spec = spec
        self.power_model = spec.power_model()
        self.front_end = self.power_model.front_end
        self.gen2 = Gen2Tag(epc_bits, rng)
        self._rng = rng

    # -- power ------------------------------------------------------------------

    def input_voltage_from_field(
        self, field_amplitude_v_per_m: float, medium: Medium, frequency_hz: float
    ) -> float:
        """Rectifier input amplitude V_s for an incident field."""
        return self.front_end.input_voltage_amplitude_v(
            field_amplitude_v_per_m, medium, frequency_hz
        )

    def try_power_up(self, peak_input_voltage_v: float) -> bool:
        """Threshold power-up test; drives the Gen2 FSM's power state."""
        powered = self.power_model.powers_up_at_peak(peak_input_voltage_v)
        if powered and not self.gen2.is_powered:
            self.gen2.power_up()
        if not powered and self.gen2.is_powered:
            self.gen2.power_down()
        return powered

    # -- downlink ----------------------------------------------------------------

    def decode_query_envelope(
        self,
        carrier_envelope: np.ndarray,
        command_envelope: np.ndarray,
        sample_rate_hz: float,
    ) -> QueryDecodeOutcome:
        """Envelope-detect a PIE command riding on the CIB carrier.

        The received envelope is ``carrier_envelope * command_envelope``;
        the sensor slices it adaptively. Per Eq. 7, decode fails when the
        carrier envelope itself fluctuates more than the tag's tolerance
        over the command window -- the slicer then confuses carrier sag
        with PIE low-pulses.

        Args:
            carrier_envelope: CIB envelope over the command duration
                (normalized arbitrary units).
            command_envelope: PIE on/off envelope in [0, 1], same length.
            sample_rate_hz: Common sample rate.
        """
        carrier = np.asarray(carrier_envelope, dtype=float)
        command = np.asarray(command_envelope, dtype=float)
        if carrier.shape != command.shape:
            raise ConfigurationError(
                f"carrier ({carrier.shape}) and command ({command.shape}) "
                "envelopes must align"
            )
        peak = float(np.max(carrier))
        if peak <= 0:
            return QueryDecodeOutcome(False, 1.0, "no carrier energy")
        fluctuation = (peak - float(np.min(carrier))) / peak
        if fluctuation > self.spec.max_query_fluctuation:
            return QueryDecodeOutcome(
                False,
                fluctuation,
                f"carrier fluctuation {fluctuation:.2f} exceeds tolerance "
                f"{self.spec.max_query_fluctuation:.2f}",
            )
        received = carrier * command
        # Envelope detector: normalize and slice at half the swing.
        normalized = received / peak
        decoder = PIEDecoder(
            sample_rate_hz=sample_rate_hz,
            threshold=float(np.max(normalized)) / 2.0,
        )
        try:
            bits, _ = decoder.decode(normalized, has_trcal=True)
            Query.from_bits(bits)
        except (DecodingError, ProtocolError) as error:
            # A garbled frame is a failed query; anything else is a bug and
            # propagates.
            return QueryDecodeOutcome(False, fluctuation, str(error))
        return QueryDecodeOutcome(True, fluctuation)

    # -- uplink -----------------------------------------------------------------

    def respond_to_query(self, query: Query) -> Optional[TagReply]:
        """Run the Gen2 FSM on a decoded query."""
        return self.gen2.handle_query(query)

    def backscatter_waveform(
        self, reply: TagReply, samples_per_chip: int
    ) -> np.ndarray:
        """FM0 waveform of a reply, scaled by the modulation depth.

        Backscatter modulation is frequency-agnostic (Section 4): the same
        chip stream modulates whatever carrier illuminates the tag, which
        is what lets the out-of-band reader listen at 880 MHz.
        """
        chips = encode_chips(reply.bits, include_preamble=True, dummy_bit=True)
        return self.spec.modulation_depth * chips_to_waveform(
            chips, samples_per_chip
        )

    def samples_per_chip(self, sample_rate_hz: float) -> int:
        """Half-bit duration in samples at the sensor's BLF."""
        if sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        value = int(round(sample_rate_hz / (2.0 * self.spec.blf_hz)))
        return max(1, value)
