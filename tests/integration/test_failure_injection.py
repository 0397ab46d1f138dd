"""Failure-injection tests: the system must fail the way physics says.

Each test breaks one link in the chain -- synchronization, flatness,
carrier separation, SNR, protocol integrity -- and checks that the failure
is detected at the right layer with the right symptom.
"""

import numpy as np
import pytest

from repro.core import CarrierPlan, paper_plan
from repro.em.channel import ChannelRealization
from repro.errors import ConstraintViolationError, DecodingError, ProtocolError
from repro.gen2 import (
    Query,
    check_crc16,
    chips_to_waveform,
    decode_chips,
    decode_fm0_response,
    encode_chips,
)
from repro.gen2.pie import PIEDecoder, PIEEncoder
from repro.reader import OutOfBandReader
from repro.sensors import BatteryFreeSensor, standard_tag_spec
from tests.reference.beamformer import CIBBeamformer


class TestDesynchronization:
    def test_large_trigger_skew_breaks_command_envelope(self, rng):
        """CIB is *coherent in time*: if one radio transmits the command
        late, the combined envelope no longer matches the PIE frame."""
        encoder = PIEEncoder(sample_rate_hz=1e6)
        command = encoder.encode(Query(q=0).to_bits())
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=1e6)
        # Half the array is late by staggered tens of microseconds: the
        # PIE low-pulses (12.5 us wide) get filled in by the stragglers.
        timing = np.zeros(10)
        timing[5:] = np.linspace(20e-6, 120e-6, 5)
        frame = beamformer.modulated_streams(
            command, rng, timing_offsets_s=timing
        )
        gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 10)).astype(complex)
        received = frame.received_envelope(
            ChannelRealization(gains=gains, frequency_hz=915e6)
        )
        # The received envelope's low (carrier-off) intervals are filled
        # in by the late radio: PIE decoding must fail or mis-decode.
        decoder = PIEDecoder(sample_rate_hz=1e6, threshold=0.5)
        normalized = received / np.max(received)
        try:
            bits, _ = decoder.decode(normalized)
            assert bits != Query(q=0).to_bits()
        except DecodingError:
            pass  # equally acceptable: the frame is unrecoverable


class TestFlatnessViolation:
    def test_wide_plan_rejected_at_construction(self):
        wide = CarrierPlan(
            offsets_hz=tuple(f * 40 for f in paper_plan().offsets_hz)
        )
        with pytest.raises(ConstraintViolationError):
            CIBBeamformer(wide)

    def test_wide_plan_breaks_query_decode(self, rng):
        """Opting out of validation lets the physics show the failure:
        the envelope sags mid-command and the sensor cannot decode."""
        wide = CarrierPlan(
            offsets_hz=tuple(f * 40 for f in paper_plan().offsets_hz)
        )
        sensor = BatteryFreeSensor(
            standard_tag_spec(),
            tuple(int(b) for b in rng.integers(0, 2, 96)),
            rng,
        )
        encoder = PIEEncoder(sample_rate_hz=800e3)
        command = encoder.encode(Query(q=0).to_bits())
        from repro.core import waveform

        betas = rng.uniform(0, 2 * np.pi, 10)
        t = np.arange(command.size) / 800e3
        carrier = waveform.envelope(wide.offsets_array(), betas, t)
        outcome = sensor.decode_query_envelope(carrier, command, 800e3)
        assert not outcome.decoded
        assert outcome.fluctuation > 0.5


class TestProtocolCorruption:
    def test_flipped_chip_caught_by_fm0_rules(self, rng):
        payload = tuple(int(b) for b in rng.integers(0, 2, 16))
        chips = list(encode_chips(payload))
        chips[20] ^= 1
        with pytest.raises(DecodingError):
            decode_chips(tuple(chips))

    def test_epc_crc_catches_payload_corruption(self, rng):
        from repro.gen2.crc import append_crc16

        epc_reply = append_crc16(tuple(int(b) for b in rng.integers(0, 2, 112)))
        corrupted = list(epc_reply)
        corrupted[40] ^= 1
        assert not check_crc16(tuple(corrupted))

    def test_query_crc5_guards_tag(self):
        frame = list(Query(q=3).to_bits())
        frame[6] ^= 1
        with pytest.raises(ProtocolError):
            Query.from_bits(tuple(frame))


class TestDecoderMismatch:
    def test_wrong_samples_per_chip_fails(self, rng):
        """A reader configured for the wrong BLF cannot lock on."""
        payload = tuple(int(b) for b in rng.integers(0, 2, 16))
        waveform_10 = chips_to_waveform(encode_chips(payload), 10)
        result = decode_fm0_response(waveform_10, 16, samples_per_chip=7)
        assert not result.success or result.bits != payload

    def test_snr_starvation(self):
        """Averaging too few periods leaves the correlation sub-threshold;
        the Sec. 5b averaging recovers it."""
        rng = np.random.default_rng(9)
        reader = OutOfBandReader(noise_figure_db=40.0)
        payload = tuple(int(b) for b in rng.integers(0, 2, 16))
        response = chips_to_waveform(encode_chips(payload), 10)
        amplitude = 0.25 * reader.chain.noise_std()
        starved = reader.capture_response(response, amplitude, 2, rng)
        fed = reader.capture_response(response, amplitude, 400, rng)
        starved_result = reader.decode(starved, 16, 10)
        fed_result = reader.decode(fed, 16, 10)
        assert fed_result.correlation > starved_result.correlation
        assert fed_result.success


class TestBrownout:
    def test_power_loss_erases_protocol_state(self, rng):
        """Battery-free means volatile: a brownout mid-round resets the
        tag, so the next query starts from scratch."""
        sensor = BatteryFreeSensor(
            standard_tag_spec(),
            tuple(int(b) for b in rng.integers(0, 2, 96)),
            rng,
        )
        sensor.try_power_up(2.0)
        reply = sensor.respond_to_query(Query(q=0))
        assert reply is not None
        first_rn16 = reply.bits
        # The envelope peak passes; the sensor browns out.
        sensor.try_power_up(0.1)
        assert not sensor.gen2.is_powered
        assert sensor.gen2.rn16 is None
        # Re-powered, it draws a fresh RN16 -- no stale state.
        sensor.try_power_up(2.0)
        second = sensor.respond_to_query(Query(q=0))
        assert second is not None
        assert second.bits != first_rn16 or True  # fresh draw, may collide
