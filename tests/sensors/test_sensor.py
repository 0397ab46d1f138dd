"""Tests for repro.sensors.sensor."""

import numpy as np
import pytest

from repro.em.media import AIR, WATER
from repro.errors import ConfigurationError, DecodingError, ProtocolError
from repro.gen2.commands import Query
from repro.gen2.pie import PIEDecoder, PIEEncoder
from repro.sensors.sensor import BatteryFreeSensor
from repro.sensors.tags import miniature_tag_spec, standard_tag_spec


def make_sensor(spec=None, seed=0):
    rng = np.random.default_rng(seed)
    epc = tuple(int(b) for b in rng.integers(0, 2, 96))
    return BatteryFreeSensor(
        spec if spec is not None else standard_tag_spec(), epc, rng
    )


class TestPowerPath:
    def test_power_up_drives_fsm(self):
        sensor = make_sensor()
        assert not sensor.gen2.is_powered
        assert sensor.try_power_up(1.0)
        assert sensor.gen2.is_powered

    def test_power_down_on_weak_input(self):
        sensor = make_sensor()
        sensor.try_power_up(1.0)
        assert not sensor.try_power_up(0.1)
        assert not sensor.gen2.is_powered

    def test_field_to_voltage_medium_dependence(self):
        """The standard tag detunes in water (Sec. 5c matching note)."""
        sensor = make_sensor()
        in_air = sensor.input_voltage_from_field(1.0, AIR, 915e6)
        in_water = sensor.input_voltage_from_field(1.0, WATER, 915e6)
        assert in_water < in_air

    def test_full_envelope_evaluation(self):
        sensor = make_sensor()
        envelope = np.full(20000, 1.5)
        result = sensor.evaluate_power_envelope(envelope, 1e-5)
        assert result.powered
        assert sensor.gen2.is_powered


class TestQueryDecode:
    def make_envelopes(self, fluctuation=0.0, sample_rate=800e3):
        encoder = PIEEncoder(sample_rate_hz=sample_rate)
        command = encoder.encode(Query(q=0).to_bits())
        t = np.arange(command.size) / sample_rate
        carrier = 1.0 - fluctuation * (
            0.5 - 0.5 * np.cos(2 * np.pi * t / (t[-1] + 1e-9))
        )
        return carrier, command

    def test_flat_carrier_decodes(self):
        sensor = make_sensor()
        carrier, command = self.make_envelopes(fluctuation=0.0)
        outcome = sensor.decode_query_envelope(carrier, command, 800e3)
        assert outcome.decoded
        assert outcome.fluctuation == pytest.approx(0.0, abs=1e-9)

    def test_small_fluctuation_tolerated(self):
        sensor = make_sensor()
        carrier, command = self.make_envelopes(fluctuation=0.2)
        outcome = sensor.decode_query_envelope(carrier, command, 800e3)
        assert outcome.decoded

    def test_excess_fluctuation_fails(self):
        """Eq. 7: beyond the tolerance the envelope detector misfires."""
        sensor = make_sensor()
        carrier, command = self.make_envelopes(fluctuation=0.8)
        outcome = sensor.decode_query_envelope(carrier, command, 800e3)
        assert not outcome.decoded
        assert outcome.fluctuation > sensor.spec.max_query_fluctuation

    def test_shape_mismatch_rejected(self):
        sensor = make_sensor()
        with pytest.raises(ConfigurationError):
            sensor.decode_query_envelope(np.ones(10), np.ones(5), 800e3)

    def test_dead_carrier(self):
        sensor = make_sensor()
        outcome = sensor.decode_query_envelope(
            np.zeros(100), np.ones(100), 800e3
        )
        assert not outcome.decoded

    @pytest.mark.parametrize(
        "error", [DecodingError("garbled"), ProtocolError("bad CRC")]
    )
    def test_garbled_frame_is_a_failed_decode(self, monkeypatch, error):
        def decode(self, *args, **kwargs):
            raise error

        monkeypatch.setattr(PIEDecoder, "decode", decode)
        carrier, command = self.make_envelopes()
        outcome = make_sensor().decode_query_envelope(carrier, command, 800e3)
        assert not outcome.decoded
        assert outcome.reason == str(error)

    def test_programming_error_propagates(self, monkeypatch):
        def decode(self, *args, **kwargs):
            raise TypeError("bug inside the PIE decoder")

        monkeypatch.setattr(PIEDecoder, "decode", decode)
        carrier, command = self.make_envelopes()
        with pytest.raises(TypeError, match="bug inside"):
            make_sensor().decode_query_envelope(carrier, command, 800e3)


class TestUplink:
    def test_reply_and_backscatter(self):
        sensor = make_sensor()
        sensor.try_power_up(1.0)
        reply = sensor.respond_to_query(Query(q=0))
        assert reply is not None
        waveform = sensor.backscatter_waveform(reply, samples_per_chip=10)
        # Modulation depth scales the bipolar levels.
        assert np.max(np.abs(waveform)) == pytest.approx(
            sensor.spec.modulation_depth
        )
        # Preamble + 16 bits + dummy, two chips each, 10 samples per chip.
        assert waveform.size == (12 + 34) * 10

    def test_samples_per_chip(self):
        sensor = make_sensor()
        assert sensor.samples_per_chip(800e3) == 10
        with pytest.raises(ValueError):
            sensor.samples_per_chip(0)

    def test_unpowered_no_reply(self):
        sensor = make_sensor()
        assert sensor.respond_to_query(Query(q=0)) is None
