"""Property-based tests (hypothesis) on the Gen2 protocol substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen2.commands import Query
from repro.gen2.crc import append_crc16, append_crc5, check_crc16, check_crc5
from repro.gen2.fm0 import (
    chips_to_waveform,
    decode_chips,
    encode_chips,
    waveform_to_chips,
)
from repro.gen2.miller import decode_waveform, encode_waveform
from repro.gen2.pie import PIEDecoder, PIEEncoder

bits = st.lists(st.integers(0, 1), min_size=1, max_size=64).map(tuple)


class TestCrcProperties:
    @given(bits)
    def test_crc5_roundtrip(self, message):
        assert check_crc5(append_crc5(message))

    @given(bits)
    def test_crc16_roundtrip(self, message):
        assert check_crc16(append_crc16(message))

    @given(bits, st.integers(0, 200))
    def test_crc16_detects_any_single_flip(self, message, position):
        frame = list(append_crc16(message))
        index = position % len(frame)
        frame[index] ^= 1
        assert not check_crc16(tuple(frame))

    @given(bits, st.integers(0, 200))
    def test_crc5_detects_any_single_flip(self, message, position):
        frame = list(append_crc5(message))
        index = position % len(frame)
        frame[index] ^= 1
        assert not check_crc5(tuple(frame))


class TestFm0Properties:
    @given(bits)
    def test_roundtrip(self, payload):
        assert decode_chips(encode_chips(payload)) == payload

    @given(bits)
    def test_roundtrip_inverted(self, payload):
        chips = tuple(1 - c for c in encode_chips(payload))
        assert decode_chips(chips) == payload

    @given(bits, st.integers(1, 12))
    def test_waveform_roundtrip(self, payload, spc):
        chips = encode_chips(payload)
        assert waveform_to_chips(chips_to_waveform(chips, spc), spc) == chips

    @given(bits)
    def test_boundary_inversions_hold(self, payload):
        chips = encode_chips(payload, include_preamble=False, dummy_bit=False)
        for index in range(2, len(chips), 2):
            assert chips[index] != chips[index - 1]


class TestMillerProperties:
    @settings(max_examples=30)
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=24).map(tuple),
        st.sampled_from([2, 4, 8]),
    )
    def test_roundtrip(self, payload, m):
        waveform = encode_waveform(payload, m=m)
        assert decode_waveform(waveform, len(payload), m=m) == payload

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=24).map(tuple),
        st.sampled_from([2, 4, 8]),
    )
    def test_roundtrip_inverted(self, payload, m):
        waveform = -encode_waveform(payload, m=m)
        assert decode_waveform(waveform, len(payload), m=m) == payload


class TestPieProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30).map(tuple))
    def test_roundtrip(self, payload):
        encoder = PIEEncoder()
        decoder = PIEDecoder()
        decoded, _ = decoder.decode(encoder.encode(payload))
        assert decoded == payload


class TestCommandProperties:
    @given(
        st.booleans(),
        st.sampled_from(["FM0", "M2", "M4", "M8"]),
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["A", "B"]),
        st.integers(0, 15),
    )
    def test_query_roundtrip(self, dr, miller, trext, sel, session, target, q):
        query = Query(
            dr=dr, miller=miller, trext=trext, sel=sel,
            session=session, target=target, q=q,
        )
        assert Query.from_bits(query.to_bits()) == query
