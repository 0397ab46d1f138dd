"""Tests for repro.gen2.commands."""

import pytest

from repro.errors import ProtocolError
from repro.gen2.commands import Ack, Query


class TestQuery:
    def test_frame_length(self):
        assert len(Query().to_bits()) == 22

    def test_roundtrip_all_fields(self):
        query = Query(
            dr=True, miller="M8", trext=True, sel=2, session=3, target="B", q=9
        )
        assert Query.from_bits(query.to_bits()) == query

    def test_crc_detects_corruption(self):
        frame = list(Query(q=5).to_bits())
        frame[10] ^= 1
        with pytest.raises(ProtocolError):
            Query.from_bits(tuple(frame))

    def test_invalid_fields(self):
        with pytest.raises(ProtocolError):
            Query(q=16)
        with pytest.raises(ProtocolError):
            Query(miller="M16")
        with pytest.raises(ProtocolError):
            Query(target="C")
        with pytest.raises(ProtocolError):
            Query(session=4)

    def test_wrong_length_rejected(self):
        with pytest.raises(ProtocolError):
            Query.from_bits((1, 0, 0, 0))


class TestSmallCommands:
    def test_ack_validation(self):
        with pytest.raises(ProtocolError):
            Ack(rn16=(1, 0))
