"""Tests for repro.gen2.access (sensor data readout)."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.gen2.access import AccessEngine, Read, ReqRN, TagMemory
from repro.gen2.commands import Ack, Query
from repro.gen2.crc import check_crc16
from repro.gen2.tag_state import Gen2Tag


def acknowledged_engine(seed=0):
    rng = np.random.default_rng(seed)
    epc = tuple(int(b) for b in rng.integers(0, 2, 96))
    tag = Gen2Tag(epc, np.random.default_rng(seed + 1))
    tag.power_up()
    rn16 = tag.handle_query(Query(q=0)).bits
    tag.handle_ack(Ack(rn16=rn16))
    return AccessEngine(tag), rn16


class TestFrames:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            Read(membank="FLASH", word_pointer=0, word_count=1, handle=(0,) * 16)
        with pytest.raises(ProtocolError):
            Read(membank="USER", word_pointer=0, word_count=0, handle=(0,) * 16)
        with pytest.raises(ProtocolError):
            ReqRN(rn16=(1, 0))


class TestTagMemory:
    def test_write_then_read(self):
        memory = TagMemory()
        memory.write("USER", 2, 0xBEEF)
        assert memory.read("USER", 2, 1) == (0xBEEF,)

    def test_read_past_end(self):
        with pytest.raises(ProtocolError):
            TagMemory(user_words=4).read("USER", 3, 2)

    def test_value_range(self):
        with pytest.raises(ProtocolError):
            TagMemory().write("USER", 0, 2**16)

    def test_unknown_bank(self):
        with pytest.raises(ProtocolError):
            TagMemory().read("FLASH", 0, 1)


class TestAccessEngine:
    def test_req_rn_requires_acknowledged_state(self):
        rng = np.random.default_rng(5)
        epc = tuple(int(b) for b in rng.integers(0, 2, 96))
        tag = Gen2Tag(epc, np.random.default_rng(6))
        tag.power_up()
        engine = AccessEngine(tag)
        reply = engine.handle_req_rn(ReqRN(rn16=(0,) * 16))
        assert reply is None

    def test_req_rn_wrong_rn16_ignored(self):
        engine, rn16 = acknowledged_engine()
        wrong = tuple(1 - b for b in rn16)
        assert engine.handle_req_rn(ReqRN(rn16=wrong)) is None

    def test_full_read_flow(self):
        engine, rn16 = acknowledged_engine()
        engine.store_measurement(0, 370)   # e.g. temperature x10
        engine.store_measurement(1, 72)    # e.g. heart rate
        handle_reply = engine.handle_req_rn(ReqRN(rn16=rn16))
        assert handle_reply is not None and handle_reply.kind == "handle"
        assert check_crc16(handle_reply.bits)
        read = Read(
            membank="USER", word_pointer=0, word_count=2, handle=engine.handle
        )
        reply = engine.handle_read(read)
        assert reply is not None
        assert reply.payload_words() == (370, 72)

    def test_read_with_wrong_handle_ignored(self):
        engine, rn16 = acknowledged_engine()
        engine.handle_req_rn(ReqRN(rn16=rn16))
        wrong = tuple(1 - b for b in engine.handle)
        read = Read(membank="USER", word_pointer=0, word_count=1, handle=wrong)
        assert engine.handle_read(read) is None

    def test_read_before_handle_ignored(self):
        engine, _ = acknowledged_engine()
        read = Read(membank="USER", word_pointer=0, word_count=1,
                    handle=(0,) * 16)
        assert engine.handle_read(read) is None

    def test_out_of_range_read_returns_none(self):
        engine, rn16 = acknowledged_engine()
        engine.handle_req_rn(ReqRN(rn16=rn16))
        read = Read(membank="USER", word_pointer=200, word_count=10,
                    handle=engine.handle)
        assert engine.handle_read(read) is None

    def test_payload_words_validates_kind(self):
        engine, rn16 = acknowledged_engine()
        handle_reply = engine.handle_req_rn(ReqRN(rn16=rn16))
        with pytest.raises(ProtocolError):
            handle_reply.payload_words()
