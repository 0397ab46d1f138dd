"""Tests for repro.gen2.tag_state."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gen2.commands import Ack, Query, QueryRep
from repro.gen2.crc import check_crc16
from repro.gen2.tag_state import Gen2Tag, TagState


def make_tag(seed=0, epc_len=96):
    rng = np.random.default_rng(seed)
    epc = tuple(int(b) for b in rng.integers(0, 2, epc_len))
    return Gen2Tag(epc, np.random.default_rng(seed + 1))


class TestPower:
    def test_starts_off(self):
        tag = make_tag()
        assert tag.state is TagState.OFF
        assert not tag.is_powered

    def test_power_up_enters_ready(self):
        tag = make_tag()
        tag.power_up()
        assert tag.state is TagState.READY

    def test_power_down_clears_state(self):
        tag = make_tag()
        tag.power_up()
        tag.handle_query(Query(q=0))
        tag.power_down()
        assert tag.state is TagState.OFF
        assert tag.rn16 is None

    def test_unpowered_tag_ignores_commands(self):
        tag = make_tag()
        assert tag.handle_query(Query(q=0)) is None
        assert tag.handle_query_rep(QueryRep()) is None


class TestInventoryFlow:
    def test_query_q0_immediate_reply(self):
        tag = make_tag()
        tag.power_up()
        reply = tag.handle_query(Query(q=0))
        assert reply is not None
        assert reply.kind == "rn16"
        assert len(reply.bits) == 16
        assert tag.state is TagState.REPLY

    def test_ack_returns_epc_with_valid_crc(self):
        tag = make_tag()
        tag.power_up()
        rn16 = tag.handle_query(Query(q=0)).bits
        epc_reply = tag.handle_ack(Ack(rn16=rn16))
        assert epc_reply.kind == "epc"
        assert check_crc16(epc_reply.bits)
        assert tag.state is TagState.ACKNOWLEDGED
        # PC (16) + EPC (96) + CRC16 (16).
        assert len(epc_reply.bits) == 128

    def test_wrong_rn16_returns_to_arbitrate(self):
        tag = make_tag()
        tag.power_up()
        rn16 = tag.handle_query(Query(q=0)).bits
        wrong = tuple(1 - b for b in rn16)
        assert tag.handle_ack(Ack(rn16=wrong)) is None
        assert tag.state is TagState.ARBITRATE

    def test_slot_countdown(self):
        tag = make_tag(seed=3)
        tag.power_up()
        # Force a large Q so the tag very likely arbitrates.
        reply = tag.handle_query(Query(q=8))
        if reply is not None:
            pytest.skip("tag drew slot 0")
        slot = tag.slot_counter
        replies = 0
        for _ in range(slot):
            result = tag.handle_query_rep(QueryRep())
            replies += result is not None
        assert replies == 1
        assert tag.state is TagState.REPLY

    def test_acknowledged_tag_leaves_round_on_query_rep(self):
        tag = make_tag()
        tag.power_up()
        rn16 = tag.handle_query(Query(q=0)).bits
        tag.handle_ack(Ack(rn16=rn16))
        assert tag.handle_query_rep(QueryRep()) is None
        assert tag.state is TagState.READY
        assert tag.inventoried[0] == "B"

    def test_inventoried_tag_ignores_same_target(self):
        tag = make_tag()
        tag.power_up()
        rn16 = tag.handle_query(Query(q=0)).bits
        tag.handle_ack(Ack(rn16=rn16))
        tag.handle_query_rep(QueryRep())
        assert tag.handle_query(Query(q=0, target="A")) is None
        assert tag.handle_query(Query(q=0, target="B")) is not None

    def test_wrong_session_ignored(self):
        tag = make_tag()
        tag.power_up()
        tag.handle_query(Query(q=4, session=1))
        assert tag.handle_query_rep(QueryRep(session=2)) is None


class TestSelect:
    def test_query_sel_flag_filtering(self):
        tag = make_tag()
        tag.power_up()
        tag.selected = False
        assert tag.handle_query(Query(q=0, sel=3)) is None  # SL only
        assert tag.handle_query(Query(q=0, sel=2)) is not None  # ~SL


class TestValidation:
    def test_epc_must_be_multiple_of_16(self):
        with pytest.raises(ConfigurationError):
            Gen2Tag((1, 0, 1), np.random.default_rng(0))

    def test_epc_bits_only(self):
        with pytest.raises(ConfigurationError):
            Gen2Tag(tuple([2] * 16), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [2, -1, "1", [1], None, 0.5])
    def test_any_non_bit_element_is_a_configuration_error(self, bad):
        epc = (0, 1) * 7 + (1, bad)
        with pytest.raises(ConfigurationError, match="only bits"):
            Gen2Tag(epc, np.random.default_rng(0))

    @pytest.mark.parametrize("bit", [0, 1, True, False, 1.0, np.int64(1)])
    def test_values_equal_to_a_bit_are_accepted(self, bit):
        tag = Gen2Tag((0, 1) * 7 + (1, bit), np.random.default_rng(0))
        assert tag.epc_bits[-1] == bit


def acknowledge(tag, session=0):
    """Drive a powered tag to ACKNOWLEDGED in the given session."""
    reply = tag.handle_query(Query(q=0, session=session))
    assert reply is not None and reply.kind == "rn16"
    epc = tag.handle_ack(Ack(rn16=reply.bits))
    assert epc is not None and epc.kind == "epc"
    assert tag.state is TagState.ACKNOWLEDGED


class TestSessionPersistence:
    """Gen2 session persistence table: S0/S1 decay without power, S2/S3
    survive a brief outage, and only an extended outage clears them."""

    def test_s2_flag_survives_power_cycle(self):
        tag = make_tag()
        tag.power_up()
        acknowledge(tag, session=2)
        tag.handle_query_rep(QueryRep(session=2))  # toggles S2 to B
        assert tag.inventoried[2] == "B"
        tag.power_down()
        tag.power_up()
        assert tag.inventoried[2] == "B"
        # Still inventoried: a target-A query in session 2 gets silence.
        assert tag.handle_query(Query(q=0, session=2)) is None

    def test_s0_s1_flags_decay_on_power_down(self):
        for session in (0, 1):
            tag = make_tag(seed=3 + session)
            tag.power_up()
            acknowledge(tag, session=session)
            tag.handle_query_rep(QueryRep(session=session))
            assert tag.inventoried[session] == "B"
            tag.power_down()
            assert tag.inventoried[session] == "A"

    def test_deep_power_down_clears_s2_s3(self):
        tag = make_tag()
        tag.power_up()
        acknowledge(tag, session=3)
        tag.handle_query_rep(QueryRep(session=3))
        assert tag.inventoried[3] == "B"
        tag.power_down(deep=True)
        assert tag.inventoried == {s: "A" for s in range(4)}

    def test_acknowledged_tag_quiet_in_next_round(self):
        tag = make_tag()
        tag.power_up()
        acknowledge(tag, session=2)
        # The next round-starting Query toggles the flag first, so the
        # tag no longer matches target A and stays quiet.
        assert tag.handle_query(Query(q=0, session=2)) is None
        assert tag.inventoried[2] == "B"
        assert tag.state is TagState.READY
