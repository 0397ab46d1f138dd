"""Gen2 tag state machine.

Implements the inventory states a battery-free tag walks through: READY ->
ARBITRATE -> REPLY -> ACKNOWLEDGED, with slot counting, RN16 generation,
the Query's SL-flag filter, and session inventoried flags. Power loss resets
everything -- the defining property of a battery-free device.
"""

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gen2.commands import Ack, Query, QueryRep
from repro.gen2.crc import append_crc16


class TagState(enum.Enum):
    """Inventory states of a battery-free tag (Gen2 Fig. 6.19, abridged)."""

    OFF = "off"
    READY = "ready"
    ARBITRATE = "arbitrate"
    REPLY = "reply"
    ACKNOWLEDGED = "acknowledged"


@dataclass
class TagReply:
    """What the tag backscatters in response to a command (if anything).

    Attributes:
        bits: Payload bits (RN16, or PC+EPC+CRC16 after an ACK).
        kind: ``"rn16"`` or ``"epc"``.
    """

    bits: Tuple[int, ...]
    kind: str


_BIT_VALUES = frozenset((0, 1))


class Gen2Tag:
    """One tag's protocol engine.

    Args:
        epc_bits: The tag's EPC (a multiple of 16 bits, 96 typical).
        rng: Randomness for RN16s and slot draws.
    """

    #: Protocol-control word preceding the EPC in the ACK reply; encodes
    #: the EPC length. We use a fixed 16-bit PC for a 96-bit EPC.
    DEFAULT_PC = (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def __init__(self, epc_bits: Tuple[int, ...], rng: np.random.Generator):
        if not epc_bits or len(epc_bits) % 16 != 0:
            raise ConfigurationError(
                f"EPC length must be a positive multiple of 16, got "
                f"{len(epc_bits)}"
            )
        try:
            only_bits = _BIT_VALUES.issuperset(epc_bits)
        except TypeError:  # an unhashable element is not a bit either
            only_bits = False
        if not only_bits:
            raise ConfigurationError("EPC must contain only bits")
        self.epc_bits = tuple(epc_bits)
        self._rng = rng
        self.state = TagState.OFF
        self.slot_counter = 0
        self.rn16: Optional[Tuple[int, ...]] = None
        self.selected = False
        self.inventoried: dict = {s: "A" for s in range(4)}
        self._session: Optional[int] = None

    # -- power management -----------------------------------------------------

    def power_up(self) -> None:
        """Enter READY; volatile protocol state starts clean."""
        self.state = TagState.READY
        self.slot_counter = 0
        self.rn16 = None

    def power_down(self, deep: bool = False) -> None:
        """Lose power: everything volatile is gone (battery-free!).

        Inventoried flags follow the spec's session persistence table:
        S0 and S1 decay immediately without power, but S2 and S3 persist
        through a brief outage -- which is what makes time-to-inventory
        of a power-cycling fleet well-defined when the reader inventories
        in session 2 (a browned-out tag that already toggled its S2 flag
        stays quiet after re-powering instead of being read twice).
        ``deep=True`` models an extended outage that decays S2/S3 too.
        """
        self.state = TagState.OFF
        self.slot_counter = 0
        self.rn16 = None
        self.selected = False
        self._session = None
        self.inventoried[0] = "A"
        self.inventoried[1] = "A"
        if deep:
            self.inventoried = {s: "A" for s in range(4)}

    @property
    def is_powered(self) -> bool:
        return self.state is not TagState.OFF

    # -- command handling -------------------------------------------------------

    def _draw_rn16(self) -> Tuple[int, ...]:
        return tuple(int(b) for b in self._rng.integers(0, 2, size=16))

    def handle_query(self, command: Query) -> Optional[TagReply]:
        """Begin (or re-begin) an inventory round."""
        if not self.is_powered:
            return None
        if self.state is TagState.ACKNOWLEDGED and self._session is not None:
            # A new Query ends the previous round for an acknowledged tag:
            # flip the session's inventoried flag before deciding whether
            # to participate (Gen2 6.3.2.6.2).
            self._toggle_inventoried(self._session)
            self.state = TagState.READY
        if command.sel == 3 and not self.selected:
            return None  # Sel=SL addresses selected tags only.
        if command.sel == 2 and self.selected:
            return None  # Sel=~SL addresses unselected tags only.
        if self.inventoried[command.session] != command.target:
            return None
        self._session = command.session
        self.slot_counter = int(self._rng.integers(0, 2**command.q))
        if self.slot_counter == 0:
            self.rn16 = self._draw_rn16()
            self.state = TagState.REPLY
            return TagReply(bits=self.rn16, kind="rn16")
        self.state = TagState.ARBITRATE
        return None

    def handle_query_rep(self, command: QueryRep) -> Optional[TagReply]:
        """Advance one slot; reply when the counter hits zero."""
        if not self.is_powered or self._session != command.session:
            return None
        if self.state is TagState.ACKNOWLEDGED:
            # Inventoried: flip the session flag and drop out of the round.
            self._toggle_inventoried(command.session)
            self.state = TagState.READY
            return None
        if self.state is not TagState.ARBITRATE:
            return None
        self.slot_counter -= 1
        if self.slot_counter <= 0:
            self.rn16 = self._draw_rn16()
            self.state = TagState.REPLY
            return TagReply(bits=self.rn16, kind="rn16")
        return None

    def handle_ack(self, command: Ack) -> Optional[TagReply]:
        """Reply with PC + EPC + CRC-16 when the RN16 echoes correctly."""
        if not self.is_powered or self.state is not TagState.REPLY:
            return None
        if self.rn16 is None or tuple(command.rn16) != self.rn16:
            # Wrong RN16: return to arbitrate (another tag was meant).
            self.state = TagState.ARBITRATE
            return None
        self.state = TagState.ACKNOWLEDGED
        payload = self.DEFAULT_PC + self.epc_bits
        return TagReply(bits=append_crc16(payload), kind="epc")

    def _toggle_inventoried(self, session: int) -> None:
        flag = self.inventoried[session]
        self.inventoried[session] = "B" if flag == "A" else "A"
