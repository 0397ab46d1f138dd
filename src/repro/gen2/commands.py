"""Gen2 reader commands: construction and parsing at the bit level.

Implements the inventory command set the IVN prototype uses (adapted from
the Gen2 air interface): Query, QueryRep, QueryAdjust, ACK, NAK, and
Select. Frames are tuples of bits; the PIE encoder turns them into
envelopes and the beamformer modulates them onto every carrier.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ProtocolError
from repro.gen2.crc import append_crc16, append_crc5, check_crc16, check_crc5

QUERY_PREFIX = (1, 0, 0, 0)
QUERY_REP_PREFIX = (0, 0)
QUERY_ADJUST_PREFIX = (1, 0, 0, 1)
ACK_PREFIX = (0, 1)
NAK_FRAME = (1, 1, 0, 0, 0, 0, 0, 0)
SELECT_PREFIX = (1, 0, 1, 0)

SESSIONS = ("S0", "S1", "S2", "S3")
TARGETS = ("A", "B")
MILLER_CODES = {"FM0": (0, 0), "M2": (0, 1), "M4": (1, 0), "M8": (1, 1)}


def _int_to_bits(value: int, width: int) -> Tuple[int, ...]:
    if value < 0 or value >= (1 << width):
        raise ProtocolError(f"value {value} does not fit in {width} bits")
    return tuple((value >> shift) & 1 for shift in range(width - 1, -1, -1))


def _bits_to_int(bits: Sequence[int]) -> int:
    result = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ProtocolError(f"expected bits, got {bits!r}")
        result = (result << 1) | bit
    return result


@dataclass(frozen=True)
class Query:
    """The Query command opening an inventory round (Gen2 6.3.2.11.2.1).

    Attributes:
        dr: Divide ratio flag (False: DR=8, True: DR=64/3).
        miller: Uplink encoding requested of the tag.
        trext: Whether tags should prepend a pilot tone.
        sel: Which Select flags participate (0-3).
        session: Inventory session (0-3).
        target: Inventoried flag polled, "A" or "B".
        q: Slot-count exponent: tags draw slots from [0, 2^Q - 1].
    """

    dr: bool = False
    miller: str = "FM0"
    trext: bool = False
    sel: int = 0
    session: int = 0
    target: str = "A"
    q: int = 0

    def __post_init__(self) -> None:
        if self.miller not in MILLER_CODES:
            raise ProtocolError(
                f"miller must be one of {tuple(MILLER_CODES)}, got {self.miller!r}"
            )
        if not 0 <= self.sel <= 3:
            raise ProtocolError(f"sel must be in [0,3], got {self.sel}")
        if not 0 <= self.session <= 3:
            raise ProtocolError(f"session must be in [0,3], got {self.session}")
        if self.target not in TARGETS:
            raise ProtocolError(f"target must be 'A' or 'B', got {self.target!r}")
        if not 0 <= self.q <= 15:
            raise ProtocolError(f"Q must be in [0,15], got {self.q}")

    def to_bits(self) -> Tuple[int, ...]:
        """Full 22-bit frame including CRC-5."""
        payload = (
            QUERY_PREFIX
            + (1 if self.dr else 0,)
            + MILLER_CODES[self.miller]
            + (1 if self.trext else 0,)
            + _int_to_bits(self.sel, 2)
            + _int_to_bits(self.session, 2)
            + (TARGETS.index(self.target),)
            + _int_to_bits(self.q, 4)
        )
        return append_crc5(payload)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Query":
        """Parse and CRC-check a received Query frame."""
        frame = tuple(int(b) for b in bits)
        if len(frame) != 22:
            raise ProtocolError(f"Query frame must be 22 bits, got {len(frame)}")
        if frame[:4] != QUERY_PREFIX:
            raise ProtocolError(f"not a Query frame: prefix {frame[:4]}")
        if not check_crc5(frame):
            raise ProtocolError("Query CRC-5 check failed")
        miller_bits = frame[5:7]
        miller = next(
            name for name, code in MILLER_CODES.items() if code == miller_bits
        )
        return cls(
            dr=bool(frame[4]),
            miller=miller,
            trext=bool(frame[7]),
            sel=_bits_to_int(frame[8:10]),
            session=_bits_to_int(frame[10:12]),
            target=TARGETS[frame[12]],
            q=_bits_to_int(frame[13:17]),
        )


@dataclass(frozen=True)
class QueryRep:
    """Advance the round to the next slot (tags decrement slot counters)."""

    session: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.session <= 3:
            raise ProtocolError(f"session must be in [0,3], got {self.session}")

    def to_bits(self) -> Tuple[int, ...]:
        return QUERY_REP_PREFIX + _int_to_bits(self.session, 2)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "QueryRep":
        frame = tuple(int(b) for b in bits)
        if len(frame) != 4 or frame[:2] != QUERY_REP_PREFIX:
            raise ProtocolError(f"not a QueryRep frame: {frame}")
        return cls(session=_bits_to_int(frame[2:4]))


@dataclass(frozen=True)
class QueryAdjust:
    """Adjust Q mid-round: up_down is +1 (Q+1), 0 (unchanged), or -1."""

    session: int = 0
    up_down: int = 0

    _CODES = {1: (1, 1, 0), 0: (0, 0, 0), -1: (0, 1, 1)}

    def __post_init__(self) -> None:
        if not 0 <= self.session <= 3:
            raise ProtocolError(f"session must be in [0,3], got {self.session}")
        if self.up_down not in self._CODES:
            raise ProtocolError(
                f"up_down must be -1, 0, or +1, got {self.up_down}"
            )

    def to_bits(self) -> Tuple[int, ...]:
        return (
            QUERY_ADJUST_PREFIX
            + _int_to_bits(self.session, 2)
            + self._CODES[self.up_down]
        )

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "QueryAdjust":
        frame = tuple(int(b) for b in bits)
        if len(frame) != 9 or frame[:4] != QUERY_ADJUST_PREFIX:
            raise ProtocolError(f"not a QueryAdjust frame: {frame}")
        session = _bits_to_int(frame[4:6])
        code = frame[6:9]
        for up_down, bits_code in cls._CODES.items():
            if code == bits_code:
                return cls(session=session, up_down=up_down)
        raise ProtocolError(f"invalid QueryAdjust UpDn code: {code}")


@dataclass(frozen=True)
class Ack:
    """Acknowledge a tag's RN16; the tag answers with PC + EPC + CRC-16."""

    rn16: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rn16) != 16 or any(b not in (0, 1) for b in self.rn16):
            raise ProtocolError("rn16 must be 16 bits")

    def to_bits(self) -> Tuple[int, ...]:
        return ACK_PREFIX + tuple(self.rn16)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Ack":
        frame = tuple(int(b) for b in bits)
        if len(frame) != 18 or frame[:2] != ACK_PREFIX:
            raise ProtocolError(f"not an ACK frame: {frame[:2]}...")
        return cls(rn16=frame[2:])


@dataclass(frozen=True)
class Select:
    """Pre-select tags by EPC mask (Sec. 3.7's multi-sensor addressing).

    Attributes:
        target: Which flag the Select asserts (0-7 per spec; 4 = SL).
        action: Matching/non-matching behaviour (0-7).
        membank: Memory bank the mask applies to (1 = EPC).
        pointer: Bit offset of the mask within the bank.
        mask: The mask bits to match.
        truncate: Whether tags reply with truncated EPCs.
    """

    target: int = 4
    action: int = 0
    membank: int = 1
    pointer: int = 32
    mask: Tuple[int, ...] = ()
    truncate: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.target <= 7:
            raise ProtocolError(f"target must be in [0,7], got {self.target}")
        if not 0 <= self.action <= 7:
            raise ProtocolError(f"action must be in [0,7], got {self.action}")
        if not 0 <= self.membank <= 3:
            raise ProtocolError(f"membank must be in [0,3], got {self.membank}")
        if not 0 <= self.pointer <= 255:
            raise ProtocolError(
                f"pointer must fit one EBV byte [0,255], got {self.pointer}"
            )
        if len(self.mask) > 255:
            raise ProtocolError(f"mask too long: {len(self.mask)} bits")
        if any(b not in (0, 1) for b in self.mask):
            raise ProtocolError("mask must contain only bits")

    def to_bits(self) -> Tuple[int, ...]:
        payload = (
            SELECT_PREFIX
            + _int_to_bits(self.target, 3)
            + _int_to_bits(self.action, 3)
            + _int_to_bits(self.membank, 2)
            + _int_to_bits(self.pointer, 8)
            + _int_to_bits(len(self.mask), 8)
            + tuple(self.mask)
            + (1 if self.truncate else 0,)
        )
        return append_crc16(payload)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Select":
        frame = tuple(int(b) for b in bits)
        if len(frame) < 4 + 3 + 3 + 2 + 8 + 8 + 1 + 16:
            raise ProtocolError(f"Select frame too short: {len(frame)} bits")
        if frame[:4] != SELECT_PREFIX:
            raise ProtocolError(f"not a Select frame: prefix {frame[:4]}")
        if not check_crc16(frame):
            raise ProtocolError("Select CRC-16 check failed")
        mask_length = _bits_to_int(frame[20:28])
        expected = 28 + mask_length + 1 + 16
        if len(frame) != expected:
            raise ProtocolError(
                f"Select frame length {len(frame)} != expected {expected}"
            )
        return cls(
            target=_bits_to_int(frame[4:7]),
            action=_bits_to_int(frame[7:10]),
            membank=_bits_to_int(frame[10:12]),
            pointer=_bits_to_int(frame[12:20]),
            mask=frame[28 : 28 + mask_length],
            truncate=bool(frame[28 + mask_length]),
        )


def parse_command(bits: Sequence[int]):
    """Dispatch a received frame to the right command parser.

    Returns:
        One of the command dataclasses, or ``None`` for a NAK.

    Raises:
        ProtocolError: when no command matches.
    """
    frame = tuple(int(b) for b in bits)
    if frame == NAK_FRAME:
        return None
    if frame[:4] == QUERY_PREFIX and len(frame) == 22:
        return Query.from_bits(frame)
    if frame[:4] == QUERY_ADJUST_PREFIX and len(frame) == 9:
        return QueryAdjust.from_bits(frame)
    if frame[:4] == SELECT_PREFIX:
        return Select.from_bits(frame)
    if frame[:2] == ACK_PREFIX and len(frame) == 18:
        return Ack.from_bits(frame)
    if frame[:2] == QUERY_REP_PREFIX and len(frame) == 4:
        return QueryRep.from_bits(frame)
    raise ProtocolError(f"unrecognized command frame of {len(frame)} bits")
