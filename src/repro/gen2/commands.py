"""Gen2 reader commands: construction and parsing at the bit level.

Implements the inventory command set the IVN prototype uses (adapted from
the Gen2 air interface): Query, QueryRep and ACK. Only the Query travels
as bits -- the PIE encoder turns its frame into an envelope and the
beamformer modulates it onto every carrier, and the sensor parses it back
from the detected envelope; QueryRep and ACK are handed to the tag state
machine as objects.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ProtocolError
from repro.gen2.crc import append_crc5, check_crc5

QUERY_PREFIX = (1, 0, 0, 0)

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


@dataclass(frozen=True)
class Ack:
    """Acknowledge a tag's RN16; the tag answers with PC + EPC + CRC-16."""

    rn16: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rn16) != 16 or any(b not in (0, 1) for b in self.rn16):
            raise ProtocolError("rn16 must be 16 bits")
