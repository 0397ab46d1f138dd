"""Gen2 access commands: reading sensor data off an acknowledged tag.

Inventory (Query/ACK) only identifies a tag. The applications motivating
the paper -- "monitoring internal human vital signs", drug delivery -- need
*data*: after acknowledgement the reader requests a handle (Req_RN) and
then Reads measurement words from the tag's USER memory bank. This module
implements that access layer on top of :mod:`repro.gen2.tag_state`.

Commands carry the tag's current handle; replies echo it, with a CRC-16,
so the reader can attribute them.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.gen2.commands import _bits_to_int, _int_to_bits
from repro.gen2.crc import append_crc16, check_crc16

MEMORY_BANKS = {"RESERVED": 0, "EPC": 1, "TID": 2, "USER": 3}
WORD_BITS = 16


@dataclass(frozen=True)
class ReqRN:
    """Request a new random number (the access handle)."""

    rn16: Tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_word(self.rn16, "rn16")


@dataclass(frozen=True)
class Read:
    """Read ``word_count`` 16-bit words from a memory bank.

    Attributes:
        membank: Memory bank name ("USER" holds sensor measurements).
        word_pointer: Starting word address.
        word_count: Number of words requested (1-255).
        handle: The access handle from Req_RN.
    """

    membank: str
    word_pointer: int
    word_count: int
    handle: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.membank not in MEMORY_BANKS:
            raise ProtocolError(
                f"membank must be one of {tuple(MEMORY_BANKS)}, got "
                f"{self.membank!r}"
            )
        if not 0 <= self.word_pointer <= 255:
            raise ProtocolError(
                f"word pointer must fit one EBV byte, got {self.word_pointer}"
            )
        if not 1 <= self.word_count <= 255:
            raise ProtocolError(
                f"word count must be in [1,255], got {self.word_count}"
            )
        _validate_word(self.handle, "handle")


@dataclass(frozen=True)
class AccessReply:
    """A handle-stamped tag reply (handle echo, data words, CRC-16)."""

    bits: Tuple[int, ...]
    kind: str

    def payload_words(self) -> Tuple[int, ...]:
        """Decode the data words of a Read reply (header bit stripped)."""
        if self.kind != "read":
            raise ProtocolError(f"not a read reply: {self.kind}")
        if not check_crc16(self.bits):
            raise ProtocolError("read reply CRC-16 check failed")
        body = self.bits[1:-16]  # drop header bit and CRC
        data = body[:-16]  # drop echoed handle
        if len(data) % WORD_BITS != 0:
            raise ProtocolError(f"ragged read payload of {len(data)} bits")
        return tuple(
            _bits_to_int(data[index : index + WORD_BITS])
            for index in range(0, len(data), WORD_BITS)
        )


def _validate_word(bits: Sequence[int], label: str) -> None:
    if len(bits) != WORD_BITS or any(b not in (0, 1) for b in bits):
        raise ProtocolError(f"{label} must be 16 bits")


class TagMemory:
    """Word-addressable tag memory with a USER bank for sensor data."""

    def __init__(self, user_words: int = 16):
        if user_words < 1:
            raise ProtocolError("need at least one USER word")
        self._banks = {
            "RESERVED": [0] * 4,
            "EPC": [0] * 8,
            "TID": [0] * 4,
            "USER": [0] * user_words,
        }

    def read(self, membank: str, pointer: int, count: int) -> Tuple[int, ...]:
        bank = self._bank(membank)
        if pointer + count > len(bank):
            raise ProtocolError(
                f"read past end of {membank}: {pointer}+{count} > {len(bank)}"
            )
        return tuple(bank[pointer : pointer + count])

    def write(self, membank: str, pointer: int, value: int) -> None:
        bank = self._bank(membank)
        if not 0 <= value < 2**WORD_BITS:
            raise ProtocolError(f"word value out of range: {value}")
        if pointer >= len(bank):
            raise ProtocolError(
                f"write past end of {membank}: {pointer} >= {len(bank)}"
            )
        bank[pointer] = int(value)

    def _bank(self, membank: str):
        try:
            return self._banks[membank]
        except KeyError:
            raise ProtocolError(f"unknown memory bank {membank!r}") from None


class AccessEngine:
    """Handle-based access processing for an acknowledged tag.

    Wraps a :class:`~repro.gen2.tag_state.Gen2Tag`: after the tag reaches
    ACKNOWLEDGED, a Req_RN carrying its RN16 yields a fresh handle; Read
    commands must then quote that handle.
    """

    def __init__(self, tag, memory: Optional[TagMemory] = None):
        self.tag = tag
        self.memory = memory if memory is not None else TagMemory()
        self.handle: Optional[Tuple[int, ...]] = None

    def handle_req_rn(self, command: ReqRN) -> Optional[AccessReply]:
        from repro.gen2.tag_state import TagState

        if not self.tag.is_powered or self.tag.state is not TagState.ACKNOWLEDGED:
            return None
        if self.tag.rn16 is None or tuple(command.rn16) != self.tag.rn16:
            return None
        self.handle = tuple(
            int(b) for b in self.tag._rng.integers(0, 2, size=WORD_BITS)
        )
        return AccessReply(bits=append_crc16(self.handle), kind="handle")

    def handle_read(self, command: Read) -> Optional[AccessReply]:
        if self.handle is None or tuple(command.handle) != self.handle:
            return None
        try:
            words = self.memory.read(
                command.membank, command.word_pointer, command.word_count
            )
        except ProtocolError:
            return None
        data_bits: Tuple[int, ...] = ()
        for word in words:
            data_bits += _int_to_bits(word, WORD_BITS)
        # Header 0 (success) + data + echoed handle, CRC-16 over all.
        payload = (0,) + data_bits + self.handle
        return AccessReply(bits=append_crc16(payload), kind="read")

    def store_measurement(self, pointer: int, value: int) -> None:
        """Sensor-side: latch a fresh measurement into USER memory."""
        self.memory.write("USER", pointer, value)
