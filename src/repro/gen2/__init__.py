"""EPC Gen2 backscatter protocol substrate."""

from repro.gen2.crc import (
    append_crc16,
    append_crc5,
    check_crc16,
    check_crc5,
    crc16,
    crc5,
)
from repro.gen2.pie import PIEDecoder, PIEEncoder, PIETiming
from repro.gen2.fm0 import (
    PREAMBLE_CHIPS,
    chips_to_waveform,
    decode_chips,
    encode_chips,
    waveform_to_chips,
)
from repro.gen2 import miller
from repro.gen2.commands import Ack, Query, QueryRep
from repro.gen2.tag_state import Gen2Tag, TagReply, TagState
from repro.gen2.inventory import (
    InventoryResult,
    InventoryRound,
    QAlgorithm,
    SlotOutcome,
    inventory_until_quiet,
)
from repro.gen2.decoder import (
    DecodeResult,
    correlate_preamble,
    decode_fm0_response,
    matched_filter_snr,
    preamble_template,
)
from repro.gen2.access import (
    AccessEngine,
    AccessReply,
    Read,
    ReqRN,
    TagMemory,
)

__all__ = [
    "append_crc16",
    "append_crc5",
    "check_crc16",
    "check_crc5",
    "crc16",
    "crc5",
    "PIEDecoder",
    "PIEEncoder",
    "PIETiming",
    "PREAMBLE_CHIPS",
    "chips_to_waveform",
    "decode_chips",
    "encode_chips",
    "waveform_to_chips",
    "miller",
    "Ack",
    "Query",
    "QueryRep",
    "Gen2Tag",
    "TagReply",
    "TagState",
    "InventoryResult",
    "InventoryRound",
    "QAlgorithm",
    "SlotOutcome",
    "inventory_until_quiet",
    "DecodeResult",
    "correlate_preamble",
    "decode_fm0_response",
    "matched_filter_snr",
    "preamble_template",
    "AccessEngine",
    "AccessReply",
    "Read",
    "ReqRN",
    "TagMemory",
]
