"""Slotted-ALOHA inventory rounds with Q adjustment.

The reader opens a round with Query(Q), walks the 2^Q slots with QueryRep,
ACKs singleton replies, and adapts Q with the standard Gen2 Annex-D style
algorithm (grow Q on collisions, shrink on empty slots). The IVN prototype
inherits this from the Gen2 firmware it adapts [34].
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gen2.commands import Ack, Query, QueryRep
from repro.gen2.tag_state import Gen2Tag, TagReply


@dataclass
class SlotOutcome:
    """What happened in one slot: 0, 1, or >1 tags replied."""

    slot_index: int
    n_replies: int
    epc: Optional[Tuple[int, ...]] = None

    @property
    def kind(self) -> str:
        if self.n_replies == 0:
            return "empty"
        if self.n_replies == 1:
            return "singleton"
        return "collision"


@dataclass
class InventoryResult:
    """Summary of one inventory round."""

    epcs: List[Tuple[int, ...]] = field(default_factory=list)
    slots: List[SlotOutcome] = field(default_factory=list)
    final_q: int = 0

    @property
    def n_collisions(self) -> int:
        return sum(1 for slot in self.slots if slot.kind == "collision")

    @property
    def n_empty(self) -> int:
        return sum(1 for slot in self.slots if slot.kind == "empty")

    @property
    def n_singletons(self) -> int:
        return sum(1 for slot in self.slots if slot.kind == "singleton")


class QAlgorithm:
    """Gen2 Annex D.2.1 floating-point Q adaptation.

    Qfp moves up by C on a collision, down by C on an empty slot, and is
    rounded to pick the next round's Q. Rounding is round-half-up
    (``floor(Qfp + 0.5)``): Python's ``round`` uses banker's rounding,
    which maps Qfp = 2.5 to Q = 2 but 3.5 to Q = 4 -- a value-dependent
    bias at exactly the Qfp boundaries the algorithm oscillates around.
    Q itself is always clamped to the spec's [0, 15] range.
    """

    def __init__(self, initial_q: int = 4, c: float = 0.3):
        if not 0 <= initial_q <= 15:
            raise ConfigurationError(f"Q must be in [0,15], got {initial_q}")
        if not 0.1 <= c <= 0.5:
            raise ConfigurationError(f"C must be in [0.1, 0.5], got {c}")
        self.q_float = float(initial_q)
        self.c = float(c)

    @property
    def q(self) -> int:
        clamped = min(15.0, max(0.0, self.q_float))
        return int(min(15.0, math.floor(clamped + 0.5)))

    def on_slot(self, n_replies: int) -> None:
        """Update Qfp from a slot outcome (clamped into [0, 15])."""
        if n_replies == 0:
            self.q_float = max(0.0, self.q_float - self.c)
        elif n_replies > 1:
            self.q_float = min(15.0, self.q_float + self.c)

    def on_slots(self, counts: Sequence[int]) -> None:
        """Apply :meth:`on_slot` to each slot outcome of ``counts``, in order.

        One pass over the non-singleton slots on a local float: the same
        ``max``/``min`` steps in the same order, so Qfp ends bitwise where
        the per-slot loop leaves it.
        """
        counts = np.asarray(counts)
        q_float = self.q_float
        c = self.c
        for n_replies in counts[counts != 1].tolist():
            if n_replies == 0:
                q_float = max(0.0, q_float - c)
            elif n_replies > 1:
                q_float = min(15.0, q_float + c)
        self.q_float = q_float


class InventoryRound:
    """Drives one inventory round over a set of powered tags.

    Args:
        tags: The tag population (only powered tags participate).
        session: Inventory session used for the round.
        target: Inventoried flag polled ("A" inventories fresh tags).
    """

    def __init__(
        self,
        tags: Sequence[Gen2Tag],
        session: int = 0,
        target: str = "A",
    ):
        self.tags = list(tags)
        self.session = int(session)
        self.target = target

    def run(self, q: int, max_slots: Optional[int] = None) -> InventoryResult:
        """Execute the round: Query, then QueryRep through the slots."""
        result = InventoryResult()
        query = Query(session=self.session, target=self.target, q=q)
        replies: List[Tuple[Gen2Tag, TagReply]] = []
        for tag in self.tags:
            reply = tag.handle_query(query)
            if reply is not None:
                replies.append((tag, reply))
        n_slots = 2**q if max_slots is None else min(2**q, max_slots)
        result.slots.append(self._resolve_slot(0, replies, result))
        for slot_index in range(1, n_slots):
            replies = []
            query_rep = QueryRep(session=self.session)
            for tag in self.tags:
                reply = tag.handle_query_rep(query_rep)
                if reply is not None:
                    replies.append((tag, reply))
            result.slots.append(self._resolve_slot(slot_index, replies, result))
        result.final_q = q
        return result

    def _resolve_slot(
        self,
        slot_index: int,
        replies: List[Tuple[Gen2Tag, TagReply]],
        result: InventoryResult,
    ) -> SlotOutcome:
        if len(replies) != 1:
            # Empty or collision: nothing decodable.
            return SlotOutcome(slot_index=slot_index, n_replies=len(replies))
        tag, reply = replies[0]
        ack = Ack(rn16=reply.bits)
        epc_reply = tag.handle_ack(ack)
        epc: Optional[Tuple[int, ...]] = None
        if epc_reply is not None:
            epc = epc_reply.bits
            result.epcs.append(epc)
        return SlotOutcome(slot_index=slot_index, n_replies=1, epc=epc)


def inventory_until_quiet(
    tags: Sequence[Gen2Tag],
    rng: np.random.Generator,
    initial_q: int = 4,
    max_rounds: int = 32,
    session: int = 0,
) -> Tuple[List[Tuple[int, ...]], int]:
    """Repeat rounds with Q adaptation until no tag replies.

    Returns:
        ``(unique_epcs, rounds_used)``.
    """
    del rng  # Tags carry their own generators; kept for API symmetry.
    algorithm = QAlgorithm(initial_q=initial_q)
    seen: List[Tuple[int, ...]] = []
    target = "A"
    for round_index in range(max_rounds):
        round_driver = InventoryRound(tags, session=session, target=target)
        result = round_driver.run(algorithm.q)
        for epc in result.epcs:
            if epc not in seen:
                seen.append(epc)
        for slot in result.slots:
            algorithm.on_slot(slot.n_replies)
        if result.n_singletons == 0 and result.n_collisions == 0:
            return seen, round_index + 1
    return seen, max_rounds
