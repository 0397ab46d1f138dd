"""Micro-batching scheduler for the planning service.

:class:`MicroBatcher` lives on the event loop. Concurrent ``submit`` calls
within a small time window (or up to a size cap) are coalesced into one
batch handed to a synchronous executor on a worker thread; each caller
awaits its own future and receives exactly its item's result (or
exception), so batching changes *when* work runs, never *what* a request
gets back.
"""

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

DEFAULT_FLUSH_WINDOW_S = 0.010
"""How long the first request in a batch waits for company."""

DEFAULT_MAX_BATCH = 32
"""Requests per batch before an immediate flush."""


class MicroBatcher:
    """Coalesce concurrent awaitable submissions into executor batches.

    Args:
        execute: Synchronous callable receiving the batch's items and
            returning one result per item *in order*; a returned
            ``Exception`` instance rejects that item's future only.
            Runs on a worker thread (``asyncio.to_thread``), so it may
            block.
        flush_window_s: Time the first pending item waits before the
            batch is flushed (0 flushes every item immediately).
        max_batch: Flush as soon as this many items are pending.
    """

    def __init__(
        self,
        execute: Callable[[List[Any]], Sequence[Any]],
        flush_window_s: float = DEFAULT_FLUSH_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        if flush_window_s < 0:
            raise ValueError(
                f"flush_window_s must be >= 0, got {flush_window_s}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._execute = execute
        self.flush_window_s = float(flush_window_s)
        self.max_batch = int(max_batch)
        self._pending: List[Tuple[Any, asyncio.Future]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._running: set = set()
        self.batches = 0
        self.items = 0
        self.max_batch_seen = 0

    async def submit(self, item: Any) -> Any:
        """Queue ``item`` for the next batch; await its own result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((item, future))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            if self.flush_window_s == 0:
                # Still defer to the loop so concurrent submits in the
                # same tick coalesce.
                self._timer = loop.call_soon(self._flush)
            else:
                self._timer = loop.call_later(
                    self.flush_window_s, self._flush
                )
        return await future

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches += 1
        self.items += len(batch)
        self.max_batch_seen = max(self.max_batch_seen, len(batch))
        task = asyncio.ensure_future(self._run(batch))
        self._running.add(task)
        task.add_done_callback(self._running.discard)

    async def _run(self, batch: List[Tuple[Any, asyncio.Future]]) -> None:
        items = [item for item, _ in batch]
        try:
            results = await asyncio.to_thread(self._execute, items)
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        if len(results) != len(batch):
            exc = RuntimeError(
                f"batch executor returned {len(results)} results for "
                f"{len(batch)} items"
            )
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(batch, results):
            if future.done():
                continue
            if isinstance(result, BaseException):
                future.set_exception(result)
            else:
                future.set_result(result)

    async def drain(self) -> None:
        """Flush pending items and wait for in-flight batches to finish."""
        self._flush()
        while self._running:
            await asyncio.gather(*list(self._running), return_exceptions=True)

    def stats(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "items": self.items,
            "max_batch_seen": self.max_batch_seen,
            "pending": len(self._pending),
            "flush_window_s": self.flush_window_s,
            "max_batch": self.max_batch,
        }
