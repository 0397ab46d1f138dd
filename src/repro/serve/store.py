"""Durable SQLite plan store: the in-memory plan cache graduated to disk.

One file holds every plan a serving process (or repeated CLI runs sharing
``--store``) ever computed, keyed by exactly the
:func:`repro.runtime.cache.plan_key` scheme -- which already folds in
``SEARCH_REV``, the fault-plan token, and the adaptive-policy token, so a
stored row can only ever be served to a request whose search would have
produced the same bits.

Schema hygiene:

* ``store_meta`` records ``schema_version`` (:data:`STORE_SCHEMA_VERSION`)
  and the writing ``search_rev``. A schema-version mismatch drops and
  recreates the tables (old layouts are never half-read); a ``search_rev``
  mismatch deletes the stale rows on open (belt-and-braces -- the keys
  already differ).
* Corrupt payloads (truncated JSON, missing fields) are deleted and
  counted under ``plan_store.corrupt`` instead of raising: a garbage row
  costs one recompute, never an outage.
* ``max_entries`` prunes least-recently-used rows past the cap
  (``plan_store.evictions``), so a busy server's store stays bounded.

Durability: the connection uses SQLite's default rollback journal
(``journal_mode`` is never set). ``put`` commits every plan before it
returns. A hit is read-only: its ``last_used_unix_s`` and ``hits``
update waits in memory and reaches disk in the next ``put`` transaction
(ahead of its LRU pruning) or in ``close``. A crash therefore loses the
usage metadata of hits since the last ``put`` or ``close``, never a plan.

The store is the ``backing`` tier of
:class:`repro.runtime.cache.PlanCache`; it is safe to call from multiple
threads of one process (a lock serializes the shared connection and the
pending hit updates).
"""

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.optimizer import SEARCH_REV, OptimizationResult
from repro.obs.context import current_obs
from repro.runtime.cache import result_from_json, result_to_json

STORE_SCHEMA_VERSION = 1
"""Layout revision of the SQLite plan store.

Bump on any table/column change; a store written under a different
version is dropped and recreated on open (plans are pure caches -- losing
them costs recomputes, not correctness).
"""

_PLANS_TABLE = """
CREATE TABLE IF NOT EXISTS plans (
    key TEXT PRIMARY KEY,
    search_rev INTEGER NOT NULL,
    payload TEXT NOT NULL,
    created_unix_s REAL NOT NULL,
    last_used_unix_s REAL NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0
)
"""

_META_TABLE = """
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""


class PlanStore:
    """Durable LRU-pruned plan store over one SQLite file.

    Attributes:
        path: The database file (created, with parents, on first open).
        max_entries: Row cap; ``put`` prunes least-recently-used rows past
            it (None = unbounded).
        search_rev: The search revision rows are tagged with (defaults to
            the live :data:`~repro.core.optimizer.SEARCH_REV`).
    """

    def __init__(
        self,
        path,
        max_entries: Optional[int] = None,
        search_rev: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path)
        self.max_entries = max_entries
        self.search_rev = SEARCH_REV if search_rev is None else int(search_rev)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        # key -> (last use, hits) of store hits not yet written to disk.
        self._touches: Dict[str, Tuple[float, int]] = {}
        self._ensure_schema()

    # -- schema -----------------------------------------------------------------

    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.execute(_META_TABLE)
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and row[0] != str(STORE_SCHEMA_VERSION):
                # An incompatible layout: drop everything rather than
                # guess at old columns. Plans are caches; this is cheap.
                self._conn.execute("DROP TABLE IF EXISTS plans")
                self._conn.execute("DELETE FROM store_meta")
                current_obs().metrics.counter(
                    "plan_store.schema_resets"
                ).inc()
            self._conn.execute(_PLANS_TABLE)
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) "
                "VALUES ('search_rev', ?)",
                (str(self.search_rev),),
            )
            stale = self._conn.execute(
                "DELETE FROM plans WHERE search_rev != ?",
                (self.search_rev,),
            ).rowcount
            if stale:
                current_obs().metrics.counter(
                    "plan_store.invalidated"
                ).inc(stale)

    # -- cache interface (PlanCache backing duck type) --------------------------

    def get(self, key: str) -> Optional[OptimizationResult]:
        """Stored result for ``key``, or None (misses and corrupt rows)."""
        metrics = current_obs().metrics
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM plans WHERE key = ? AND search_rev = ?",
                (key, self.search_rev),
            ).fetchone()
            if row is None:
                metrics.counter("plan_store.misses").inc()
                return None
            try:
                result = result_from_json(json.loads(row[0]))
            except (ValueError, KeyError, TypeError):
                # Garbage row (partial write, manual tampering): delete it
                # and miss, never raise -- one recompute repairs the store.
                with self._conn:
                    self._conn.execute(
                        "DELETE FROM plans WHERE key = ?", (key,)
                    )
                self._touches.pop(key, None)
                metrics.counter("plan_store.corrupt").inc()
                metrics.counter("plan_store.misses").inc()
                return None
            _, hits = self._touches.get(key, (0.0, 0))
            self._touches[key] = (time.time(), hits + 1)
        metrics.counter("plan_store.hits").inc()
        return result

    def _write_touches(self) -> None:
        """Write the pending hit updates; call inside a transaction."""
        if self._touches:
            self._conn.executemany(
                "UPDATE plans SET last_used_unix_s = ?, hits = hits + ? "
                "WHERE key = ?",
                [
                    (last_used, hits, key)
                    for key, (last_used, hits) in self._touches.items()
                ],
            )
            self._touches.clear()

    def put(self, key: str, result: OptimizationResult) -> None:
        """Persist ``result`` under ``key``, pruning LRU past the cap.

        The pending hit updates commit in the same transaction, before the
        pruning reads ``last_used_unix_s``.
        """
        now = time.time()
        payload = json.dumps(result_to_json(result))
        with self._lock, self._conn:
            self._write_touches()
            self._conn.execute(
                "INSERT INTO plans (key, search_rev, payload, "
                "created_unix_s, last_used_unix_s, hits) "
                "VALUES (?, ?, ?, ?, ?, 0) "
                "ON CONFLICT(key) DO UPDATE SET "
                "payload = excluded.payload, "
                "search_rev = excluded.search_rev, "
                "last_used_unix_s = excluded.last_used_unix_s",
                (key, self.search_rev, payload, now, now),
            )
            if self.max_entries is not None:
                excess = (
                    self._conn.execute(
                        "SELECT COUNT(*) FROM plans"
                    ).fetchone()[0]
                    - self.max_entries
                )
                if excess > 0:
                    self._conn.execute(
                        "DELETE FROM plans WHERE key IN ("
                        "SELECT key FROM plans "
                        "ORDER BY last_used_unix_s ASC, key ASC LIMIT ?)",
                        (excess,),
                    )
                    current_obs().metrics.counter(
                        "plan_store.evictions"
                    ).inc(excess)

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM plans").fetchone()[0]
            )

    def keys(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM plans ORDER BY key"
            ).fetchall()
        return [row[0] for row in rows]

    def delete(self, key: str) -> bool:
        with self._lock, self._conn:
            self._touches.pop(key, None)
            return (
                self._conn.execute(
                    "DELETE FROM plans WHERE key = ?", (key,)
                ).rowcount
                > 0
            )

    def meta(self) -> Dict[str, str]:
        """The ``store_meta`` table as a dict (schema_version, search_rev)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM store_meta"
            ).fetchall()
        return {key: value for key, value in rows}

    def stats(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "entries": len(self),
            "schema_version": STORE_SCHEMA_VERSION,
            "search_rev": self.search_rev,
            "max_entries": self.max_entries,
        }

    def close(self) -> None:
        """Write the pending hit updates, then close the connection."""
        with self._lock:
            if self._touches:
                with self._conn:
                    self._write_touches()
            self._conn.close()

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
