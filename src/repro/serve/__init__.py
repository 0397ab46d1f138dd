"""Planning-as-a-service: the long-running asyncio serving layer.

The production front half of the repo (the ROADMAP's "millions of users"
refactor): a single process that keeps the expensive state warm -- phase
draws, the plan cache, a persistent :class:`~repro.runtime.runner.TrialRunner`
pool, and a durable SQLite plan store -- and answers planning requests
(array size, medium/phantom, depth, flatness constraint, fault plan,
adaptive policy) over an asyncio TCP/HTTP JSON front-end.

Layering (DESIGN.md section 13)::

    server.py   asyncio front-end: POST /plan, GET /healthz, GET /stats
    service.py  request schema, tiered cache lookup, in-flight dedup,
                batch execution, power-at-depth answers
    batcher.py  micro-batching window
    store.py    durable SQLite plan store (the backing tier of PlanCache)

Determinism contract: a request's plan is bit-identical no matter what it
was co-batched with, which worker count served it, and whether it was
computed or replayed from any cache tier -- the properties the serve test
suite and ``benchmarks/bench_serve.py`` pin down.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.service import (
    PlanRequest,
    PlanService,
    ServeConfig,
    ServeRequestError,
    parse_request,
)
from repro.serve.server import PlanningServer, run_server
from repro.serve.store import STORE_SCHEMA_VERSION, PlanStore

__all__ = [
    "MicroBatcher",
    "PlanRequest",
    "PlanService",
    "PlanStore",
    "PlanningServer",
    "STORE_SCHEMA_VERSION",
    "ServeConfig",
    "ServeRequestError",
    "parse_request",
    "run_server",
]
