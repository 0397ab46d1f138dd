"""Asyncio TCP/HTTP front-end of the planning service.

A deliberately small HTTP/1.1 server -- the repo has no web-framework
dependency, and the serving surface is four routes::

    POST /plan      one planning request (JSON body) -> plan response
    GET  /healthz   liveness probe
    GET  /stats     live service counters (PlanService.stats())
    POST /shutdown  graceful stop (drains batches, closes the store)

Every response is JSON with ``Connection: close``; the parser reads one
request per connection (request line, headers, ``Content-Length``-bounded
body) -- keep-alive pipelining buys nothing for a compute-bound service
and dropping it keeps the parser auditable.

:func:`run_server` is the process entry used by ``repro-experiments
serve`` and ``tools/loadgen.py --spawn``: it prints one machine-parsable
``SERVE_READY {json}`` line (carrying the *bound* port, so callers may ask
for port 0) and serves until a shutdown request or cancellation.
"""

import asyncio
import json
import os
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.context import current_obs
from repro.serve.service import PlanService, ServeConfig, ServeRequestError

MAX_BODY_BYTES = 1_000_000
"""Reject request bodies past this size (a plan request is ~1 KB)."""

MAX_HEADER_BYTES = 16_384
"""Reject header sections past this size."""

READY_PREFIX = "SERVE_READY "
"""Stdout marker line prefix: ``SERVE_READY {"host": ..., "port": ...}``."""


class PlanningServer:
    """One listening socket wired to a :class:`PlanService`.

    Attributes:
        service: The planning engine requests are handed to.
        host / port: Requested bind address (``port=0`` asks the OS for an
            ephemeral port; :attr:`bound_port` has the real one after
            :meth:`start`).
    """

    def __init__(
        self,
        service: PlanService,
        host: str = "127.0.0.1",
        port: int = 8787,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()

    @property
    def bound_port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and begin accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Stop accepting, then drain and close the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # -- connection handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond_once(reader)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload = 500, {
                "status": "error",
                "error": type(exc).__name__,
                "detail": str(exc),
            }
        try:
            body = json.dumps(payload).encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond_once(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        """Parse one HTTP request and route it; returns (status, payload)."""
        try:
            method, target, body = await _read_request(reader)
        except _HttpError as exc:
            return exc.status, {"status": "error", "error": exc.message}
        route = (method, target.split("?", 1)[0])
        if route == ("POST", "/plan"):
            return await self._plan(body)
        if route == ("GET", "/healthz"):
            return 200, {"status": "ok"}
        if route == ("GET", "/stats"):
            return 200, self.service.stats()
        if route == ("POST", "/shutdown"):
            self.request_shutdown()
            return 200, {"status": "shutting down"}
        return 404, {
            "status": "error",
            "error": f"no route {method} {target}",
        }

    async def _plan(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {
                "status": "error",
                "error": f"request body is not valid JSON: {exc}",
            }
        try:
            return 200, await self.service.handle(payload)
        except (ServeRequestError, ConfigurationError) as exc:
            # A ConfigurationError is the search finding no plan for the
            # request (e.g. a flatness budget too tight): a client error.
            return 400, {"status": "error", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - compute failure
            return 500, {
                "status": "error",
                "error": type(exc).__name__,
                "detail": str(exc),
            }


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Read one HTTP/1.1 request: (method, target, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise _HttpError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HttpError(413, "header section too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise _HttpError(413, "header section too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise _HttpError(400, "bad Content-Length") from exc
    if content_length < 0 or content_length > MAX_BODY_BYTES:
        raise _HttpError(413, "request body too large")
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated request body") from exc
    return method, target, body


async def run_server(
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8787,
    announce: bool = True,
) -> None:
    """Run a planning server until shutdown (the CLI/loadgen entry).

    Prints the ``SERVE_READY`` marker line (with the bound port) once
    listening, so spawners that requested ``port=0`` learn where to
    connect, then serves until ``POST /shutdown`` or task cancellation.
    """
    service = PlanService(config, obs=current_obs())
    server = PlanningServer(service, host=host, port=port)
    await server.start()
    if announce:
        print(
            READY_PREFIX
            + json.dumps(
                {
                    "host": host,
                    "port": server.bound_port,
                    "pid": os.getpid(),
                    "workers": service.config.workers,
                },
                sort_keys=True,
            ),
            flush=True,
        )
    try:
        await server.serve_until_shutdown()
    finally:
        await server.stop()
