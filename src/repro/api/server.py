"""``repro serve`` — the asyncio front ends over one warm service.

A single long-lived :class:`~repro.api.PropagationService` (one engine
pool, one shared persistent store) answers wire requests (see
:mod:`repro.api.wire`) over any of three front ends:

- **stdio** (default): line-delimited JSON on stdin, responses on
  stdout — the pipe-friendly mode the smoke tests and benchmarks drive.
- **TCP NDJSON** (``--port``, ``--host``): many concurrent connections
  into the same warm service; ``--port 0`` picks an ephemeral port,
  announced on stderr as ``listening on HOST:PORT``.  This is the
  ``tcp://`` endpoint scheme of :mod:`repro.api.transport`.
- **HTTP/1.1 JSON** (``--transport http``): the same documents behind
  ``POST /v1/{check,cover,empty,batch,update-sigma,register,shutdown}``
  and ``GET /v1/{ping,stats}``, with :class:`~repro.api.ApiError` kinds
  mapped to status codes (:data:`repro.api.errors.HTTP_STATUS`) — the
  loadbalancer-friendly ``http://`` endpoint scheme.

Concurrency model: the event loop stays async while the CPU-bound
decision procedures run on worker threads.  Requests are serialized
**per engine pool** (:meth:`PropagationService.pool_key`): two requests
that resolve to the same warm engine take the same lock, while requests
routed to different engine settings run concurrently.  Workspace
mutations (``register``, ``update-sigma``) are exclusive — they wait for
every in-flight request and block new ones until done — so every request
still sees one consistent warm cache.  Warm hits never leave the event
loop: a ``check``/``cover`` naming a registered view and Sigma, on a
free pool with no mutation running, is decoded and
:meth:`PropagationService.peek`-ed there, and answered if memory holds
it; a miss hands its decoded request to a worker thread, so cold work
and inline documents never block the loop.  ``ping`` is answered on the
loop too, and ``shutdown`` unless a mutation is running.  A
``shutdown`` op stops the server after its response is written.

Boundary hygiene: request lines and HTTP bodies larger than
``max_request_bytes`` are answered with a typed ``bad-request`` error
document (NDJSON framing is lost after an oversized line, so that
connection then closes); malformed JSON, unknown routes and wrong HTTP
methods all come back as error documents, never tracebacks or bare
disconnects.
"""

from __future__ import annotations

import asyncio
import json
import queue
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping, TextIO

from .errors import HTTP_STATUS
from .requests import Request
from .service import PropagationService
from .wire import HTTP_ROUTES, PROTOCOL_VERSION, handle_request

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "PropagationServer",
    "background_server",
    "serve_http",
    "serve_stdio",
    "serve_tcp",
]

#: Default bound on one request (an NDJSON line or an HTTP body).
DEFAULT_MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: Ops that mutate shared service state and therefore lock exclusively.
_MUTATING_OPS = frozenset({"register", "update-sigma"})
#: Ops answered without touching any engine: no pool lock.
_LOCKLESS_OPS = frozenset({"ping", "shutdown"})
#: Ops a warm memory-tier hit answers on the event loop.
_PEEK_OPS = frozenset({"check", "cover"})

#: ``(method, path) -> op``: the server-side inversion of the shared
#: :data:`repro.api.wire.HTTP_ROUTES` table.
_HTTP_ROUTES = {
    (method, path): op for op, (method, path) in HTTP_ROUTES.items()
}
_HTTP_PATHS = {path for _, path in _HTTP_ROUTES}
_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


def _error_doc(kind: str, message: str, *, op: str | None = None) -> dict:
    doc: dict = {}
    if op is not None:
        doc["op"] = op
    doc.update({"ok": False, "error": {"kind": kind, "message": message}})
    return doc


class PropagationServer:
    """Wraps one service with the request loops of every transport.

    ``max_request_bytes`` bounds a single request document on the wire.
    """

    def __init__(
        self,
        service: PropagationService,
        *,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        self.service = service
        self.max_request_bytes = max_request_bytes
        self._locks: dict = {}  # pool key -> asyncio.Lock
        self._locks_guard = asyncio.Lock()
        self._shutdown = asyncio.Event()
        self._started = time.monotonic()
        self._served = 0
        # Open connection writers, so shutdown can close established
        # connections too — `async with server` only stops the listener,
        # and a fleet client left on a silent socket would block on its
        # transport timeout instead of failing fast as `unavailable`.
        self._conn_writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Locking: per engine pool, exclusive for mutations.
    # ------------------------------------------------------------------

    def _lock_keys(self, doc) -> tuple[list, bool]:
        """The engine-pool keys *doc* touches, plus an exclusive flag."""
        if not isinstance(doc, Mapping):
            return [], False
        op = doc.get("op")
        if op in _MUTATING_OPS:
            return [], True
        if op == "batch":
            keys: set = set()
            exclusive = False
            subs = doc.get("requests")
            for sub in subs if isinstance(subs, list) else []:
                sub_keys, sub_exclusive = self._lock_keys(sub)
                keys.update(sub_keys)
                exclusive = exclusive or sub_exclusive
            return sorted(keys, key=repr), exclusive
        if op in _LOCKLESS_OPS:
            return [], False
        try:
            # check / cover / empty / stats: the one pool they dispatch
            # to.  Mistyped settings -> no lock; the request fails the
            # same validation inside `handle_request` as a bad-request.
            return [self.service.pool_key(doc)], False
        except Exception:  # noqa: BLE001 - malformed settings
            return [], False

    async def handle_request(self, doc) -> dict:
        """Answer one wire document (the transport-independent core).

        Unless :meth:`_answer_inline` can, acquires the engine-pool
        lock(s) the document resolves to — exclusive for workspace
        mutations — and runs the wire handler on a worker thread.
        """
        keys, exclusive = self._lock_keys(doc)
        response = self._answer_inline(doc, keys)
        if not isinstance(response, dict):  # None, or a peek miss's request
            response = await self._dispatch(doc, keys, exclusive, response)
        if response.get("op") == "shutdown" and response.get("ok"):
            self._shutdown.set()
        return response

    def _answer_inline(self, doc, keys: list) -> dict | Request | None:
        """Answer *doc* on the event loop if that is cheap and safe: ``ping``;
        ``shutdown`` unless a mutation runs (its reply goes out first); a
        ``check``/``cover`` naming its view and Sigma (nothing inline to
        parse), peeked while no worker can use its engine.  A peek miss
        returns its decoded request for the worker; anything else ``None``."""
        op = doc.get("op") if isinstance(doc, Mapping) else None
        if op == "ping" or (op == "shutdown" and not self._locks_guard.locked()):
            response = handle_request(doc, self.service)
        elif (
            op in _PEEK_OPS
            and len(keys) == 1
            and all(isinstance(doc.get(ref) or "", str) for ref in ("view", "sigma"))
            and not self._pool_busy(keys[0])
        ):
            response = handle_request(doc, self.service, peek=True)
            if not isinstance(response, dict):
                return response
        else:
            return None
        self._served += 1
        if response.get("ok") and op == "ping":
            # Health/uptime capabilities: what a fleet's check_health
            # probe records per worker.
            response["result"]["uptime_s"] = round(
                time.monotonic() - self._started, 3
            )
            response["result"]["requests_served"] = self._served
        return response

    def _pool_busy(self, key) -> bool:
        lock = self._locks.get(key)
        return self._locks_guard.locked() or (lock is not None and lock.locked())

    async def _dispatch(self, doc, keys: list, exclusive: bool, decoded) -> dict:
        """Answer *doc* on a worker thread under its pool lock(s)."""
        if exclusive:
            # Holding the guard while draining every pool lock blocks
            # new lookups, so the mutation sees a quiesced service.
            async with self._locks_guard:
                locks = [self._locks[key] for key in sorted(self._locks, key=repr)]
                for lock in locks:
                    await lock.acquire()
                try:
                    return await self._run(doc, decoded)
                finally:
                    for lock in reversed(locks):
                        lock.release()
        async with self._locks_guard:
            locks = [self._locks.setdefault(key, asyncio.Lock()) for key in keys]
        for lock in locks:  # sorted keys -> deterministic order
            await lock.acquire()
        try:
            return await self._run(doc, decoded)
        finally:
            for lock in reversed(locks):
                lock.release()

    async def _run(self, doc, decoded) -> dict:
        self._served += 1
        return await asyncio.get_running_loop().run_in_executor(
            None, handle_request, doc, self.service, decoded
        )

    async def respond_line(self, line: str) -> dict:
        """Answer one NDJSON request line."""
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            return _error_doc("bad-request", f"invalid JSON: {exc}")
        return await self.handle_request(doc)

    # ------------------------------------------------------------------
    # NDJSON front ends (stdio pipe, TCP).
    # ------------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One NDJSON TCP client: requests in, responses out, in order."""
        self._conn_writers.add(writer)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized line: the stream limit tripped and the
                    # buffered prefix is gone, so framing is lost — send
                    # the typed refusal and close this connection.
                    refusal = _error_doc(
                        "bad-request",
                        f"request line exceeds {self.max_request_bytes} bytes",
                    )
                    writer.write((json.dumps(refusal) + "\n").encode())
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self.respond_line(line.decode())
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        except ConnectionError:  # pragma: no cover - client vanished
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Listen (NDJSON) until a ``shutdown`` op or cancellation."""
        await self._serve_until_shutdown("ndjson", host, port)

    async def serve_stdio(
        self, stdin: TextIO | None = None, stdout: TextIO | None = None
    ) -> None:
        """The pipe transport: one request line in, one response line out."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        while not self._shutdown.is_set():
            line = await loop.run_in_executor(None, stdin.readline)
            if not line:
                break
            if not line.strip():
                continue
            if len(line.encode()) > self.max_request_bytes:
                response = _error_doc(
                    "bad-request",
                    f"request line exceeds {self.max_request_bytes} bytes",
                )
            else:
                response = await self.respond_line(line)
            stdout.write(json.dumps(response) + "\n")
            stdout.flush()

    # ------------------------------------------------------------------
    # HTTP/1.1 front end.
    # ------------------------------------------------------------------

    async def handle_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 client: keep-alive request/response loop."""
        self._conn_writers.add(writer)
        try:
            while not self._shutdown.is_set():
                keep_alive = await self._respond_http_once(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass  # mid-request EOF / reset / oversized header line
        finally:
            self._conn_writers.discard(writer)
            writer.close()

    async def _respond_http_once(self, reader, writer) -> bool:
        request_line = await reader.readline()
        if not request_line or not request_line.strip():
            return False
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._write_http(
                writer, 400, _error_doc("bad-request", "malformed request line")
            )
            return False
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        close_requested = headers.get("connection", "").lower() == "close"
        if headers.get("transfer-encoding"):
            # Only Content-Length framing is spoken; accepting a chunked
            # body as empty would desynchronize the keep-alive stream.
            await self._write_http(
                writer,
                411,
                _error_doc(
                    "bad-request",
                    "Transfer-Encoding is not supported; send a "
                    "Content-Length body",
                ),
            )
            return False
        try:
            length = int(headers.get("content-length", "0") or "0")
            if length < 0:
                raise ValueError(length)
        except ValueError:
            await self._write_http(
                writer, 400, _error_doc("bad-request", "bad Content-Length")
            )
            return False
        if length > self.max_request_bytes:
            # Refuse without reading the body; framing is unrecoverable.
            await self._write_http(
                writer,
                413,
                _error_doc(
                    "bad-request",
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_request_bytes}-byte limit",
                ),
            )
            return False
        body = await reader.readexactly(length) if length else b""

        op = _HTTP_ROUTES.get((method, path))
        if op is None:
            if path in _HTTP_PATHS:
                response, status = (
                    _error_doc(
                        "bad-request", f"method {method} not allowed for {path}"
                    ),
                    405,
                )
            else:
                response, status = (
                    _error_doc("not-found", f"no such route: {method} {path}"),
                    404,
                )
        else:
            doc: dict | None
            if body:
                try:
                    doc = json.loads(body)
                except json.JSONDecodeError as exc:
                    doc = None
                    response, status = (
                        _error_doc("bad-request", f"invalid JSON body: {exc}", op=op),
                        400,
                    )
                else:
                    if not isinstance(doc, dict):
                        doc = None
                        response, status = (
                            _error_doc(
                                "bad-request", "request body must be a JSON object",
                                op=op,
                            ),
                            400,
                        )
            else:
                doc = {}
            if doc is not None:
                doc["op"] = op  # the path is authoritative
                response = await self.handle_request(doc)
                if response.get("ok"):
                    status = 200
                else:
                    kind = response.get("error", {}).get("kind", "internal")
                    status = HTTP_STATUS.get(kind, 500)
        await self._write_http(writer, status, response, close=close_requested)
        return not close_requested and not self._shutdown.is_set()

    async def _write_http(
        self, writer, status: int, doc: dict, *, close: bool = False
    ) -> None:
        payload = json.dumps(doc).encode()
        head = (
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Repro-Protocol: {PROTOCOL_VERSION}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def serve_http(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Listen (HTTP/1.1 JSON) until a ``shutdown`` op or cancellation."""
        await self._serve_until_shutdown("http", host, port)

    # ------------------------------------------------------------------
    # Shared listener plumbing.
    # ------------------------------------------------------------------

    async def _serve_until_shutdown(
        self, transport: str, host: str, port: int, announce=None
    ) -> None:
        if transport == "http":
            handler = self.handle_http_connection
            # Bodies are bounded by the Content-Length check; the stream
            # limit only guards header lines, so keep it sane even when
            # max_request_bytes is tiny.
            limit = max(self.max_request_bytes, 64 * 1024)
        else:
            handler = self.handle_connection
            limit = self.max_request_bytes  # one NDJSON line = one request
        server = await asyncio.start_server(handler, host, port, limit=limit)
        bound = server.sockets[0].getsockname()
        if announce is not None:
            announce(bound)
        else:
            print(
                f"listening on {bound[0]}:{bound[1]}", file=sys.stderr, flush=True
            )
        async with server:
            await self._shutdown.wait()
        # The `async with` closed only the listener; sever established
        # connections too so blocked clients see EOF (-> a typed
        # `unavailable`) instead of hanging until their timeout.
        for writer in list(self._conn_writers):
            writer.close()


def serve_stdio(service: PropagationService, **server_options) -> None:
    """Run the stdio server to completion (the CLI's default transport)."""
    asyncio.run(PropagationServer(service, **server_options).serve_stdio())


def serve_tcp(
    service: PropagationService, host: str, port: int, **server_options
) -> None:
    """Run the NDJSON TCP server until shutdown (``repro serve --port``)."""
    asyncio.run(PropagationServer(service, **server_options).serve_tcp(host, port))


def serve_http(
    service: PropagationService, host: str, port: int, **server_options
) -> None:
    """Run the HTTP server until shutdown (``repro serve --transport http``)."""
    asyncio.run(PropagationServer(service, **server_options).serve_http(host, port))


@contextmanager
def background_server(
    service: PropagationService,
    transport: str = "tcp",
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_options,
) -> Iterator[str]:
    """Run a TCP or HTTP endpoint on a daemon thread; yields its URL.

    The in-process fixture behind the endpoint tests, the replica
    quickstart and embedded deployments: the caller keeps owning the
    service (and closes it); the context exit stops the listener.

        >>> from repro.api import PropagationService
        >>> from repro.api.server import background_server
        >>> with PropagationService() as service:
        ...     with background_server(service, "tcp") as url:
        ...         assert url.startswith("tcp://127.0.0.1:")
    """
    if transport not in ("tcp", "http"):
        raise ValueError(f"transport must be 'tcp' or 'http', got {transport!r}")
    server = PropagationServer(service, **server_options)
    ready: queue.Queue = queue.Queue()
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        try:
            loop.run_until_complete(
                server._serve_until_shutdown(
                    transport, host, port, announce=ready.put
                )
            )
        except Exception as exc:  # pragma: no cover - startup failure
            ready.put(exc)
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-endpoint", daemon=True)
    thread.start()
    bound = ready.get(timeout=30)
    if isinstance(bound, Exception):
        raise bound
    try:
        yield f"{transport}://{bound[0]}:{bound[1]}"
    finally:
        try:
            holder["loop"].call_soon_threadsafe(server._shutdown.set)
        except RuntimeError:
            pass  # already stopped by a shutdown op
        thread.join(timeout=30)
