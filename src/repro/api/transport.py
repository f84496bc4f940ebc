"""URL-addressed endpoint transports: one request surface, many wires.

Every deployment shape of the propagation service is addressed by a URL
and spoken to through one interface — :class:`Transport`, a blocking
``request(doc) -> doc`` over the wire documents of
:mod:`repro.api.wire`:

==========================  ============================================
scheme                      transport
==========================  ============================================
``local://``                :class:`LocalTransport` — a fresh (or given)
                            in-process :class:`~repro.api.PropagationService`.
                            No sockets, no JSON text; requests go straight
                            through :func:`~repro.api.wire.handle_request`,
                            so the semantics (documents in, documents out,
                            errors as documents) are wire-equivalent.
``tcp://host:port``         :class:`TcpTransport` — line-delimited JSON
                            over one socket, against ``repro serve``'s
                            NDJSON front end.
``http://host:port``        :class:`HttpTransport` — the same documents
                            over HTTP/1.1 (``POST /v1/<op>``, ``GET`` for
                            ``ping``/``stats``) with a keep-alive
                            connection, against ``repro serve
                            --transport http``.
==========================  ============================================

:func:`open_url` resolves a URL through the scheme registry
(:func:`register_scheme` adds new schemes — a unix-socket or TLS
transport plugs in without touching callers).  Transport-level failures
— refused connections, connections dropped before a complete response —
surface as :class:`~repro.api.ApiError` with the ``unavailable`` kind,
never raw socket exceptions.

Resilience: every transport takes an optional :class:`RetryPolicy`.
With one set, ``unavailable`` failures of *idempotent* requests (see
:func:`is_idempotent`) are retried with bounded exponential backoff and
jitter; a broken remote connection is dropped and lazily re-opened, so
a retried (or later) request reaches the endpoint once it is back.
Non-idempotent ops (``shutdown``) and service-level errors are never
retried.

Callers normally do not touch transports directly:
:func:`repro.api.client.connect` wraps one in the typed SDK, and a
:class:`~repro.api.ReplicaSet` spreads requests across many of them.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping
from urllib.parse import urlsplit

from .errors import ApiError
from .service import PropagationService
from .wire import HTTP_ROUTES, handle_request

__all__ = [
    "HttpTransport",
    "IDEMPOTENT_OPS",
    "LocalTransport",
    "RetryPolicy",
    "TcpTransport",
    "Transport",
    "is_idempotent",
    "open_url",
    "register_scheme",
]

#: Default socket timeout for the remote transports (seconds): generous
#: enough for a cold exponential-family batch, finite so a hung endpoint
#: surfaces as ``unavailable`` instead of a silent stall.
DEFAULT_TIMEOUT = 600.0

#: Ops safe to resend when the transport cannot tell whether the lost
#: request was applied.  Queries and ``register`` overwrite-with-same;
#: ``update-sigma`` is diff-deduplicating by design (re-applying the
#: same diff is a no-op — see ``PropagationService.delta_sigma``), so a
#: wire retry after a dropped response cannot double-apply.  ``shutdown``
#: is deliberately absent.
IDEMPOTENT_OPS = frozenset(
    {"check", "cover", "empty", "ping", "stats", "register", "update-sigma"}
)


def is_idempotent(doc: Any) -> bool:
    """May *doc* be resent after a transport failure without side effects?

    A ``batch`` is idempotent iff every sub-request is; anything that is
    not a recognizable request document is conservatively not.
    """
    if not isinstance(doc, Mapping):
        return False
    op = doc.get("op")
    if op == "batch":
        requests = doc.get("requests")
        return isinstance(requests, list) and all(
            is_idempotent(sub) for sub in requests
        )
    return op in IDEMPOTENT_OPS


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for ``unavailable`` transport failures.

    ``retries`` extra attempts follow the first; attempt ``k`` sleeps
    ``min(backoff * multiplier**k, max_backoff)`` seconds first, plus a
    uniform random jitter of up to ``jitter`` times that delay (so a
    worker fleet retrying the same dead endpoint does not thunder in
    lockstep).  Only requests classified by :func:`is_idempotent` are
    retried, and only on the ``unavailable`` error kind — service-level
    errors (``bad-request``, ``not-found``, ...) mean the endpoint
    answered and must not be resent.
    """

    retries: int = 2
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.retries < 0 or self.backoff < 0 or self.jitter < 0:
            raise ApiError(
                "bad-request",
                "RetryPolicy needs retries/backoff/jitter >= 0, got "
                f"retries={self.retries}, backoff={self.backoff}, "
                f"jitter={self.jitter}",
            )
        if self.multiplier < 1.0:
            raise ApiError(
                "bad-request",
                f"RetryPolicy multiplier must be >= 1, got {self.multiplier}",
            )

    def delays(self) -> Iterator[float]:
        """Yield the sleep before each of the ``retries`` re-attempts."""
        delay = self.backoff
        for _ in range(self.retries):
            base = min(delay, self.max_backoff)
            yield base * (1.0 + random.random() * self.jitter)
            delay *= self.multiplier


class Transport(ABC):
    """A blocking document channel to one propagation endpoint."""

    #: The URL this transport was opened from (set by :func:`open_url`).
    url: str = ""
    #: Retry policy for ``unavailable`` failures of idempotent requests
    #: (``None`` = fail fast on the first transport error).
    retry: RetryPolicy | None = None

    def request(self, doc: Mapping[str, Any]) -> dict:
        """Send one wire document, return the response envelope.

        Errors *from the service* come back as ``{"ok": false, ...}``
        documents; errors *of the transport itself* raise
        :class:`~repro.api.ApiError` (kind ``unavailable`` for
        connectivity, ``internal`` for protocol garbage).  With a
        :class:`RetryPolicy` set, ``unavailable`` failures of idempotent
        requests are retried with backoff before surfacing.
        """
        policy = self.retry
        if policy is None or policy.retries < 1 or not is_idempotent(doc):
            return self._request_once(doc)
        delays = policy.delays()
        while True:
            try:
                return self._request_once(doc)
            except ApiError as exc:
                if exc.kind != "unavailable":
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                time.sleep(delay)

    @abstractmethod
    def _request_once(self, doc: Mapping[str, Any]) -> dict:
        """One send/receive attempt (the retry loop drives this)."""

    def close(self) -> None:  # noqa: B027 - optional hook
        """Release the connection (idempotent; default no-op)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalTransport(Transport):
    """``local://`` — the in-process service behind the same documents.

    Owns a fresh :class:`~repro.api.PropagationService` built from the
    given service options (closed with the transport), or wraps a
    caller-provided ``service`` (left open — the caller owns it).
    """

    def __init__(
        self, service: PropagationService | None = None, **service_options
    ) -> None:
        if service is not None and service_options:
            raise ApiError(
                "bad-request",
                "pass either an existing service or service options, not both",
            )
        self._owned = service is None
        self.service = (
            PropagationService(**service_options) if service is None else service
        )

    def _request_once(self, doc: Mapping[str, Any]) -> dict:
        return handle_request(doc, self.service)

    def close(self) -> None:
        if self._owned:
            self.service.close()


class TcpTransport(Transport):
    """``tcp://host:port`` — the NDJSON client of ``repro serve``.

    The connection is opened lazily on the first request and re-opened
    after any failure: a broken socket is closed and dropped, never left
    in place to poison every subsequent request (the next attempt — a
    retry under the policy, or a later call — reconnects).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._endpoint = f"tcp://{host}:{port}"
        self._address = (host, port)
        self._timeout = timeout
        self.retry = retry
        self._sock: socket.socket | None = None
        self._file = None

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                self._address, timeout=self._timeout
            )
        except OSError as exc:
            self._sock = None
            raise ApiError(
                "unavailable", f"cannot connect to {self._endpoint}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")

    def _reset(self) -> None:
        """Drop a broken connection so the next request reconnects."""
        file, sock, self._file, self._sock = self._file, self._sock, None, None
        for closeable in (file, sock):
            if closeable is None:
                continue
            try:
                closeable.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _request_once(self, doc: Mapping[str, Any]) -> dict:
        if self._sock is None:
            self._connect()
        payload = (json.dumps(doc) + "\n").encode()
        try:
            self._file.write(payload)
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            self._reset()
            raise ApiError(
                "unavailable", f"{self._endpoint} request failed: {exc}"
            ) from exc
        if not line.endswith(b"\n"):
            # EOF before the newline: an empty read is a clean close, a
            # partial one is a truncated NDJSON response — either way
            # the endpoint went away mid-request and the stream is dead.
            self._reset()
            detail = "connection closed" if not line else "truncated NDJSON response"
            raise ApiError(
                "unavailable",
                f"{self._endpoint}: {detail} before a complete response",
            )
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ApiError(
                "internal", f"{self._endpoint} sent a malformed response: {exc}"
            ) from exc

    def close(self) -> None:
        self._reset()


class HttpTransport(Transport):
    """``http://host:port`` — the HTTP/1.1 JSON client of ``repro serve``."""

    #: ``op -> (method, path)`` — the shared table of
    #: :data:`repro.api.wire.HTTP_ROUTES` (the server inverts the same
    #: one, so the two sides cannot drift); ops absent from it POST to
    #: ``/v1/<op>`` so unknown ops surface as the server's typed 404,
    #: not a client crash.
    ROUTES = HTTP_ROUTES

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._endpoint = f"http://{host}:{port}"
        self.retry = retry
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def _request_once(self, doc: Mapping[str, Any]) -> dict:
        op = doc.get("op")
        if not isinstance(op, str) or not op:
            raise ApiError("bad-request", "request document needs a string 'op'")
        method, path = self.ROUTES.get(op, ("POST", f"/v1/{op}"))
        body = None if method == "GET" else json.dumps(doc).encode()
        try:
            self._conn.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self._conn.getresponse()
            payload = response.read()
        except (http.client.HTTPException, OSError) as exc:
            self._conn.close()  # reset so the next request reconnects
            raise ApiError(
                "unavailable", f"{self._endpoint}{path} request failed: {exc}"
            ) from exc
        if response.will_close:
            self._conn.close()
        try:
            envelope = json.loads(payload)
        except json.JSONDecodeError as exc:
            if response.status >= 500:
                # A proxy / load balancer answered for a dead upstream
                # (502/503 HTML error pages): the endpoint is effectively
                # down, which is the retryable `unavailable` condition —
                # only a non-JSON body with a non-5xx status is protocol
                # garbage from the endpoint itself.
                self._conn.close()  # the gateway's stream state is suspect
                raise ApiError(
                    "unavailable",
                    f"{self._endpoint}{path} answered HTTP "
                    f"{response.status} with a non-JSON body (gateway "
                    f"error page?)",
                ) from exc
            raise ApiError(
                "internal",
                f"{self._endpoint}{path} sent a non-JSON response "
                f"(status {response.status}): {exc}",
            ) from exc
        if "id" in doc and "id" not in envelope:
            envelope["id"] = doc["id"]  # GET routes carry no body to echo
        return envelope

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# The scheme registry.
# ----------------------------------------------------------------------

_SCHEMES: dict[str, Callable[..., Transport]] = {}


def register_scheme(scheme: str, factory: Callable[..., Transport]) -> None:
    """Register ``factory(parts, **options) -> Transport`` for *scheme*.

    ``parts`` is the :func:`urllib.parse.urlsplit` of the endpoint URL.
    Registering an existing scheme replaces it (tests and downstream
    deployments can wrap the built-ins).
    """
    _SCHEMES[scheme] = factory


def _local_factory(parts, **options) -> Transport:
    if parts.netloc or parts.path.strip("/"):
        raise ApiError(
            "bad-request",
            f"local endpoints carry no address; use 'local://', got "
            f"{parts.geturl()!r}",
        )
    # An in-process service has no transport failures to retry, so a
    # retry policy is accepted and ignored — callers (the CLI, a
    # ReplicaSet over mixed schemes) can pass one URL-agnostically.
    options.pop("retry", None)
    return LocalTransport(**options)


def _host_port(parts, *, default_port: int | None = None) -> tuple[str, int]:
    try:
        port = parts.port
    except ValueError as exc:
        raise ApiError("bad-request", f"bad endpoint port: {exc}") from None
    if port is None:
        port = default_port
    if not parts.hostname or port is None:
        raise ApiError(
            "bad-request",
            f"endpoint {parts.geturl()!r} needs the host:port form",
        )
    return parts.hostname, port


def _tcp_factory(parts, **options) -> Transport:
    host, port = _host_port(parts)
    return TcpTransport(host, port, **options)


def _http_factory(parts, **options) -> Transport:
    host, port = _host_port(parts, default_port=80)
    return HttpTransport(host, port, **options)


register_scheme("local", _local_factory)
register_scheme("tcp", _tcp_factory)
register_scheme("http", _http_factory)


def open_url(url: str, **options) -> Transport:
    """Resolve an endpoint URL into a live transport.

    ``options`` are forwarded to the scheme factory: service options
    (``cache_dir``, ``cache_size``, ...) for ``local://``; ``timeout`` and
    ``retry`` (a :class:`RetryPolicy`) for the remote schemes.  An
    unknown scheme is a typed ``bad-request`` — never a traceback —
    listing what is registered.
    """
    parts = urlsplit(url)
    factory = _SCHEMES.get(parts.scheme)
    if factory is None:
        known = ", ".join(sorted(_SCHEMES))
        raise ApiError(
            "bad-request",
            f"unknown endpoint scheme {parts.scheme!r} in {url!r}; "
            f"registered schemes: {known}",
        )
    try:
        transport = factory(parts, **options)
    except TypeError as exc:
        raise ApiError(
            "bad-request", f"bad options for {parts.scheme!r} endpoint: {exc}"
        ) from exc
    transport.url = url
    return transport
