"""The typed client SDK: ``connect(url)`` and talk dataclasses.

:func:`connect` resolves an endpoint URL through the transport registry
(:mod:`repro.api.transport`) and wraps it in a :class:`Client` that
speaks the typed requests and responses of :mod:`repro.api.requests`
over any wire — the same code drives an in-process service
(``local://``), a long-lived NDJSON server (``tcp://host:port``) and the
HTTP front end (``http://host:port``) interchangeably:

    >>> from repro.api import CheckRequest
    >>> from repro.api.client import connect
    >>> with connect("local://") as client:
    ...     client.register_schema(
    ...         "default",
    ...         {"relations": [{"name": "R", "attributes": ["A", "B"]}]},
    ...     )
    ...     client.register_sigma(
    ...         "default",
    ...         [{"kind": "fd", "relation": "R", "lhs": ["A"], "rhs": ["B"]}],
    ...     )
    ...     client.register_view(
    ...         "V", {"name": "V", "atoms": [{"source": "R", "prefix": ""}]}
    ...     )
    ...     verdict = client.check(CheckRequest(view="V", targets=[]))

The query methods mirror :class:`~repro.api.PropagationService`
(``check`` / ``cover`` / ``emptiness`` / ``delta_sigma`` / ``batch`` /
``submit``), so a ``Client`` is a drop-in for a service in analysis
code; error envelopes re-raise as the same typed
:class:`~repro.api.ApiError` the in-process service would have raised.
One asymmetry is inherent to crossing a wire: counterexample witnesses
come back as raw :mod:`repro.io` instance documents, because parsing
them needs the schema registered on the serving side.

On connect, the client performs a ``ping`` handshake and records the
endpoint's wire :data:`~repro.api.wire.PROTOCOL_VERSION`; a mismatch
with this client's version emits a :class:`ProtocolMismatchWarning`
(wire evolution must never be silent).  ``handshake=False`` skips the
round trip for fire-and-forget scripts.
"""

from __future__ import annotations

import warnings
from typing import Any, Mapping

from .. import io as repro_io
from ..core.schema import DatabaseSchema
from .errors import ApiError
from .requests import (
    BatchRequest,
    BatchResult,
    CheckRequest,
    CoverRequest,
    EmptinessRequest,
    Request,
    Response,
    SigmaUpdate,
    UpdateSigmaRequest,
    Verdict,
)
from .transport import Transport, open_url
from .wire import PROTOCOL_VERSION, request_to_json, response_from_json

__all__ = ["Client", "ProtocolMismatchWarning", "connect"]


class ProtocolMismatchWarning(UserWarning):
    """The endpoint speaks a different wire-protocol version."""


def connect(url: str, *, handshake: bool = True, **options) -> "Client":
    """Open a typed client on an endpoint URL (any registered scheme).

    ``options`` go to the transport factory: service options such as
    ``cache_dir`` / ``cache_size`` / ``store_url`` / ``kernel``
    (or an existing ``service=``) for ``local://``; ``timeout`` and
    ``retry`` for ``tcp://`` and ``http://``.  A
    ``retry=RetryPolicy(...)`` makes the transport absorb transient
    ``unavailable`` failures of idempotent requests with bounded
    exponential backoff (see :class:`~repro.api.transport.RetryPolicy`);
    the default is fail-fast.  ``local://`` accepts and ignores
    ``retry``, so one fleet config can mix schemes.  With
    ``handshake=True`` (default) the endpoint is pinged immediately:
    connectivity problems surface here as ``unavailable`` errors (after
    any retries), and a wire-protocol version mismatch warns with
    :class:`ProtocolMismatchWarning`.
    """
    client = Client(open_url(url, **options))
    if handshake:
        try:
            client.handshake()
        except BaseException:
            client.close()
            raise
    return client


class Client:
    """Typed requests over one :class:`~repro.api.transport.Transport`."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        #: The endpoint's wire-protocol version, known after a handshake.
        self.protocol: int | None = None
        #: The full capability document of the last handshake ping —
        #: server endpoints advertise ``uptime_s`` and
        #: ``requests_served`` here, which fleet health probes record.
        self.capabilities: dict = {}

    @property
    def url(self) -> str:
        return self.transport.url

    # ------------------------------------------------------------------
    # Raw document surface (the escape hatch).
    # ------------------------------------------------------------------

    def call(self, doc: Mapping[str, Any]) -> dict:
        """Send one raw wire document; returns the response envelope.

        Service failures stay documents (``{"ok": false, ...}``) — only
        transport failures raise.  The typed methods below are built on
        :meth:`result`, which re-raises error envelopes as ApiError.
        """
        return self.transport.request(doc)

    def result(self, doc: Mapping[str, Any]) -> dict:
        """Send one raw document; unwrap ``result`` or raise the error."""
        envelope = self.call(doc)
        if envelope.get("ok"):
            return envelope.get("result", {})
        error = envelope.get("error", {})
        raise ApiError(
            error.get("kind", "internal"),
            error.get("message", f"malformed error envelope: {envelope}"),
        )

    # ------------------------------------------------------------------
    # Typed requests (mirrors PropagationService).
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> Response:
        """Answer any typed request over the wire (the single front door)."""
        return response_from_json(self.result(request_to_json(request)))

    def check(self, request: CheckRequest) -> Verdict:
        return self.submit(request)

    def cover(self, request: CoverRequest):
        return self.submit(request)

    def emptiness(self, request: EmptinessRequest):
        return self.submit(request)

    def delta_sigma(self, request: UpdateSigmaRequest) -> SigmaUpdate:
        return self.submit(request)

    def batch(self, request: BatchRequest) -> BatchResult:
        return self.submit(request)

    # ------------------------------------------------------------------
    # Workspace registration.
    # ------------------------------------------------------------------

    def register_schema(self, name: str, schema) -> dict:
        """Register a schema (object or JSON document) under *name*."""
        if isinstance(schema, DatabaseSchema):
            schema = repro_io.schema_to_json(schema)
        return self.result(
            {"op": "register", "kind": "schema", "name": name, "doc": schema}
        )

    def register_sigma(self, name: str, sigma) -> dict:
        """Register a dependency list (objects or JSON documents)."""
        docs = [
            dep if isinstance(dep, Mapping) else repro_io.dependency_to_json(dep)
            for dep in sigma
        ]
        return self.result(
            {"op": "register", "kind": "sigma", "name": name, "doc": docs}
        )

    def register_view(self, name: str, view, schema: str = "default") -> dict:
        """Register a view (object or document, parsed against *schema*)."""
        if not isinstance(view, Mapping):
            view = repro_io.view_to_json(view)
        return self.result(
            {
                "op": "register",
                "kind": "view",
                "name": name,
                "doc": view,
                "schema": schema,
            }
        )

    # ------------------------------------------------------------------
    # Service ops.
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.result({"op": "ping"})

    def stats(self) -> dict:
        return self.result({"op": "stats"})

    def shutdown(self) -> dict:
        """Ask the endpoint to stop (no-op semantics on ``local://``)."""
        return self.result({"op": "shutdown"})

    def handshake(self) -> dict:
        """Ping the endpoint; record protocol + capabilities, warn on drift."""
        result = self.ping()
        self.capabilities = dict(result)
        self.protocol = result.get("protocol")
        if self.protocol != PROTOCOL_VERSION:
            spoken = (
                f"protocol {self.protocol}"
                if self.protocol is not None
                else "an unversioned protocol (pre-versioning server)"
            )
            warnings.warn(
                f"endpoint {self.url or '<endpoint>'} speaks {spoken}; this "
                f"client speaks protocol {PROTOCOL_VERSION} — responses may "
                f"be missing fields or shaped differently",
                ProtocolMismatchWarning,
                stacklevel=3,
            )
        return result

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
