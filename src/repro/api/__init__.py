"""The service API: typed requests, URL-addressed endpoints, server mode.

This package is the single entry point for every propagation query
class.  Register inputs once in a :class:`Workspace`, hand requests to a
:class:`PropagationService`, and get typed responses with per-request
stats back.  The same documents travel every wire: ``repro serve``
(:mod:`repro.api.server`) exposes a warm service over NDJSON (stdio /
TCP) or HTTP, :func:`connect` opens a typed :class:`Client` on any
endpoint URL (``local://``, ``tcp://host:port``, ``http://host:port`` —
:mod:`repro.api.transport`), and a :class:`ReplicaSet` load-balances
requests across identical workers (:mod:`repro.api.orchestrator`).

The fleet surface is fault-tolerant: a :class:`RetryPolicy` makes any
remote transport absorb transient ``unavailable`` failures of idempotent
requests with bounded exponential backoff (``connect(url, retry=...)``),
and a :class:`ReplicaSet` health-checks its workers, marks a dead one
and fails its request over to a survivor mid-call.

    >>> from repro.api import CheckRequest, connect
    >>> client = connect("local://")  # or tcp://host:port, http://host:port
    >>> # client.register_schema / register_sigma / register_view, then:
    >>> # verdict = client.check(CheckRequest(view="V", targets=[phi]))
    >>> client.close()

See ``docs/api.md`` for the endpoint-URL table, the request/response
schema, the routing table and the error taxonomy.
"""

from .client import Client, ProtocolMismatchWarning, connect
from .errors import (
    ApiError,
    EXIT_CODES,
    EXIT_NEGATIVE,
    EXIT_OK,
    HTTP_STATUS,
    KINDS,
    to_api_error,
)
from .orchestrator import ReplicaSet
from .requests import (
    BatchRequest,
    BatchResult,
    CheckRequest,
    CoverRequest,
    CoverResult,
    EmptinessRequest,
    EmptinessResult,
    RequestStats,
    SigmaUpdate,
    UpdateSigmaRequest,
    Verdict,
)
from .server import (
    PropagationServer,
    background_server,
    serve_http,
    serve_stdio,
    serve_tcp,
)
from .service import PropagationService
from .transport import (
    HttpTransport,
    IDEMPOTENT_OPS,
    LocalTransport,
    RetryPolicy,
    TcpTransport,
    Transport,
    is_idempotent,
    open_url,
    register_scheme,
)
from .wire import (
    PROTOCOL_VERSION,
    handle_request,
    request_from_json,
    request_to_json,
    response_from_json,
    response_to_json,
)
from .workspace import DEFAULT_NAME, Workspace

__all__ = [
    "ApiError",
    "BatchRequest",
    "BatchResult",
    "CheckRequest",
    "Client",
    "CoverRequest",
    "CoverResult",
    "DEFAULT_NAME",
    "EXIT_CODES",
    "EXIT_NEGATIVE",
    "EXIT_OK",
    "EmptinessRequest",
    "EmptinessResult",
    "HTTP_STATUS",
    "HttpTransport",
    "IDEMPOTENT_OPS",
    "KINDS",
    "LocalTransport",
    "PROTOCOL_VERSION",
    "PropagationServer",
    "PropagationService",
    "ProtocolMismatchWarning",
    "ReplicaSet",
    "RequestStats",
    "RetryPolicy",
    "SigmaUpdate",
    "TcpTransport",
    "Transport",
    "UpdateSigmaRequest",
    "Verdict",
    "Workspace",
    "background_server",
    "connect",
    "handle_request",
    "is_idempotent",
    "open_url",
    "register_scheme",
    "request_from_json",
    "request_to_json",
    "response_from_json",
    "response_to_json",
    "serve_http",
    "serve_stdio",
    "serve_tcp",
    "to_api_error",
]
