"""The NDJSON wire protocol: request/response documents <-> typed objects.

One request per line, one response per line, in order.  Requests are
objects with an ``op`` and an optional client-chosen ``id`` echoed back
verbatim::

    {"id": 1, "op": "register", "kind": "schema", "name": "s", "doc": {...}}
    {"id": 2, "op": "register", "kind": "sigma",  "name": "deps", "doc": [...]}
    {"id": 3, "op": "register", "kind": "view",   "name": "V", "doc": {...},
     "schema": "s"}
    {"id": 4, "op": "check", "view": "V", "sigma": "deps", "phis": [...],
     "witness": false}
    {"id": 5, "op": "cover", "view": "V", "sigma": "deps"}
    {"id": 6, "op": "empty", "view": "V", "sigma": "deps"}
    {"id": 7, "op": "batch", "requests": [{"op": "check", ...}, ...]}
    {"id": 8, "op": "update-sigma", "name": "deps", "add": [...],
     "remove": [...]}
    {"id": 9, "op": "stats"}
    {"id": 10, "op": "ping"}
    {"id": 11, "op": "shutdown"}

``view`` is a registered name or an inline view document (parsed against
``"schema"``, default ``"default"``); ``sigma`` is a registered name, an
inline dependency list, or absent for the ``"default"`` registration.
``phis`` entries are :mod:`repro.io` dependency documents.  The query ops
accept the per-request knobs ``use_cache`` / ``max_instantiations`` /
``assume_infinite`` / ``kernel`` (a mistyped one is a ``bad-request``);
unknown fields are ignored.  ``ping``
responses carry the wire :data:`PROTOCOL_VERSION` so clients can detect
drift.  ``update-sigma`` applies a diff to a
*registered* Sigma (``name`` absent = ``"default"``; ``add``/``remove``
are dependency-document lists) with selective, provenance-scoped
invalidation — warm lines for relations the diff does not mention
survive (``docs/incremental.md``).

Responses::

    {"id": 4, "ok": true,  "op": "check",
     "result": {"propagated": [...], "route": "spc", "stats": {...}}}
    {"id": 4, "ok": false, "op": "check",
     "error": {"kind": "format", "message": "..."}}

``stats`` in every query result is the per-request engine delta
(:class:`~repro.api.requests.RequestStats`); the error ``kind`` comes
from the stable taxonomy of :mod:`repro.api.errors`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict
from typing import Any, Mapping

from .. import io as repro_io
from .errors import ApiError, to_api_error
from .requests import (
    SETTING_FIELDS,
    BatchRequest,
    BatchResult,
    CheckRequest,
    CoverRequest,
    CoverResult,
    EmptinessRequest,
    EmptinessResult,
    Request,
    RequestStats,
    Response,
    SigmaUpdate,
    UpdateSigmaRequest,
    Verdict,
    settings_from_json,
)
from .service import PropagationService

__all__ = [
    "HTTP_ROUTES",
    "PROTOCOL_VERSION",
    "handle_request",
    "request_from_json",
    "request_to_json",
    "response_from_json",
    "response_to_json",
]

#: The wire-protocol version, reported in every ``ping`` response.
#: Bump it on incompatible evolution of the request/response documents;
#: :func:`repro.api.client.connect` warns when an endpoint's version
#: differs from the client's, so drift stops being silent.
PROTOCOL_VERSION = 1

#: ``op -> (HTTP method, path)`` — the one route table both the HTTP
#: front end (:mod:`repro.api.server`, inverted) and the HTTP client
#: transport (:mod:`repro.api.transport`) derive from, so the two sides
#: cannot drift.  Documented in ``docs/api.md``.
HTTP_ROUTES = {
    "check": ("POST", "/v1/check"),
    "cover": ("POST", "/v1/cover"),
    "empty": ("POST", "/v1/empty"),
    "batch": ("POST", "/v1/batch"),
    "update-sigma": ("POST", "/v1/update-sigma"),
    "register": ("POST", "/v1/register"),
    "shutdown": ("POST", "/v1/shutdown"),
    "ping": ("GET", "/v1/ping"),
    "stats": ("GET", "/v1/stats"),
}

_QUERY_OPS = {"check", "cover", "empty", "batch", "update-sigma"}


def _view_ref(doc: Mapping[str, Any], service: PropagationService):
    ref = doc.get("view", "default")
    if isinstance(ref, Mapping):
        schema = service.workspace.schema(doc.get("schema", "default"))
        return repro_io.view_from_json(ref, schema)
    return ref


def _sigma_ref(doc: Mapping[str, Any]):
    ref = doc.get("sigma")
    if isinstance(ref, (list, tuple)):
        return repro_io.dependencies_from_json(ref)
    return ref


def request_from_json(
    doc: Mapping[str, Any], service: PropagationService
) -> Request:
    """Parse one query document into its typed request."""
    op = doc.get("op")
    if op == "check":
        return CheckRequest(
            view=_view_ref(doc, service),
            targets=repro_io.dependencies_from_json(doc.get("phis", [])),
            sigma=_sigma_ref(doc),
            witness=bool(doc.get("witness", False)),
            **settings_from_json(doc),
        )
    if op == "cover":
        return CoverRequest(
            view=_view_ref(doc, service),
            sigma=_sigma_ref(doc),
            **settings_from_json(doc),
        )
    if op == "empty":
        return EmptinessRequest(
            view=_view_ref(doc, service),
            sigma=_sigma_ref(doc),
            witness=bool(doc.get("witness", False)),
            **settings_from_json(doc),
        )
    if op == "update-sigma":
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise ApiError("bad-request", "update-sigma 'name' must be a string")
        return UpdateSigmaRequest(
            name=name,
            add=repro_io.dependencies_from_json(doc.get("add", [])),
            remove=repro_io.dependencies_from_json(doc.get("remove", [])),
        )
    if op == "batch":
        return BatchRequest(
            [request_from_json(sub, service) for sub in doc.get("requests", [])]
        )
    raise ApiError("bad-request", f"unknown op {op!r}")


def _view_doc(ref):
    if isinstance(ref, str):
        return ref
    return repro_io.view_to_json(ref)


def _sigma_doc(ref):
    if ref is None or isinstance(ref, str):
        return ref
    return repro_io.dependencies_to_json(ref)


def _settings_doc(request) -> dict:
    return {
        name: value
        for name in SETTING_FIELDS
        if (value := getattr(request, name, None)) is not None
    }


def request_to_json(request: Request) -> dict:
    """Serialize one typed request into its wire document (the client side).

    The inverse of :func:`request_from_json` up to reference form: view
    and Sigma objects become inline documents (inline views parse
    against the endpoint's ``"default"`` schema registration), names
    stay names, and unset per-request settings are omitted so the
    endpoint's own defaults apply.
    """
    if isinstance(request, CheckRequest):
        doc: dict[str, Any] = {
            "op": "check",
            "view": _view_doc(request.view),
            "phis": repro_io.dependencies_to_json(request.targets),
        }
        if request.sigma is not None:
            doc["sigma"] = _sigma_doc(request.sigma)
        if request.witness:
            doc["witness"] = True
        doc.update(_settings_doc(request))
        return doc
    if isinstance(request, CoverRequest):
        doc = {"op": "cover", "view": _view_doc(request.view)}
        if request.sigma is not None:
            doc["sigma"] = _sigma_doc(request.sigma)
        doc.update(_settings_doc(request))
        return doc
    if isinstance(request, EmptinessRequest):
        doc = {"op": "empty", "view": _view_doc(request.view)}
        if request.sigma is not None:
            doc["sigma"] = _sigma_doc(request.sigma)
        if request.witness:
            doc["witness"] = True
        doc.update(_settings_doc(request))
        return doc
    if isinstance(request, UpdateSigmaRequest):
        doc = {
            "op": "update-sigma",
            "add": repro_io.dependencies_to_json(request.add),
            "remove": repro_io.dependencies_to_json(request.remove),
        }
        if request.name is not None:
            doc["name"] = request.name
        return doc
    if isinstance(request, BatchRequest):
        return {
            "op": "batch",
            "requests": [request_to_json(sub) for sub in request.requests],
        }
    raise ApiError(
        "bad-request", f"unserializable request type {type(request).__name__}"
    )


def _stats_from_json(doc: Mapping[str, Any] | None) -> RequestStats:
    if not doc:
        return RequestStats()
    known = {field.name for field in dataclasses.fields(RequestStats)}
    return RequestStats(**{k: v for k, v in doc.items() if k in known})


def response_from_json(result: Mapping[str, Any]) -> Response:
    """Parse a ``result`` document back into its typed response.

    The client side of :func:`response_to_json`, keyed structurally on
    the document's fields.  Counterexample witnesses stay as raw
    :mod:`repro.io` instance documents (parsing them into
    :class:`~repro.algebra.instance.DatabaseInstance` objects needs the
    schema, which lives on the serving side — use
    :func:`repro.io.instance_from_json` against your copy).
    """
    stats = _stats_from_json(result.get("stats"))
    if "propagated" in result:
        return Verdict(
            list(result["propagated"]),
            result.get("route", ""),
            stats,
            result.get("witnesses"),
        )
    if "cover" in result:
        return CoverResult(
            repro_io.dependencies_from_json(result["cover"]),
            result.get("route", ""),
            stats,
        )
    if "empty" in result:
        return EmptinessResult(
            result["empty"], result.get("route", ""), stats, result.get("witness")
        )
    if "sigma" in result:
        return SigmaUpdate(
            name=result["sigma"],
            size=result["size"],
            affected_relations=list(result["affected_relations"]),
            invalidated=result["invalidated"],
            retained=result["retained"],
            route=result.get("route", "delta-sigma"),
            stats=stats,
        )
    if "results" in result:
        return BatchResult(
            [response_from_json(sub) for sub in result["results"]], stats
        )
    raise ApiError(
        "internal", f"unrecognized result document with fields {sorted(result)}"
    )


def response_to_json(response: Response) -> dict:
    """Serialize a typed response into its ``result`` document."""
    if isinstance(response, Verdict):
        out: dict[str, Any] = {
            "propagated": list(response.propagated),
            "all_propagated": response.all_propagated,
            "route": response.route,
            "stats": response.stats.to_json(),
        }
        if response.witnesses is not None:
            out["witnesses"] = [
                None if w is None else repro_io.instance_to_json(w)
                for w in response.witnesses
            ]
        return out
    if isinstance(response, CoverResult):
        return {
            "cover": repro_io.dependencies_to_json(response.cover),
            "route": response.route,
            "stats": response.stats.to_json(),
        }
    if isinstance(response, EmptinessResult):
        out = {
            "empty": response.empty,
            "route": response.route,
            "stats": response.stats.to_json(),
        }
        if response.witness is not None:
            out["witness"] = repro_io.instance_to_json(response.witness)
        return out
    if isinstance(response, SigmaUpdate):
        return {
            "sigma": response.name,
            "size": response.size,
            "affected_relations": list(response.affected_relations),
            "invalidated": response.invalidated,
            "retained": response.retained,
            "route": response.route,
            "stats": response.stats.to_json(),
        }
    if isinstance(response, BatchResult):
        return {
            "results": [response_to_json(sub) for sub in response.results],
            "stats": response.stats.to_json(),
        }
    raise ApiError("internal", f"unserializable response {type(response).__name__}")


def _handle_register(doc: Mapping[str, Any], service: PropagationService) -> dict:
    kind, name = doc.get("kind"), doc.get("name")
    if not isinstance(name, str) or not name:
        raise ApiError("bad-request", "register needs a non-empty string 'name'")
    if kind == "schema":
        service.workspace.add_schema(name, doc["doc"])
    elif kind == "sigma":
        service.workspace.add_sigma(name, doc["doc"])
    elif kind == "view":
        service.workspace.add_view(name, doc["doc"], doc.get("schema", "default"))
    else:
        raise ApiError(
            "bad-request",
            f"unknown register kind {kind!r}; kinds are schema, sigma, view",
        )
    return {"registered": {"kind": kind, "name": name}}


def handle_request(
    doc: Any, service: PropagationService, decoded=None, *, peek: bool = False
) -> dict | Request:
    """Answer one wire document; never raises (errors become documents).
    ``peek=True`` answers a ``check``/``cover`` from warm memory only
    (:meth:`PropagationService.peek`); a miss returns the decoded
    :class:`Request`, which a later call takes as *decoded*."""
    envelope: dict[str, Any] = {}
    if isinstance(doc, Mapping) and "id" in doc:
        envelope["id"] = doc["id"]
    try:
        if not isinstance(doc, Mapping):
            raise ApiError("bad-request", "request must be a JSON object")
        op = doc.get("op")
        envelope["op"] = op if isinstance(op, str) else None
        if peek or op in _QUERY_OPS:
            request = decoded or request_from_json(doc, service)
            response = service.peek(request) if peek else service.submit(request)
            if response is None:
                return request
            result = response_to_json(response)
        elif op == "register":
            result = _handle_register(doc, service)
        elif op == "stats":
            result = {
                "engine": repr(service.stats),
                "counters": {
                    name: value
                    for name, value in asdict(service.stats).items()
                    if not isinstance(value, dict)
                },
                "workspace": service.workspace.names(),
            }
        elif op == "ping":
            result = {"pong": True, "protocol": PROTOCOL_VERSION}
        elif op == "shutdown":
            result = {"stopping": True}
        else:
            raise ApiError("bad-request", f"unknown op {op!r}")
    except Exception as exc:  # noqa: BLE001 - the wire boundary
        error = to_api_error(exc)
        return {**envelope, "ok": False, "error": error.to_json()}
    return {**envelope, "ok": True, "result": result}
