"""URL-addressed endpoints: transports, client SDK, replicas, boundary.

The PR 5 obligations:

1. *Transport differential* — the same registered workspace and the
   Example 4.1 batch yield **identical** verdict and cover documents
   via ``local://``, ``tcp://`` and ``http://`` endpoints (stats equal
   up to wall time).
2. *Ignored legacy fields* — a ``check`` document still carrying the
   retired ``shards`` / ``shard_index`` fields gets the full verdict,
   on the same engine pool as one without them.
3. *Boundary hygiene* — truncated NDJSON, oversized request bodies, bad
   HTTP methods/paths and unknown URL schemes each surface a typed
   :class:`~repro.api.ApiError` (or error document), never a traceback;
   wire-protocol drift warns at ``connect()`` time.

The PR 6 failure matrix (section 4): :class:`~repro.api.RetryPolicy`
backoff semantics and the flaky-transport retry loop; the
``TcpTransport`` broken-socket reset and ``HttpTransport`` gateway-5xx
classification bugfixes; aggregated fleet failures naming every dead
endpoint; kill-a-replica **failover**; and
:class:`~repro.api.ReplicaSet` load balancing + dead-replica rerouting.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import socketserver
import sys
import threading
import time
from dataclasses import fields as dataclass_fields

import pytest

from repro import io as repro_io
from repro.api import (
    ApiError,
    CheckRequest,
    IDEMPOTENT_OPS,
    PROTOCOL_VERSION,
    PropagationService,
    ReplicaSet,
    RequestStats,
    RetryPolicy,
    Transport,
    UpdateSigmaRequest,
    background_server,
    connect,
    is_idempotent,
)
from repro.api import wire
from repro.api.client import ProtocolMismatchWarning
from repro.api.wire import handle_request
from repro.core.fd import FD
from repro.propagation.closure_baseline import (
    example_41_workload,
    exponential_family_schema,
    union_shard_workload,
)
from repro.propagation.engine import PropagationEngine

# ----------------------------------------------------------------------
# Shared workloads.
# ----------------------------------------------------------------------


def _example_41_docs(n: int = 3):
    """The Example 4.1 workload as registerable wire documents."""
    view, sigma, queries = example_41_workload(n, defeat_fast_path=True)
    return {
        "schema": repro_io.schema_to_json(exponential_family_schema(n)),
        "sigma": repro_io.dependencies_to_json(sigma),
        "view": repro_io.view_to_json(view),
        "phis": repro_io.dependencies_to_json(queries),
    }


def _union_docs():
    """The shared 3-branch union workload, as registerable documents."""
    schema, sigma, view, phis = union_shard_workload()
    return {
        "schema": repro_io.schema_to_json(schema),
        "sigma": repro_io.dependencies_to_json(sigma),
        "view": repro_io.view_to_json(view),
        "phis": phis,  # objects: fed to typed CheckRequests
    }


def _scrub(doc):
    """Drop wall-time fields so documents compare across transports."""
    if isinstance(doc, dict):
        return {k: _scrub(v) for k, v in doc.items() if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [_scrub(item) for item in doc]
    return doc


# ----------------------------------------------------------------------
# 1. Transport differential: identical documents on every wire.
# ----------------------------------------------------------------------


def test_local_tcp_http_yield_identical_documents():
    """The acceptance differential: one workspace, three wires, one truth."""
    docs = _example_41_docs(3)
    batch = {
        "op": "batch",
        "requests": [
            {"op": "check", "view": "V", "phis": docs["phis"]},
            {"op": "check", "view": "V", "phis": docs["phis"]},  # warm leg
            {"op": "cover", "view": "V"},
        ],
    }

    def drive(client):
        for kind, name in (("schema", "default"), ("sigma", "default")):
            client.result(
                {"op": "register", "kind": kind, "name": name, "doc": docs[kind]}
            )
        client.result(
            {"op": "register", "kind": "view", "name": "V", "doc": docs["view"]}
        )
        return client.call(dict(batch))

    with connect("local://") as local_client:
        local = drive(local_client)

    with PropagationService() as tcp_service:
        with background_server(tcp_service, "tcp") as url:
            with connect(url) as tcp_client:
                tcp = drive(tcp_client)

    with PropagationService() as http_service:
        with background_server(http_service, "http") as url:
            with connect(url) as http_client:
                http_reply = drive(http_client)

    assert local["ok"] and tcp["ok"] and http_reply["ok"]
    assert _scrub(local) == _scrub(tcp) == _scrub(http_reply)
    # The documents really carry the workload: cold chases, warm memo hits.
    cold, warm, cover = local["result"]["results"]
    assert cold["stats"]["chases"] > 0
    assert warm["stats"]["chases"] == 0
    assert warm["stats"]["memo_hits"] == len(docs["phis"])
    assert cover["cover"]
    # JSON-serializable end to end (local:// skipped the text encoding).
    json.dumps([local, tcp, http_reply])


def test_typed_client_matches_service_answers_over_every_wire():
    docs = _example_41_docs(3)
    request = CheckRequest(
        view="V", targets=repro_io.dependencies_from_json(docs["phis"])
    )
    verdicts = {}
    with connect("local://") as local_client:
        _register_named(local_client, docs, "V")
        verdicts["local"] = local_client.check(request)
    with PropagationService() as service:
        with background_server(service, "tcp") as tcp_url:
            with connect(tcp_url) as tcp_client:
                _register_named(tcp_client, docs, "V")
                verdicts["tcp"] = tcp_client.check(request)
        with background_server(service, "http") as http_url:
            with connect(http_url) as http_client:
                # Same service: the HTTP leg must be answered warm.
                warm = http_client.check(request)
    assert (
        verdicts["local"].propagated
        == verdicts["tcp"].propagated
        == warm.propagated
    )
    assert verdicts["local"].route == verdicts["tcp"].route == warm.route
    assert warm.stats.chases == 0  # tcp leg warmed the shared service


def _register_named(client, docs, view_name: str) -> None:
    client.register_schema("default", docs["schema"])
    client.register_sigma("default", docs["sigma"])
    client.register_view(view_name, docs["view"])


def test_client_reraises_typed_errors_from_any_wire():
    with PropagationService() as service:
        with background_server(service, "http") as url:
            with connect(url) as client:
                with pytest.raises(ApiError) as err:
                    client.check(CheckRequest(view="ghost", targets=[]))
                assert err.value.kind == "not-found"
    with connect("local://") as client:
        with pytest.raises(ApiError) as err:
            client.check(CheckRequest(view="ghost", targets=[]))
        assert err.value.kind == "not-found"


def test_update_sigma_round_trips_typed_over_http():
    docs = _union_docs()
    view_r2 = {
        "name": "VR2",
        "atoms": [{"source": "R2", "prefix": ""}],
        "projection": ["A", "C", "D"],
    }
    phis_r2 = [FD("VR2", ("A",), ("C",)), FD("VR2", ("C",), ("A",))]
    with PropagationService() as service:
        with background_server(service, "http") as url:
            with connect(url) as client:
                _register_named(client, docs, "U")
                client.register_view("VR2", view_r2)
                cold = client.check(CheckRequest(view="U", targets=docs["phis"]))
                assert cold.stats.chases > 0
                before = client.check(CheckRequest(view="VR2", targets=phis_r2))
                update = client.delta_sigma(
                    UpdateSigmaRequest(remove=[FD("R1", ("B",), ("C",))])
                )
                assert update.affected_relations == ["R1"]
                assert update.retained > 0  # the VR2 lines stayed warm
                after = client.check(CheckRequest(view="VR2", targets=phis_r2))
                assert after.propagated == before.propagated
                assert after.stats.chases == 0
                assert after.stats.memo_hits == len(phis_r2)


# ----------------------------------------------------------------------
# 2. Ignored legacy fields.
# ----------------------------------------------------------------------


def test_retired_shard_fields_are_ignored_on_the_wire():
    """A full verdict is a sound answer to a partial-verdict request."""
    docs = _union_docs()
    phis = repro_io.dependencies_to_json(docs["phis"])
    plain = {"op": "check", "view": "U", "phis": phis}
    legacy = {**plain, "shards": 4, "shard_index": 1}
    with PropagationService() as service:
        assert service.pool_key(legacy) == service.pool_key(plain)
        with background_server(service, "tcp") as url:
            with connect(url) as client:
                _register_named(client, docs, "U")
                expected = client.call(plain)
                reply = client.call(legacy)
    assert expected["ok"] and reply["ok"]
    assert reply["result"]["propagated"] == expected["result"]["propagated"]
    assert not all(expected["result"]["propagated"])


# ----------------------------------------------------------------------
# 3. Boundary hygiene: typed errors, never tracebacks.
# ----------------------------------------------------------------------


def test_unknown_scheme_is_a_typed_bad_request():
    with pytest.raises(ApiError) as err:
        connect("ftp://example.org:21")
    assert err.value.kind == "bad-request"
    assert "ftp" in err.value.message and "local" in err.value.message
    with pytest.raises(ApiError) as err:
        connect("not even a url")
    assert err.value.kind == "bad-request"


def test_unreachable_endpoint_is_unavailable_with_exit_code_5():
    with socket.socket() as probe:  # a port nobody listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(ApiError) as err:
        connect(f"tcp://127.0.0.1:{port}")
    assert err.value.kind == "unavailable"
    assert err.value.exit_code == 5


class _ScriptedNdjsonServer(socketserver.ThreadingTCPServer):
    """Replies to each request line from a canned script (then closes)."""

    allow_reuse_address = True

    def __init__(self, script):
        self.script = list(script)

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):
                for reply in self.script:
                    if not handler.rfile.readline():
                        return
                    handler.wfile.write(reply)
                    handler.wfile.flush()

        super().__init__(("127.0.0.1", 0), Handler)


def _scripted(script):
    server = _ScriptedNdjsonServer(script)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"tcp://127.0.0.1:{server.server_address[1]}"
    return server, url


def test_truncated_ndjson_response_is_unavailable_not_a_traceback():
    # The scripted server answers the handshake ping, then drops the
    # connection halfway through the next response (no newline).
    pong = (
        json.dumps(
            {"ok": True, "op": "ping", "result": {"pong": True, "protocol": 1}}
        )
        + "\n"
    ).encode()
    server, url = _scripted([pong, b'{"ok": tru'])
    try:
        client = connect(url)
        with pytest.raises(ApiError) as err:
            client.ping()
        assert err.value.kind == "unavailable"
        assert "truncated" in err.value.message
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_protocol_mismatch_warns_at_connect_time():
    pong = (
        json.dumps(
            {"ok": True, "op": "ping", "result": {"pong": True, "protocol": 99}}
        )
        + "\n"
    ).encode()
    server, url = _scripted([pong])
    try:
        with pytest.warns(ProtocolMismatchWarning, match="protocol 99"):
            client = connect(url)
        assert client.protocol == 99
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_matching_protocol_does_not_warn():
    import warnings

    with PropagationService() as service:
        with background_server(service, "tcp") as url:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ProtocolMismatchWarning)
                client = connect(url)
                assert client.protocol == PROTOCOL_VERSION
                client.close()


def test_oversized_ndjson_request_is_refused_typed_then_closed():
    with PropagationService() as service:
        with background_server(service, "tcp", max_request_bytes=1024) as url:
            host, port = url.removeprefix("tcp://").rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                sock.sendall(
                    b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}\n'
                )
                reply = json.loads(sock.makefile("rb").readline())
            assert not reply["ok"]
            assert reply["error"]["kind"] == "bad-request"
            assert "1024" in reply["error"]["message"]
            # The server survives for fresh connections.
            with connect(url) as client:
                assert client.ping()["pong"] is True


def test_oversized_http_body_is_413_with_typed_document():
    with PropagationService() as service:
        with background_server(service, "http", max_request_bytes=1024) as url:
            host, port = url.removeprefix("http://").rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            conn.request(
                "POST",
                "/v1/check",
                body=json.dumps({"op": "check", "pad": "x" * 4096}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
            conn.close()
            assert response.status == 413
            assert doc["error"]["kind"] == "bad-request"
            with connect(url) as client:  # server still alive
                assert client.ping()["pong"] is True


def test_bad_http_method_and_path_are_typed_documents():
    with PropagationService() as service:
        with background_server(service, "http") as url:
            host, port = url.removeprefix("http://").rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=30)

            conn.request("GET", "/nope")
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 404
            assert doc == {
                "ok": False,
                "error": {
                    "kind": "not-found",
                    "message": "no such route: GET /nope",
                },
            }

            conn.request("DELETE", "/v1/check")
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 405
            assert doc["error"]["kind"] == "bad-request"

            conn.request("POST", "/v1/check", body=b"{nonsense")
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 400
            assert doc["error"]["kind"] == "bad-request"
            conn.close()


def test_http_error_kinds_map_to_status_codes():
    with PropagationService() as service:
        with background_server(service, "http") as url:
            host, port = url.removeprefix("http://").rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            # not-found kind (unregistered view) -> 404 with ok: false.
            conn.request(
                "POST",
                "/v1/check",
                body=json.dumps({"view": "ghost", "phis": []}).encode(),
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 404
            assert doc["error"]["kind"] == "not-found"
            conn.close()


_SETTING_PROBES = [
    ("assume_infinite", "false"),  # truthy: silently the incomplete route
    ("use_cache", "no"),  # truthy: silently a cached engine
    ("max_instantiations", -3),
    ("max_instantiations", True),  # a bool is an int subclass
    ("max_instantiations", "x"),  # used to fail only after pooling an engine
    ("kernel", "turbo"),
]


@pytest.mark.parametrize("name,value", _SETTING_PROBES)
def test_mistyped_engine_settings_are_bad_requests_that_pool_nothing(name, value):
    docs = _example_41_docs(3)
    with PropagationService() as service:
        service.workspace.add_schema("default", docs["schema"])
        service.workspace.add_sigma("default", docs["sigma"])
        service.workspace.add_view("V", docs["view"])
        for op in ("check", "cover", "empty"):
            doc = {"op": op, "view": "V", "phis": docs["phis"], name: value}
            reply = handle_request(doc, service)
            assert reply["ok"] is False, reply
            assert reply["error"]["kind"] == "bad-request"
            assert name in reply["error"]["message"]
            # The server's lock key refuses the same value the same way,
            # so a lock key can never name an engine decode would reject.
            with pytest.raises(ApiError) as err:
                service.pool_key(doc)
            assert err.value.to_json() == reply["error"]
        assert service._engines == {}
        # Well-typed values, null included, are still accepted.
        ok = {"op": "check", "view": "V", "phis": docs["phis"], name: None}
        assert handle_request(ok, service)["ok"]
        assert service.pool_key(ok) in service._engines


def test_local_url_with_an_address_is_rejected():
    with pytest.raises(ApiError) as err:
        connect("local://somewhere")
    assert err.value.kind == "bad-request"


# ----------------------------------------------------------------------
# 4. The failure matrix: retry, reconnection, failover, replicas.
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_retry_policy_delays_are_exponential_and_capped():
    policy = RetryPolicy(retries=4, backoff=0.05, jitter=0.0)
    assert list(policy.delays()) == [0.05, 0.1, 0.2, 0.4]
    capped = RetryPolicy(retries=4, backoff=0.05, max_backoff=0.1, jitter=0.0)
    assert list(capped.delays()) == [0.05, 0.1, 0.1, 0.1]
    jittered = RetryPolicy(retries=50, backoff=0.05, jitter=1.0)
    for base, actual in zip(RetryPolicy(retries=50, jitter=0.0).delays(),
                            jittered.delays()):
        assert base <= actual <= 2.0 * base


def test_retry_policy_rejects_bad_parameters_typed():
    for bad in (
        dict(retries=-1),
        dict(backoff=-0.1),
        dict(jitter=-1.0),
        dict(multiplier=0.5),
    ):
        with pytest.raises(ApiError) as err:
            RetryPolicy(**bad)
        assert err.value.kind == "bad-request"


def test_idempotency_classification_matrix():
    for op in IDEMPOTENT_OPS:
        assert is_idempotent({"op": op})
    assert not is_idempotent({"op": "shutdown"})
    assert not is_idempotent("not a document")
    assert not is_idempotent({"no": "op"})
    # batch recursion: idempotent iff every sub-request is.
    assert is_idempotent(
        {"op": "batch", "requests": [{"op": "check"}, {"op": "update-sigma"}]}
    )
    assert not is_idempotent(
        {"op": "batch", "requests": [{"op": "check"}, {"op": "shutdown"}]}
    )
    assert not is_idempotent({"op": "batch", "requests": "garbage"})


class _FlakyTransport(Transport):
    """Fails the first *failures* attempts, then answers ok."""

    def __init__(self, failures: int, kind: str = "unavailable", retry=None):
        self.retry = retry
        self.calls = 0
        self._failures = failures
        self._kind = kind

    def _request_once(self, doc):
        self.calls += 1
        if self.calls <= self._failures:
            raise ApiError(self._kind, f"flaky failure #{self.calls}")
        return {"ok": True, "op": doc.get("op"), "result": {}}


@pytest.fixture
def recorded_sleeps(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(
        "repro.api.transport.time.sleep", lambda delay: sleeps.append(delay)
    )
    return sleeps


def test_retry_absorbs_transient_unavailable_failures(recorded_sleeps):
    policy = RetryPolicy(retries=2, backoff=0.05, jitter=0.0)
    flaky = _FlakyTransport(failures=2, retry=policy)
    assert flaky.request({"op": "ping"})["ok"] is True
    assert flaky.calls == 3
    assert recorded_sleeps == [0.05, 0.1]


def test_retry_exhaustion_reraises_the_last_unavailable(recorded_sleeps):
    policy = RetryPolicy(retries=2, backoff=0.05, jitter=0.0)
    flaky = _FlakyTransport(failures=10, retry=policy)
    with pytest.raises(ApiError) as err:
        flaky.request({"op": "ping"})
    assert err.value.kind == "unavailable"
    assert flaky.calls == 3  # the first attempt + the 2 retries, no more
    assert recorded_sleeps == [0.05, 0.1]


def test_retry_never_resends_non_idempotent_ops(recorded_sleeps):
    policy = RetryPolicy(retries=3, backoff=0.05, jitter=0.0)
    flaky = _FlakyTransport(failures=1, retry=policy)
    with pytest.raises(ApiError):
        flaky.request({"op": "shutdown"})
    assert flaky.calls == 1
    assert recorded_sleeps == []


def test_retry_never_resends_on_service_level_errors(recorded_sleeps):
    policy = RetryPolicy(retries=3, backoff=0.05, jitter=0.0)
    flaky = _FlakyTransport(failures=1, kind="not-found", retry=policy)
    with pytest.raises(ApiError) as err:
        flaky.request({"op": "check"})
    assert err.value.kind == "not-found"
    assert flaky.calls == 1
    assert recorded_sleeps == []


def test_no_policy_means_fail_fast(recorded_sleeps):
    flaky = _FlakyTransport(failures=1)
    with pytest.raises(ApiError):
        flaky.request({"op": "ping"})
    assert flaky.calls == 1
    assert recorded_sleeps == []


class _OneReplyPerConnectionServer(socketserver.ThreadingTCPServer):
    """Each connection serves ONE scripted reply, then closes.

    Models a server that keeps crashing between requests: a client that
    leaves its broken socket in place after the drop can never reach the
    recovered endpoint, while one that resets and reconnects can.
    """

    allow_reuse_address = True

    def __init__(self, replies):
        self.replies = list(replies)
        self.replies_guard = threading.Lock()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):
                if not handler.rfile.readline():
                    return
                with outer.replies_guard:
                    reply = outer.replies.pop(0) if outer.replies else b""
                if reply:
                    handler.wfile.write(reply)
                    handler.wfile.flush()

        super().__init__(("127.0.0.1", 0), Handler)


def _one_shot(replies):
    server = _OneReplyPerConnectionServer(replies)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"tcp://127.0.0.1:{server.server_address[1]}"


_PONG = (
    json.dumps(
        {"ok": True, "op": "ping", "result": {"pong": True, "protocol": 1}}
    )
    + "\n"
).encode()


def test_tcp_transport_reconnects_after_a_broken_connection():
    """The satellite bugfix: a socket error must not poison the transport."""
    server, url = _one_shot([_PONG, _PONG])
    try:
        client = connect(url)  # handshake eats reply 1, server drops the conn
        with pytest.raises(ApiError) as err:
            client.ping()  # the established socket is dead
        assert err.value.kind == "unavailable"
        # Pre-fix this kept failing forever on the same broken file object;
        # now the transport reset and this reconnects to the recovered server.
        assert client.ping()["pong"] is True
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_retry_masks_a_connection_drop_between_requests():
    server, url = _one_shot([_PONG, _PONG, _PONG])
    try:
        client = connect(url, retry=RetryPolicy(retries=2, backoff=0.001, jitter=0.0))
        assert client.ping()["pong"] is True  # dead socket -> retry reconnects
        assert client.ping()["pong"] is True
        client.close()
    finally:
        server.shutdown()
        server.server_close()


class _CannedHttpServer(socketserver.ThreadingTCPServer):
    """Each connection answers with the next canned raw HTTP response."""

    allow_reuse_address = True

    def __init__(self, responses):
        self.responses = list(responses)
        self.responses_guard = threading.Lock()
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(handler):
                handler.request.settimeout(10)
                try:
                    if not handler.request.recv(65536):
                        return
                except OSError:  # pragma: no cover - client vanished
                    return
                with outer.responses_guard:
                    payload = outer.responses.pop(0) if outer.responses else b""
                if payload:
                    handler.request.sendall(payload)

        super().__init__(("127.0.0.1", 0), Handler)


def _canned_http(responses):
    server = _CannedHttpServer(responses)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _http_payload(status_line, body, content_type="application/json"):
    return (
        f"HTTP/1.1 {status_line}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + body


_HTTP_PONG = _http_payload(
    "200 OK",
    json.dumps(
        {"ok": True, "op": "ping", "result": {"pong": True, "protocol": 1}}
    ).encode(),
)
_HTTP_502 = _http_payload(
    "502 Bad Gateway", b"<html>upstream dead</html>", content_type="text/html"
)


def test_http_gateway_5xx_html_is_unavailable_not_internal():
    """The satellite bugfix: a 502 error page is a retryable outage."""
    garbage_200 = _http_payload("200 OK", b"surprise, not json")
    server, url = _canned_http([_HTTP_PONG, _HTTP_502, garbage_200])
    try:
        client = connect(url)
        with pytest.raises(ApiError) as err:
            client.ping()
        assert err.value.kind == "unavailable"
        assert "502" in err.value.message
        # ... while a non-JSON body behind a 2xx status stays `internal`:
        # the endpoint itself answered, with protocol garbage.
        with pytest.raises(ApiError) as err:
            client.ping()
        assert err.value.kind == "internal"
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_http_retry_rides_through_a_gateway_502():
    server, url = _canned_http([_HTTP_PONG, _HTTP_502, _HTTP_PONG])
    try:
        client = connect(url, retry=RetryPolicy(retries=1, backoff=0.001, jitter=0.0))
        assert client.ping()["pong"] is True  # 502 absorbed by one retry
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_fan_out_aggregates_every_worker_failure():
    """The satellite bugfix: sibling failures are named, not discarded."""
    dead_urls = [f"tcp://127.0.0.1:{_free_port()}" for _ in range(2)]
    workers = [connect("local://")] + [
        connect(url, handshake=False) for url in dead_urls
    ]
    try:
        with ReplicaSet(workers) as replicas:
            with pytest.raises(ApiError) as err:
                replicas.ping()
            assert err.value.kind == "unavailable"
            assert "2/3 workers failed" in err.value.message
            for url in dead_urls:  # every dead endpoint is named
                assert url in err.value.message
            assert [entry["alive"] for entry in replicas.health()] == [
                True,
                False,
                False,
            ]
            assert replicas.live_workers() == [0]
            assert replicas.failovers == 2
    finally:
        for worker in workers:
            worker.close()


def test_aggregate_prefers_service_level_error_kinds():
    with ReplicaSet(["local://", "local://"]) as replicas:
        error = replicas._aggregate(
            [
                (0, ApiError("unavailable", "connection refused")),
                (1, ApiError("not-found", "no view 'ghost'")),
            ]
        )
    assert error.kind == "not-found"  # the request is wrong, not the fleet
    assert "2/2 workers failed" in error.message
    assert "connection refused" in error.message


def test_replica_failover_after_a_worker_dies():
    """Kill 1 of 2 replicas: health probes see it, checks still land."""
    docs = _union_docs()
    with connect("local://") as reference:
        _register_named(reference, docs, "U")
        expected = reference.check(CheckRequest(view="U", targets=docs["phis"]))

    with PropagationService() as worker1, PropagationService() as worker2:
        with background_server(worker1, "tcp") as url1:
            with background_server(worker2, "tcp") as url2:
                with ReplicaSet([url1, url2]) as replicas:
                    replicas.register_schema("default", docs["schema"])
                    replicas.register_sigma("default", docs["sigma"])
                    replicas.register_view("U", docs["view"])
                    cold = replicas.check(
                        CheckRequest(view="U", targets=docs["phis"])
                    )
                    assert cold.propagated == expected.propagated

                    with connect(url2, handshake=False) as killer:
                        killer.shutdown()
                    # Ping-driven liveness: the health probe detects the
                    # death (polling rides out the shutdown's last gasp).
                    deadline = time.time() + 30
                    while replicas.check_health()[1]["alive"]:
                        assert time.time() < deadline, "worker never died"
                        time.sleep(0.05)
                    assert replicas.live_workers() == [0]
                    assert replicas.failovers >= 1

                    for _ in range(2):  # every request lands on the survivor
                        recovered = replicas.check(
                            CheckRequest(view="U", targets=docs["phis"])
                        )
                        assert recovered.propagated == expected.propagated

                    # mark_alive puts it back in rotation; the next
                    # health probe re-detects the corpse.
                    replicas.mark_alive(1)
                    assert replicas.live_workers() == [0, 1]
                    health = replicas.check_health()
                    assert [entry["alive"] for entry in health] == [True, False]


def test_replica_set_load_balances_round_robin():
    docs = _union_docs()
    with PropagationService() as svc1, PropagationService() as svc2:
        with connect("local://", service=svc1) as c1:
            with connect("local://", service=svc2) as c2:
                with ReplicaSet([c1, c2]) as replicas:
                    replicas.register_schema("default", docs["schema"])
                    replicas.register_sigma("default", docs["sigma"])
                    replicas.register_view("U", docs["view"])
                    request = CheckRequest(view="U", targets=docs["phis"])
                    first = replicas.check(request)
                    second = replicas.check(request)
                    third = replicas.check(request)
    assert first.propagated == second.propagated == third.propagated
    # Round-robin: the second identical check hit the OTHER replica, so
    # it also ran cold; the third wrapped around to the now-warm first.
    assert first.stats.chases > 0
    assert second.stats.chases > 0
    assert third.stats.chases == 0


def test_replica_set_reroutes_around_a_dead_replica():
    docs = _union_docs()
    dead = connect(f"tcp://127.0.0.1:{_free_port()}", handshake=False)
    live = connect("local://")
    try:
        _register_named(live, docs, "U")
        expected = live.check(CheckRequest(view="U", targets=docs["phis"]))
        with ReplicaSet([dead, live]) as replicas:
            verdict = replicas.check(CheckRequest(view="U", targets=docs["phis"]))
            assert verdict.propagated == expected.propagated
            assert replicas.failovers == 1
            assert replicas.live_workers() == [1]
            again = replicas.check(CheckRequest(view="U", targets=docs["phis"]))
            assert again.propagated == expected.propagated
            assert replicas.failovers == 1  # dead one skipped, not re-probed
    finally:
        dead.close()
        live.close()


def test_replica_set_with_every_replica_dead_raises_the_aggregate():
    workers = [
        connect(f"tcp://127.0.0.1:{_free_port()}", handshake=False)
        for _ in range(2)
    ]
    try:
        with ReplicaSet(workers) as replicas:
            with pytest.raises(ApiError) as err:
                replicas.check(CheckRequest(view="U", targets=[]))
            assert err.value.kind == "unavailable"
            assert "2/2 workers failed" in err.value.message
            # Once the book says everyone is dead, the error is immediate.
            with pytest.raises(ApiError) as err:
                replicas.stats()
            assert "no live replicas" in err.value.message
    finally:
        for worker in workers:
            worker.close()


def test_replica_set_reraises_service_errors_without_failover():
    with ReplicaSet(["local://", "local://"]) as replicas:
        with pytest.raises(ApiError) as err:
            replicas.check(CheckRequest(view="ghost", targets=[]))
        assert err.value.kind == "not-found"
        # The replica answered; rerouting cannot change the answer.
        assert replicas.failovers == 0
        assert replicas.live_workers() == [0, 1]
    with pytest.raises(ApiError):
        ReplicaSet([])


def test_request_stats_total_sums_every_counter_field():
    """The satellite drift guard: no RequestStats counter is dropped."""
    ones = RequestStats(**{f.name: 1 for f in dataclass_fields(RequestStats)})
    twos = RequestStats(**{f.name: 2 for f in dataclass_fields(RequestStats)})
    total = RequestStats.total([ones, twos], elapsed_ms=7.0)
    assert total.elapsed_ms == 7.0
    for field in dataclass_fields(RequestStats):
        if field.name != "elapsed_ms":
            assert getattr(total, field.name) == 3, field.name


def test_server_ping_advertises_uptime_and_served_count():
    with PropagationService() as service:
        with background_server(service, "tcp") as url:
            with connect(url) as client:
                pong = client.ping()
                assert pong["uptime_s"] >= 0
                assert pong["requests_served"] >= 2  # the handshake + this


# ----------------------------------------------------------------------
# 5. Warm hits answered on the event loop (no executor hop).
# ----------------------------------------------------------------------


@pytest.fixture
def executor_jobs(monkeypatch):
    """Every wire document the server hands to a worker thread."""
    jobs = []
    original = asyncio.base_events.BaseEventLoop.run_in_executor

    def counting(self, executor, func, *args):
        if func is handle_request:
            jobs.append(args[0])
        return original(self, executor, func, *args)

    monkeypatch.setattr(
        asyncio.base_events.BaseEventLoop, "run_in_executor", counting
    )
    return jobs


def _hops(client, jobs, doc) -> tuple[dict, int]:
    """*doc*'s reply, and how many worker-thread jobs it took."""
    before = len(jobs)
    reply = client.call(dict(doc))
    return reply, len(jobs) - before


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_warm_hits_skip_the_executor_with_identical_documents(
    transport, executor_jobs
):
    docs = _example_41_docs(3)
    check = {"id": 7, "op": "check", "view": "V", "phis": docs["phis"]}
    cover = {"id": 8, "op": "cover", "view": "V"}
    with PropagationService() as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(client, docs, "V")
                for doc in (check, cover):
                    cold, hops = _hops(client, executor_jobs, doc)
                    assert hops == 1 and cold["ok"]
                    hit, hops = _hops(client, executor_jobs, doc)
                    assert hops == 0, doc["op"]
                    assert hit["result"]["stats"]["chases"] == 0
                    assert hit["result"]["stats"]["memo_hits"] >= 1
                    # What the worker thread would have answered for the
                    # same warm hit: equal up to wall time.
                    assert _scrub(hit) == _scrub(handle_request(dict(doc), service))
                pong, hops = _hops(client, executor_jobs, {"op": "ping"})
                assert hops == 0
                # Inline answers are counted: handshake ping, 3
                # registrations, 2 x (cold, hit), this ping.
                assert pong["result"]["requests_served"] == 9


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_anything_but_a_memory_hit_takes_the_executor(
    transport, executor_jobs, tmp_path
):
    docs = _example_41_docs(3)
    check = {"op": "check", "view": "V", "phis": docs["phis"]}
    with PropagationService(cache_dir=str(tmp_path)) as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(client, docs, "V")
                cases = [
                    ({**check, "phis": docs["phis"][:1]}, 1),  # memory miss
                    (check, 1),  # memory miss
                    (check, 0),  # memory hit
                    ({**check, "witness": True}, 1),
                    ({**check, "kernel": "baseline"}, 1),  # no engine yet
                    ({**check, "use_cache": False}, 1),  # never a memory tier
                    ({**check, "use_cache": False}, 1),
                    ({"op": "empty", "view": "V"}, 1),
                    # Inline documents are never parsed on the loop, even
                    # when memory holds the answer.
                    ({**check, "sigma": docs["sigma"]}, 1),
                    ({**check, "view": docs["view"]}, 1),
                ]
                for doc, expected in cases:
                    reply, hops = _hops(client, executor_jobs, doc)
                    assert hops == expected, doc
                    assert reply["ok"], reply
                # An error the loop finds is the answer: the worker
                # thread would find the same one.
                reply, hops = _hops(client, executor_jobs, {**check, "view": "ghost"})
                assert hops == 0
                assert reply["error"]["kind"] == "not-found"
                # A persistent-tier-only hit: the store answers, on a
                # worker thread, and promotes the line into memory.
                service.engine.clear()
                reply, hops = _hops(client, executor_jobs, check)
                assert hops == 1
                assert reply["result"]["stats"]["persistent_hits"] == len(
                    docs["phis"]
                )
                reply, hops = _hops(client, executor_jobs, check)
                assert hops == 0
                assert reply["result"]["stats"]["persistent_hits"] == 0


class _StallingService(PropagationService):
    """Stalls witness checks and Sigma updates until released."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _stall(self):
        self.entered.set()
        assert self.release.wait(timeout=30), "never released"

    def check(self, request):
        if request.witness:
            self._stall()
        return super().check(request)

    def delta_sigma(self, request):
        self._stall()
        return super().delta_sigma(request)


def _in_thread(url, doc):
    """Send *doc* on its own connection from a thread; a future of its reply."""
    done = {}

    def run():
        with connect(url) as client:
            done["reply"] = client.call(doc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, done


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_a_busy_pool_queues_its_hits_while_other_pools_answer_inline(
    transport, executor_jobs
):
    docs = _example_41_docs(3)
    check_a = {"op": "check", "view": "V", "phis": docs["phis"]}
    check_b = {**check_a, "kernel": "baseline"}  # another engine pool
    with _StallingService() as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(client, docs, "V")
                warm = [client.call(dict(doc)) for doc in (check_a, check_b)]
                slow, _ = _in_thread(url, {**check_a, "witness": True})
                assert service.entered.wait(timeout=30)
                waiting, waited = _in_thread(url, check_a)
                reply, hops = _hops(client, executor_jobs, check_b)
                assert hops == 0
                assert reply["result"]["propagated"] == warm[1]["result"]["propagated"]
                assert client.ping()["pong"] is True
                waiting.join(timeout=0.3)
                assert waiting.is_alive(), "a hit jumped a busy pool's lock"
                before = len(executor_jobs)
                service.release.set()
                slow.join(timeout=30)
                waiting.join(timeout=30)
                assert waited["reply"]["result"] == {
                    **warm[0]["result"],
                    "stats": waited["reply"]["result"]["stats"],
                }
                # It waited for the lock, then took the worker thread.
                assert check_a in executor_jobs[before - 1 :]


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_hits_wait_for_a_sigma_update_then_see_the_new_sigma(
    transport, executor_jobs
):
    schema = {"relations": [{"name": "R", "attributes": ["A", "B", "C", "D"]}]}
    b_to_c = {"kind": "fd", "relation": "R", "lhs": ["B"], "rhs": ["C"]}
    sigma = [{"kind": "fd", "relation": "R", "lhs": ["A"], "rhs": ["B"]}, b_to_c]
    view = {
        "name": "V",
        "atoms": [{"source": "R", "prefix": ""}],
        "projection": ["A", "C", "D"],
    }
    a_to_c = [{"kind": "fd", "relation": "V", "lhs": ["A"], "rhs": ["C"]}]
    check = {"op": "check", "view": "V", "phis": a_to_c}
    with _StallingService() as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(
                    client, {"schema": schema, "sigma": sigma, "view": view}, "V"
                )
                # Warmed in-process, so the server holds no lock for this
                # pool yet: only the mutation guard can hold the hit back.
                assert handle_request(dict(check), service)["result"][
                    "propagated"
                ] == [True]
                assert client.call(dict(check))["result"]["propagated"] == [True]
                update, _ = _in_thread(
                    url, {"op": "update-sigma", "remove": [b_to_c]}
                )
                assert service.entered.wait(timeout=30)
                hit, answered = _in_thread(url, check)
                hit.join(timeout=0.3)
                assert hit.is_alive(), "a hit ran during a workspace mutation"
                assert client.ping()["pong"] is True  # lockless, still inline
                service.release.set()
                update.join(timeout=30)
                hit.join(timeout=30)
                assert answered["reply"]["result"]["propagated"] == [False]
                assert check in executor_jobs  # the new key missed memory


def test_inline_hits_and_worker_jobs_never_share_an_engine():
    """Stress: 6 clients mix inline hits with witness checks (always a
    worker thread, on the same engines) across two pools.  Were a hit
    ever answered while a worker used its engine, the worker's stats
    delta would count the hit's memo hits too (and the unlocked
    ``check_queries += n`` ticks could lose updates); every verdict
    must also equal the reference."""
    docs = _example_41_docs(3)
    phis = docs["phis"]
    pools = [{}, {"kernel": "baseline"}]
    with connect("local://") as reference:
        _register_named(reference, docs, "V")
        expected = reference.call({"op": "check", "view": "V", "phis": phis})
    truth = expected["result"]["propagated"]
    sent = [0, 0]
    sent_guard = threading.Lock()
    failures = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PropagationService() as service:
            with background_server(service, "tcp") as url:

                def client_loop(seed: int) -> None:
                    with connect(url) as client:
                        for step in range(60):
                            pool = (seed + step) % 2
                            lo = (seed * 7 + step) % len(phis)
                            doc = {
                                "op": "check",
                                "view": "V",
                                "phis": phis[lo:] + phis[:lo],
                                "witness": step % 3 == 0,
                                **pools[pool],
                            }
                            result = client.call(doc)["result"]
                            if (
                                result["propagated"] != truth[lo:] + truth[:lo]
                                or result["stats"]["memo_hits"] > len(phis)
                            ):
                                failures.append(result)
                            with sent_guard:
                                sent[pool] += len(phis)

                with connect(url) as client:
                    _register_named(client, docs, "V")
                threads = [
                    threading.Thread(target=client_loop, args=(seed,))
                    for seed in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                for pool, settings in enumerate(pools):
                    engine = service._engines[service.pool_key(settings)]
                    assert engine.stats.check_queries == sent[pool]
    finally:
        sys.setswitchinterval(previous)
    assert not failures


@pytest.fixture
def decodes(monkeypatch):
    """Every request decode, with whether it ran on the event loop."""
    seen = []
    original = wire.request_from_json

    def recording(doc, service):
        try:
            asyncio.get_running_loop()
            seen.append(("loop", doc["op"]))
        except RuntimeError:
            seen.append(("worker", doc["op"]))
        return original(doc, service)

    monkeypatch.setattr(wire, "request_from_json", recording)
    return seen


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_a_miss_is_decoded_once_and_inline_documents_off_the_loop(
    transport, executor_jobs, decodes
):
    docs = _example_41_docs(3)
    check = {"op": "check", "view": "V", "phis": docs["phis"]}
    with PropagationService() as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(client, docs, "V")
                reply, hops = _hops(client, executor_jobs, check)
                assert reply["ok"] and hops == 1
                # Peeked on the loop, then answered by the worker thread
                # from the request the peek decoded.
                assert decodes == [("loop", "check")]
                for inline in (
                    {**check, "phis": docs["phis"][:1], "sigma": docs["sigma"]},
                    {"op": "cover", "view": docs["view"]},
                ):
                    decodes.clear()
                    reply, hops = _hops(client, executor_jobs, inline)
                    assert reply["ok"] and hops == 1
                    assert decodes == [("worker", inline["op"])]


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_a_defect_on_the_inline_path_is_reported_not_hidden(
    transport, executor_jobs, monkeypatch
):
    docs = _example_41_docs(3)
    check = {"op": "check", "view": "V", "phis": docs["phis"]}
    with PropagationService() as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(client, docs, "V")
                assert client.call(dict(check))["ok"]

                def broken(self, *args, **kwargs):
                    raise RuntimeError("peek is broken")

                # The loop-side check peek is the engine's `_decide`.
                monkeypatch.setattr(PropagationEngine, "_decide", broken)
                reply, hops = _hops(client, executor_jobs, check)
                assert hops == 0
                assert reply["error"]["kind"] == "internal"
                assert "peek is broken" in reply["error"]["message"]


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_shutdown_waits_for_a_running_sigma_update_to_reply(transport):
    docs = _example_41_docs(3)
    with _StallingService() as service:
        with background_server(service, transport) as url:
            with connect(url) as client:
                _register_named(client, docs, "V")
            update, updated = _in_thread(
                url, {"op": "update-sigma", "remove": docs["sigma"][:1]}
            )
            assert service.entered.wait(timeout=30)
            stop, stopped = _in_thread(url, {"op": "shutdown"})
            stop.join(timeout=0.3)
            assert stop.is_alive(), "shutdown overtook a running mutation"
            service.release.set()
            update.join(timeout=30)
            stop.join(timeout=30)
            assert updated["reply"]["ok"], updated
            assert updated["reply"]["result"]["size"] == len(docs["sigma"]) - 1
            assert stopped["reply"]["result"] == {"stopping": True}
