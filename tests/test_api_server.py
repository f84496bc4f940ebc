"""The asyncio server: in-process TCP round trips and a real subprocess.

Two layers of evidence:

1. *In-process TCP* — an asyncio client drives a
   :class:`repro.api.PropagationServer` over a real socket inside one
   event loop: register, check, cover, empty, batch, stats, protocol
   errors, shutdown.
2. *End-to-end subprocess* — ``repro serve`` launched exactly as a user
   would, answering the Example 4.1 batch over stdio.  The acceptance
   assertion lives here: the **second** identical batch is served from
   the warm engine with **zero chases**, and the verdicts match the
   in-process service answers.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import io as repro_io
from repro.api import (
    CheckRequest,
    PROTOCOL_VERSION,
    PropagationServer,
    PropagationService,
    Workspace,
)
from repro.propagation.closure_baseline import (
    example_41_workload,
    exponential_family_schema,
)

_SRC = str(Path(__file__).resolve().parent.parent / "src")

SCHEMA_DOC = {"relations": [{"name": "R", "attributes": ["A", "B", "C", "D"]}]}
SIGMA_DOC = [
    {"kind": "fd", "relation": "R", "lhs": ["A"], "rhs": ["B"]},
    {"kind": "fd", "relation": "R", "lhs": ["B"], "rhs": ["C"]},
]
VIEW_DOC = {
    "name": "V",
    "atoms": [{"source": "R", "prefix": ""}],
    "projection": ["A", "C", "D"],
}
PHI_DOCS = [
    {"kind": "fd", "relation": "V", "lhs": ["A"], "rhs": ["C"]},
    {"kind": "fd", "relation": "V", "lhs": ["C"], "rhs": ["A"]},
]


# ----------------------------------------------------------------------
# In-process asyncio TCP.
# ----------------------------------------------------------------------


class _TcpClient:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    async def call(self, doc: dict) -> dict:
        self.writer.write((json.dumps(doc) + "\n").encode())
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        return json.loads(line)


async def _with_tcp_server(scenario):
    with PropagationService(Workspace()) as service:
        server = PropagationServer(service)
        tcp = await asyncio.start_server(server.handle_connection, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await scenario(_TcpClient(reader, writer), service)
        finally:
            writer.close()
            tcp.close()
            await tcp.wait_closed()


def test_tcp_round_trip_matches_in_process_answers():
    async def scenario(client, service):
        pong = (await client.call({"id": 0, "op": "ping"}))["result"]
        assert pong["pong"] is True
        assert pong["protocol"] == PROTOCOL_VERSION
        for kind, name, doc in [
            ("schema", "default", SCHEMA_DOC),
            ("sigma", "default", SIGMA_DOC),
            ("view", "V", VIEW_DOC),
        ]:
            reply = await client.call(
                {"id": 1, "op": "register", "kind": kind, "name": name, "doc": doc}
            )
            assert reply["ok"], reply

        reply = await client.call(
            {"id": 2, "op": "check", "view": "V", "phis": PHI_DOCS}
        )
        assert reply["ok"] and reply["id"] == 2
        expected = service.check(
            CheckRequest(
                view="V", targets=repro_io.dependencies_from_json(PHI_DOCS)
            )
        )
        assert reply["result"]["propagated"] == expected.propagated == [True, False]
        assert reply["result"]["route"] == expected.route

        reply = await client.call({"id": 3, "op": "cover", "view": "V"})
        assert reply["ok"]
        assert reply["result"]["cover"]  # nonempty dependency documents

        reply = await client.call({"id": 4, "op": "empty", "view": "V"})
        assert reply["ok"] and reply["result"]["empty"] is False

        reply = await client.call(
            {
                "id": 5,
                "op": "batch",
                "requests": [
                    {"op": "check", "view": "V", "phis": PHI_DOCS},
                    {"op": "empty", "view": "V"},
                ],
            }
        )
        assert reply["ok"]
        assert reply["result"]["results"][0]["propagated"] == [True, False]
        assert reply["result"]["results"][0]["stats"]["memo_hits"] == 2  # warm

        reply = await client.call({"id": 6, "op": "stats"})
        assert "EngineStats" in reply["result"]["engine"]
        assert reply["result"]["workspace"]["views"] == ["V"]

    asyncio.run(_with_tcp_server(scenario))


def test_tcp_protocol_errors_are_documents_not_disconnects():
    async def scenario(client, service):
        reply = await client.call({"id": 9, "op": "no-such-op"})
        assert reply == {
            "id": 9,
            "op": "no-such-op",
            "ok": False,
            "error": {"kind": "bad-request", "message": "unknown op 'no-such-op'"},
        }

        reply = await client.call({"id": 10, "op": "check", "view": "ghost"})
        assert not reply["ok"]
        assert reply["error"]["kind"] == "not-found"

        # Invalid JSON: the connection survives and answers the next call.
        client.writer.write(b"{nonsense\n")
        await client.writer.drain()
        line = await asyncio.wait_for(client.reader.readline(), timeout=30)
        broken = json.loads(line)
        assert not broken["ok"] and broken["error"]["kind"] == "bad-request"
        assert (await client.call({"op": "ping"}))["ok"]

        # Malformed dependency documents map to the format kind.
        reply = await client.call(
            {
                "op": "register",
                "kind": "sigma",
                "name": "bad",
                "doc": [{"kind": "who-knows"}],
            }
        )
        assert not reply["ok"] and reply["error"]["kind"] == "format"

    asyncio.run(_with_tcp_server(scenario))


def test_inline_view_and_sigma_documents():
    async def scenario(client, service):
        await client.call(
            {"op": "register", "kind": "schema", "name": "default", "doc": SCHEMA_DOC}
        )
        reply = await client.call(
            {
                "op": "check",
                "view": VIEW_DOC,  # inline, parsed against the named schema
                "sigma": SIGMA_DOC,  # inline dependency list
                "phis": PHI_DOCS,
            }
        )
        assert reply["ok"], reply
        assert reply["result"]["propagated"] == [True, False]

    asyncio.run(_with_tcp_server(scenario))


# ----------------------------------------------------------------------
# End-to-end: the real CLI subprocess over stdio.
# ----------------------------------------------------------------------


def _serve_files(tmp_path: Path, n: int) -> tuple[list[str], list[dict]]:
    """Write the Example 4.1 workload files; returns (args, phi docs)."""
    view, sigma, queries = example_41_workload(n, defeat_fast_path=True)
    paths = {
        "schema": tmp_path / "schema.json",
        "sigma": tmp_path / "sigma.json",
        "view": tmp_path / "view.json",
    }
    repro_io.dump_json(
        repro_io.schema_to_json(exponential_family_schema(n)), paths["schema"]
    )
    repro_io.dump_json(repro_io.dependencies_to_json(sigma), paths["sigma"])
    repro_io.dump_json(repro_io.spc_view_to_json(view), paths["view"])
    args = [
        "--schema", str(paths["schema"]),
        "--sigma", str(paths["sigma"]),
        "--view", str(paths["view"]),
    ]
    return args, repro_io.dependencies_to_json(queries)


def _run_serve(args: list[str], request_lines: list[dict], timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    payload = "\n".join(json.dumps(doc) for doc in request_lines) + "\n"
    out, err = proc.communicate(payload, timeout=timeout)
    assert proc.returncode == 0, err
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_serve_answers_warm_example_41_batch_with_zero_chases(tmp_path):
    """The acceptance experiment: one warm engine across repeated batches."""
    args, phis = _serve_files(tmp_path, 3)
    batch = {"op": "check", "view": "V", "phis": phis}
    replies = _run_serve(
        args,
        [
            {"id": "cold", **batch},
            {"id": "warm", **batch},
            {"id": "bye", "op": "shutdown"},
        ],
    )
    cold, warm, bye = replies
    assert cold["ok"] and warm["ok"] and bye["ok"]

    # The in-process service is the oracle for the verdicts.
    view, sigma, queries = example_41_workload(3, defeat_fast_path=True)
    workspace = Workspace()
    workspace.add_view("V", view)
    workspace.add_sigma("default", sigma)
    with PropagationService(workspace) as service:
        expected = service.check(CheckRequest(view="V", targets=queries))
    assert cold["result"]["propagated"] == expected.propagated
    assert warm["result"]["propagated"] == expected.propagated

    assert cold["result"]["stats"]["chases"] > 0
    assert warm["result"]["stats"]["chases"] == 0  # the warm leg
    assert warm["result"]["stats"]["memo_hits"] == len(phis)


# ----------------------------------------------------------------------
# Per-engine-pool locks: different settings no longer serialize.
# ----------------------------------------------------------------------


def test_requests_on_different_engine_pools_run_concurrently():
    """A request stalled on one engine pool must not block requests
    routed to another pool (the old single request-granularity lock
    would deadlock this scenario; per-pool locks let the default-pool
    request finish while the no-cache pool is stuck)."""
    import threading

    release = threading.Event()
    entered = threading.Event()

    class StallingService(PropagationService):
        def check(self, request):
            if request.use_cache is False:  # the slow pool
                entered.set()
                assert release.wait(timeout=30), "never released"
            return super().check(request)

    async def scenario():
        with StallingService(Workspace()) as service:
            for kind, name, doc in [
                ("schema", "default", SCHEMA_DOC),
                ("sigma", "default", SIGMA_DOC),
                ("view", "V", VIEW_DOC),
            ]:
                getattr(service.workspace, f"add_{kind}")(name, doc)
            server = PropagationServer(service)
            tcp = await asyncio.start_server(
                server.handle_connection, "127.0.0.1", 0
            )
            port = tcp.sockets[0].getsockname()[1]
            slow = _TcpClient(*await asyncio.open_connection("127.0.0.1", port))
            fast = _TcpClient(*await asyncio.open_connection("127.0.0.1", port))
            try:
                # The slow request enters its pool and stalls there.
                slow.writer.write(
                    (
                        json.dumps(
                            {
                                "id": "slow",
                                "op": "check",
                                "view": "V",
                                "phis": PHI_DOCS,
                                "use_cache": False,
                            }
                        )
                        + "\n"
                    ).encode()
                )
                await slow.writer.drain()
                await asyncio.get_running_loop().run_in_executor(
                    None, entered.wait, 30
                )
                assert entered.is_set()

                # A default-pool request completes while the other pool
                # is still stuck — the per-pool locks at work.
                reply = await asyncio.wait_for(
                    fast.call(
                        {"id": "fast", "op": "check", "view": "V", "phis": PHI_DOCS}
                    ),
                    timeout=30,
                )
                assert reply["ok"] and reply["id"] == "fast"
                assert not release.is_set()

                release.set()
                line = await asyncio.wait_for(slow.reader.readline(), timeout=30)
                stalled = json.loads(line)
                assert stalled["ok"] and stalled["id"] == "slow"
                assert stalled["result"]["propagated"] == reply["result"]["propagated"]
            finally:
                release.set()
                slow.writer.close()
                fast.writer.close()
                tcp.close()
                await tcp.wait_closed()

    asyncio.run(scenario())


def test_workspace_mutations_are_exclusive_across_pools():
    """register waits for in-flight requests on *every* pool and blocks
    new ones, so a mutation never interleaves with a running query."""
    import threading

    release = threading.Event()
    entered = threading.Event()

    class StallingService(PropagationService):
        def check(self, request):
            if request.use_cache is False:
                entered.set()
                assert release.wait(timeout=30), "never released"
            return super().check(request)

    async def scenario():
        with StallingService(Workspace()) as service:
            for kind, name, doc in [
                ("schema", "default", SCHEMA_DOC),
                ("sigma", "default", SIGMA_DOC),
                ("view", "V", VIEW_DOC),
            ]:
                getattr(service.workspace, f"add_{kind}")(name, doc)
            server = PropagationServer(service)
            tcp = await asyncio.start_server(
                server.handle_connection, "127.0.0.1", 0
            )
            port = tcp.sockets[0].getsockname()[1]
            slow = _TcpClient(*await asyncio.open_connection("127.0.0.1", port))
            writer_client = _TcpClient(
                *await asyncio.open_connection("127.0.0.1", port)
            )
            try:
                slow.writer.write(
                    (
                        json.dumps(
                            {
                                "id": "slow",
                                "op": "check",
                                "view": "V",
                                "phis": PHI_DOCS,
                                "use_cache": False,
                            }
                        )
                        + "\n"
                    ).encode()
                )
                await slow.writer.drain()
                await asyncio.get_running_loop().run_in_executor(
                    None, entered.wait, 30
                )

                # The register is queued behind the stalled pool...
                register_future = asyncio.ensure_future(
                    writer_client.call(
                        {
                            "id": "reg",
                            "op": "register",
                            "kind": "sigma",
                            "name": "more",
                            "doc": SIGMA_DOC,
                        }
                    )
                )
                await asyncio.sleep(0.1)
                assert not register_future.done()  # exclusivity held

                release.set()  # ... and completes once the pool drains.
                reply = await asyncio.wait_for(register_future, timeout=30)
                assert reply["ok"] and reply["id"] == "reg"
                line = await asyncio.wait_for(slow.reader.readline(), timeout=30)
                assert json.loads(line)["ok"]
            finally:
                release.set()
                slow.writer.close()
                writer_client.writer.close()
                tcp.close()
                await tcp.wait_closed()

    asyncio.run(scenario())


def test_serve_persistent_store_warms_across_processes(tmp_path):
    """Two server processes sharing --cache-dir: the second starts warm."""
    args, phis = _serve_files(tmp_path, 3)
    args += ["--cache-dir", str(tmp_path / "cache")]
    batch = {"id": 1, "op": "check", "view": "V", "phis": phis}
    first = _run_serve(args, [batch, {"op": "shutdown"}])
    assert first[0]["result"]["stats"]["chases"] > 0

    second = _run_serve(args, [batch, {"op": "shutdown"}])
    assert second[0]["result"]["propagated"] == first[0]["result"]["propagated"]
    assert second[0]["result"]["stats"]["chases"] == 0
    assert second[0]["result"]["stats"]["persistent_hits"] == len(phis)
