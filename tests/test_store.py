"""The blob-store subsystem: backends, URL registry, server, single-flight.

Covers the :mod:`repro.store` package end to end:

- :class:`MemoryStore` quotas (entry caps, TTL) and lease semantics;
- the URL scheme registry (``open_store`` / ``validate_store_url``) and
  its typed ``format`` errors on unknown/malformed URLs;
- sqlite leases (cross-connection, TTL takeover) and the multi-process
  hammer proving WAL + busy_timeout hold under write contention;
- the ``store://`` NDJSON server and :class:`RemoteStore` client,
  including error classification and degradation when the server dies;
- fleet warm-sharing: a second engine pointed at the same network store
  answers with zero chases;
- cross-process single-flight: N concurrent workers missing one
  fingerprint perform exactly one chase.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.io as rio
from repro.api import ApiError, CheckRequest, PropagationService, Workspace
from repro.propagation.engine import PropagationEngine
from repro.store import (
    MemoryStore,
    SCHEMA_VERSION,
    SqliteStore,
    open_store,
    validate_store_url,
)
from repro.store.remote import RemoteStore
from repro.store.server import (
    STORE_PROTOCOL_VERSION,
    BlobStoreServer,
    background_store_server,
)

ATTRS = ["AC", "phn", "city", "zip"]


def small_problem():
    """One constant-bearing branch (defeats the closure fast path), one FD."""
    schema = rio.schema_from_json(
        {"relations": [{"name": "R1", "attributes": ATTRS}]}
    )
    view = rio.view_from_json(
        {
            "name": "V",
            "branches": [
                {
                    "atoms": [{"source": "R1", "prefix": ""}],
                    "projection": ATTRS + ["CC"],
                    "constants": {"CC": "44"},
                }
            ],
        },
        schema,
    )
    sigma = rio.dependencies_from_json(
        [{"kind": "fd", "relation": "R1", "lhs": ["zip"], "rhs": ["city"]}]
    )
    phi = rio.dependency_from_json(
        {
            "kind": "cfd",
            "relation": "V",
            "lhs": {"CC": "44", "zip": "_"},
            "rhs": {"city": "_"},
        }
    )
    return schema, view, sigma, phi


# ----------------------------------------------------------------------
# MemoryStore: quotas and leases.
# ----------------------------------------------------------------------


class TestMemoryStore:
    def test_round_trip_and_counters(self):
        store = MemoryStore()
        assert store.get("verdicts", "k") is None
        store.put("verdicts", "k", "1")
        assert store.get("verdicts", "k") == "1"
        assert store.count("verdicts") == 1
        assert store.count("covers") == 0
        counters = store.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["writes"] == 1

    def test_unknown_table_rejected(self):
        store = MemoryStore()
        with pytest.raises(ValueError, match="unknown store table"):
            store.get("nope", "k")

    def test_entry_quota_evicts_lru(self):
        store = MemoryStore(max_entries=2)
        store.put("verdicts", "a", "1")
        store.put("verdicts", "b", "2")
        assert store.get("verdicts", "a") == "1"  # refresh a
        store.put("verdicts", "c", "3")  # evicts b
        assert store.get("verdicts", "b") is None
        assert store.get("verdicts", "a") == "1"
        assert store.get("verdicts", "c") == "3"
        assert store.counters()["evictions"] == 1

    def test_ttl_quota_expires(self):
        store = MemoryStore(ttl_s=0.05)
        store.put("verdicts", "k", "1")
        assert store.get("verdicts", "k") == "1"
        time.sleep(0.08)
        assert store.get("verdicts", "k") is None
        assert store.count("verdicts") == 0
        assert store.counters()["expirations"] >= 1

    def test_bad_quota_values_rejected(self):
        with pytest.raises(ValueError):
            MemoryStore(max_entries=0)
        with pytest.raises(ValueError):
            MemoryStore(ttl_s=-1.0)

    def test_lease_grant_deny_release(self):
        store = MemoryStore()
        assert store.acquire_lease("verdicts", "k", 5.0) is True
        assert store.acquire_lease("verdicts", "k", 5.0) is False
        store.release_lease("verdicts", "k")
        assert store.acquire_lease("verdicts", "k", 5.0) is True
        counters = store.counters()
        assert counters["leases_granted"] == 2
        assert counters["leases_denied"] == 1

    def test_lease_expires_after_ttl(self):
        store = MemoryStore()
        assert store.acquire_lease("verdicts", "k", 0.05) is True
        assert store.acquire_lease("verdicts", "k", 0.05) is False
        time.sleep(0.08)
        assert store.acquire_lease("verdicts", "k", 5.0) is True

    def test_wait_for_sees_concurrent_write(self):
        store = MemoryStore()
        timer = threading.Timer(0.05, store.put, ("verdicts", "k", "42"))
        timer.start()
        try:
            assert store.wait_for("verdicts", "k", 5.0) == "42"
        finally:
            timer.cancel()

    def test_wait_for_times_out(self):
        store = MemoryStore()
        started = time.monotonic()
        assert store.wait_for("verdicts", "k", 0.08) is None
        assert time.monotonic() - started >= 0.08


# ----------------------------------------------------------------------
# The URL scheme registry.
# ----------------------------------------------------------------------


class TestOpenStore:
    def test_sqlite_scheme_opens_cache_dir(self, tmp_path):
        with open_store(f"sqlite://{tmp_path}") as store:
            assert isinstance(store, SqliteStore)
            store.put("verdicts", "k", "1")
        with open_store(f"sqlite://{tmp_path}") as store:
            assert store.get("verdicts", "k") == "1"

    def test_memory_scheme(self):
        with open_store("memory://") as store:
            assert isinstance(store, MemoryStore)

    def test_unknown_scheme_is_typed_format_error(self):
        with pytest.raises(ApiError) as err:
            open_store("bogus://somewhere")
        assert err.value.kind == "format"
        assert "bogus" in err.value.message

    def test_missing_scheme_is_typed_format_error(self):
        with pytest.raises(ApiError) as err:
            open_store("/just/a/path")
        assert err.value.kind == "format"

    def test_sqlite_without_directory_rejected(self):
        with pytest.raises(ApiError) as err:
            open_store("sqlite://")
        assert err.value.kind == "format"

    def test_store_scheme_requires_host_port(self):
        with pytest.raises(ApiError) as err:
            open_store("store://justahost")
        assert err.value.kind == "format"

    def test_redis_scheme_is_unknown(self):
        with pytest.raises(ApiError) as err:
            open_store("redis://h:6379/0")
        assert err.value.kind == "format"
        assert "redis" in err.value.message

    def test_validate_checks_without_connecting(self):
        # No server behind this address; validation is parse-only.
        assert validate_store_url("store://127.0.0.1:1") == "store://127.0.0.1:1"
        with pytest.raises(ApiError) as err:
            validate_store_url("bogus://x")
        assert err.value.kind == "format"

    def test_service_rejects_bad_store_url_at_construction(self):
        with pytest.raises(ApiError) as err:
            PropagationService(Workspace(), store_url="bogus://x")
        assert err.value.kind == "format"


# ----------------------------------------------------------------------
# Sqlite leases and multi-process contention.
# ----------------------------------------------------------------------


class TestSqliteLeases:
    def test_grant_deny_release(self, tmp_path):
        with SqliteStore.open_dir(tmp_path) as store:
            assert store.acquire_lease("verdicts", "k", 5.0) is True
            assert store.acquire_lease("verdicts", "k", 5.0) is False
            store.release_lease("verdicts", "k")
            assert store.acquire_lease("verdicts", "k", 5.0) is True

    def test_lease_visible_across_connections(self, tmp_path):
        with SqliteStore.open_dir(tmp_path) as a, SqliteStore.open_dir(
            tmp_path
        ) as b:
            assert a.acquire_lease("verdicts", "k", 5.0) is True
            assert b.acquire_lease("verdicts", "k", 5.0) is False
            a.release_lease("verdicts", "k")
            assert b.acquire_lease("verdicts", "k", 5.0) is True

    def test_expired_lease_taken_over(self, tmp_path):
        with SqliteStore.open_dir(tmp_path) as a, SqliteStore.open_dir(
            tmp_path
        ) as b:
            assert a.acquire_lease("verdicts", "k", 0.05) is True
            time.sleep(0.08)
            # The original owner died silently; the TTL frees the key.
            assert b.acquire_lease("verdicts", "k", 5.0) is True

    def test_version_reset_drops_leases(self, tmp_path, monkeypatch):
        with SqliteStore.open_dir(tmp_path) as store:
            assert store.acquire_lease("verdicts", "k", 3600.0) is True
        import repro.store.sqlite as store_mod

        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        with SqliteStore.open_dir(tmp_path) as store:
            assert store.acquire_lease("verdicts", "k", 5.0) is True


_HAMMER = """
import sys
sys.path.insert(0, {src!r})
from repro.store import SqliteStore

with SqliteStore.open_dir({cache_dir!r}) as store:
    me = int(sys.argv[1])
    for i in range(120):
        store.put("verdicts", f"w{{me}}-k{{i % 8}}", str(i))
        store.get("verdicts", f"w{{1 - me}}-k{{i % 8}}")
        if i % 16 == 0:
            store.acquire_lease("verdicts", f"contended-{{i % 4}}", 0.01)
print("rows", store and 0 or 0)
"""


def test_sqlite_store_survives_multiprocess_hammer(tmp_path):
    """Two processes hammering one cache dir: WAL + busy_timeout hold.

    The regression this pins: without ``PRAGMA busy_timeout`` a writer
    colliding with another process's write transaction raises
    ``sqlite3.OperationalError: database is locked`` instead of waiting.
    """
    import repro

    src = str(repro.__file__).rsplit("/repro/", 1)[0]
    script = _HAMMER.format(src=src, cache_dir=str(tmp_path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(i)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "database is locked" not in err
    with SqliteStore.open_dir(tmp_path) as store:
        assert store.count("verdicts") == 16  # 2 workers x 8 keys


# ----------------------------------------------------------------------
# The store:// server and RemoteStore client.
# ----------------------------------------------------------------------


class TestStoreServer:
    def test_round_trip_and_stats(self):
        with background_store_server(MemoryStore()) as url:
            host, port = url.removeprefix("store://").rsplit(":", 1)
            with RemoteStore(host, int(port)) as remote:
                pong = remote.ping()
                assert pong["pong"] is True
                assert pong["protocol"] == STORE_PROTOCOL_VERSION
                assert remote.get("verdicts", "k") is None
                remote.put("verdicts", "k", "1")
                assert remote.get("verdicts", "k") == "1"
                assert remote.count("verdicts") == 1
                assert remote.acquire_lease("verdicts", "fp", 5.0) is True
                assert remote.acquire_lease("verdicts", "fp", 5.0) is False
                remote.release_lease("verdicts", "fp")
                stats = remote.stats()
                assert stats["backend"] == "MemoryStore"
                assert stats["supports_leases"] is True
                assert stats["tables"]["verdicts"] == 1
                assert stats["counters"]["leases_denied"] == 1

    def test_unknown_table_is_bad_request(self):
        with background_store_server(MemoryStore()) as url:
            with open_store(url) as remote:
                with pytest.raises(ApiError) as err:
                    remote.get("nope", "k")
                assert err.value.kind == "bad-request"

    def test_malformed_line_answers_format_error_and_survives(self):
        with background_store_server(MemoryStore()) as url:
            host, port = url.removeprefix("store://").rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"this is not json\n")
                fh.flush()
                doc = json.loads(fh.readline())
                assert doc["ok"] is False
                assert doc["error"]["kind"] == "format"
                # Same connection still serves well-formed requests.
                fh.write(b'{"id": 1, "op": "ping"}\n')
                fh.flush()
                doc = json.loads(fh.readline())
                assert doc["ok"] is True and doc["result"]["pong"] is True

    def test_server_quota_enforced_behind_wire(self):
        with background_store_server(MemoryStore(max_entries=2)) as url:
            with open_store(url) as remote:
                remote.put("verdicts", "a", "1")
                remote.put("verdicts", "b", "2")
                remote.put("verdicts", "c", "3")
                assert remote.count("verdicts") == 2
                assert remote.get("verdicts", "a") is None

    def test_dead_server_is_unavailable(self):
        with background_store_server(MemoryStore()) as url:
            pass  # context exit shuts the server down
        host, port = url.removeprefix("store://").rsplit(":", 1)
        with RemoteStore(host, int(port), timeout=2.0) as remote:
            with pytest.raises(ApiError) as err:
                remote.get("verdicts", "k")
            assert err.value.kind == "unavailable"

    def test_handle_doc_envelope_shapes(self):
        server = BlobStoreServer(MemoryStore())
        server._shutdown = __import__("asyncio").Event()
        ok = server.handle_doc({"id": 7, "op": "ping"})
        assert ok["id"] == 7 and ok["ok"] is True
        bad = server.handle_doc({"id": 8, "op": "frobnicate"})
        assert bad["ok"] is False and bad["error"]["kind"] == "bad-request"
        notdoc = server.handle_doc(["not", "an", "object"])
        assert notdoc["ok"] is False and notdoc["error"]["kind"] == "bad-request"


# ----------------------------------------------------------------------
# Fleet behavior: warm sharing, degradation, single-flight.
# ----------------------------------------------------------------------


class TestFleetSharing:
    def test_second_engine_answers_from_shared_store(self):
        _, view, sigma, phi = small_problem()
        with background_store_server(MemoryStore()) as url:
            with PropagationEngine(store_url=url) as first:
                assert first.check_many(sigma, view, [phi]) == [True]
                assert first.stats.chase_invocations > 0
                assert first.stats.persistent_writes > 0
            # A cold worker joining the fleet: no chases, store hits.
            with PropagationEngine(store_url=url) as joiner:
                assert joiner.check_many(sigma, view, [phi]) == [True]
                assert joiner.stats.chase_invocations == 0
                assert joiner.stats.persistent_hits > 0

    def test_dead_store_degrades_to_cache_miss(self):
        _, view, sigma, phi = small_problem()
        with background_store_server(MemoryStore()) as url:
            pass  # server gone; workers must still answer
        with PropagationEngine(store_url=url) as engine:
            assert engine.check_many(sigma, view, [phi]) == [True]
            assert engine.stats.store_errors > 0
            assert engine.stats.chase_invocations > 0

    def test_single_flight_one_chase_across_workers(self):
        """N workers miss one fingerprint concurrently -> exactly 1 chase."""
        _, view, sigma, phi = small_problem()
        with PropagationEngine() as reference:
            reference.check_many(sigma, view, [phi])
            baseline_chases = reference.stats.chase_invocations
        assert baseline_chases > 0
        with background_store_server(MemoryStore()) as url:
            workers = 4
            engines = [PropagationEngine(store_url=url) for _ in range(workers)]
            barrier = threading.Barrier(workers)
            verdicts = [None] * workers
            errors = []

            def run(i):
                try:
                    barrier.wait(timeout=30)
                    verdicts[i] = engines[i].check_many(sigma, view, [phi])
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            total_chases = sum(e.stats.chase_invocations for e in engines)
            total_waits = sum(e.stats.single_flight_waits for e in engines)
            total_hits = sum(e.stats.persistent_hits for e in engines)
            for engine in engines:
                engine.close()
            assert not errors
            assert verdicts == [[True]] * workers
            # The stampede collapsed to one flight: one worker chased,
            # every other answered from its wait or a store hit.
            assert total_chases == baseline_chases
            assert total_waits + total_hits >= workers - 1

    @pytest.mark.parametrize("op", ["check", "cover"])
    def test_flight_landing_before_the_lease_is_waited_on(self, op):
        """Another worker finishes the whole flight between our miss and
        our ``acquire_lease``: the lease comes back free, but the payload
        is already in the store, so we must read it, not compute again."""
        _, view, sigma, phi = small_problem()

        def run(engine):
            if op == "check":
                return engine.check_many(sigma, view, [phi])
            return engine.cover_many(sigma, [view])

        with background_store_server(MemoryStore()) as url:
            with PropagationEngine(store_url=url) as late, PropagationEngine(
                store_url=url
            ) as first:
                store = late._store
                original = store.acquire_lease

                def let_first_finish(table, key, ttl_s):
                    store.acquire_lease = original
                    run(first)  # acquire, compute, put, release
                    return original(table, key, ttl_s)

                store.acquire_lease = let_first_finish
                with PropagationEngine() as reference:
                    expected = run(reference)
                assert run(late) == expected
                assert store.acquire_lease is original  # the race was staged
                assert first.stats.persistent_writes == 1
                assert late.stats.persistent_writes == 0
                assert late.stats.chase_invocations == 0
                assert late.stats.single_flight_waits == 1

    def test_lease_waiter_computes_locally_when_owner_dies(self):
        # Another worker holds the lease but never writes (it crashed);
        # our worker must wait out the short TTL and compute locally.
        _, view, sigma, phi = small_problem()
        with PropagationEngine(store_url="memory://", lease_ttl=0.2) as probe:
            store = probe._store
            denied = []
            original = store.acquire_lease

            def deny_first(table, key, ttl_s):
                if not denied:
                    denied.append(key)
                    return False
                return original(table, key, ttl_s)

            store.acquire_lease = deny_first
            started = time.monotonic()
            assert probe.check_many(sigma, view, [phi]) == [True]
            assert time.monotonic() - started < 10
            assert denied  # the single-flight path was actually exercised
            assert probe.stats.chase_invocations > 0  # computed it itself
            assert probe.stats.single_flight_waits == 0


def test_stats_surface_fleet_counters():
    """The wire `stats` op carries the persistent-tier counters."""
    from repro.api.wire import handle_request

    _, view, sigma, phi = small_problem()
    with background_store_server(MemoryStore()) as url:
        workspace = Workspace()
        service = PropagationService(workspace, store_url=url)
        with service:
            service.workspace.add_schema(
                "default",
                rio.schema_from_json(
                    {"relations": [{"name": "R1", "attributes": ATTRS}]}
                ),
            )
            service.workspace.add_sigma("default", sigma)
            service.workspace.add_view("default", view, schema="default")
            service.check(
                CheckRequest(view="default", sigma="default", targets=[phi])
            )
            doc = handle_request({"op": "stats"}, service)
            counters = doc["result"]["counters"]
            for name in (
                "persistent_hits",
                "persistent_misses",
                "persistent_writes",
                "evictions",
                "single_flight_waits",
                "store_errors",
            ):
                assert name in counters
            assert doc["result"]["counters"]["persistent_writes"] > 0
            assert "single_flight_waits=" in doc["result"]["engine"]
