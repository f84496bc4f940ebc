"""The blob-store subsystem: backends, URL schemes, single-flight.

Covers the :mod:`repro.store` package end to end:

- :class:`MemoryStore` round trips and lease semantics;
- the URL schemes (``open_store`` / ``validate_store_url``) and their
  typed ``format`` errors on unknown/malformed/retired URLs;
- sqlite leases (cross-connection, TTL takeover) and the multi-process
  hammer proving WAL + busy_timeout hold under write contention;
- fleet warm-sharing: a second engine pointed at the same ``sqlite://``
  directory answers with zero chases;
- cross-process single-flight: N concurrent workers missing one
  fingerprint perform exactly one chase.
"""

from __future__ import annotations

import sqlite3
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
from repro.store.sqlite import _enable_wal

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
# MemoryStore: round trips and leases.
# ----------------------------------------------------------------------


class TestMemoryStore:
    def test_round_trip_and_counters(self):
        store = MemoryStore()
        assert store.get("verdicts", "k") is None
        store.put("verdicts", "k", "1")
        assert store.get("verdicts", "k") == "1"
        assert store.count("verdicts") == 1
        assert store.count("covers") == 0

    def test_unknown_table_rejected(self):
        store = MemoryStore()
        with pytest.raises(ValueError, match="unknown store table"):
            store.get("nope", "k")

    def test_lease_grant_deny_release(self):
        store = MemoryStore()
        assert store.acquire_lease("verdicts", "k", 5.0) is True
        assert store.acquire_lease("verdicts", "k", 5.0) is False
        store.release_lease("verdicts", "k")
        assert store.acquire_lease("verdicts", "k", 5.0) is True

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
# The URL schemes.
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
        # store:// is retired: a store:// URL is a format error whether
        # or not it carries host:port (the latter is checked below).
        with pytest.raises(ApiError) as err:
            open_store("store://justahost")
        assert err.value.kind == "format"

    def test_redis_scheme_is_unknown(self):
        # Retired backends get the unknown-scheme error like any typo.
        for scheme in ("redis", "store"):
            with pytest.raises(ApiError) as err:
                open_store(f"{scheme}://127.0.0.1:1")
            assert err.value.kind == "format"
            assert repr(scheme) in err.value.message

    def test_validate_checks_without_connecting(self, tmp_path):
        # Validation is parse-only: it creates no directory.
        url = f"sqlite://{tmp_path / 'not-yet'}"
        assert validate_store_url(url) == url
        assert not (tmp_path / "not-yet").exists()
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


class _LockedConn:
    """A connection whose first *locked* executes fail like a lost race."""

    def __init__(self, locked, message="database is locked"):
        self.locked = locked
        self.message = message
        self.calls = 0

    def execute(self, sql):
        self.calls += 1
        if self.calls <= self.locked:
            raise sqlite3.OperationalError(self.message)


def test_wal_switch_retries_a_lock_collision():
    """Two processes opening one fresh file race for the WAL switch;
    sqlite fails the loser at once (no busy wait), so open retries."""
    conn = _LockedConn(locked=2)
    _enable_wal(conn)
    assert conn.calls == 3
    # Past the deadline the lock error surfaces; other errors at once.
    with pytest.raises(sqlite3.OperationalError, match="locked"):
        _enable_wal(_LockedConn(locked=99), timeout_s=0.0)
    broken = _LockedConn(locked=1, message="disk I/O error")
    with pytest.raises(sqlite3.OperationalError, match="disk"):
        _enable_wal(broken)
    assert broken.calls == 1


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
# Fleet behavior on one sqlite:// directory: warm sharing, single-flight.
# ----------------------------------------------------------------------


class TestFleetSharing:
    def test_second_engine_answers_from_shared_store(self, tmp_path):
        _, view, sigma, phi = small_problem()
        url = f"sqlite://{tmp_path}"
        with PropagationEngine(store_url=url) as first:
            assert first.check_many(sigma, view, [phi]) == [True]
            assert first.stats.chase_invocations > 0
            assert first.stats.persistent_writes > 0
        # A cold worker joining the fleet: no chases, store hits.
        with PropagationEngine(store_url=url) as joiner:
            assert joiner.check_many(sigma, view, [phi]) == [True]
            assert joiner.stats.chase_invocations == 0
            assert joiner.stats.persistent_hits > 0

    def test_single_flight_one_chase_across_workers(self, tmp_path):
        """N workers miss one fingerprint concurrently -> exactly 1 chase."""
        _, view, sigma, phi = small_problem()
        with PropagationEngine() as reference:
            reference.check_many(sigma, view, [phi])
            baseline_chases = reference.stats.chase_invocations
        assert baseline_chases > 0
        url = f"sqlite://{tmp_path}"
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
    def test_flight_landing_before_the_lease_is_waited_on(self, op, tmp_path):
        """Another worker finishes the whole flight between our miss and
        our ``acquire_lease``: the lease comes back free, but the payload
        is already in the store, so we must read it, not compute again."""
        _, view, sigma, phi = small_problem()

        def run(engine):
            if op == "check":
                return engine.check_many(sigma, view, [phi])
            return engine.cover_many(sigma, [view])

        url = f"sqlite://{tmp_path}"
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


def test_stats_surface_fleet_counters(tmp_path):
    """The wire `stats` op carries the persistent-tier counters."""
    from repro.api.wire import handle_request

    _, view, sigma, phi = small_problem()
    workspace = Workspace()
    service = PropagationService(workspace, store_url=f"sqlite://{tmp_path}")
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
        ):
            assert name in counters
        assert doc["result"]["counters"]["persistent_writes"] > 0
        assert "single_flight_waits=" in doc["result"]["engine"]
