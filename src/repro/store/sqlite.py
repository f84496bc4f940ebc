"""The sqlite blob store: the schema-versioned local persistent tier.

:class:`SqliteStore` is the on-disk backing of the engine's verdict and
cover caches (see :mod:`repro.propagation.cache` for the tiering and
:doc:`docs/caching.md` for the operational story).  It is deliberately a
dumb string-keyed blob store:

- Keys are the *stable fingerprints* of
  :func:`repro.propagation.cache.stable_digest` — hex digests over the
  canonical JSON of ``(Sigma fingerprint, view fingerprint, phi,
  engine settings)``.  Structural keys never contain Python ``hash()``
  output (which is salted per process), so one store is shared safely by
  many worker processes.
- Values are short serialized payloads: ``"1"``/``"0"`` for verdicts and
  canonical JSON dependency lists (the :mod:`repro.io` wire format) for
  covers.
- Every row carries no semantics beyond its table; the two tables are
  fixed (``verdicts`` and ``covers``) and whitelisted before they reach
  a SQL string.

Schema versioning, twice over: the ``meta`` table records
``schema_version``, and a store whose recorded version differs from the
opener's is dropped and recreated empty — a cold start.  Additionally
*every row* is stamped with its writer's version and reads filter on the
reader's version, so a still-running old-version process whose open
connection outlived a new-version reset can keep writing without its
rows ever being served to (or clobbering the correctness of) new-version
readers — never a misinterpretation of stale bytes, even mid rolling
upgrade.  Bump :data:`SCHEMA_VERSION` whenever the key derivation or the
payload encoding changes.

Concurrency: the store opens in WAL mode with both the connect-level
``timeout`` and an explicit ``PRAGMA busy_timeout`` (belt and braces —
the pragma also covers statements issued by future connections cloned
from this path), and every write is its own transaction, so concurrent
readers and a writer (or several writer processes racing on
``INSERT OR REPLACE`` of identical rows) are safe.  The cache is
idempotent — both writers compute the same verdict for the same key —
so last-writer-wins is correct.
``tests/test_store.py::test_sqlite_store_multiprocess_hammer`` drives
several processes against one store to hold this under contention.

Single-flight leases (:meth:`~SqliteStore.acquire_lease`) live in a
separate ``leases`` table keyed ``table:key`` with a wall-clock expiry,
granted atomically by an upsert whose ``WHERE`` clause only steals
expired rows — so N worker *processes* sharing one ``--cache-dir`` get
stampede control: N workers missing one fingerprint run one chase.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path

from .base import BlobStore

__all__ = ["SCHEMA_VERSION", "STORE_FILENAME", "SqliteStore"]

#: Bump on any change to key derivation or payload encoding.  A store
#: written under a different version is dropped on open (cold start).
#:
#: v1: whole-Sigma fingerprints (PR 2/3).
#: v2: provenance-scoped composite keys — per-relation Sigma
#:     fingerprints over the view's touched relations
#:     (:mod:`repro.propagation.engine.keys`).  v1 stores migrate to
#:     cold on open: their whole-Sigma keys are unreachable under the
#:     composite derivation and must never be misread as warm lines.
SCHEMA_VERSION = 2

#: The only tables the store manages; names are interpolated into SQL and
#: must never come from user input.
_TABLES = ("verdicts", "covers")

#: Default file name inside a ``--cache-dir``.
STORE_FILENAME = "propagation.sqlite"

#: Milliseconds sqlite waits on a locked database before SQLITE_BUSY.
_BUSY_TIMEOUT_MS = 30_000


def _enable_wal(conn, timeout_s: float = _BUSY_TIMEOUT_MS / 1000) -> None:
    """Switch *conn*'s database file to WAL, retrying lock collisions.

    Two processes opening one fresh (rollback-journal) file can each hold
    a shared lock while both need the exclusive lock the switch takes;
    sqlite breaks that deadlock by failing one of them with ``database is
    locked`` at once, without waiting out the busy timeout.  The winner
    leaves the file in WAL mode, so the loser's retry is a plain read.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


class SqliteStore(BlobStore):
    """A string-keyed persistent memo store shared across processes.

    Parameters
    ----------
    path:
        The sqlite database file; parent directories are created.
    schema_version:
        Overridable for tests exercising the version-mismatch fallback;
        production callers leave the default (the module-level
        :data:`SCHEMA_VERSION`, read at call time).
    """

    def __init__(self, path: str | Path, schema_version: int | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.schema_version = int(
            SCHEMA_VERSION if schema_version is None else schema_version
        )
        #: True when opening found (and discarded) an incompatible store.
        self.reset_on_open = False
        self._conn = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        _enable_wal(self._conn)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._ensure_schema()

    @classmethod
    def open_dir(
        cls, cache_dir: str | Path, schema_version: int | None = None
    ) -> "SqliteStore":
        """Open (creating if needed) the store inside *cache_dir*."""
        return cls(Path(cache_dir) / STORE_FILENAME, schema_version=schema_version)

    # ------------------------------------------------------------------
    # Schema management.
    # ------------------------------------------------------------------

    def _ensure_schema(self) -> None:
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and row[0] != str(self.schema_version):
                # Incompatible bytes: fall back to a cold, empty store.
                for table in _TABLES:
                    self._conn.execute(f"DROP TABLE IF EXISTS {table}")
                self._conn.execute("DROP TABLE IF EXISTS leases")
                self._conn.execute("DELETE FROM meta")
                self.reset_on_open = True
            for table in _TABLES:
                self._conn.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} "
                    "(key TEXT PRIMARY KEY, payload TEXT NOT NULL, "
                    "version INTEGER NOT NULL)"
                )
            # Single-flight leases: transient coordination state, keyed
            # across tables, expiring by wall clock (cross-process).
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS leases "
                "(key TEXT PRIMARY KEY, expires REAL NOT NULL)"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(self.schema_version),),
            )

    @staticmethod
    def _table(table: str) -> str:
        if table not in _TABLES:
            raise ValueError(f"unknown store table {table!r}; have {_TABLES}")
        return table

    # ------------------------------------------------------------------
    # The blob-store surface.
    # ------------------------------------------------------------------

    def get(self, table: str, key: str) -> str | None:
        """The payload stored under *key* by this schema version, or ``None``.

        A row stamped by a different-version writer (a racing process
        mid rolling upgrade) is invisible — a miss, never stale bytes.
        """
        row = self._conn.execute(
            f"SELECT payload FROM {self._table(table)} "
            "WHERE key = ? AND version = ?",
            (key, self.schema_version),
        ).fetchone()
        return None if row is None else row[0]

    def put(self, table: str, key: str, payload: str) -> None:
        """Store *payload* under *key* (last writer wins; idempotent use)."""
        with self._conn:
            self._conn.execute(
                f"INSERT OR REPLACE INTO {self._table(table)} "
                "(key, payload, version) VALUES (?, ?, ?)",
                (key, payload, self.schema_version),
            )

    def count(self, table: str) -> int:
        """Number of rows in *table* (telemetry / tests)."""
        row = self._conn.execute(
            f"SELECT COUNT(*) FROM {self._table(table)}"
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # Single-flight leases.
    # ------------------------------------------------------------------

    def acquire_lease(self, table: str, key: str, ttl_s: float) -> bool:
        """Atomically claim ``table:key`` unless a live lease holds it.

        The upsert inserts a fresh row, or steals an existing one only
        when its expiry has passed (the ``WHERE`` guard) — one statement,
        so two racing processes cannot both win.  Wall-clock expiry is
        deliberate: leases must expire across processes, and a crashed
        owner's clock is no longer ticking anywhere else.
        """
        self._table(table)
        now = time.time()
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO leases (key, expires) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET expires = excluded.expires "
                "WHERE leases.expires < ?",
                (f"{table}:{key}", now + ttl_s, now),
            )
            return cursor.rowcount > 0

    def release_lease(self, table: str, key: str) -> None:
        self._table(table)
        with self._conn:
            self._conn.execute(
                "DELETE FROM leases WHERE key = ?", (f"{table}:{key}",)
            )

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqliteStore({str(self.path)!r}, v{self.schema_version})"
