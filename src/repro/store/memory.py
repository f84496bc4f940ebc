"""An in-process blob store: the ``memory://`` scheme.

:class:`MemoryStore` is a zero-setup store for tests and for
single-process runs: the persistent-tier surface (and its single-flight
leases) without a file.  Nothing outlives the process.

Thread-safe: engines in one process may share it from thread pools, so
every operation takes the store lock.  Lease expiry uses the monotonic
clock — a wall-clock step must not expire leases early (unlike
:class:`~repro.store.sqlite.SqliteStore` leases, which cross processes
and must use wall time).
"""

from __future__ import annotations

import threading
import time

from .base import BlobStore

__all__ = ["MemoryStore"]

_TABLES = ("verdicts", "covers")


class MemoryStore(BlobStore):
    """A thread-safe, in-process blob store."""

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, str]] = {table: {} for table in _TABLES}
        self._leases: dict[str, float] = {}
        self._lock = threading.Lock()

    def _rows(self, table: str) -> dict[str, str]:
        try:
            return self._tables[table]
        except KeyError:
            raise ValueError(
                f"unknown store table {table!r}; have {_TABLES}"
            ) from None

    # ------------------------------------------------------------------
    # The blob-store surface.
    # ------------------------------------------------------------------

    def get(self, table: str, key: str) -> str | None:
        with self._lock:
            return self._rows(table).get(key)

    def put(self, table: str, key: str, payload: str) -> None:
        with self._lock:
            self._rows(table)[key] = payload

    def count(self, table: str) -> int:
        with self._lock:
            return len(self._rows(table))

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Single-flight leases.
    # ------------------------------------------------------------------

    def acquire_lease(self, table: str, key: str, ttl_s: float) -> bool:
        self._rows(table)  # table whitelist applies to leases too
        now = time.monotonic()
        with self._lock:
            expires = self._leases.get(f"{table}:{key}")
            if expires is not None and now < expires:
                return False
            self._leases[f"{table}:{key}"] = now + ttl_s
            return True

    def release_lease(self, table: str, key: str) -> None:
        self._rows(table)
        with self._lock:
            self._leases.pop(f"{table}:{key}", None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = {table: len(rows) for table, rows in self._tables.items()}
        return f"MemoryStore({sizes})"
