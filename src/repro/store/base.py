"""The abstract blob-store surface and its two URL schemes.

:class:`BlobStore` is the ``get/put/count/close`` surface of the
engine's persistent memo tier, with two backings:

==============================  ========================================
URL scheme                      backend
==============================  ========================================
``sqlite://DIR``                :class:`~repro.store.sqlite.SqliteStore`
                                under ``DIR`` — exactly the
                                ``--cache-dir`` store, addressable by URL;
                                every process pointed at one ``DIR``
                                shares its warmth.
``memory://``                   :class:`~repro.store.memory.MemoryStore`
                                — in-process (tests, single runs).
==============================  ========================================

:func:`open_store` resolves a URL by that fixed lookup; an unknown or
malformed scheme raises a typed :class:`~repro.api.ApiError` of the
**format** kind (exit code 2) — a store URL is configuration, like an
input file, not a request.

Beyond the blob surface, every store supports **single-flight leases**
— the cross-process generalization of the engine's in-batch miss dedup.
``acquire_lease(table, key, ttl_s)`` grants at most one caller per key
until the lease expires or is released; losers :meth:`~BlobStore.wait_for`
the winner's payload instead of redoing the chase.  Lease state is
advisory and TTL-bounded: a crashed owner's lease expires and waiters
fall back to computing locally, so the mechanism can suppress duplicate
work but never wedge correctness.

This module deliberately imports nothing from :mod:`repro.api` at module
level (it loads during ``repro.propagation`` package init, below the api
layer); error types are resolved lazily, and so are the backends (they
subclass :class:`BlobStore`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from urllib.parse import urlsplit

__all__ = [
    "BlobStore",
    "DEFAULT_LEASE_TTL",
    "open_store",
    "validate_store_url",
]

#: Default single-flight lease lifetime (seconds): generous enough for a
#: cold exponential-family chase, finite so a crashed lease owner never
#: wedges its waiters — they time out and compute locally.
DEFAULT_LEASE_TTL = 30.0

#: Default poll interval for :meth:`BlobStore.wait_for` (seconds).
DEFAULT_WAIT_INTERVAL = 0.02


def _format_error(message: str) -> Exception:
    # Lazy: repro.api imports repro.propagation (which imports this
    # package), so the api error type is resolved at raise time only.
    from ..api.errors import ApiError

    return ApiError("format", message)


class BlobStore(ABC):
    """A string-keyed blob store: the engine's persistent memo tier.

    Keys are the stable fingerprints of
    :func:`repro.propagation.cache.stable_digest`; payloads are short
    serialized strings (``"1"``/``"0"`` verdicts, canonical JSON
    covers).  Tables (*scopes*) are a fixed whitelist — ``verdicts`` and
    ``covers`` — and every implementation must reject anything else
    before it reaches a query string.
    """

    #: True when opening found (and discarded) an incompatible store.
    reset_on_open: bool = False

    @abstractmethod
    def get(self, table: str, key: str) -> str | None:
        """The payload stored under *key*, or ``None`` on a miss."""

    @abstractmethod
    def put(self, table: str, key: str, payload: str) -> None:
        """Store *payload* under *key* (last writer wins; idempotent use)."""

    @abstractmethod
    def count(self, table: str) -> int:
        """Number of rows in *table* (telemetry / tests)."""

    @abstractmethod
    def close(self) -> None:
        """Release the backing resource (idempotent)."""

    # ------------------------------------------------------------------
    # Single-flight leases.
    # ------------------------------------------------------------------

    @abstractmethod
    def acquire_lease(self, table: str, key: str, ttl_s: float) -> bool:
        """Try to become the single flight for *key*.

        ``True`` means this caller owns the computation and must
        :meth:`put` the payload then :meth:`release_lease`; ``False``
        means another flight is in progress — :meth:`wait_for` its
        payload.
        """

    @abstractmethod
    def release_lease(self, table: str, key: str) -> None:
        """Drop a held lease so late waiters stop polling early."""

    def wait_for(
        self,
        table: str,
        key: str,
        timeout_s: float,
        interval_s: float = DEFAULT_WAIT_INTERVAL,
    ) -> str | None:
        """Poll for another flight's payload until *timeout_s* expires.

        Returns the payload as soon as it appears, or ``None`` on
        timeout (the lease owner died — the caller computes locally).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            payload = self.get(table, key)
            if payload is not None:
                return payload
            if time.monotonic() >= deadline:
                return None
            time.sleep(interval_s)

    def __enter__(self) -> "BlobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# The two URL schemes.
# ----------------------------------------------------------------------


def _open_sqlite(parts) -> BlobStore:
    from .sqlite import SqliteStore

    # Both spellings address a directory: ``sqlite:///abs/dir`` (empty
    # netloc, absolute path) and ``sqlite://rel/dir`` (netloc + path).
    cache_dir = (parts.netloc or "") + parts.path
    if not cache_dir:
        raise _format_error(
            f"sqlite store URL {parts.geturl()!r} names no directory; "
            "use sqlite:///abs/path or sqlite://relative/path"
        )
    return SqliteStore.open_dir(cache_dir)


def _open_memory(parts) -> BlobStore:
    from .memory import MemoryStore

    return MemoryStore()


_SCHEMES = {"sqlite": _open_sqlite, "memory": _open_memory}


def _split(url: str):
    parts = urlsplit(url)
    known = ", ".join(sorted(_SCHEMES))
    if not parts.scheme:
        raise _format_error(
            f"malformed store URL {url!r}: no scheme; known schemes: {known}"
        )
    opener = _SCHEMES.get(parts.scheme)
    if opener is None:
        raise _format_error(
            f"unknown store scheme {parts.scheme!r} in {url!r}; "
            f"known schemes: {known}"
        )
    return parts, opener


def validate_store_url(url: str) -> str:
    """Check *url* names a known scheme, without opening it.

    Configuration surfaces (the service constructor, ``--store-url``)
    call this so a typo fails fast with a typed **format** error instead
    of surfacing on the first query.  Returns *url* unchanged.
    """
    _split(url)
    return url


def open_store(url: str) -> BlobStore:
    """Resolve a store URL into a live :class:`BlobStore`.

    Unknown or malformed URLs raise the typed **format**
    :class:`~repro.api.ApiError` — never a traceback.
    """
    parts, opener = _split(url)
    return opener(parts)
