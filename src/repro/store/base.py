"""The abstract blob-store surface and its URL scheme registry.

:class:`BlobStore` is the ``get/put/count/close`` surface extracted from
the PR 2 sqlite store (:mod:`repro.store.sqlite`), now one interface with
several backings:

==============================  ========================================
URL scheme                      backend
==============================  ========================================
``sqlite://DIR``                :class:`~repro.store.sqlite.SqliteStore`
                                under ``DIR`` — exactly the
                                ``--cache-dir`` store, addressable by URL.
``store://host:port``           :class:`~repro.store.remote.RemoteStore`
                                — NDJSON client of ``repro store-serve``
                                (:mod:`repro.store.server`), the
                                fleet-shared network tier.
``memory://``                   :class:`~repro.store.memory.MemoryStore`
                                — in-process, quota-enforcing (tests,
                                and the default backing of the server).
==============================  ========================================

:func:`open_store` resolves a URL through the registry
(:func:`register_store_scheme` adds schemes, mirroring
:func:`repro.api.transport.register_scheme`); an unknown or malformed
scheme raises a typed :class:`~repro.api.ApiError` of the **format**
kind (exit code 2) — a store URL is configuration, like an input file,
not a request.

Beyond the blob surface, a store may support **single-flight leases** —
the cross-process generalization of the engine's in-batch miss dedup.
``acquire_lease(table, key, ttl_s)`` grants at most one caller per key
until the lease expires or is released; losers :meth:`~BlobStore.wait_for`
the winner's payload instead of redoing the chase.  Lease state is
advisory and TTL-bounded: a crashed owner's lease expires and waiters
fall back to computing locally, so the mechanism can suppress duplicate
work but never wedge correctness.

This module deliberately imports nothing from :mod:`repro.api` at module
level (it loads during ``repro.propagation`` package init, below the api
layer); error types are resolved lazily and the network backends are
imported only when their scheme is opened.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable
from urllib.parse import urlsplit

__all__ = [
    "BlobStore",
    "DEFAULT_LEASE_TTL",
    "open_store",
    "register_store_scheme",
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

    #: The URL this store was opened from (set by :func:`open_store`).
    url: str = ""
    #: True when opening found (and discarded) an incompatible store.
    reset_on_open: bool = False
    #: Whether :meth:`acquire_lease` coordinates across clients.  A
    #: backend without real leases leaves this False and every caller
    #: computes locally — correct, just without stampede suppression.
    supports_leases: bool = False

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
    # Single-flight leases (optional; default = no coordination).
    # ------------------------------------------------------------------

    def acquire_lease(self, table: str, key: str, ttl_s: float) -> bool:
        """Try to become the single flight for *key*.

        ``True`` means this caller owns the computation and must
        :meth:`put` the payload then :meth:`release_lease`; ``False``
        means another flight is in progress — :meth:`wait_for` its
        payload.  The default (no lease support) grants everyone, which
        degrades to today's compute-everywhere behavior.
        """
        return True

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
# The store scheme registry.
# ----------------------------------------------------------------------

_STORE_SCHEMES: dict[str, Callable[..., BlobStore]] = {}


def register_store_scheme(scheme: str, factory: Callable[..., BlobStore]) -> None:
    """Register ``factory(parts, **options) -> BlobStore`` for *scheme*.

    ``parts`` is the :func:`urllib.parse.urlsplit` of the store URL.
    Registering an existing scheme replaces it (tests and downstream
    deployments can wrap the built-ins).
    """
    _STORE_SCHEMES[scheme] = factory


def _sqlite_factory(parts, **options) -> BlobStore:
    from .sqlite import SqliteStore

    # Both spellings address a directory: ``sqlite:///abs/dir`` (empty
    # netloc, absolute path) and ``sqlite://rel/dir`` (netloc + path).
    cache_dir = (parts.netloc or "") + parts.path
    if not cache_dir:
        raise _format_error(
            f"sqlite store URL {parts.geturl()!r} names no directory; "
            "use sqlite:///abs/path or sqlite://relative/path"
        )
    return SqliteStore.open_dir(cache_dir, **options)


def _store_host_port(parts) -> tuple[str, int]:
    try:
        port = parts.port
    except ValueError as exc:
        raise _format_error(f"bad store URL port: {exc}") from None
    if not parts.hostname or port is None:
        raise _format_error(
            f"store URL {parts.geturl()!r} needs the host:port form"
        )
    return parts.hostname, port


def _remote_factory(parts, **options) -> BlobStore:
    from .remote import RemoteStore

    host, port = _store_host_port(parts)
    return RemoteStore(host, port, **options)


def _memory_factory(parts, **options) -> BlobStore:
    from .memory import MemoryStore

    return MemoryStore(**options)


register_store_scheme("sqlite", _sqlite_factory)
register_store_scheme("store", _remote_factory)
register_store_scheme("memory", _memory_factory)


def _split(url: str):
    parts = urlsplit(url)
    if not parts.scheme:
        raise _format_error(
            f"malformed store URL {url!r}: no scheme; known schemes: "
            + ", ".join(sorted(_STORE_SCHEMES))
        )
    factory = _STORE_SCHEMES.get(parts.scheme)
    if factory is None:
        known = ", ".join(sorted(_STORE_SCHEMES))
        raise _format_error(
            f"unknown store scheme {parts.scheme!r} in {url!r}; "
            f"registered schemes: {known}"
        )
    return parts, factory


def validate_store_url(url: str) -> str:
    """Check *url* parses to a registered scheme, without opening it.

    Configuration surfaces (the service constructor, ``--store-url``)
    call this so a typo fails fast with a typed **format** error instead
    of surfacing on the first query.  Returns *url* unchanged.
    """
    _split(url)
    return url


def open_store(url: str, **options) -> BlobStore:
    """Resolve a store URL into a live :class:`BlobStore`.

    ``options`` are forwarded to the scheme factory (``timeout`` and
    ``retry`` for the network schemes, quota knobs for ``memory://``).
    Unknown or malformed URLs raise the typed **format**
    :class:`~repro.api.ApiError` — never a traceback.  Network stores
    connect lazily: opening a URL whose server is down succeeds, and the
    engine degrades each miss on the dead store to a cache miss.
    """
    parts, factory = _split(url)
    try:
        store = factory(parts, **options)
    except TypeError as exc:
        raise _format_error(
            f"bad options for {parts.scheme!r} store: {exc}"
        ) from exc
    store.url = url
    return store
