"""The blob-store subsystem: one persistent-tier interface, many backings.

The engine's persistent memo tier (PR 2's sqlite store) generalized into
an abstract :class:`~repro.store.base.BlobStore` behind a URL scheme
registry, so a worker fleet can share cache warmth through a network
store instead of a common filesystem:

- ``sqlite://DIR`` — the local schema-versioned sqlite store (exactly
  ``--cache-dir``), :mod:`repro.store.sqlite`;
- ``store://host:port`` — a ``repro store-serve`` blob-store server
  (:mod:`repro.store.server`), spoken to by
  :class:`~repro.store.remote.RemoteStore`;
- ``memory://`` — an in-process quota-enforcing store
  (:mod:`repro.store.memory`; also the server's default backing).

:func:`~repro.store.base.open_store` resolves URLs (typed **format**
errors on unknown/malformed schemes); every backend optionally supports
cross-process **single-flight leases** so N workers missing the same
fingerprint compute one chase (``docs/caching.md``).

Import discipline: this package sits *below* :mod:`repro.api` (the
engine imports it at module load), so only the lazily-loaded network
modules (:mod:`~repro.store.remote`, :mod:`~repro.store.server`) may
import api types at module level.
"""

from .base import (
    DEFAULT_LEASE_TTL,
    BlobStore,
    open_store,
    register_store_scheme,
    validate_store_url,
)
from .memory import MemoryStore
from .sqlite import SCHEMA_VERSION, STORE_FILENAME, SqliteStore

__all__ = [
    "BlobStore",
    "DEFAULT_LEASE_TTL",
    "MemoryStore",
    "SCHEMA_VERSION",
    "STORE_FILENAME",
    "SqliteStore",
    "open_store",
    "register_store_scheme",
    "validate_store_url",
]
