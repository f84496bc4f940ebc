"""The blob-store subsystem: one persistent-tier interface, two backings.

The engine's persistent memo tier is an abstract
:class:`~repro.store.base.BlobStore` addressed by URL:

- ``sqlite://DIR`` — the local schema-versioned sqlite store (exactly
  ``--cache-dir``), :mod:`repro.store.sqlite`.  It is the shared tier:
  every process pointed at one directory shares its warmth;
- ``memory://`` — an in-process store (:mod:`repro.store.memory`).

:func:`~repro.store.base.open_store` resolves URLs (typed **format**
errors on unknown/malformed schemes); both backends support
cross-process **single-flight leases** so N workers missing the same
fingerprint compute one chase (``docs/caching.md``).

Import discipline: this package sits *below* :mod:`repro.api` (the
engine imports it at module load), so it imports no api types at module
level.
"""

from .base import (
    DEFAULT_LEASE_TTL,
    BlobStore,
    open_store,
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
    "validate_store_url",
]
