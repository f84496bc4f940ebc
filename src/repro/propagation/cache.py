"""Bounded, tiered caching for the propagation engine.

PR 1's :class:`~repro.propagation.engine.PropagationEngine` memoized
verdicts and covers in plain per-process dicts: unbounded, and gone on
restart.  This module is the cache made a first-class subsystem, in two
tiers:

1. :class:`LRUCache` — the in-memory tier.  A capacity-bounded
   least-recently-used map with hit/miss/eviction counters; each
   eviction also ticks the owner's :class:`EngineStats` in place.
   ``capacity=None`` keeps PR 1's unbounded behavior.
2. :class:`TieredCache` — the in-memory tier backed by an optional
   persistent :class:`~repro.store.base.BlobStore` (the local sqlite
   store of ``--cache-dir``, or any ``--store-url`` backend — see
   :mod:`repro.store`).  A memory miss falls through to the store; a
   persistent hit is decoded, *promoted* into the memory tier and
   served.  Writes go through both tiers, so warm lines survive
   restarts and are shared across worker processes pointing at one
   ``--cache-dir``.

:class:`EngineStats` is the one declaration of the engine's counters.
Every producer — the tiered caches here, the per-view
:class:`~repro.propagation.check.BranchPairCache` and its packed
runners, the LRU eviction hooks under them — is handed the engine's
instance and ticks it in place, so nothing is summed after a call and a
dropped cache takes no history with it.

Keys come in two flavors:

- *Structural* keys (tuples of interned/frozen objects) index the memory
  tier — cheap to build, but they embed Python objects and per-process
  ``hash()`` randomization, so they never leave the process.
- *Stable fingerprints* (:func:`stable_digest` over canonical JSON of the
  :mod:`repro.io` wire format) index the persistent tier.  Two processes
  — or two runs of one process — derive byte-identical keys for logically
  equal ``(Sigma, view, phi, settings)``, because the canonical encoding
  sorts map keys, normalizes Sigma to its normal-form CFD set and sorts
  it, and contains no addresses, hashes or ordering artifacts.

The stability guarantee is exactly as strong as the wire format's:
anything :func:`repro.io.dependency_to_json` / :func:`repro.io.view_to_json`
round-trips canonically is a stable cache key.  Change the encoding and
you must bump :data:`repro.store.sqlite.SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from ..algebra.spcu import SPCUView
from ..core.cfd import CFD
from ..core.lru import LRUCache
from ..io import domain_to_json, dependency_to_json, spc_view_to_json
from ..store import BlobStore
from .rbr import RBRStats

__all__ = [
    "EngineStats",
    "LRUCache",
    "TieredCache",
    "stable_digest",
    "sigma_fingerprint",
    "view_fingerprint",
    "dependency_fingerprint",
    "query_persist_key",
    "verdict_persist_key",
    "cover_persist_key",
]

_MISSING = object()


# LRUCache now lives in repro.core.lru (dependency-free) so the closure
# memo in repro.core.fd and the kernel's compiled-program caches can use
# it without importing the propagation layer; re-exported here unchanged.


@dataclass
class EngineStats:
    """Instrumentation counters for one
    :class:`~repro.propagation.engine.PropagationEngine`.

    The single declaration of every engine counter: the engine hands
    this object to each producer (its tiered caches, each view's
    :class:`~repro.propagation.check.BranchPairCache` and packed runners,
    the LRU eviction hooks under them), which tick it in place.  A cache
    built standalone gets a private instance.  ``repr`` is the generated
    dataclass repr; the wire ``stats`` op and the CLI's ``--stats`` print
    it.

    ``chase_invocations`` counts chase runs *launched by check queries*
    (cache hits launch none); the perf-regression tests bound it by the
    number of unique closures/LHS shapes in a batch.  A miss decided on a
    compiled implication program ticks one per conjunct it tests, and no
    ``coupled``/``chased`` counter (it builds no skeleton).
    ``verdict_hits``/``cover_hits`` count memory-tier hits; the
    ``persistent_*`` counters and ``evictions`` count the tiered memo
    caches and ``tableau_evictions`` the LRU-bounded
    :class:`~repro.propagation.check.BranchPairCache` layers;
    ``closure_hits``/``closure_misses`` are this engine's window onto
    the process-wide attribute-closure memo
    (:func:`repro.core.fd.closure_cache_info`) — deltas since engine
    construction, read at the end of each call, so engines sharing the
    process also share traffic.
    ``pair_chases`` counts pair-restricted chase launches — the misses
    of the per-pair verdict memo on multi-branch unions, so the
    delta-restricted share of ``chase_invocations`` is distinguishable.
    """

    check_queries: int = 0
    verdict_hits: int = 0
    closure_fast_path: int = 0
    closure_hits: int = 0
    closure_misses: int = 0
    chase_invocations: int = 0
    coupled_hits: int = 0
    coupled_misses: int = 0
    chased_hits: int = 0
    chased_misses: int = 0
    cover_queries: int = 0
    cover_hits: int = 0
    persistent_hits: int = 0
    persistent_misses: int = 0
    persistent_writes: int = 0
    evictions: int = 0
    tableau_evictions: int = 0
    single_flight_waits: int = 0
    pair_chases: int = 0
    rbr: RBRStats = field(default_factory=RBRStats)

    def tick(self, name: str) -> None:
        """Add one to counter *name* (the LRU ``on_evict`` hook)."""
        setattr(self, name, getattr(self, name) + 1)


class TieredCache:
    """An :class:`LRUCache` backed by an optional persistent store table.

    ``get``/``put`` take two keys: the process-local structural key for
    the memory tier and (when a store is attached) the stable fingerprint
    for the persistent tier.  ``get`` returns ``(value, layer)`` with
    ``layer`` one of ``"memory"``, ``"persistent"`` or ``None`` (miss);
    a persistent hit is promoted into the memory tier.  Payloads cross
    the store boundary through the injected ``encode``/``decode`` pair.
    Store traffic and memory-tier evictions tick *stats* (the engine's
    :class:`EngineStats`; a private one when omitted).
    """

    def __init__(
        self,
        table: str,
        capacity: int | None = None,
        store: BlobStore | None = None,
        encode: Callable[[Any], str] = str,
        decode: Callable[[str], Any] = str,
        stats: EngineStats | None = None,
    ) -> None:
        self.table = table
        self.stats = EngineStats() if stats is None else stats
        self.memory = LRUCache(capacity, on_evict=partial(self.stats.tick, "evictions"))
        self.store = store
        self._encode = encode
        self._decode = decode

    def get(self, key: Any, persist_key: str | None = None) -> tuple[Any, str | None]:
        value = self.memory.get(key, _MISSING)
        if value is not _MISSING:
            return value, "memory"
        if self.store is not None and persist_key is not None:
            payload = self.store.get(self.table, persist_key)
            if payload is not None:
                self.stats.persistent_hits += 1
                value = self._decode(payload)
                self.memory.put(key, value)
                return value, "persistent"
            self.stats.persistent_misses += 1
        return None, None

    def put(self, key: Any, value: Any, persist_key: str | None = None) -> None:
        self.memory.put(key, value)
        if self.store is not None and persist_key is not None:
            self.store.put(self.table, persist_key, self._encode(value))
            self.stats.persistent_writes += 1

    def wait_promote(
        self, key: Any, persist_key: str | None, timeout_s: float
    ) -> tuple[Any, bool]:
        """Block for another flight's persistent write, then promote it.

        The waiter half of cross-process single-flight: polls the store
        for the lease owner's payload; on arrival decodes it, promotes
        it into the memory tier and returns ``(value, True)`` (counted
        as a persistent hit — the store served it).  ``(None, False)``
        on timeout — the caller computes locally.
        """
        if self.store is None or persist_key is None:
            return None, False
        payload = self.store.wait_for(self.table, persist_key, timeout_s)
        if payload is None:
            return None, False
        self.stats.persistent_hits += 1
        value = self._decode(payload)
        self.memory.put(key, value)
        return value, True

    def clear_memory(self) -> None:
        """Drop the in-memory tier; the persistent store is untouched."""
        self.memory.clear()


# ----------------------------------------------------------------------
# Stable fingerprints (persistent-tier keys).
# ----------------------------------------------------------------------


def _canonical(doc: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr fallback."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)


def stable_digest(doc: Any) -> str:
    """A short hex digest of the canonical JSON encoding of *doc*.

    Stable across processes and Python invocations (no ``hash()``
    randomization), which is what lets one sqlite store serve many
    workers.
    """
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def dependency_fingerprint(phi: CFD) -> str:
    """The stable fingerprint of one dependency (wire-format canonical)."""
    return stable_digest(dependency_to_json(phi))


def sigma_fingerprint(sigma_cfds: Iterable[CFD]) -> str:
    """The stable fingerprint of a dependency set.

    *sigma_cfds* must already be the normal-form CFD set the engine keys
    on (:func:`repro.propagation.check._as_cfds` output), so an FD and
    its all-wildcard CFD embedding — and any input ordering or duplicate
    multiplicity — share one fingerprint, mirroring the in-memory
    ``frozenset`` key exactly.
    """
    return stable_digest(
        sorted({_canonical(dependency_to_json(phi)) for phi in sigma_cfds})
    )


def _view_doc(view: Any) -> Any:
    """The canonical document behind a view fingerprint.

    The :func:`repro.io.view_to_json` wire format plus the attribute
    *domains* of the view's extended schema — verdicts depend on finite
    domains (the chase enumerates their values), so views that differ
    only in domains must never share a persistent line.
    """
    if isinstance(view, SPCUView):
        return {"name": view.name, "branches": [_view_doc(b) for b in view.branches]}
    return {
        "view": spc_view_to_json(view),
        "domains": sorted(
            (attr, domain_to_json(domain))
            for attr, domain in view.extended_attributes().items()
        ),
    }


def view_fingerprint(view: Any) -> str:
    """The stable fingerprint of a view's normal form (domains included)."""
    return stable_digest(_view_doc(view))


def query_persist_key(
    kind: str,
    sigma_field: str,
    sigma_fp: str,
    view_fp: str,
    phi: CFD | None,
    max_instantiations: int | None,
    assume_infinite: bool,
) -> str:
    """The one persistent-key derivation every flavor goes through.

    ``sigma_field`` names how the Sigma slot was fingerprinted —
    ``"sigma"`` for the PR 2 whole-Sigma digest, ``"provenance"`` for
    the PR 4 per-relation composite
    (:mod:`repro.propagation.engine.keys`) — and is part of the hashed
    document, so the two keyspaces can never collide.  Engine settings
    are part of the key: a capped or assume-infinite run may
    legitimately answer differently, and must never share a line with
    the exact procedure.
    """
    doc = {
        "kind": kind,
        sigma_field: sigma_fp,
        "view": view_fp,
        "max_instantiations": max_instantiations,
        "assume_infinite": bool(assume_infinite),
    }
    if phi is not None:
        doc["phi"] = dependency_to_json(phi)
    return stable_digest(doc)


def verdict_persist_key(
    sigma_fp: str,
    view_fp: str,
    phi: CFD,
    max_instantiations: int | None,
    assume_infinite: bool,
) -> str:
    """The whole-Sigma-fingerprint verdict key (PR 2 flavor)."""
    return query_persist_key(
        "verdict", "sigma", sigma_fp, view_fp, phi, max_instantiations, assume_infinite
    )


def cover_persist_key(
    sigma_fp: str,
    view_fp: str,
    max_instantiations: int | None,
    assume_infinite: bool,
) -> str:
    """The whole-Sigma-fingerprint cover key (PR 2 flavor)."""
    return query_persist_key(
        "cover", "sigma", sigma_fp, view_fp, None, max_instantiations, assume_infinite
    )
