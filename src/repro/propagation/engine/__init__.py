"""The layered propagation engine package (facade).

PR 1-3 grew ``repro/propagation/engine.py`` into an 800-line monolith
mixing three concerns; this package splits them into explicit layers
(``docs/incremental.md`` and ``docs/architecture.md`` tell the story):

- :mod:`.keys` — the **provenance/keyspace layer**: per-relation Sigma
  fingerprints, the touched-relation sets recorded from the view's
  chase instance, and the composite cache keys that make Sigma edits
  invalidate only the lines whose provenance they meet.
- :mod:`.core` — the **engine core**: :class:`PropagationEngine`, the
  batch hit/miss partitioning over the tiered caches and the closure
  fast path.  Its counters, :class:`EngineStats`, are declared in
  :mod:`repro.propagation.cache` so the caches can tick them in place;
  they are re-exported here.
"""

from ..cache import EngineStats
from .core import PropagationEngine
from .keys import (
    cover_key,
    make_stale_predicate,
    provenance_doc,
    provenance_fingerprint,
    relation_fingerprints,
    scoped_sigma,
    structural_view_key,
    touched_relations,
    verdict_key,
)

__all__ = [
    "EngineStats",
    "PropagationEngine",
    "cover_key",
    "make_stale_predicate",
    "provenance_doc",
    "provenance_fingerprint",
    "relation_fingerprints",
    "scoped_sigma",
    "structural_view_key",
    "touched_relations",
    "verdict_key",
]
