"""A capacity-bounded least-recently-used map with telemetry counters.

Lives in :mod:`repro.core` (dependency-free) so that core modules —
the attribute-closure memo in :mod:`repro.core.fd`, the kernel's
compiled-program caches — can bound their memos without importing the
propagation layer.  :mod:`repro.propagation.cache` re-exports it as the
engine's in-memory cache tier.  The engine's caches hand each LRU an
``on_evict`` hook that ticks their
:class:`~repro.propagation.cache.EngineStats` in place, so an eviction
stays counted after the LRU itself is dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """A least-recently-used map with telemetry counters.

    ``capacity=None`` means unbounded (no eviction ever).  ``get`` bumps
    recency and counts a hit or miss; ``put`` inserts or refreshes and
    evicts the least recently used entry once the capacity is exceeded,
    counting each eviction (and calling *on_evict*, when given, once per
    eviction).  ``__contains__`` and ``clear`` touch neither
    recency nor counters — counters describe *lookup traffic*, and they
    survive ``clear`` the same way engine stats survive
    :meth:`~repro.propagation.engine.PropagationEngine.clear`.
    """

    def __init__(
        self,
        capacity: int | None = None,
        on_evict: Callable[[], None] | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"LRU capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        try:
            self._data.move_to_end(key)
        except KeyError:  # evicted by another thread since the read
            pass
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        refresh = key in self._data
        self._data[key] = value
        if refresh:
            try:
                self._data.move_to_end(key)
            except KeyError:  # evicted by another thread meanwhile
                pass
        # Checked on refreshes too: another thread may evict *key* between
        # the membership test and the store, which then re-inserts it.
        while self.capacity is not None and len(self._data) > self.capacity:
            try:
                self._data.popitem(last=False)
            except KeyError:  # emptied by another thread meanwhile
                break
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict()

    def keys(self):
        """Keys from least to most recently used (eviction order)."""
        return list(self._data.keys())

    def values(self):
        """Values from least to most recently used (no recency change)."""
        return list(self._data.values())

    def discard(self, key: Any) -> bool:
        """Drop *key* if present (invalidation — not counted as eviction).

        Evictions count capacity pressure; discards are deliberate
        invalidation (``engine.invalidate_relations``) and are reported
        by their caller instead.
        """
        return self._data.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        self._data.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else self.capacity
        return (
            f"LRUCache(len={len(self._data)}/{cap}, "
            f"{self.hits}h/{self.misses}m, evictions={self.evictions})"
        )
