"""``EquivalenceClasses`` union-find on int arrays instead of dicts.

A drop-in for :class:`repro.propagation.eqclasses.EquivalenceClasses`:
attributes are interned to dense integer ids once at construction, and
``find``/``union``/``set_key`` run on a flat parent list with
path-halving — no per-step dict hashing of attribute strings.

The semantics mirror the baseline *exactly*, including observable
incidentals the cover pipeline depends on:

- ``union(a, b)`` merges ``b``'s root under ``a``'s root (the merge
  direction decides which attribute names each class's root, and
  ``classes()`` sorts buckets by root — so ``EQ2CFD`` output order is
  identical);
- key conflicts return the same :class:`BottomEQ` witnesses, built from
  the same attribute and value pair.

``compute_eq(..., kernel="bitset")`` in
:mod:`repro.propagation.eqclasses` swaps this class in; every consumer
(``_fires_globally``, ``eq2cfd``, the domain-constraint substitution in
``cover.py``) goes through the shared public API so nothing else
changes.  ``tests/test_kernel.py`` differentials the two on seeded
random operation streams and generator-built views.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["PackedEquivalenceClasses"]

_NO_KEY = object()


class PackedEquivalenceClasses:
    """A union-find over interned view attributes with per-class keys."""

    def __init__(self, attributes: Iterable[str]) -> None:
        from ..propagation.eqclasses import BottomEQ  # avoid import cycle

        self._bottom = BottomEQ
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for attr in attributes:
            if attr not in self._index:
                self._index[attr] = len(self._names)
                self._names.append(attr)
        n = len(self._names)
        self._parent: list[int] = list(range(n))
        self._keys: list[Any] = [_NO_KEY] * n

    # -- union-find ----------------------------------------------------

    def _find(self, node: int) -> int:
        parent = self._parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def find(self, attribute: str) -> str:
        return self._names[self._find(self._index[attribute])]

    def union(self, a: str, b: str):
        ra = self._find(self._index[a])
        rb = self._find(self._index[b])
        if ra == rb:
            return None
        ka = self._keys[ra]
        kb = self._keys[rb]
        if ka is not _NO_KEY and kb is not _NO_KEY and ka != kb:
            return self._bottom(a, (ka, kb))
        self._parent[rb] = ra
        if kb is not _NO_KEY and ka is _NO_KEY:
            self._keys[ra] = kb
        return None

    def set_key(self, attribute: str, value: Any):
        root = self._find(self._index[attribute])
        existing = self._keys[root]
        if existing is not _NO_KEY:
            if existing != value:
                return self._bottom(attribute, (existing, value))
            return None
        self._keys[root] = value
        return None

    def key(self, attribute: str) -> Any | None:
        """The class key (constant forced on the class) or ``None``."""
        value = self._keys[self._find(self._index[attribute])]
        return None if value is _NO_KEY else value

    def has_key(self, attribute: str) -> bool:
        return self._keys[self._find(self._index[attribute])] is not _NO_KEY

    def same(self, a: str, b: str) -> bool:
        return self._find(self._index[a]) == self._find(self._index[b])

    def classes(self) -> list[list[str]]:
        buckets: dict[str, list[str]] = {}
        for node, attribute in enumerate(self._names):
            buckets.setdefault(self._names[self._find(node)], []).append(attribute)
        return [sorted(members) for _, members in sorted(buckets.items())]

    def representatives(self, prefer: Iterable[str]) -> dict[str, str]:
        """As :meth:`EquivalenceClasses.representatives`."""
        from ..propagation.eqclasses import _representatives

        return _representatives(self.classes(), prefer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for members in self.classes():
            key = self.key(members[0])
            suffix = f"={key!r}" if self.has_key(members[0]) else ""
            parts.append("{" + ",".join(members) + "}" + suffix)
        return "PackedEQ(" + " ".join(parts) + ")"
