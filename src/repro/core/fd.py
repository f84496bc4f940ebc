"""Traditional functional dependencies and their classical machinery.

FDs are the degenerate case of CFDs whose pattern tuples are all wildcards,
but the classical FD algorithms (attribute closure, implication, minimal
cover, full closure) are needed independently:

- as source dependencies for "propagation from FDs to CFDs" (Section 3.1),
- as the baseline formalism of Table 2, and
- for the textbook closure-based cover method the paper argues against
  (Section 4.1 / ``repro.propagation.closure_baseline``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Iterable, Sequence

from .lru import LRUCache


@dataclass(frozen=True)
class FD:
    """A functional dependency ``relation: X -> Y``.

    ``lhs`` and ``rhs`` are stored as sorted tuples of attribute names so
    that equal dependencies compare and hash equal.
    """

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __init__(self, relation: str, lhs: Iterable[str], rhs: Iterable[str] | str) -> None:
        if isinstance(rhs, str):
            rhs = (rhs,)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "lhs", tuple(sorted(set(lhs))))
        object.__setattr__(self, "rhs", tuple(sorted(set(rhs))))
        if not self.rhs:
            raise ValueError("an FD needs a nonempty right-hand side")
        object.__setattr__(
            self, "_hash", hash((self.relation, self.lhs, self.rhs))
        )

    def __hash__(self) -> int:
        # Matches the frozen-dataclass derivation over the compared
        # fields, but precomputed: FDs live inside frozenset cache keys
        # that the engine hashes millions of times.
        return self._hash

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(self.lhs) | frozenset(self.rhs)

    def is_trivial(self) -> bool:
        """True iff ``rhs`` is contained in ``lhs``."""
        return set(self.rhs) <= set(self.lhs)

    def split(self) -> list["FD"]:
        """Normal form: one FD per RHS attribute."""
        return [FD(self.relation, self.lhs, (b,)) for b in self.rhs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lhs = ",".join(self.lhs) or "()"
        rhs = ",".join(self.rhs)
        return f"{self.relation}({lhs} -> {rhs})"


def attribute_closure(
    attrs: Iterable[str], fds: Iterable[FD], use_cache: bool = True
) -> frozenset[str]:
    """The closure ``X+`` of an attribute set under a set of FDs.

    Linear-time fixpoint: repeatedly add the RHS of every FD whose LHS is
    already contained in the closure.  All FDs are assumed to live on the
    same relation; callers filter by relation name first.

    Results are memoized keyed on the frozen LHS plus a fingerprint of the
    FD set (the set itself, order-insensitive), so changing Sigma in any
    way reaches a different cache line.  The memo is LRU-bounded
    (:class:`~repro.core.lru.LRUCache`) so batch workloads with unbounded
    Sigma/LHS diversity cannot grow it without limit; misses route
    through the configured kernel (``REPRO_KERNEL``) — the bit-packed
    fixpoint of :mod:`repro.kernel.closure` by default.
    ``use_cache=False`` bypasses both the memo and the kernel (the
    ablation escape hatch and differential oracle); generators of FDs
    are consumed either way.
    """
    if use_cache:
        key = (frozenset(attrs), frozenset(fds))
        cached = _closure_memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = _closure_kernel(key[0], key[1])
        _closure_memo.put(key, result)
        return result
    return _closure_fixpoint(attrs, fds)


_MISSING = object()

#: The bounded attribute-closure memo.  65536 lines matches the bound the
#: old ``functools.lru_cache`` carried; the LRUCache exposes the hit/miss
#: telemetry each engine reads as its ``closure_hits``/``closure_misses``
#: window.
_closure_memo: LRUCache = LRUCache(65536)

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _closure_kernel(attrs: frozenset[str], fds: frozenset[FD]) -> frozenset[str]:
    from ..kernel.closure import bitset_closure
    from ..kernel.config import resolve_kernel

    if resolve_kernel() == "bitset":
        return bitset_closure(attrs, fds)
    return _closure_fixpoint(attrs, fds)


def closure_cache_info() -> CacheInfo:
    """Hit/miss statistics of the attribute-closure memo (for tests/stats)."""
    return CacheInfo(
        hits=_closure_memo.hits,
        misses=_closure_memo.misses,
        maxsize=_closure_memo.capacity,
        currsize=len(_closure_memo),
    )


def clear_closure_cache() -> None:
    """Drop every memoized attribute closure (counters keep running)."""
    _closure_memo.clear()


def _closure_fixpoint(attrs: Iterable[str], fds: Iterable[FD]) -> frozenset[str]:
    closure = set(attrs)
    pending = list(fds)
    changed = True
    while changed:
        changed = False
        remaining: list[FD] = []
        for fd in pending:
            if set(fd.lhs) <= closure:
                before = len(closure)
                closure.update(fd.rhs)
                if len(closure) != before:
                    changed = True
            else:
                remaining.append(fd)
        pending = remaining
    return frozenset(closure)


def implies(fds: Iterable[FD], fd: FD) -> bool:
    """Whether a set of FDs implies *fd* (all on ``fd.relation``)."""
    same_relation = [f for f in fds if f.relation == fd.relation]
    return set(fd.rhs) <= attribute_closure(fd.lhs, same_relation)


def equivalent(first: Iterable[FD], second: Iterable[FD]) -> bool:
    """Whether two FD sets imply each other."""
    first = list(first)
    second = list(second)
    return all(implies(second, f) for f in first) and all(
        implies(first, f) for f in second
    )


def minimal_cover(fds: Iterable[FD]) -> list[FD]:
    """A minimal cover in the classical sense.

    Splits RHSs, removes extraneous LHS attributes, then removes redundant
    FDs.  Deterministic: processes dependencies in sorted order.
    """
    current: list[FD] = []
    for fd in fds:
        current.extend(f for f in fd.split() if not f.is_trivial())
    current = sorted(set(current), key=repr)

    # Remove extraneous LHS attributes.
    reduced: list[FD] = []
    for fd in current:
        lhs = list(fd.lhs)
        for attr in list(lhs):
            if len(lhs) <= 1:
                break
            trial = [a for a in lhs if a != attr]
            if implies(current, FD(fd.relation, trial, fd.rhs)):
                lhs = trial
        reduced.append(FD(fd.relation, lhs, fd.rhs))
    current = reduced

    # Remove redundant FDs.
    result = list(current)
    for fd in list(current):
        rest = [f for f in result if f != fd]
        if fd in result and implies(rest, fd):
            result = rest
    return result


def fd_closure(
    relation: str,
    attributes: Sequence[str],
    fds: Iterable[FD],
    max_lhs: int | None = None,
) -> list[FD]:
    """The full closure ``F+`` restricted to nontrivial, single-RHS FDs.

    This is the exponential object underlying the textbook propagation-cover
    method (compute ``F+``, project): it enumerates every LHS subset of
    *attributes* (optionally capped at ``max_lhs`` attributes) and takes
    its attribute closure.  Kept deliberately naive — it is the baseline the
    paper's Example 4.1 and Section 4.1 discuss, and the ablation benchmark
    measures its blow-up against RBR.  The closure memo is bypassed here
    for the same reason: a cached baseline would measure dict lookups, not
    the method (and would flood the memo with 2^n throwaway lines).
    """
    fds = [f for f in fds if f.relation == relation]
    result: list[FD] = []
    attrs = sorted(set(attributes))
    top = len(attrs) if max_lhs is None else min(max_lhs, len(attrs))
    for size in range(top + 1):
        for lhs in combinations(attrs, size):
            closed = attribute_closure(lhs, fds, use_cache=False)
            for b in sorted(closed - set(lhs)):
                result.append(FD(relation, lhs, (b,)))
    return result


def project_fds(
    fds: Iterable[FD], attributes: AbstractSet[str], relation: str | None = None
) -> list[FD]:
    """Keep only FDs whose attributes all lie within *attributes*.

    The second half of the textbook method: project ``F+`` onto the view
    schema.
    """
    kept = []
    for fd in fds:
        if fd.attributes <= attributes:
            if relation is None:
                kept.append(fd)
            else:
                kept.append(FD(relation, fd.lhs, fd.rhs))
    return kept
