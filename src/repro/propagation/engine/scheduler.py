"""The shard plan of the k² branch-pair chase of union views.

The SPCU decision procedure (Theorem 3.1/3.5) examines every *ordered
pair* of union branches — ``k²`` coupled tableaux per query shape for a
``k``-branch view.  :func:`plan_pairs` deals that pair space into
deterministic **shards**; a ``PropagationEngine(shards=S,
shard_index=i)`` checks only the pairs of shard ``i``.  Its verdicts mean
"no violation in shard ``i``" — sound for refutation, partial for
propagation — so they are memoized under shard-scoped keys and never
persisted, and ``Sigma |=_V phi`` holds iff every shard's verdict is
``True``.  :class:`~repro.api.ShardOrchestrator` fans the ``S`` shards
across a fleet of workers and ANDs them.
"""

from __future__ import annotations

__all__ = ["plan_pairs"]

Pair = tuple[int, int]


def plan_pairs(num_branches: int, shards: int) -> list[tuple[Pair, ...]]:
    """Deal the ``k²`` ordered branch pairs into ``shards`` strides.

    The deal order is *diagonal-first*: the ``k`` diagonal pairs, then
    the off-diagonal pairs in row-major order, strided round-robin.
    Diagonal pairs also carry the equality-form conjunct work (a shard
    runs branch ``i``'s equality chases iff it owns ``(i, i)``), so
    they must spread across shards; a plain row-major stride parks
    every diagonal in shard 0 whenever ``shards`` divides ``k + 1``
    (diagonal ``(i, i)`` sits at row-major index ``i * (k + 1)``),
    serializing that work in one straggler.

    Returns exactly ``shards`` tuples (trailing ones empty when
    ``shards > k²``); deterministic in ``(num_branches, shards)``.
    """
    if num_branches < 1:
        raise ValueError(f"num_branches must be positive, got {num_branches}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    ordered = [(i, i) for i in range(num_branches)] + [
        (i, j)
        for i in range(num_branches)
        for j in range(num_branches)
        if i != j
    ]
    return [tuple(ordered[s::shards]) for s in range(shards)]
