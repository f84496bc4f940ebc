"""Perf-regression smoke tests for the batch engine (marked ``slow``).

These bound *work counters*, not wall-clock time: the engine's contract
on batched workloads is that chase invocations scale with the number of
**unique closures / LHS shapes**, not with the number of queries.  The
workload is the Example 4.1 family (``exponential_family``), whose
``2^n`` eta-combination candidates are the paper's canonical stress for
closure-based reasoning.

Run with ``PYTHONPATH=src python -m pytest -m slow tests/test_perf_smoke.py``.
"""

from __future__ import annotations

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.core.schema import DatabaseSchema
from repro.propagation import propagates
from repro.propagation.closure_baseline import exponential_family
from repro.propagation.engine import PropagationEngine

pytestmark = pytest.mark.slow

REPEATS = 3


def _family_view(n: int, self_join: bool = False):
    schema, fds, projection = exponential_family(n)
    atoms = [RelationAtom("R", {a: a for a in schema.attribute_names})]
    if self_join:  # R x R projected onto the first copy: the same view
        atoms.append(RelationAtom("R", {a: f"y.{a}" for a in schema.attribute_names}))
    view = SPCView("V", DatabaseSchema([schema]), atoms, projection=projection)
    return fds, view


def _eta_lhs(n: int, mask: int) -> tuple[str, ...]:
    return tuple(
        (f"A{i + 1}" if mask & (1 << i) else f"B{i + 1}") for i in range(n)
    )


def test_check_many_is_bounded_by_unique_closures():
    """FD workload: 2^8 unique LHS shapes x 2 RHS x 3 repeats.

    Every query is served by the memoized attribute closure (the fast
    path) — at most one closure per unique LHS and *zero* chases, where
    the uncached path runs one chase per nontrivial query.
    """
    n = 8
    fds, view = _family_view(n)
    queries = []
    for mask in range(2 ** n):
        lhs = _eta_lhs(n, mask)
        queries.append(FD("V", lhs, ("D",)))
        queries.append(FD("V", lhs, ("A1",)))
    queries = queries * REPEATS
    unique_lhs = 2 ** n

    engine = PropagationEngine()
    verdicts = engine.check_many(fds, view, queries)

    assert engine.stats.chase_invocations <= unique_lhs
    assert engine.stats.check_queries == len(queries)
    # Repeats never recompute: at least the two repeat rounds hit the memo.
    assert engine.stats.verdict_hits >= 2 * 2 * unique_lhs

    # Spot-check semantics against the plain path on a sample.
    assert all(verdicts[0::2]), "every eta combination must reach D"
    sample = [0, 1, 2 ** n - 1, 2 ** n]
    for index in sample:
        assert verdicts[index] == propagates(fds, view, queries[index])


def test_chased_skeleton_sharing_without_the_fast_path():
    """CFD workload (fast path off): chases bounded by unique LHS shapes.

    A constant-pattern CFD in Sigma disables the closure fast path, so
    every verdict goes through the chase — but on the pair loop all
    queries with one LHS shape share a single chased skeleton, so
    ``2^n x 2`` nontrivial queries (x 3 repeats) cost at most ``2^n``
    premise chases.  The bitset kernel decides this one-relation view on
    its compiled implication program instead: one test per nontrivial
    unique query, no skeleton, repeats free.  A self-join of R keeps the
    bitset kernel on its bit-packed pair runner, which shares skeletons
    the same way and adds one baseline chase per unique non-propagated
    query: it rebuilds the counterexample witness on the baseline
    machinery, which cross-checks every negative verdict.
    """
    n = 5
    fds, view = _family_view(n)
    sigma = fds + [CFD("R", {"A1": "1"}, {"D": "9"})]
    queries = []
    for mask in range(2 ** n):
        lhs = _eta_lhs(n, mask)
        queries.append(FD("V", lhs, ("D",)))
        queries.append(FD("V", lhs, ("A1",)))
    unique_queries = len(queries)
    queries = queries * REPEATS
    unique_lhs = 2 ** n

    engine = PropagationEngine(kernel="baseline")
    verdicts = engine.check_many(sigma, view, queries)
    assert engine.stats.closure_fast_path == 0
    assert engine.stats.chase_invocations <= unique_lhs
    assert engine.stats.chased_hits > 0

    compiled = PropagationEngine(kernel="bitset")
    assert compiled.check_many(sigma, view, queries) == verdicts
    nontrivial = sum(
        not CFD.from_fd(phi).is_trivial() for phi in queries[:unique_queries]
    )
    assert compiled.stats.closure_fast_path == 0
    assert compiled.stats.chase_invocations == nontrivial
    assert compiled.stats.coupled_misses == compiled.stats.chased_misses == 0

    _, joined_view = _family_view(n, self_join=True)
    packed = PropagationEngine(kernel="bitset")
    assert packed.check_many(sigma, joined_view, queries) == verdicts
    rebuilds = verdicts[:unique_queries].count(False)
    assert rebuilds > 0
    assert packed.stats.closure_fast_path == 0
    assert packed.stats.chase_invocations <= unique_lhs + rebuilds
    assert packed.stats.chased_hits > 0

    # The uncached baseline pays one chase per nontrivial unique query
    # and re-pays it on every repeat — strictly more work.
    baseline = PropagationEngine(use_cache=False)
    assert baseline.check_many(sigma, view, queries) == verdicts
    assert baseline.stats.chase_invocations > engine.stats.chase_invocations
    assert baseline.stats.chase_invocations >= unique_lhs * REPEATS


def test_cover_many_shares_the_input_mincover():
    """Batched covers re-minimize Sigma once, not once per view."""
    n = 6
    fds, view = _family_view(n)
    schema, _, projection = exponential_family(n)
    views = [view]
    for k in (1, 2):
        views.append(
            SPCView(
                "V",
                DatabaseSchema([schema]),
                [RelationAtom("R", {a: a for a in schema.attribute_names})],
                projection=projection[:-k] + ["D"],
            )
        )
    engine = PropagationEngine()
    covers = engine.cover_many(fds, views)
    assert len(covers) == len(views)
    for cover, v in zip(covers, views):
        for phi in cover:
            assert propagates(fds, v, phi)
    # Asking again is free (cover memo).
    before = engine.stats.rbr.drops
    engine.cover_many(fds, views)
    assert engine.stats.rbr.drops == before
    assert engine.stats.cover_hits >= len(views)
