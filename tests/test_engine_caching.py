"""Property tests for the engine's cache keys and hash-consing.

Three soundness obligations of the caching layer:

1. Closure memoization keys on the Sigma fingerprint — any change to the
   FD set reaches a fresh cache line (stale closures are never served).
2. ``use_cache=False`` and cached engines agree on every workload, and a
   mutated Sigma never sees verdicts cached for the original.
3. Interned ``Const`` entries never alias across distinct constants —
   identity is at least as fine as equality, so hash-consing cannot
   merge pattern entries that a comparison would distinguish.

And one cost bound: a cold batch hashes each miss's memo key at most
five times (the key tuple's hash is not cached), duplicates included.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.core.fd import (
    attribute_closure,
    clear_closure_cache,
    closure_cache_info,
)
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.core.values import Const, const
from repro.propagation import propagates
from repro.propagation.closure_baseline import example_41_workload
from repro.propagation.engine import PropagationEngine

ATTRS = ["A", "B", "C", "D", "E"]


# ----------------------------------------------------------------------
# 1. Closure memoization and its invalidation.
# ----------------------------------------------------------------------

fd_strategy = st.builds(
    lambda lhs, rhs: FD("R", lhs, (rhs,)),
    st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2),
    st.sampled_from(ATTRS),
)


@given(
    st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3),
    st.lists(fd_strategy, max_size=6),
    st.lists(fd_strategy, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_closure_memo_is_invalidated_when_sigma_changes(attrs, fds, extra):
    """Cached closures always equal uncached ones, before and after Sigma
    grows — the fingerprint key can never serve a stale line."""
    before = attribute_closure(attrs, fds)
    assert before == attribute_closure(attrs, fds, use_cache=False)

    changed = fds + [fd for fd in extra if fd not in fds]
    after = attribute_closure(attrs, changed)
    assert after == attribute_closure(attrs, changed, use_cache=False)
    # Monotone sanity: adding FDs can only grow a closure.
    assert before <= after


def test_closure_memo_hits_on_repeats_and_misses_on_new_sigma():
    clear_closure_cache()
    fds = [FD("R", ("A",), ("B",)), FD("R", ("B",), ("C",))]
    assert attribute_closure({"A"}, fds) == {"A", "B", "C"}
    base = closure_cache_info()
    assert attribute_closure(["A"], list(fds)) == {"A", "B", "C"}
    hit = closure_cache_info()
    assert hit.hits == base.hits + 1 and hit.misses == base.misses

    # Same LHS, different Sigma: a miss, and the new Sigma's answer.
    assert attribute_closure({"A"}, fds[:1]) == {"A", "B"}
    assert closure_cache_info().misses == hit.misses + 1

    # Order of the FD list is not part of the key.
    assert attribute_closure({"A"}, list(reversed(fds))) == {"A", "B", "C"}
    assert closure_cache_info().hits == hit.hits + 1


# ----------------------------------------------------------------------
# 2. Cached and uncached engines agree (and Sigma edits take effect).
# ----------------------------------------------------------------------


def _projection_view(projection):
    schema = DatabaseSchema([RelationSchema("R", ATTRS)])
    return SPCView(
        "V",
        schema,
        [RelationAtom("R", {a: a for a in ATTRS})],
        projection=sorted(projection),
    )


sigma_strategy = st.lists(
    st.builds(
        lambda lhs, rhs, c: (
            CFD("R", {a: "7" if c and a == sorted(lhs)[0] else "_" for a in lhs}, {rhs: "_"})
        ),
        st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2),
        st.sampled_from(ATTRS),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)

phi_strategy = st.builds(
    lambda lhs, rhs, c: CFD(
        "V",
        {a: "7" if c and a == sorted(lhs)[0] else "_" for a in lhs},
        {rhs: "_"},
    ),
    st.sets(st.sampled_from(ATTRS[:4]), min_size=1, max_size=2),
    st.sampled_from(ATTRS[:4]),
    st.booleans(),
)


@given(sigma_strategy, st.lists(phi_strategy, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_no_cache_and_cached_engines_agree(sigma, phis):
    view = _projection_view(ATTRS[:4])
    cached = PropagationEngine(use_cache=True)
    uncached = PropagationEngine(use_cache=False)
    expected = [propagates(sigma, view, phi) for phi in phis]
    assert cached.check_many(sigma, view, phis) == expected
    assert uncached.check_many(sigma, view, phis) == expected


@given(sigma_strategy, phi_strategy)
@settings(max_examples=40, deadline=None)
def test_verdict_memo_is_keyed_on_sigma(sigma, phi):
    """One engine, two Sigmas: the memo never leaks across fingerprints."""
    view = _projection_view(ATTRS[:4])
    engine = PropagationEngine()
    first = engine.check(sigma, view, phi)
    assert first == propagates(sigma, view, phi)

    # Drop dependencies (or add one): re-query through the same engine.
    smaller = sigma[1:]
    assert engine.check(smaller, view, phi) == propagates(smaller, view, phi)
    larger = sigma + [CFD("R", {"A": "_"}, {"B": "_"})]
    assert engine.check(larger, view, phi) == propagates(larger, view, phi)


def test_engine_clear_preserves_stats_and_verdicts():
    view = _projection_view(ATTRS[:4])
    sigma = [FD("R", ("A",), ("B",))]
    phi = FD("V", ("A",), ("B",))
    engine = PropagationEngine()
    assert engine.check(sigma, view, phi)
    queries_before = engine.stats.check_queries
    engine.clear()
    assert engine.stats.check_queries == queries_before
    assert engine.check(sigma, view, phi)  # recomputed, same verdict


# ----------------------------------------------------------------------
# 3. Hash-consing soundness.
# ----------------------------------------------------------------------

hashable_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(max_size=6),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@given(hashable_values)
@settings(max_examples=100, deadline=None)
def test_interning_is_idempotent(value):
    entry = const(value)
    assert isinstance(entry, Const)
    assert entry.value == value or (value != value)
    assert const(value) is entry


@given(hashable_values, hashable_values)
@settings(max_examples=100, deadline=None)
def test_interned_values_never_alias_distinct_constants(a, b):
    """Distinct constants (by equality *or* type) get distinct objects."""
    ca, cb = const(a), const(b)
    if a != b or type(a) is not type(b):
        assert ca is not cb
    if ca is cb:
        assert a == b and type(a) is type(b)


def test_interning_distinguishes_equal_values_of_different_types():
    assert const(1) is not const(True)
    assert const(1) is not const(1.0)
    assert const("1") is not const(1)
    # ...even though dataclass equality conflates some of them:
    assert Const(1) == Const(True)


def test_unhashable_values_fall_back_to_fresh_allocation():
    entry = const(["x"])
    assert isinstance(entry, Const)
    assert entry.value == ["x"]
    assert const(["x"]) is not entry  # uncached, but still equal
    assert const(["x"]) == entry


def test_cfd_patterns_are_interned():
    phi1 = CFD("R", {"A": "20"}, {"B": "ldn"})
    phi2 = CFD("R", {"A": "20", "C": "_"}, {"B": "ldn"})
    assert phi1.lhs_entry("A") is phi2.lhs_entry("A")
    assert phi1.rhs_entry is phi2.rhs_entry


# ----------------------------------------------------------------------
# 4. Memo-key hashes per cold miss.
# ----------------------------------------------------------------------


def test_a_cold_batch_hashes_each_target_at_most_five_times(monkeypatch):
    """The Example 4.1 n = 8 batch: 256 cold targets, then duplicates."""
    view, sigma, queries = example_41_workload(8, defeat_fast_path=True)
    batch = random.Random(1).sample(queries, len(queries))
    calls = [0]
    cfd_hash = CFD.__hash__

    def counting(self):
        calls[0] += 1
        return cfd_hash(self)

    engine = PropagationEngine()
    monkeypatch.setattr(CFD, "__hash__", counting)
    verdicts = engine.check_many(sigma, view, batch)
    monkeypatch.undo()
    assert verdicts == [True] * len(batch)
    assert calls[0] <= 5 * len(batch)

    # Duplicates of in-flight misses and of hits are memo hits, once each.
    fresh = PropagationEngine()
    repeated = batch[:8] + batch[:4] + batch[8:16]
    assert fresh.check_many(sigma, view, repeated) == [True] * len(repeated)
    assert fresh.stats.verdict_hits == 4
    assert fresh.check_many(sigma, view, batch[:2] * 2) == [True] * 4
    assert fresh.stats.verdict_hits == 8
