"""Correctness tests for the tiered cache subsystem (PR 2).

Four obligations:

1. *Persistence round-trip* — verdicts and covers written by one engine
   are served to a fresh engine (a restart / another worker process)
   from the sqlite store, with zero chases.
2. *Schema-version mismatch falls back to cold* — a store written under
   a different ``SCHEMA_VERSION`` is dropped on open, never
   misinterpreted.
3. *LRU eviction order* — the in-memory tier evicts least recently
   *used* (not least recently inserted), and counts what it does.
4. *Differential* — cached + persistent answers match the uncached
   engine on the Example 4.1 workload.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.propagation.cache import (
    LRUCache,
    sigma_fingerprint,
    verdict_persist_key,
    view_fingerprint,
)
from repro.propagation.check import _as_cfds
from repro.propagation.closure_baseline import exponential_family, union_shard_workload
from repro.propagation.engine import PropagationEngine, structural_view_key
from repro.store.sqlite import SCHEMA_VERSION, SqliteStore


def _family(n: int):
    """The Example 4.1 workload: view, FD-only Sigma, 2^n eta queries."""
    schema, fds, projection = exponential_family(n)
    view = SPCView(
        "V",
        DatabaseSchema([schema]),
        [RelationAtom("R", {a: a for a in schema.attribute_names})],
        projection=projection,
    )
    queries = []
    for mask in range(2**n):
        lhs = tuple(
            (f"A{i + 1}" if mask & (1 << i) else f"B{i + 1}") for i in range(n)
        )
        queries.append(FD("V", lhs, ("D",)))
        queries.append(FD("V", lhs, ("A1",)))
    return fds, view, queries


# ----------------------------------------------------------------------
# 1. Persistence round-trip.
# ----------------------------------------------------------------------


def test_verdicts_survive_restart_with_zero_chases(tmp_path):
    fds, view, queries = _family(3)
    sigma = fds + [CFD("R", {"A1": "1"}, {"D": "9"})]  # defeat the fast path

    with PropagationEngine(cache_dir=str(tmp_path)) as warm:
        expected = warm.check_many(sigma, view, queries)
        assert warm.stats.chase_invocations > 0
        assert warm.stats.persistent_writes == len(set(queries))

    # A fresh engine — in production a different worker process — answers
    # the whole batch from the persistent tier without a single chase.
    with PropagationEngine(cache_dir=str(tmp_path)) as cold:
        assert cold.check_many(sigma, view, queries) == expected
        assert cold.stats.chase_invocations == 0
        assert cold.stats.closure_fast_path == 0
        assert cold.stats.persistent_hits == len(set(queries))


def test_cover_round_trip_through_store(tmp_path):
    fds, view, _ = _family(3)
    with PropagationEngine(cache_dir=str(tmp_path)) as warm:
        expected = warm.cover(fds, view)
        assert expected
    with PropagationEngine(cache_dir=str(tmp_path)) as cold:
        assert cold.cover(fds, view) == expected
        assert cold.stats.persistent_hits == 1
        assert cold.stats.rbr.drops == 0  # nothing recomputed


def test_engine_clear_refills_from_persistent_tier(tmp_path):
    fds, view, queries = _family(2)
    with PropagationEngine(cache_dir=str(tmp_path)) as engine:
        expected = engine.check_many(fds, view, queries)
        engine.clear()
        assert engine.check_many(fds, view, queries) == expected
        # Not recomputed: the cleared memory tier refilled from sqlite.
        assert engine.stats.persistent_hits == len(set(queries))


def test_store_is_keyed_on_sigma_and_settings(tmp_path):
    """Logically different queries never share a persistent line."""
    fds, view, queries = _family(2)
    with PropagationEngine(cache_dir=str(tmp_path)) as engine:
        engine.check_many(fds, view, queries)
    # Same store, mutated Sigma: every query recomputes.
    with PropagationEngine(cache_dir=str(tmp_path)) as engine:
        engine.check_many(fds[:-1], view, queries)
        assert engine.stats.persistent_hits == 0
    # Same store, different settings: fresh lines again.
    with PropagationEngine(cache_dir=str(tmp_path), assume_infinite=True) as engine:
        engine.check_many(fds, view, queries)
        assert engine.stats.persistent_hits == 0


def test_view_fingerprints_include_attribute_domains():
    """Views differing only in domains never share a cache line.

    Verdicts depend on finite domains (the chase enumerates them), so
    both the structural and the persistent view fingerprints must key on
    the extended schema's domains — regression test for a cache-poisoning
    bug where the second of two domain-variant views was answered from
    the first one's line.
    """
    from repro.core.domains import Domain, STRING
    from repro.core.schema import Attribute

    def make_view(b_domain):
        schema = DatabaseSchema(
            [RelationSchema("R", [Attribute("A", STRING), Attribute("B", b_domain)])]
        )
        return SPCView(
            "V", schema, [RelationAtom("R", {"A": "A", "B": "B"})], projection=["A", "B"]
        )

    finite = make_view(Domain("one", ("a",)))
    infinite = make_view(STRING)
    phi = FD("V", ("A",), ("B",))
    assert view_fingerprint(finite) != view_fingerprint(infinite)
    assert structural_view_key(finite) != structural_view_key(infinite)

    # One engine, both views, both query orders: no cross-talk.
    engine = PropagationEngine()
    assert engine.check([], infinite, phi) is False
    assert engine.check([], finite, phi) is True
    reversed_order = PropagationEngine()
    assert reversed_order.check([], finite, phi) is True
    assert reversed_order.check([], infinite, phi) is False


def test_spcu_covers_are_keyed_on_the_union_name():
    """Same-branch unions with different names never share a cover line.

    Covers embed the union's name in every returned CFD, so serving W's
    cover from V's cache line would name the wrong relation —
    regression test for a fingerprint that omitted the union name.
    """
    from repro.algebra.spcu import SPCUView

    schema = DatabaseSchema([RelationSchema("R", ["A", "B", "C"])])

    def branch(name, constant):
        return SPCView(
            name,
            schema,
            [RelationAtom("R", {a: a for a in "ABC"})],
            projection=["A", "B", "CC"],
            constants={"CC": constant},
        )

    branches = [branch("V", "1"), branch("V", "2")]
    v = SPCUView("V", branches)
    w = SPCUView("W", branches)
    assert structural_view_key(v) != structural_view_key(w)
    assert view_fingerprint(v) != view_fingerprint(w)

    sigma = [FD("R", ("A",), ("B",))]
    engine = PropagationEngine()
    cover_v, cover_w = engine.cover_many(sigma, [v, w])
    assert all(phi.relation == "V" for phi in cover_v) and cover_v
    assert all(phi.relation == "W" for phi in cover_w) and cover_w


def test_sigma_fingerprint_ignores_duplicate_multiplicity():
    """[fd] and [fd, fd] share one persistent line, like the frozenset key."""
    once = _as_cfds([FD("R", ("A",), ("B",))])
    assert sigma_fingerprint(once) == sigma_fingerprint(once * 3)


def test_fingerprints_are_order_and_embedding_insensitive():
    """FD-vs-CFD embedding and list order reach one fingerprint."""
    fds = [FD("R", ("A",), ("B",)), FD("R", ("B",), ("C",))]
    as_cfds = [CFD.from_fd(fd) for fd in fds]
    assert sigma_fingerprint(_as_cfds(fds)) == sigma_fingerprint(
        _as_cfds(list(reversed(as_cfds)))
    )
    schema = DatabaseSchema([RelationSchema("R", ["A", "B", "C"])])
    v1 = SPCView("V", schema, [RelationAtom("R", {a: a for a in "ABC"})])
    v2 = SPCView("V", schema, [RelationAtom("R", {a: a for a in "ABC"})])
    assert view_fingerprint(v1) == view_fingerprint(v2)
    phi = CFD("V", {"A": "_"}, {"B": "_"})
    key = verdict_persist_key("s", "v", phi, None, False)
    assert key == verdict_persist_key("s", "v", phi, None, False)
    assert key != verdict_persist_key("s", "v", phi, None, True)
    assert key != verdict_persist_key("s", "v", phi, 4, False)


# ----------------------------------------------------------------------
# 2. Schema-version mismatch falls back to cold.
# ----------------------------------------------------------------------


def test_schema_version_mismatch_discards_the_store(tmp_path):
    path = tmp_path / "propagation.sqlite"
    with SqliteStore(path) as store:
        store.put("verdicts", "k", "1")
        assert store.count("verdicts") == 1

    # Same version: the row survives a reopen.
    with SqliteStore(path) as store:
        assert not store.reset_on_open
        assert store.get("verdicts", "k") == "1"

    # Bumped version: cold start, the old row is gone, no error.
    with SqliteStore(path, schema_version=SCHEMA_VERSION + 1) as store:
        assert store.reset_on_open
        assert store.get("verdicts", "k") is None
        assert store.count("verdicts") == 0
        store.put("verdicts", "k", "0")

    # Going back is symmetric — no stale bytes in either direction.
    with SqliteStore(path) as store:
        assert store.reset_on_open
        assert store.get("verdicts", "k") is None


def test_version_mismatched_store_behaves_like_cold_engine(tmp_path, monkeypatch):
    fds, view, queries = _family(2)
    with PropagationEngine(cache_dir=str(tmp_path)) as engine:
        expected = engine.check_many(fds, view, queries)

    import repro.store.sqlite as store_mod

    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    with PropagationEngine(cache_dir=str(tmp_path)) as engine:
        assert engine._store.reset_on_open
        assert engine.check_many(fds, view, queries) == expected
        assert engine.stats.persistent_hits == 0  # recomputed, not reused


def test_stale_writer_rows_are_invisible_to_new_version_readers(tmp_path):
    """Rolling-upgrade race: an old-version process whose connection
    outlived a new-version reset keeps writing — its rows must never be
    served to (nor poison) new-version readers."""
    path = tmp_path / "propagation.sqlite"
    old = SqliteStore(path)  # the long-running old-version worker
    new = SqliteStore(path, schema_version=SCHEMA_VERSION + 1)  # resets
    assert new.reset_on_open

    old.put("verdicts", "k", "old-encoding")  # races in after the reset
    assert new.get("verdicts", "k") is None  # a miss, never stale bytes
    new.put("verdicts", "k", "1")
    assert new.get("verdicts", "k") == "1"
    # The old writer is equally shielded from new-encoding payloads.
    assert old.get("verdicts", "k") is None or old.get("verdicts", "k") == "old-encoding"
    old.close()
    new.close()


def test_store_rejects_unknown_tables(tmp_path):
    with SqliteStore(tmp_path / "s.sqlite") as store:
        with pytest.raises(ValueError, match="unknown store table"):
            store.get("meta; DROP TABLE verdicts", "k")


# ----------------------------------------------------------------------
# 3. LRU eviction order and telemetry.
# ----------------------------------------------------------------------


def test_lru_evicts_least_recently_used_not_inserted():
    lru = LRUCache(capacity=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refresh "a": now "b" is the LRU entry
    lru.put("c", 3)
    assert lru.evictions == 1
    assert "b" not in lru and "a" in lru and "c" in lru
    assert lru.keys() == ["a", "c"]  # eviction order: a before c
    assert lru.get("b", "gone") == "gone"
    assert (lru.hits, lru.misses) == (1, 1)


class _RacingDict(OrderedDict):
    """An LRU's backing map that runs *racer* once, right after the next
    read (``on="get"``), write (``on="set"``) or membership test
    (``on="contains"``) of a key: another thread's ``put`` landing
    between two steps of ``get``/``put``."""

    racer = None
    on = "get"

    def _race(self, on: str) -> None:
        racer, self.racer = self.racer, None
        if racer is not None and on == self.on:
            racer()
        elif racer is not None:
            self.racer = racer

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self._race("get")
        return value

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._race("set")

    def __contains__(self, key):
        present = super().__contains__(key)
        self._race("contains")
        return present


def _racing_lru(on: str) -> LRUCache:
    lru = LRUCache(capacity=1)
    lru._data = data = _RacingDict()
    lru.put("a", 1)
    data.on = on
    data.racer = lambda: lru.put("b", 2)  # evicts "a"
    return lru


def test_lru_get_survives_a_concurrent_eviction():
    lru = _racing_lru("get")
    assert lru.get("a") == 1  # read before the eviction: still a hit
    assert (lru.hits, lru.misses, lru.evictions) == (1, 0, 1)
    assert lru.keys() == ["b"]
    assert lru.get("a", "gone") == "gone"  # and a miss from then on


def test_lru_refresh_survives_a_concurrent_eviction():
    lru = _racing_lru("set")
    lru.put("a", 3)  # the refresh is evicted before its recency bump
    assert lru.evictions == 1 and lru.keys() == ["b"]
    assert lru.get("a", "gone") == "gone"


def test_lru_refresh_of_a_concurrently_evicted_key_stays_bounded():
    lru = _racing_lru("contains")
    lru.put("a", 3)  # "a" is evicted between the membership test and the store
    assert len(lru) == 1 and lru.keys() == ["a"]
    assert lru.evictions == 2 and lru.get("a") == 3
    lru.put("c", 4)
    assert len(lru) == 1 and lru.keys() == ["c"]


def test_lru_unbounded_and_validation():
    lru = LRUCache(capacity=None)
    for i in range(1000):
        lru.put(i, i)
    assert len(lru) == 1000 and lru.evictions == 0
    with pytest.raises(ValueError):
        LRUCache(capacity=0)


def test_bounded_engine_counts_evictions_and_stays_correct():
    fds, view, queries = _family(3)
    bounded = PropagationEngine(cache_size=4)
    unbounded = PropagationEngine()
    assert bounded.check_many(fds, view, queries) == unbounded.check_many(
        fds, view, queries
    )
    assert bounded.stats.evictions > 0
    assert unbounded.stats.evictions == 0
    # Verdicts stay correct when re-asked after eviction churn.
    assert bounded.check_many(fds, view, queries) == unbounded.check_many(
        fds, view, queries
    )


def test_cache_size_bounds_the_fast_path_and_fingerprint_memos(tmp_path):
    """Each distinct Sigma adds a fast-path context and a provenance
    fingerprint, and each distinct view a tableau cache, a view
    fingerprint and (for unions) its branch provenance and interned
    pair-scoped Sigma sets; ``cache_size`` bounds them all like the
    verdict tier."""
    fds, view, queries = _family(4)
    with PropagationEngine(cache_size=16, cache_dir=str(tmp_path)) as engine:
        for i in range(300):
            sigma = fds + [CFD("R", {"A1": str(i)}, {"D": "9"})]
            engine.check(sigma, view, queries[0])
        assert len(engine._verdict_tier.memory) == 16
        assert len(engine._fast_contexts) <= 16
        assert len(engine._prov_fps) <= 16
        # Both memos are swept by an edit to R and by clear().
        engine.invalidate_relations(["R"])
        assert len(engine._fast_contexts) == len(engine._prov_fps) == 0
        engine.check(fds, view, queries[0])
        engine.clear()
        assert len(engine._fast_contexts) == len(engine._prov_fps) == 0

        _, union_sigma, union, phis = union_shard_workload()
        for i in range(300):
            # Structurally distinct: the first branch's tag moves.
            first = union.branches[0]
            tagged = SPCView(
                "U",
                first.source_schema,
                first.atoms,
                projection=first.projection,
                constants={"CC": f"t{i}"},
            )
            distinct = SPCUView("U", [tagged, *union.branches[1:]])
            # A distinct Sigma too: each one interns new pair-scoped sets.
            spiked = union_sigma + [CFD("R1", {"A": str(i)}, {"D": "9"})]
            engine.check(spiked, distinct, phis[0])
        assert len(engine._pair_caches) <= 16
        assert len(engine._view_fps) <= 16
        assert len(engine._branch_touched) <= 16
        assert len(engine._pair_sigma_intern) <= 16


# ----------------------------------------------------------------------
# 4. Differential: cached + persistent == uncached.
# ----------------------------------------------------------------------


def _warm_store(cache_dir: str):
    """Answer the differential workload with a persistent engine.

    Module-level so a process pool can pickle it by reference.
    """
    fds, view, queries = _family(3)
    sigma = fds + [CFD("R", {"A1": "1"}, {"D": "9"})]  # force real chases
    with PropagationEngine(cache_dir=cache_dir, cache_size=32) as engine:
        verdicts = engine.check_many(sigma, view, queries)
        return verdicts, engine.stats.chase_invocations


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_parallel_persistent_engine_matches_uncached(tmp_path, pool):
    """A store written from another thread or process warms a restart."""
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    fds, view, queries = _family(3)
    sigma = fds + [CFD("R", {"A1": "1"}, {"D": "9"})]
    baseline = PropagationEngine(use_cache=False)
    expected = baseline.check_many(sigma, view, queries)

    cache_dir = str(tmp_path / pool)
    executor = ThreadPoolExecutor if pool == "thread" else ProcessPoolExecutor
    with executor(max_workers=1) as ex:
        verdicts, chases = ex.submit(_warm_store, cache_dir).result(timeout=120)
    assert verdicts == expected
    assert chases > 0

    # The worker's write-backs warm the store for a restart here.
    with PropagationEngine(cache_dir=cache_dir) as cold:
        assert cold.check_many(sigma, view, queries) == expected
        assert cold.stats.chase_invocations == 0


def test_duplicate_misses_resolve_once():
    fds, view, _ = _family(2)
    sigma = fds + [CFD("R", {"A1": "1"}, {"D": "9"})]
    phi = FD("V", ("A1", "B2"), ("D",))
    engine = PropagationEngine()
    verdicts = engine.check_many(sigma, view, [phi] * 6)
    assert verdicts == [verdicts[0]] * 6
    assert engine.stats.verdict_hits == 5  # duplicates answered from memo
