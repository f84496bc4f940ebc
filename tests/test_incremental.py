"""Incremental propagation: provenance keys, delta invalidation, sharding.

The PR 4 obligations (see ``docs/incremental.md``):

1. *Delta-vs-cold equivalence* — applying a Sigma diff through
   ``PropagationService.delta_sigma`` answers every subsequent query
   exactly like a cold service built directly on the updated Sigma
   (differentially, for checks, covers and emptiness).
2. *Per-relation invalidation precision* — editing CFDs on one relation
   leaves cache lines of views over other relations warm, in the
   in-memory LRU tiers (same engine) and across real processes through
   the sqlite store (persistent hits > 0, chases = 0), while queries on
   the edited relation recompute (no stale reuse).
3. *Shard recombination* — one ``shard_index`` engine per shard of an
   ``S``-way plan: the AND of their partial verdicts equals the
   unsharded verdict, for every plan size (including ``S > k²``, where
   the shards past the pair space are empty and answer ``True``).
"""

from __future__ import annotations

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.api import (
    CheckRequest,
    CoverRequest,
    EmptinessRequest,
    PropagationService,
    UpdateSigmaRequest,
    Workspace,
)
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.propagation.engine import (
    PropagationEngine,
    plan_pairs,
    provenance_fingerprint,
    relation_fingerprints,
    scoped_sigma,
    touched_relations,
)

ATTRS = ["A", "B", "C", "D"]


def _schema(relations=("R1", "R2", "R3")) -> DatabaseSchema:
    return DatabaseSchema([RelationSchema(name, ATTRS) for name in relations])


def _projection_view(relation: str, schema: DatabaseSchema) -> SPCView:
    return SPCView(
        f"V{relation}",
        schema,
        [RelationAtom(relation, {a: a for a in ATTRS})],
        projection=["A", "C", "D"],
    )


def _union_view(schema: DatabaseSchema, name: str = "U") -> SPCUView:
    branches = [
        SPCView(
            name,
            schema,
            [RelationAtom(rel, {a: a for a in ATTRS})],
            projection=["A", "B", "CC"],
            constants={"CC": tag},
        )
        for rel, tag in (("R1", "1"), ("R2", "2"), ("R3", "3"))
    ]
    return SPCUView(name, branches)


def _sigma(schema: DatabaseSchema) -> list:
    deps = []
    for rel in schema.relations:
        deps.append(FD(rel, ("A",), ("B",)))
        deps.append(FD(rel, ("B",), ("C",)))
        # A constant-pattern CFD per relation defeats the closure fast
        # path, so warm/cold distinctions show up as chase counts.
        deps.append(CFD(rel, {"A": "1"}, {"D": "9"}))
    return deps


# ----------------------------------------------------------------------
# Provenance keys (unit level).
# ----------------------------------------------------------------------


def test_touched_relations_cover_every_branch_atom():
    schema = _schema()
    assert touched_relations(_projection_view("R2", schema)) == {"R2"}
    assert touched_relations(_union_view(schema)) == {"R1", "R2", "R3"}


def test_relation_fingerprints_are_per_relation_and_stable():
    from repro.propagation.check import _as_cfds

    sigma = _as_cfds(_sigma(_schema()))
    fps = relation_fingerprints(sigma)
    assert set(fps) == {"R1", "R2", "R3"}
    # Editing R1 moves only R1's fingerprint.
    edited = [phi for phi in sigma if phi.relation != "R1"] + _as_cfds(
        [FD("R1", ("A",), ("D",))]
    )
    fps2 = relation_fingerprints(edited)
    assert fps2["R1"] != fps["R1"]
    assert fps2["R2"] == fps["R2"] and fps2["R3"] == fps["R3"]
    # ... and therefore only the provenance of views touching R1.
    t1, t2 = frozenset({"R1"}), frozenset({"R2"})
    assert provenance_fingerprint(
        scoped_sigma(sigma, t1), t1
    ) != provenance_fingerprint(scoped_sigma(edited, t1), t1)
    assert provenance_fingerprint(
        scoped_sigma(sigma, t2), t2
    ) == provenance_fingerprint(scoped_sigma(edited, t2), t2)


def test_provenance_distinguishes_empty_from_untouched():
    """No CFDs on a touched relation is a key state of its own."""
    fd = FD("R1", ("A",), ("B",))
    from repro.propagation.check import _as_cfds

    cfds = _as_cfds([fd])
    only_r1 = frozenset({"R1"})
    both = frozenset({"R1", "R2"})
    assert provenance_fingerprint(cfds, only_r1) != provenance_fingerprint(
        cfds, both
    )
    assert provenance_fingerprint([], only_r1) != provenance_fingerprint(
        cfds, only_r1
    )


def test_plan_pairs_is_deterministic_and_exhaustive():
    for k in (1, 2, 3, 5):
        for shards in (1, 2, 4, k * k, k * k + 3):
            plans = plan_pairs(k, shards)
            assert len(plans) == shards
            flat = [pair for plan in plans for pair in plan]
            assert sorted(flat) == [(i, j) for i in range(k) for j in range(k)]
            assert plans == plan_pairs(k, shards)  # deterministic
            # Diagonal pairs carry the equality-form work; they must
            # land on min(k, shards) distinct shards, never cluster
            # (regression: a row-major stride parks all of them in
            # shard 0 whenever shards divides k + 1, e.g. k=3/shards=4).
            owners = {
                s for s, plan in enumerate(plans) for i, j in plan if i == j
            }
            assert len(owners) == min(k, shards)
    with pytest.raises(ValueError):
        plan_pairs(2, 0)


# ----------------------------------------------------------------------
# 1. Delta-vs-cold equivalence.
# ----------------------------------------------------------------------


def _workspace(schema: DatabaseSchema, sigma) -> Workspace:
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", list(sigma))
    for rel in ("R1", "R2", "R3"):
        workspace.add_view(f"V{rel}", _projection_view(rel, schema))
    workspace.add_view("U", _union_view(schema))
    return workspace


def _answers(service: PropagationService) -> dict:
    phis = {
        rel: [FD(f"V{rel}", ("A",), ("C",)), FD(f"V{rel}", ("C",), ("A",))]
        for rel in ("R1", "R2", "R3")
    }
    out = {}
    for rel, targets in phis.items():
        out[f"check-{rel}"] = service.check(
            CheckRequest(view=f"V{rel}", targets=targets)
        ).propagated
        out[f"cover-{rel}"] = service.cover(CoverRequest(view=f"V{rel}")).cover
    out["check-U"] = service.check(
        CheckRequest(view="U", targets=[CFD("U", {"CC": "1", "A": "_"}, {"B": "_"})])
    ).propagated
    out["cover-U"] = service.cover(CoverRequest(view="U")).cover
    out["empty-U"] = service.emptiness(EmptinessRequest(view="U")).empty
    return out


def test_delta_sigma_matches_cold_service():
    schema = _schema()
    sigma = _sigma(schema)
    warm = PropagationService(_workspace(schema, sigma))
    warm_before = _answers(warm)

    diff = UpdateSigmaRequest(
        remove=[FD("R1", ("B",), ("C",)), CFD("R1", {"A": "1"}, {"D": "9"})],
        add=[CFD("R1", {"B": "2"}, {"C": "7"}), FD("R1", ("A", "B"), ("D",))],
    )
    update = warm.delta_sigma(diff)
    assert update.affected_relations == ["R1"]
    assert update.size == len(sigma)  # removed 2, added 2
    assert update.retained > 0  # R2/R3 lines stayed warm

    # The cold reference: a fresh service built on the updated Sigma.
    updated_sigma = warm.workspace.sigma("default")
    cold = PropagationService(_workspace(schema, updated_sigma))
    warm_after = _answers(warm)
    assert warm_after == _answers(cold)
    # The delta really changed R1 answers and really spared R2/R3.
    assert warm_after["check-R1"] != warm_before["check-R1"]
    assert warm_after["check-R2"] == warm_before["check-R2"]
    assert warm_after["cover-R3"] == warm_before["cover-R3"]


def test_delta_sigma_remove_matches_fd_embedding():
    """Removing an FD removes the CFD it was registered as, and vice versa."""
    schema = _schema(("R1",))
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", [FD("R1", ("A",), ("B",))])
    service = PropagationService(workspace)
    update = service.delta_sigma(
        UpdateSigmaRequest(remove=[CFD.from_fd(FD("R1", ("A",), ("B",)))])
    )
    assert update.size == 0 and update.affected_relations == ["R1"]


def test_delta_sigma_is_idempotent():
    """A retried diff (wire retry after a dropped response) is a no-op:
    Sigma does not grow, nothing is re-invalidated."""
    schema = _schema()
    sigma = _sigma(schema)
    service = PropagationService(_workspace(schema, sigma))
    _answers(service)  # warm every view
    diff = UpdateSigmaRequest(
        remove=[FD("R1", ("B",), ("C",))],
        add=[CFD("R1", {"B": "2"}, {"C": "7"})],
    )
    first = service.delta_sigma(diff)
    assert first.affected_relations == ["R1"]
    snapshot = list(service.workspace.sigma("default"))
    retry = service.delta_sigma(diff)
    assert retry.size == first.size
    assert retry.affected_relations == []
    assert retry.invalidated == 0
    # The retry also left the registered set itself unchanged.
    assert service.workspace.sigma("default") == snapshot
    again = service.delta_sigma(UpdateSigmaRequest())  # empty diff: no-op
    assert again.size == first.size and again.affected_relations == []


def test_delta_sigma_spares_other_registered_sigmas():
    """Editing registration "a" must not discard warm lines keyed under
    registration "b", even when both mention the affected relation —
    "b"'s keys never moved, so its lines stay reachable and warm."""
    schema = _schema()
    workspace = Workspace()
    workspace.add_schema("default", schema)
    sigma_a = _sigma(schema)
    sigma_b = [FD("R1", ("A",), ("C",)), CFD("R1", {"B": "3"}, {"D": "8"})]
    workspace.add_sigma("a", sigma_a)
    workspace.add_sigma("b", sigma_b)
    workspace.add_view("VR1", _projection_view("R1", schema))
    service = PropagationService(workspace)

    phis = [FD("VR1", ("A",), ("C",)), FD("VR1", ("C",), ("A",))]
    before_b = service.check(CheckRequest(view="VR1", sigma="b", targets=phis))
    assert before_b.stats.chases > 0
    service.check(CheckRequest(view="VR1", sigma="a", targets=phis))

    service.delta_sigma(
        UpdateSigmaRequest(name="a", add=[CFD("R1", {"C": "5"}, {"D": "6"})])
    )
    after_b = service.check(CheckRequest(view="VR1", sigma="b", targets=phis))
    assert after_b.propagated == before_b.propagated
    assert after_b.stats.chases == 0, "sigma 'b' lines must stay warm"
    assert after_b.stats.memo_hits == len(phis)


def test_delta_sigma_spares_other_sigmas_emptiness_memo():
    """The service-side emptiness memo follows the same precise
    staleness rule as the engine tiers: a line warmed under an unedited
    registration survives a delta on another registration."""
    schema = _schema(("R1",))
    workspace = Workspace()
    workspace.add_schema("default", schema)
    sigma_a = [CFD("R1", {"A": "1"}, {"B": "2"}), CFD("R1", {"A": "_"}, {"B": "3"})]
    sigma_b = [CFD("R1", {"A": "1"}, {"B": "2"})]
    workspace.add_sigma("a", sigma_a)
    workspace.add_sigma("b", sigma_b)
    workspace.add_view("VR1", _projection_view("R1", schema))
    service = PropagationService(workspace)

    before = service.emptiness(EmptinessRequest(view="VR1", sigma="b"))
    service.delta_sigma(
        UpdateSigmaRequest(name="a", remove=[CFD("R1", {"A": "_"}, {"B": "3"})])
    )
    # "b"'s memo line survived: the repeat answers without recomputing
    # (memoized emptiness is near-instant; mainly we pin the verdict and
    # that the memo entry still exists).
    assert len(service._empty_memo) == 1
    after = service.emptiness(EmptinessRequest(view="VR1", sigma="b"))
    assert after.empty == before.empty


def test_bad_shards_is_rejected_warm_or_cold():
    """A bad per-request shards value must fail identically whether the
    settings combo maps to a warm pooled engine or a fresh one."""
    from repro.api import ApiError

    schema = _schema(("R1",))
    service = PropagationService(_workspace_small(schema, [FD("R1", ("A",), ("C",))]))
    phi = [FD("VR1", ("A",), ("C",))]
    for bad in (0, -1, "4", True):
        with pytest.raises(ApiError) as err:
            service.check(CheckRequest(view="VR1", targets=phi, shards=bad))
        assert err.value.kind == "bad-request"
    # Warm the default combo, then retry the bad values: same rejection.
    assert service.check(CheckRequest(view="VR1", targets=phi)).propagated
    for bad in (0, "4"):
        with pytest.raises(ApiError):
            service.check(CheckRequest(view="VR1", targets=phi, shards=bad))


def test_delta_sigma_unknown_name_is_not_found():
    from repro.api import ApiError

    service = PropagationService()
    with pytest.raises(ApiError) as err:
        service.delta_sigma(UpdateSigmaRequest(name="nope"))
    assert err.value.kind == "not-found"


# ----------------------------------------------------------------------
# 2. Per-relation invalidation precision.
# ----------------------------------------------------------------------


def test_untouched_relation_lines_stay_warm_in_memory():
    schema = _schema()
    sigma = _sigma(schema)
    v1, v2 = _projection_view("R1", schema), _projection_view("R2", schema)
    phis1 = [FD("VR1", ("A",), ("C",)), FD("VR1", ("C",), ("A",))]
    phis2 = [FD("VR2", ("A",), ("C",)), FD("VR2", ("C",), ("A",))]

    engine = PropagationEngine()
    engine.check_many(sigma, v1, phis1)
    expected2 = engine.check_many(sigma, v2, phis2)
    chases = engine.stats.chase_invocations
    assert chases > 0

    edited = [dep for dep in sigma if dep.relation != "R1"] + [
        FD("R1", ("A",), ("D",)),
        CFD("R1", {"B": "2"}, {"D": "9"}),
    ]
    # Same engine, edited Sigma: V2 queries answer from the memory tier.
    assert engine.check_many(edited, v2, phis2) == expected2
    assert engine.stats.chase_invocations == chases
    assert engine.stats.verdict_hits >= len(phis2)
    # V1 queries recompute — provenance includes the edited relation.
    verdicts1 = engine.check_many(edited, v1, phis1)
    assert engine.stats.chase_invocations > chases
    baseline = PropagationEngine(use_cache=False)
    assert baseline.check_many(edited, v1, phis1) == verdicts1
    assert baseline.check_many(edited, v2, phis2) == expected2


def test_untouched_relation_lines_stay_warm_across_processes(tmp_path):
    """The acceptance experiment at engine level: warm store, Sigma edit
    on R1, fresh engine (= another process: nothing shared but the cache
    directory) answers R2 queries with zero chases from persistent hits."""
    schema = _schema()
    sigma = _sigma(schema)
    v1, v2 = _projection_view("R1", schema), _projection_view("R2", schema)
    phis1 = [FD("VR1", ("A",), ("C",)), FD("VR1", ("C",), ("A",))]
    phis2 = [FD("VR2", ("A",), ("C",)), FD("VR2", ("C",), ("A",))]

    with PropagationEngine(cache_dir=str(tmp_path)) as warm:
        warm.check_many(sigma, v1, phis1)
        expected2 = warm.check_many(sigma, v2, phis2)
        cover2 = warm.cover(sigma, v2)
        assert warm.stats.persistent_writes > 0

    edited = [dep for dep in sigma if dep.relation != "R1"] + [
        FD("R1", ("A",), ("D",)),
        CFD("R1", {"B": "2"}, {"D": "9"}),
    ]
    with PropagationEngine(cache_dir=str(tmp_path)) as fresh:
        assert fresh.check_many(edited, v2, phis2) == expected2
        assert fresh.stats.chase_invocations == 0
        assert fresh.stats.persistent_hits == len(phis2)
        assert fresh.cover(edited, v2) == cover2
        assert fresh.stats.chase_invocations == 0
        assert fresh.stats.rbr.drops == 0  # the cover was not recomputed
        # The edited relation's queries miss the store (no stale reuse).
        hits = fresh.stats.persistent_hits
        verdicts1 = fresh.check_many(edited, v1, phis1)
        assert fresh.stats.persistent_hits == hits
        assert fresh.stats.chase_invocations > 0
    assert PropagationEngine(use_cache=False).check_many(
        edited, v1, phis1
    ) == verdicts1


def test_invalidate_relations_reports_precision():
    schema = _schema()
    sigma = _sigma(schema)
    engine = PropagationEngine()
    for rel in ("R1", "R2", "R3"):
        engine.check_many(
            sigma,
            _projection_view(rel, schema),
            [FD(f"V{rel}", ("A",), ("C",))],
        )
    out = engine.invalidate_relations({"R1"})
    assert out == {"invalidated": 1, "retained": 2}
    # Everything goes when every relation is affected.
    out = engine.invalidate_relations({"R1", "R2", "R3"})
    assert out["retained"] == 0


def test_update_sigma_wire_round_trip():
    import json

    from repro.api import handle_request

    schema = _schema(("R1", "R2"))
    sigma = [
        FD("R1", ("A",), ("B",)),
        FD("R2", ("A",), ("B",)),
        CFD("R2", {"A": "1"}, {"D": "9"}),
    ]
    service = PropagationService(_workspace_small(schema, sigma))
    check = {
        "op": "check",
        "view": "VR2",
        "phis": [{"kind": "fd", "relation": "VR2", "lhs": ["A"], "rhs": ["D"]}],
    }
    first = handle_request(check, service)
    assert first["ok"] and first["result"]["stats"]["chases"] > 0
    update = handle_request(
        {
            "op": "update-sigma",
            "remove": [{"kind": "fd", "relation": "R1", "lhs": ["A"], "rhs": ["B"]}],
        },
        service,
    )
    assert update["ok"], update
    assert update["result"]["affected_relations"] == ["R1"]
    assert update["result"]["retained"] >= 1
    second = handle_request(check, service)
    assert second["ok"] and second["result"]["stats"]["chases"] == 0
    assert second["result"]["stats"]["memo_hits"] == 1
    json.dumps([first, update, second])  # documents stay serializable


def _workspace_small(schema, sigma) -> Workspace:
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", list(sigma))
    for rel in schema.relations:
        workspace.add_view(f"V{rel}", _projection_view(rel, schema))
    return workspace


# ----------------------------------------------------------------------
# 3. Shard-count invariance.
# ----------------------------------------------------------------------


def _union_workload(schema):
    view = _union_view(schema)
    sigma = _sigma(schema)
    phis = [
        CFD("U", {"A": "_"}, {"B": "_"}),
        CFD("U", {"CC": "1", "A": "_"}, {"B": "_"}),
        CFD("U", {"CC": "2", "A": "_"}, {"B": "_"}),
        CFD("U", {"A": "_", "B": "_"}, {"CC": "_"}),
        CFD("U", {"CC": "1"}, {"CC": "1"}),
    ]
    return sigma, view, phis


def _recombined(sigma, view, phis, shards):
    """One ``shard_index`` engine per shard; returns the AND of their
    verdicts, each engine's partial verdicts, and the engines."""
    workers = [
        PropagationEngine(shards=shards, shard_index=index)
        for index in range(shards)
    ]
    partial = [worker.check_many(sigma, view, phis) for worker in workers]
    return [all(column) for column in zip(*partial)], partial, workers


@pytest.mark.parametrize("shards", [2, 4, 9, 16])
def test_sharded_verdicts_match_unsharded(shards):
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    expected = PropagationEngine().check_many(sigma, view, phis)
    assert PropagationEngine(use_cache=False).check_many(sigma, view, phis) == expected

    combined, partial, workers = _recombined(sigma, view, phis, shards)
    assert combined == expected
    pairs = len(view.branches) ** 2
    for index, worker in enumerate(workers):
        if index < pairs:
            # The worker chased its own shard of the plan.
            assert worker.stats.shard_tasks == 1
            assert worker.stats.chase_invocations > 0
        else:
            # A shard past the k² pair space is empty: no violation.
            assert partial[index] == [True] * len(phis)
            assert worker.stats.shard_tasks == 0
            assert worker.stats.chase_invocations == 0
        # Second ask: pure memory hits, no new shard work.
        tasks = worker.stats.shard_tasks
        assert worker.check_many(sigma, view, phis) == partial[index]
        assert worker.stats.shard_tasks == tasks
        assert worker.stats.verdict_hits >= len(phis)
        worker.close()


def test_sharded_covers_match_unsharded():
    """Covers are not shard-combinable, but their members are: every CFD
    of the full engine's cover recombines to ``True`` across the
    ``shard_index`` engines, alongside the workload's refuted targets."""
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    full = PropagationEngine()
    cover = full.cover(sigma, view)
    assert cover and cover == PropagationEngine(use_cache=False).cover(sigma, view)
    targets = cover + phis
    expected = full.check_many(sigma, view, targets)
    assert all(expected[: len(cover)]) and not all(expected)
    for shards in (3, 4):
        combined, _, workers = _recombined(sigma, view, targets, shards)
        assert combined == expected
        for worker in workers:
            worker.close()


def test_shard_index_scale_out_combines_to_the_full_verdict():
    """shards engines, one shard each: AND of the partial verdicts equals
    the unsharded answer (the distributed-orchestrator contract)."""
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    expected = PropagationEngine(shards=1).check_many(sigma, view, phis)
    shards = 3
    workers = [
        PropagationEngine(shards=shards, shard_index=index)
        for index in range(shards)
    ]
    partial = [worker.check_many(sigma, view, phis) for worker in workers]
    combined = [
        all(partial[s][idx] for s in range(shards)) for idx in range(len(phis))
    ]
    assert combined == expected
    for worker in workers:
        worker.close()


def test_shard_index_verdicts_never_persist(tmp_path):
    """Partial shard verdicts must not poison the shared store."""
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    expected = PropagationEngine(shards=1).check_many(sigma, view, phis)
    with PropagationEngine(
        shards=3, shard_index=0, cache_dir=str(tmp_path)
    ) as partial:
        partial.check_many(sigma, view, phis)
        assert partial.stats.persistent_writes == 0
    with PropagationEngine(cache_dir=str(tmp_path)) as full:
        assert full.check_many(sigma, view, phis) == expected
        assert full.stats.persistent_hits == 0  # nothing partial to reuse


def test_shard_knob_validation():
    with pytest.raises(ValueError):
        PropagationEngine(shards=0)
    with pytest.raises(ValueError):
        PropagationEngine(shards=2, shard_index=2)
    with pytest.raises(ValueError):
        PropagationEngine(shard_index=1)  # shards defaults to 1


def test_shard_index_engine_refuses_covers():
    """Partial shard verdicts are not AND-combinable into a cover, so a
    shard_index-restricted engine must fail loudly instead of returning
    a silently partial one."""
    schema = _schema()
    sigma, view, _ = _union_workload(schema)
    partial = PropagationEngine(shards=3, shard_index=0)
    with pytest.raises(ValueError, match="shard_index"):
        partial.cover(sigma, view)


def test_per_request_shards_share_one_warm_engine():
    """Without `shard_index`, `shards` changes nothing, so requests with
    different plan sizes hit one engine's warm memo tiers."""
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", sigma)
    workspace.add_view("U", view)
    service = PropagationService(workspace)

    cold = service.check(CheckRequest(view="U", targets=phis, shards=4))
    assert cold.stats.chases > 0 and cold.stats.shard_tasks == 0
    warm = service.check(CheckRequest(view="U", targets=phis, shards=1))
    assert warm.propagated == cold.propagated
    assert warm.stats.chases == 0
    assert warm.stats.memo_hits == len(set(phis))


def test_shard_plans_get_distinct_engines():
    """Two plan sizes at one `shard_index` dispatch to distinct pooled
    engines whose plan never changes, and each plan's partial verdicts
    AND back to the full verdict — interleaving them on one service must
    not re-plan a shared engine."""
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", sigma)
    workspace.add_view("U", view)
    service = PropagationService(workspace)
    expected = service.check(CheckRequest(view="U", targets=phis)).propagated

    requests = {
        (shards, index): CheckRequest(
            view="U", targets=phis, shards=shards, shard_index=index
        )
        for shards in (2, 3)
        for index in range(shards)
    }
    engines = {
        plan: service._engine(service._effective(request))
        for plan, request in requests.items()
    }
    assert engines[2, 0] is not engines[3, 0]
    assert len({id(engine) for engine in engines.values()}) == len(requests)
    assert service.pool_key({"shards": 2, "shard_index": 0}) != service.pool_key(
        {"shards": 3, "shard_index": 0}
    )
    assert service.pool_key({"shards": 2}) == service.pool_key({"shards": 3})

    partial: dict[int, list[list[bool]]] = {2: [], 3: []}
    for index in range(3):  # interleave the two plans on one service
        for shards in (2, 3):
            if index < shards:
                result = service.check(requests[shards, index])
                partial[shards].append(list(result.propagated))
            for (plan, _), engine in engines.items():
                assert engine.shards == plan
    for shards, verdicts in partial.items():
        assert [all(column) for column in zip(*verdicts)] == list(expected)


def test_provenance_and_legacy_keys_share_one_derivation():
    """keys.verdict_key/cover_key and cache.verdict_persist_key differ
    only in the Sigma field name — and can never collide."""
    from repro.propagation.cache import (
        cover_persist_key,
        query_persist_key,
        verdict_persist_key,
    )
    from repro.propagation.engine import cover_key, verdict_key

    phi = CFD("V", {"A": "_"}, {"B": "_"})
    assert verdict_key("fp", "vfp", phi, None, False) == query_persist_key(
        "verdict", "provenance", "fp", "vfp", phi, None, False
    )
    assert verdict_key("fp", "vfp", phi, None, False) != verdict_persist_key(
        "fp", "vfp", phi, None, False
    )
    assert cover_key("fp", "vfp", None, False) != cover_persist_key(
        "fp", "vfp", None, False
    )


# ----------------------------------------------------------------------
# Bounded tableau caches (satellite).
# ----------------------------------------------------------------------


def test_branch_pair_cache_is_bounded_by_cache_size():
    schema = _schema()
    sigma, view, _ = _union_workload(schema)
    # Many distinct LHS shapes force coupled-skeleton churn.
    phis = [
        CFD("U", {"A": "_", "CC": str(tag)}, {"B": "_"})
        for tag in range(12)
    ] + [CFD("U", {"B": "_", "CC": str(tag)}, {"A": "_"}) for tag in range(12)]
    bounded = PropagationEngine(cache_size=4)
    unbounded = PropagationEngine()
    assert bounded.check_many(sigma, view, phis) == unbounded.check_many(
        sigma, view, phis
    )
    assert bounded.stats.tableau_evictions > 0
    assert unbounded.stats.tableau_evictions == 0
    # Correct after churn, too.
    assert bounded.check_many(sigma, view, phis) == unbounded.check_many(
        sigma, view, phis
    )
