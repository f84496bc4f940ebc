"""Incremental propagation: provenance keys, delta invalidation, union covers.

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
3. *Union covers* — the cached engine's cover of a 3-branch union
   equals the uncached one, and every member propagates.
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
    provenance_fingerprint,
    relation_fingerprints,
    touched_relations,
)
from repro.propagation.engine.keys import scoped_sigma

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
    """The engine's emptiness memo follows the same precise staleness
    rule as its memo tiers: a line warmed under an unedited registration
    survives a delta on another registration."""
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
    lines = service.engine._empty_memo.keys()
    assert len(lines) == 1
    service.delta_sigma(
        UpdateSigmaRequest(name="a", remove=[CFD("R1", {"A": "_"}, {"B": "3"})])
    )
    # "b"'s memo line survived: the repeat answers without recomputing
    # (memoized emptiness is near-instant; mainly we pin the verdict and
    # that the memo entry still exists).
    assert service.engine._empty_memo.keys() == lines
    after = service.emptiness(EmptinessRequest(view="VR1", sigma="b"))
    assert after.empty == before.empty


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
# 3. Union covers.
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


def test_union_cover_matches_uncached():
    """The cached cover of a union equals the uncached one, every member
    propagates, and the workload's refuted targets still fail."""
    schema = _schema()
    sigma, view, phis = _union_workload(schema)
    full = PropagationEngine()
    cover = full.cover(sigma, view)
    assert cover and cover == PropagationEngine(use_cache=False).cover(sigma, view)
    expected = full.check_many(sigma, view, cover + phis)
    assert all(expected[: len(cover)]) and not all(expected)


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
