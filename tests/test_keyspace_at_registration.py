"""The keyspace is built at registration and carried across edits.

The obligations (see ``docs/incremental.md``, "Where the keyspace is
built"):

1. *Registration is a snapshot* — ``Workspace.add_view`` registers a
   copy carrying its structural key, so mutating the caller's view
   afterwards changes no answer.
2. *Scoped Sigma is carried* — after an edit, every touched set the
   previous Sigma state had scoped and the edit misses keeps the same
   ``(list, frozenset)`` objects, every other one is gone, and each
   scope equals a from-scratch restriction; pair-verdict memo keys
   equal the restriction of the Sigma they were decided under.  A
   capacity (an engine's ``cache_size``) drops the oldest scopes first.
3. *Cold stays cold* — a plain-list Sigma's scopes live in its
   ``_SIGMA_MEMO`` entry, so clearing that memo scopes it again.
4. *No state outlives its Sigma* — over a 2,000-edit trace, superseded
   Sigma states and their scopes are freed, no engine memo is keyed by
   an object's ``id()``, and a registered view retains no more memory
   than the interner keeps for an inline one.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.api import (
    ApiError,
    CheckRequest,
    CoverRequest,
    EmptinessRequest,
    PropagationService,
    UpdateSigmaRequest,
    Workspace,
)
from repro.core.lru import LRUCache
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.io import dependencies_from_json, dependencies_to_json
from repro.propagation import check as check_module
from repro.propagation.check import PreparedSigma, SigmaState, _as_cfds, scoped_sigma
from repro.propagation.engine.keys import branch_touched_relations
from repro.streaming import generate_trace, parse_trace

ATTRS = ["A", "B", "C", "D"]
RELATIONS = ("R1", "R2", "R3")


def _schema() -> DatabaseSchema:
    return DatabaseSchema([RelationSchema(name, ATTRS) for name in RELATIONS])


def _union_view(schema: DatabaseSchema) -> SPCUView:
    return SPCUView(
        "U",
        [
            SPCView(
                "U",
                schema,
                [RelationAtom(rel, {a: a for a in ATTRS})],
                projection=["A", "B", "CC"],
                constants={"CC": tag},
            )
            for rel, tag in (("R1", "1"), ("R2", "2"))
        ],
    )


SIGMA = [
    FD("R1", ("A",), ("B",)),
    CFD("R2", {"A": "1"}, {"B": "2"}),
    FD("R3", ("B",), ("C",)),
]
TARGETS = [FD("U", ("A",), ("B",)), CFD("U", {"CC": "2", "A": "1"}, {"B": "_"})]


def _answers(service: PropagationService) -> tuple:
    return (
        service.check(CheckRequest(view="U", targets=TARGETS)).propagated,
        service.cover(CoverRequest(view="U")).cover,
        service.emptiness(EmptinessRequest(view="U")).empty,
    )


# ----------------------------------------------------------------------
# 1. Registration is a snapshot.
# ----------------------------------------------------------------------


def test_mutating_the_callers_view_leaves_the_registration():
    schema = _schema()
    with PropagationService() as mutated, PropagationService() as fresh:
        for service in (mutated, fresh):
            service.workspace.add_sigma("default", SIGMA)
        view = _union_view(schema)
        mutated.workspace.add_view("U", view)
        fresh.workspace.add_view("U", _union_view(schema))
        before = _answers(mutated)
        # Every container the structural key reads, and the name.
        view.name = "W"
        view.branches[0].constants["CC"] = "2"
        view.branches[1].projection.append("C")
        view.branches[1].atoms[0] = RelationAtom("R3", {a: a for a in ATTRS})
        view.branches.pop()
        registered = mutated.workspace.view("U")
        assert registered is not view
        assert [b.constants for b in registered.branches] == [{"CC": "1"}, {"CC": "2"}]
        assert _answers(mutated) == _answers(fresh) == before


def test_an_unsupported_inline_view_is_still_refused():
    with PropagationService() as service:
        for request in (
            CheckRequest(view=object(), targets=[], sigma=[]),
            CoverRequest(view=object(), sigma=[]),
            EmptinessRequest(view=object(), sigma=[]),
        ):
            with pytest.raises(ApiError) as err:
                service.submit(request)
            assert err.value.kind == "unsupported-view"


# ----------------------------------------------------------------------
# 2. Scoped Sigma is carried across the edits that miss it.
# ----------------------------------------------------------------------


def _fresh_scope(state: SigmaState, touched: frozenset) -> tuple:
    cfds = [phi for phi in state[0] if phi.relation in touched]
    return cfds, frozenset(cfds)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_edit_carries_exactly_the_scopes_it_misses(seed):
    trace = generate_trace(seed, 40, num_relations=5)
    schema, sigma, views, ops = parse_trace(trace)
    carried = rebuilt = 0
    with PropagationService() as service:
        service.workspace.add_schema("default", schema)
        service.workspace.add_sigma("default", list(sigma))
        for name, view in views.items():
            service.workspace.add_view(name, view)
        engine = service.engine
        for op in ops:
            if op["op"] != "edit":
                request = (
                    CheckRequest(view=op["view"], targets=dependencies_from_json(op["targets"]))
                    if op["op"] == "check"
                    else CoverRequest(view=op["view"])
                )
                pairs_before = set(engine._pair_verdicts.keys())
                service.submit(request)
                state = service.workspace.sigma("default").state
                for key in set(engine._pair_verdicts.keys()) - pairs_before:
                    # The pair's scoped Sigma, by value, as decided.
                    assert key[0] == _fresh_scope(state, key[1])[1]
                continue
            before = service.workspace.sigma("default").state
            scopes = dict(before.scoped)
            update = service.delta_sigma(
                UpdateSigmaRequest(
                    add=dependencies_from_json(op["add"]),
                    remove=dependencies_from_json(op["remove"]),
                )
            )
            affected = frozenset(update.affected_relations)
            after = service.workspace.sigma("default").state
            assert set(after.scoped) == {
                touched for touched in scopes if touched.isdisjoint(affected)
            }
            for touched, entry in after.scoped.items():
                assert entry is scopes[touched]
                assert entry == _fresh_scope(after, touched)
            carried += len(after.scoped)
            rebuilt += len(scopes) - len(after.scoped)
    assert carried > 0 and rebuilt > 0


def test_a_scope_is_a_fresh_restriction_built_once():
    schema = _schema()
    with PropagationService() as service:
        service.workspace.add_schema("default", schema)
        prepared = service.workspace.add_sigma(
            "default", SIGMA + [FD("R1", ("C",), ("A", "D"))]
        )
        for touched in (frozenset({"R1"}), frozenset({"R1", "R2"}), frozenset()):
            cfds, key = prepared.state.scope(touched)
            assert (cfds, key) == (
                scoped_sigma(_as_cfds(list(prepared)), touched),
                frozenset(scoped_sigma(_as_cfds(list(prepared)), touched)),
            )
            assert prepared.state.scope(touched)[1] is key


def test_a_bounded_scope_memo_drops_its_oldest_scopes():
    state = Workspace().add_sigma("default", SIGMA).state
    first = state.scope(frozenset({"R1"}))
    for rel in RELATIONS[1:]:
        state.scope(frozenset({rel}), capacity=2)
    assert list(state.scoped) == [frozenset({"R2"}), frozenset({"R3"})]
    again = state.scope(frozenset({"R1"}), capacity=2)
    assert again == first and again is not first
    assert list(state.scoped) == [frozenset({"R3"}), frozenset({"R1"})]


# ----------------------------------------------------------------------
# 3. Cold stays cold.
# ----------------------------------------------------------------------


def test_a_cleared_sigma_memo_scopes_a_plain_list_again(monkeypatch):
    monkeypatch.setattr(check_module, "_SIGMA_MEMO", LRUCache(512))
    scopes = []
    scope = check_module.scoped_sigma

    def counted(sigma_cfds, touched):
        scopes.append(touched)
        return scope(sigma_cfds, touched)

    monkeypatch.setattr(check_module, "scoped_sigma", counted)
    view = _union_view(_schema()).branches[0]
    request = CoverRequest(view=view, sigma=list(SIGMA))
    counts = []
    with PropagationService() as service:
        for clear in (False, False, True):
            if clear:
                check_module._SIGMA_MEMO.clear()
            scopes.clear()
            service.cover(request)
            counts.append(len(scopes))
    assert counts == [1, 0, 1]


# ----------------------------------------------------------------------
# 4. No state outlives its Sigma.
# ----------------------------------------------------------------------


def _live(kinds) -> list:
    return [obj for obj in gc.get_objects() if isinstance(obj, kinds)]


def _keys_by_id(engine) -> list:
    """Memo keys of *engine* (its interner too) that hold a live Sigma
    state's or view's ``id()``."""
    ids = {id(obj) for obj in _live((PreparedSigma, SigmaState, SPCView, SPCUView))}
    found = []
    for owner in (engine, engine._views):
        for memo in vars(owner).values():
            keys = memo.keys() if isinstance(memo, (dict, LRUCache)) else ()
            for key in keys:
                parts = key if isinstance(key, tuple) else (key,)
                found += [key for part in parts if isinstance(part, int) and part in ids]
    return found


def _traced_kb() -> float:
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / 1024


def _footprint_kb(deps: list, scopes: list) -> float:
    """What parsing *deps*, registering them and scoping them for
    *scopes* retains."""
    start = _traced_kb()
    workspace = Workspace()
    prepared = workspace.add_sigma("default", dependencies_to_json(deps))
    for touched in scopes:
        prepared.state.scope(touched)
    return _traced_kb() - start


def test_a_long_edit_stream_frees_every_superseded_sigma_state():
    """``generate_trace(20080824, 2000)`` on one service: the first edits
    run their checks and covers for real, the rest peek (which scopes
    Sigma for the view) and scope every branch and branch pair, as the
    delta path's misses do, without chasing.  Sigma grows to ~570
    dependencies, so the bound is relative to one fresh registration."""
    warm_edits = 30
    trace = generate_trace(20080824, 2000)
    schema, sigma, views, ops = parse_trace(trace)
    view = views["U"]
    per_branch = branch_touched_relations(view)
    scopes = sorted(
        {a | b for a in per_branch for b in per_branch}, key=sorted
    )
    with PropagationService() as service:
        service.workspace.add_schema("default", schema)
        service.workspace.add_sigma("default", list(sigma))
        service.workspace.add_view("U", view)
        edits = 0
        tracemalloc.start()
        try:
            for op in ops:
                if op["op"] == "edit":
                    edits += 1
                    if edits == warm_edits:
                        warm_kb = _traced_kb()
                    service.delta_sigma(
                        UpdateSigmaRequest(
                            add=dependencies_from_json(op["add"]),
                            remove=dependencies_from_json(op["remove"]),
                        )
                    )
                    continue
                if op["op"] == "check":
                    request = CheckRequest(
                        view="U", targets=dependencies_from_json(op["targets"])
                    )
                else:
                    request = CoverRequest(view="U")
                if edits < warm_edits:
                    service.submit(request)
                else:
                    service.peek(request)
                    state = service.workspace.sigma("default").state
                    for touched in scopes:
                        state.scope(touched)
            final = list(service.workspace.sigma("default"))
            grown_kb = _traced_kb() - warm_kb
            # The registration is the one prepared state alive; plain
            # lists' states are bounded by their LRU memo.
            assert len(_live(PreparedSigma)) == 1
            memo = {id(s) for s in check_module._SIGMA_MEMO.values()}
            prepared = [s for s in _live(SigmaState) if id(s) not in memo]
            assert prepared == [service.workspace.sigma("default").state]
            assert _keys_by_id(service.engine) == []
            assert len(final) > 500
            # One registration's worth (~0.5 MB here): a leaked state per
            # edit would hold ~2,000 of them.
            assert grown_kb < 1.5 * _footprint_kb(final, scopes)
        finally:
            tracemalloc.stop()


def _named_view(schema: DatabaseSchema, tag: int) -> SPCView:
    # Distinct by name: a distinct constant would also grow the
    # process-wide constant interning table.
    return SPCView(
        f"V{tag}",
        schema,
        [RelationAtom("R1", {a: a for a in ATTRS})],
        projection=["A", "B", "C"],
    )


def _growth_per_view(registered: bool) -> float:
    """Traced bytes each distinct view leaves behind, past a warm-up."""
    schema = _schema()
    with PropagationService(cache_size=16) as service:
        service.workspace.add_sigma("default", SIGMA)

        def one(tag: int) -> None:
            view = _named_view(schema, tag)
            phis = [FD(view.name, ("A",), ("B",))]
            if registered:
                service.workspace.add_view("V", view)
                view = "V"
            service.check(CheckRequest(view=view, targets=phis))

        for tag in range(50):
            one(tag)
        tracemalloc.start()
        try:
            start = _traced_kb()
            for tag in range(50, 550):
                one(tag)
            return (_traced_kb() - start) * 1024 / 500
        finally:
            tracemalloc.stop()


def test_distinct_view_growth_is_the_interners_own():
    """Each distinct view leaves its interned key behind (tokens are never
    freed), ~1.45 KB for this shape.  A registered view, replaced under
    one name, leaves nothing more: not its copy, and not its hash-caching
    key (the interner keeps a plain tuple; keeping the key adds ~0.2 KB)."""
    inline, registered = _growth_per_view(False), _growth_per_view(True)
    assert inline < 1500
    assert registered < inline + 64
