"""Interned view tokens: the int every engine memo line is keyed by.

The obligations (see ``docs/caching.md``, "Cache keys", and step 3 of
the delta path in ``docs/incremental.md``):

1. *Tokens never collide* — one interner hands out tokens from a
   monotonic counter: structurally different views never share a memo
   line and structurally equal copies always do, across ``clear()`` and
   ``delta_sigma``.
2. *The grouped sweep equals the line-by-line rule* — replaying a
   generated edit trace, every ``delta_sigma`` reports the same
   ``invalidated``/``retained`` counts and leaves the same surviving
   keys in every engine memo as a reference sweep that
   applies :func:`make_stale_predicate` to each line on its own.
3. *Tokens stay process-local* — a fresh engine whose tokens differ
   from the warm engine's answers from the shared persistent store with
   zero chases.
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
from repro.core.domains import BOOL
from repro.core.schema import Attribute, DatabaseSchema, RelationSchema
from repro.propagation.check import _as_cfds
from repro.propagation.engine import PropagationEngine
from repro.propagation.engine.keys import ViewTokens, make_stale_predicate
from repro.streaming import StreamingSession, generate_trace, parse_trace

ATTRS = ["A", "B", "C", "D"]


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [RelationSchema(name, ATTRS) for name in ("R1", "R2", "R3")]
    )


def _projection_view(schema: DatabaseSchema, relation: str) -> SPCView:
    return SPCView(
        "V",
        schema,
        [RelationAtom(relation, {a: a for a in ATTRS})],
        projection=["A", "B", "C"],
    )


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
            for rel, tag in (("R1", "1"), ("R2", "2"), ("R3", "3"))
        ],
    )


# ----------------------------------------------------------------------
# 1. Token allocation.
# ----------------------------------------------------------------------


def test_view_tokens_are_monotonic_and_structural():
    schema = _schema()
    tokens = ViewTokens()
    v = tokens.intern(_projection_view(schema, "R1"))
    w = tokens.intern(_projection_view(schema, "R2"))
    u = tokens.intern(_union_view(schema))
    assert (v, w, u) == (0, 1, 2)
    # Equal copies (distinct objects) share their token.
    assert tokens.intern(_projection_view(schema, "R1")) == v
    assert tokens.intern(_union_view(schema)) == u
    assert tokens.touched(w) == frozenset({"R2"})
    assert tokens.touched(u) == frozenset({"R1", "R2", "R3"})
    assert tokens.touched(99) is None
    # The finite-domain flag (the `general` route) is recorded once too.
    assert not any(tokens.finite_domain(t) for t in (v, w, u))
    finite = DatabaseSchema([RelationSchema("R1", [Attribute("A", BOOL), "B"])])
    f = tokens.intern(
        SPCView("V", finite, [RelationAtom("R1", {"A": "A", "B": "B"})])
    )
    assert tokens.finite_domain(f) and tokens.touched(f) == frozenset({"R1"})


def test_distinct_views_never_share_a_line_across_clear_and_delta():
    schema = _schema()
    workspace = Workspace()
    workspace.add_schema("default", schema)
    # A -> B holds on R1 only, so V (over R1) and W (over R2) — same
    # view name, same projection — answer the same phi differently.
    workspace.add_sigma("default", [FD("R1", ("A",), ("B",))])
    workspace.add_view("V", _projection_view(schema, "R1"))
    workspace.add_view("W", _projection_view(schema, "R2"))
    workspace.add_view("Vcopy", _projection_view(schema, "R1"))
    phi = FD("V", ("A",), ("B",))
    service = PropagationService(workspace)
    engine = service.engine

    def round_(expect_w: bool) -> int:
        before = engine.stats.verdict_hits
        for name, expected in (("V", True), ("W", expect_w), ("Vcopy", True)):
            verdict = service.check(CheckRequest(view=name, targets=[phi]))
            assert verdict.propagated == [expected], name
        return engine.stats.verdict_hits - before

    assert round_(False) == 1  # only the copy hits V's line
    assert round_(False) == 3  # every line is warm
    engine.clear()
    assert round_(False) == 1  # cold again; the copy still hits V's line
    service.delta_sigma(UpdateSigmaRequest(add=[FD("R2", ("A",), ("B",))]))
    # W's line was swept (its verdict flips); V's survived, and the copy
    # shares it.
    assert round_(True) == 2
    v, w, v_copy = (
        engine._views.intern(workspace.view(name)) for name in ("V", "W", "Vcopy")
    )
    assert v == v_copy != w


# ----------------------------------------------------------------------
# 2. The grouped delta sweep against a line-by-line reference.
# ----------------------------------------------------------------------


def _memo_lines(service: PropagationService) -> dict:
    """Every sweepable memo's keys, in LRU order."""
    lines: dict = {}
    for index, engine in enumerate(service._engines.values()):
        lines[index, "verdicts"] = engine._verdict_tier.memory.keys()
        lines[index, "covers"] = engine._cover_tier.memory.keys()
        lines[index, "fast"] = engine._fast_contexts.keys()
        lines[index, "empty"] = engine._empty_memo.keys()
        lines[index, "pairs"] = engine._pair_verdicts.keys()
        lines[index, "branch_covers"] = engine._branch_covers.keys()
        lines[index, "prov_fps"] = engine._prov_fps.keys()
        lines[index, "min_covers"] = engine._min_covers.keys()
        lines[index, "pair_sigma"] = engine._pair_sigma_intern.keys()
        lines[index, "pair_caches"] = engine._pair_caches.keys()
    return lines


def _reference_sweep(service, lines: dict, affected: frozenset, old_cfds):
    """Today's rule, applied to each line on its own.

    Returns the expected surviving keys per memo and the expected
    ``(invalidated, retained)`` report.
    """
    stale = make_stale_predicate(affected, old_cfds)
    engines = list(service._engines.values())
    survivors: dict = {}
    invalidated = retained = 0
    for memo, keys in lines.items():
        index, layer = memo
        touched = engines[index]._views.touched
        if layer in ("verdicts", "covers", "fast", "empty"):
            keep = [k for k in keys if not stale(k[0], touched(k[1]))]
            if layer in ("verdicts", "covers"):
                invalidated += len(keys) - len(keep)
                retained += len(keep)
        elif layer in ("pairs", "branch_covers", "prov_fps"):
            keep = [k for k in keys if not stale(k[0], k[1])]
        elif layer == "min_covers":
            keep = [
                k
                for k in keys
                if not stale(k, frozenset({next(iter(k)).relation}))
            ]
        elif layer == "pair_sigma":
            keep = [
                k
                for k in keys
                if not (k[1] & affected)
                and not any(phi.relation in affected for phi in k[0])
            ]
        else:  # pair caches: the precise sweep keeps every one
            keep = list(keys)
        survivors[memo] = keep
    return survivors, (invalidated, retained)


class _Differential:
    """A service proxy that checks every edit's sweep against the reference.

    Each query also runs against a frozen copy of the initial Sigma (so
    lines derived from another Sigma on the affected relations must
    survive) and asks for emptiness (so the emptiness memo is swept too).
    """

    def __init__(self, service: PropagationService) -> None:
        self.service = service
        self.workspace = service.workspace
        self.edits = 0
        self.invalidated = 0
        self.kept_despite_meeting = 0
        self.missed_every_view = 0

    def check(self, request):
        for sigma in (None, "frozen"):
            self.service.emptiness(EmptinessRequest(view=request.view, sigma=sigma))
        self.service.check(
            CheckRequest(view=request.view, targets=request.targets, sigma="frozen")
        )
        return self.service.check(request)

    def cover(self, request):
        self.service.cover(CoverRequest(view=request.view, sigma="frozen"))
        return self.service.cover(request)

    def delta_sigma(self, request):
        old_cfds = _as_cfds(self.workspace.sigma("default"))
        before = _memo_lines(self.service)
        update = self.service.delta_sigma(request)
        affected = frozenset(update.affected_relations)
        # Such an edit takes the sweep's early return: its report and
        # survivors must still be the walk's, line by line.
        self.missed_every_view += all(
            affected.isdisjoint(engine._views.relations)
            for engine in self.service._engines.values()
        )
        expected, report = _reference_sweep(self.service, before, affected, old_cfds)
        assert (update.invalidated, update.retained) == report
        assert _memo_lines(self.service) == expected
        self.edits += 1
        self.invalidated += update.invalidated
        for engine in self.service._engines.values():
            self.kept_despite_meeting += sum(
                1
                for key in engine._verdict_tier.memory.keys()
                if not engine._views.touched(key[1]).isdisjoint(affected)
            )
        return update


@pytest.mark.parametrize(
    "seed, shape",
    [
        (0, {}),
        (1, {}),
        # Six relations under a two-branch union: most edits miss it.
        (2, {"num_relations": 6, "num_branches": 2}),
    ],
    ids=["0", "1", "2"],
)
def test_grouped_sweep_matches_the_line_by_line_rule(seed, shape):
    trace = generate_trace(seed, 60, **shape)
    with PropagationService() as service:
        service.workspace.add_sigma("frozen", list(parse_trace(trace)[1]))
        proxy = _Differential(service)
        StreamingSession(proxy, trace).run()
    assert proxy.edits == 60
    # Not vacuous: edits dropped lines, and lines derived from the frozen
    # Sigma survived although their provenance met the edit; other edits
    # missed every view, so the sweep returned without a walk.
    assert proxy.invalidated > 0
    assert proxy.kept_despite_meeting > 0
    assert 0 < proxy.missed_every_view < proxy.edits


# ----------------------------------------------------------------------
# 3. Tokens never reach the persistent tier.
# ----------------------------------------------------------------------


def test_fresh_engine_with_other_tokens_answers_from_the_store(tmp_path):
    schema = _schema()
    sigma = []
    for rel in ("R1", "R2", "R3"):
        sigma += [
            FD(rel, ("A",), ("B",)),
            FD(rel, ("B",), ("C",)),
            # A constant pattern keeps the views off the closure fast
            # path, so a cold answer shows up as a chase.
            CFD(rel, {"A": "1"}, {"C": "9"}),
        ]
    union = _union_view(schema)
    projection = _projection_view(schema, "R1")
    union_phis = [FD("U", ("A",), ("B",)), FD("U", ("CC", "A"), ("B",))]
    projection_phis = [FD("V", ("A",), ("C",)), FD("V", ("C",), ("A",))]

    with PropagationEngine(cache_dir=str(tmp_path)) as warm:
        union_verdicts = warm.check_many(sigma, union, union_phis)
        projection_verdicts = warm.check_many(sigma, projection, projection_phis)
        covers = (warm.cover(sigma, union), warm.cover(sigma, projection))
        warm_tokens = (warm._views.intern(union), warm._views.intern(projection))
        assert warm.stats.chase_invocations > 0
        assert True in union_verdicts + projection_verdicts
        assert False in union_verdicts + projection_verdicts

    with PropagationEngine(cache_dir=str(tmp_path)) as fresh:
        # The opposite order hands out the opposite tokens.
        assert (
            fresh.check_many(sigma, projection, projection_phis)
            == projection_verdicts
        )
        assert fresh.check_many(sigma, union, union_phis) == union_verdicts
        assert (fresh.cover(sigma, union), fresh.cover(sigma, projection)) == covers
        fresh_tokens = (fresh._views.intern(union), fresh._views.intern(projection))
        assert fresh_tokens == warm_tokens[::-1] and fresh_tokens != warm_tokens
        assert fresh.stats.chase_invocations == 0
        assert fresh.stats.persistent_hits == len(union_phis) + len(projection_phis) + 2
