"""Sigma normalized once, at registration; sweeps an edit cannot meet skipped.

The obligations (see ``docs/incremental.md``, "The delta path"):

1. *An edit costs its own diff* — a one-dependency ``delta_sigma``
   normalizes as many dependencies on a Sigma of 500 as on one of 50,
   and the next named check and cover neither normalize Sigma nor hash
   its dependency tuple.
2. *A sweep the edit cannot meet visits nothing* — an edit on a relation
   no interned view reads returns without reading a memo line, with the
   walk's counts.
3. *The prepared state is the from-scratch state* — over seeded traces
   of every edit kind, the registration's normal forms and key equal
   ``_sigma_state`` of its dependency list, and every ``SigmaUpdate``
   equals the one a from-scratch diff with a full walk reports.
"""

from __future__ import annotations

import random

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.api import (
    CheckRequest,
    CoverRequest,
    PropagationService,
    SigmaUpdate,
    UpdateSigmaRequest,
    Workspace,
)
from repro.api.workspace import DEFAULT_NAME
from repro.core.lru import LRUCache
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.propagation import check as check_module
from repro.propagation.check import PreparedSigma, _as_cfds, _sigma_state

ATTRS = ["A", "B", "C", "D"]
RELATIONS = ("R1", "R2", "R3")


def _schema() -> DatabaseSchema:
    return DatabaseSchema([RelationSchema(name, ATTRS) for name in RELATIONS])


def _union_view(schema: DatabaseSchema) -> SPCUView:
    """A union over R1 and R2: edits on R3 miss it."""
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


def _product_view(schema: DatabaseSchema) -> SPCView:
    """R2 x R3: R3 is reached only as the second atom of one view."""
    return SPCView(
        "V",
        schema,
        [
            RelationAtom("R2", {a: a for a in ATTRS}),
            RelationAtom("R3", {a: f"{a}3" for a in ATTRS}),
        ],
        projection=["A", "C", "A3", "C3"],
    )


def _service(sigma: list, schema: DatabaseSchema | None = None) -> PropagationService:
    schema = schema or _schema()
    workspace = Workspace()
    workspace.add_schema(DEFAULT_NAME, schema)
    workspace.add_sigma(DEFAULT_NAME, sigma)
    workspace.add_view("U", _union_view(schema))
    return PropagationService(workspace)


def _bulk_sigma(size: int) -> list:
    """*size* distinct dependencies on R1 and R2 (none on R3)."""
    deps = []
    for i in range(size):
        rel = RELATIONS[i % 2]
        deps.append(CFD(rel, {"A": str(i)}, {"B": "_"}))
    return deps


def _warm(service: PropagationService) -> None:
    service.check(CheckRequest(view="U", targets=[FD("U", ("A",), ("B",))]))
    service.cover(CoverRequest(view="U"))


# ----------------------------------------------------------------------
# 1. An edit costs its own diff.
# ----------------------------------------------------------------------


def _normalize_calls(monkeypatch, size: int) -> list[int]:
    """``CFD.normalize`` calls of an add, a remove and a mixed edit of
    one dependency each, on a warm service over a Sigma of *size*."""
    service = _service(_bulk_sigma(size))
    _warm(service)
    # Each run removes equal dependencies: start the tuple memo empty.
    monkeypatch.setattr(check_module, "_SIGMA_MEMO", LRUCache(512))
    calls = [0]
    normalize = CFD.normalize

    def counting(self):
        calls[0] += 1
        return normalize(self)

    monkeypatch.setattr(CFD, "normalize", counting)
    counts = []
    for request in (
        UpdateSigmaRequest(add=[FD("R1", ("C",), ("D",))]),
        UpdateSigmaRequest(remove=[CFD("R2", {"A": "1"}, {"B": "_"})]),
        UpdateSigmaRequest(
            add=[FD("R2", ("B",), ("C",))],
            remove=[CFD("R1", {"A": "0"}, {"B": "_"})],
        ),
    ):
        calls[0] = 0
        service.delta_sigma(request)
        counts.append(calls[0])
    monkeypatch.undo()
    service.close()
    return counts


def test_a_one_dependency_edit_normalizes_independently_of_sigma(monkeypatch):
    small = _normalize_calls(monkeypatch, 50)
    large = _normalize_calls(monkeypatch, 500)
    assert small == large
    assert max(large) <= 2  # the added and the removed dependency


@pytest.mark.parametrize("relation", ["R1", "R3"])
def test_the_next_check_and_cover_normalize_nothing(monkeypatch, relation):
    """After an edit the view reads (R1) or misses (R3), the next named
    check and cover neither normalize Sigma nor hash its tuple."""
    service = _service(_bulk_sigma(60))
    _warm(service)
    service.delta_sigma(UpdateSigmaRequest(add=[FD(relation, ("C",), ("D",))]))
    normalized, hashed = [], []
    normal_forms = check_module.normal_forms

    def spy_normal_forms(deps):
        normalized.append(deps)
        return normal_forms(deps)

    monkeypatch.setattr(check_module, "normal_forms", spy_normal_forms)

    class SpyMemo(LRUCache):
        def get(self, key, default=None):
            hashed.append(key)
            return super().get(key, default)

    monkeypatch.setattr(check_module, "_SIGMA_MEMO", SpyMemo(512))
    verdict = service.check(
        CheckRequest(view="U", targets=[FD("U", ("A",), ("B",)), FD("U", ("B",), ("A",))])
    )
    cover = service.cover(CoverRequest(view="U"))
    assert normalized == [] and hashed == []
    # The answers are the from-scratch ones.
    monkeypatch.undo()
    cold = _service(list(service.workspace.sigma(DEFAULT_NAME)))
    assert cold.check(
        CheckRequest(view="U", targets=[FD("U", ("A",), ("B",)), FD("U", ("B",), ("A",))])
    ).propagated == verdict.propagated
    assert cold.cover(CoverRequest(view="U")).cover == cover.cover


# ----------------------------------------------------------------------
# 2. A sweep the edit cannot meet visits nothing.
# ----------------------------------------------------------------------


def test_an_edit_no_interned_view_reads_visits_no_memo_line(monkeypatch):
    service = _service(_bulk_sigma(20))
    _warm(service)
    engine = service.engine
    lines = len(engine._verdict_tier.memory) + len(engine._cover_tier.memory)
    assert lines > 0
    visits = [0]
    keys = LRUCache.keys

    def counting_keys(self):
        visits[0] += 1
        return keys(self)

    monkeypatch.setattr(LRUCache, "keys", counting_keys)
    missed = service.delta_sigma(UpdateSigmaRequest(add=[FD("R3", ("A",), ("B",))]))
    assert visits[0] == 0
    assert (missed.affected_relations, missed.invalidated, missed.retained) == (
        ["R3"],
        0,
        lines,
    )
    # Not vacuous: an edit the union reads walks the memos.
    met = service.delta_sigma(UpdateSigmaRequest(add=[FD("R1", ("A",), ("D",))]))
    assert visits[0] > 0 and met.invalidated > 0


# ----------------------------------------------------------------------
# 3. The prepared state equals the from-scratch state.
# ----------------------------------------------------------------------


class _UnhashableFD(FD):
    """An FD the dependency-tuple memo cannot key."""

    __hash__ = None


NAN = float("nan")


def _random_dep(rng: random.Random):
    rel = rng.choice(RELATIONS)
    lhs = rng.sample(ATTRS, rng.randint(1, 2))
    rhs = rng.sample([a for a in ATTRS if a not in lhs], rng.randint(1, 2))
    kind = rng.random()
    if kind < 0.4:  # a plain FD, one normal form per RHS attribute
        return FD(rel, tuple(lhs), tuple(rhs))
    if kind < 0.5:
        return _UnhashableFD(rel, tuple(lhs), tuple(rhs))
    if kind < 0.55:
        return CFD(rel, {lhs[0]: NAN}, {rhs[0]: "_"})
    return CFD(
        rel,
        {a: rng.choice(["_", "1", "2"]) for a in lhs},
        {a: rng.choice(["_", "_", "3"]) for a in rhs},
    )


def _edits(rng: random.Random, sigma: list, steps: int):
    """Seeded diffs of every kind over the live set *sigma* (mutated)."""
    previous = UpdateSigmaRequest()
    for _ in range(steps):
        kind = rng.choice(
            ["add", "remove", "mixed", "reapply", "overlap", "remove-forms"]
        )
        if kind == "reapply":
            request = previous
        elif kind == "add" or not sigma:
            request = UpdateSigmaRequest(add=[_random_dep(rng) for _ in range(2)])
        elif kind == "remove":
            request = UpdateSigmaRequest(remove=[rng.choice(sigma)])
        elif kind == "mixed":
            request = UpdateSigmaRequest(
                add=[_random_dep(rng)], remove=[rng.choice(sigma)]
            )
        elif kind == "overlap":
            # A multi-RHS FD and a single-RHS one sharing a normal form;
            # removing the latter's form keeps the former.
            rel = rng.choice(RELATIONS)
            wide, narrow = FD(rel, ("A",), ("B", "C")), FD(rel, ("A",), ("B",))
            request = UpdateSigmaRequest(add=[wide, narrow])
            if any(dep == narrow for dep in sigma):
                request = UpdateSigmaRequest(remove=[CFD.from_fd(narrow)])
        else:  # remove by normal forms: the first form of a live dep
            dep = rng.choice(sigma)
            request = UpdateSigmaRequest(remove=_as_cfds([dep])[:1])
        previous = request
        yield request


class _FromScratch(PropagationService):
    """The diff of a service that normalizes all of Sigma on every edit,
    over engines that always walk their memos."""

    def delta_sigma(self, request):
        current = list(self.workspace.sigma(DEFAULT_NAME))
        normals = [_as_cfds([dep]) for dep in current]
        remove_cfds = set(_as_cfds(request.remove))
        kept, affected, present = [], set(), set()
        for dep, normal in zip(current, normals):
            normalized = frozenset(normal)
            if normalized and remove_cfds and normalized <= remove_cfds:
                affected.update(phi.relation for phi in normal)
            else:
                kept.append(dep)
                present.add(normalized)
        for dep in request.add:
            normal = _as_cfds([dep])
            normalized = frozenset(normal)
            if normalized not in present:
                present.add(normalized)
                kept.append(dep)
                affected.update(phi.relation for phi in normal)
        self.workspace.add_sigma(DEFAULT_NAME, kept)
        invalidated = retained = 0
        for engine in self._engines.values():
            # Every relation interned: the early return never applies.
            engine._views.relations.update(RELATIONS)
            out = engine.invalidate_relations(affected, sigma=current)
            invalidated += out["invalidated"]
            retained += out["retained"]
        return SigmaUpdate(
            DEFAULT_NAME, len(kept), sorted(affected), invalidated, retained
        )


def _fields(update: SigmaUpdate) -> tuple:
    return (
        update.size,
        update.affected_relations,
        update.invalidated,
        update.retained,
    )


def _query(service: PropagationService) -> tuple:
    targets = [FD("U", ("A",), ("B",)), CFD("U", {"CC": "1", "A": "_"}, {"B": "_"})]
    return (
        service.check(CheckRequest(view="U", targets=targets)).propagated,
        service.check(
            CheckRequest(view="V", targets=[FD("V", ("A3",), ("C3",))])
        ).propagated,
        service.cover(CoverRequest(view="U")).cover,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prepared_state_matches_the_from_scratch_state(seed):
    rng = random.Random(seed)
    schema = _schema()
    initial = [_random_dep(rng) for _ in range(6)] + [
        _UnhashableFD("R1", ("B",), ("C",)),
        CFD("R2", {"C": NAN}, {"D": "_"}),
    ]
    prepared, scratch = _service(initial, schema), _FromScratch(Workspace())
    scratch.workspace.add_schema(DEFAULT_NAME, schema)
    scratch.workspace.add_sigma(DEFAULT_NAME, initial)
    for service in (prepared, scratch):
        service.workspace.add_view("U", _union_view(schema))
        service.workspace.add_view("V", _product_view(schema))
    live = list(initial)
    no_ops = 0
    for request in _edits(rng, live, 25):
        assert _query(prepared) == _query(scratch)
        got, want = prepared.delta_sigma(request), scratch.delta_sigma(request)
        assert _fields(got) == _fields(want)
        registered = prepared.workspace.sigma(DEFAULT_NAME)
        assert isinstance(registered, PreparedSigma)
        assert registered == scratch.workspace.sigma(DEFAULT_NAME)
        forms, key = registered.state
        fresh_forms, fresh_key = _sigma_state(list(registered))
        assert forms == fresh_forms and key == fresh_key
        live[:] = registered
        no_ops += got.affected_relations == []
    assert no_ops > 0  # a re-applied diff came back a no-op


def test_mutating_the_callers_list_leaves_the_registration():
    workspace = Workspace()
    deps = [FD("R1", ("A",), ("B",)), CFD("R2", {"A": "1"}, {"B": "_"})]
    registered = workspace.add_sigma(DEFAULT_NAME, deps)
    state = registered.state
    deps.append(FD("R3", ("A",), ("C",)))
    deps[0] = FD("R1", ("B",), ("A",))
    assert workspace.sigma(DEFAULT_NAME) == [
        FD("R1", ("A",), ("B",)),
        CFD("R2", {"A": "1"}, {"B": "_"}),
    ]
    assert workspace.sigma(DEFAULT_NAME).state is state
    assert state == _sigma_state(list(workspace.sigma(DEFAULT_NAME)))
