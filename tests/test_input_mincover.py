"""The engine's per-relation input MinCover (Figure 2, line 1).

``MinCover`` minimizes each relation alone, and ``PropCFD_SPC`` renames
source CFDs once per view atom, so CFDs on relations a view never reads
add nothing to its cover.  The engine therefore minimizes only the
relations a view (or SPCU branch) reads, one memo line per relation's
CFD group.  These tests pin that covers stay byte-identical to the
whole-Sigma computations, and count which relations the engine actually
hands to ``min_cover``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.api import CoverRequest, PropagationService, UpdateSigmaRequest, Workspace
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.generators import random_cfds, random_schema, random_spc_view, random_spcu_view
from repro.io import dependencies_to_json
from repro.propagation import prop_cfd_spc
from repro.propagation.engine import PropagationEngine, core as engine_core
from repro.propagation.engine import touched_relations
from repro.propagation.spcu_cover import prop_cfd_spcu

ATTRS = ["A", "B", "C", "D"]


def _dump(cover) -> str:
    return json.dumps(dependencies_to_json(cover), sort_keys=True)


@pytest.fixture
def minimized(monkeypatch):
    """The relation set of every group the engine passes to ``min_cover``."""
    calls: list[tuple[str, ...]] = []
    real = engine_core.min_cover

    def spy(sigma, *args, **kwargs):
        sigma = list(sigma)
        calls.append(tuple(sorted({phi.relation for phi in sigma})))
        return real(sigma, *args, **kwargs)

    monkeypatch.setattr(engine_core, "min_cover", spy)
    return calls


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [RelationSchema(name, ATTRS) for name in ("Q", "R", "S", "T")]
    )


def _sigma(schema: DatabaseSchema) -> list:
    deps = []
    for relation in schema.relations:
        deps.append(FD(relation, ("A",), ("B",)))
        deps.append(FD(relation, ("A", "B"), ("C",)))  # B is redundant
        deps.append(CFD(relation, {"A": "1"}, {"D": "9"}))
    return deps


def _view(name: str, schema: DatabaseSchema, sources) -> SPCView:
    atoms = [
        RelationAtom(source, {a: f"t{j}_{a}" for a in ATTRS})
        for j, source in enumerate(sources)
    ]
    return SPCView(name, schema, atoms, projection=[f"t0_{a}" for a in ATTRS])


def _union_over(schema: DatabaseSchema, source: str, tags) -> SPCUView:
    return SPCUView(
        "U",
        [
            SPCView(
                "U",
                schema,
                [RelationAtom(source, {a: a for a in ATTRS})],
                projection=["A", "B", "C", "CC"],
                constants={"CC": tag},
            )
            for tag in tags
        ],
    )


# ----------------------------------------------------------------------
# Byte-identical covers on Fig. 5 generator inputs.
# ----------------------------------------------------------------------


def _fig5_case(seed: int, union: bool):
    """A small Fig. 5-style Sigma and a view reading a strict subset."""
    rng = random.Random(seed)
    schema = random_schema(rng, num_relations=5, min_attributes=5, max_attributes=7)
    shape = dict(num_projected=5, num_selections=2, num_atoms=2)
    if union:
        view = random_spcu_view(rng, schema, num_branches=2, **shape)
    else:
        view = random_spc_view(rng, schema, **shape)
    sigma = random_cfds(rng, schema, 30, max_lhs=4, min_lhs=2, var_pct=0.5)
    return schema, view, sigma


@pytest.mark.parametrize("kernel", ["bitset", "baseline"])
@pytest.mark.parametrize("seed", range(6))
def test_scoped_spc_covers_match_whole_sigma(seed, kernel):
    schema, view, sigma = _fig5_case(seed, union=False)
    assert touched_relations(view) < set(schema.relations)
    cached = PropagationEngine(kernel=kernel).cover(sigma, view)
    assert _dump(cached) == _dump(PropagationEngine(use_cache=False).cover(sigma, view))
    assert _dump(cached) == _dump(prop_cfd_spc(sigma, view))


@pytest.mark.parametrize("seed", range(3))
def test_scoped_spcu_covers_match_whole_sigma(seed):
    schema, view, sigma = _fig5_case(seed, union=True)
    assert touched_relations(view) < set(schema.relations)
    cached = PropagationEngine().cover(sigma, view)
    assert _dump(cached) == _dump(PropagationEngine(use_cache=False).cover(sigma, view))
    assert _dump(cached) == _dump(prop_cfd_spcu(sigma, view))


# ----------------------------------------------------------------------
# Which relations get minimized, and how often.
# ----------------------------------------------------------------------


def test_engine_minimizes_only_touched_relations(minimized):
    schema = _schema()
    PropagationEngine().cover(_sigma(schema), _view("V", schema, ["R", "S"]))
    assert sorted(minimized) == [("R",), ("S",)]


def test_uncached_engine_minimizes_the_whole_sigma(minimized):
    schema = _schema()
    engine = PropagationEngine(use_cache=False)
    engine.cover(_sigma(schema), _view("V", schema, ["R", "S"]))
    assert minimized == [("Q", "R", "S", "T")]


def test_views_sharing_a_relation_minimize_it_once(minimized):
    schema = _schema()
    views = [_view("V1", schema, ["R", "S"]), _view("V2", schema, ["R", "T"])]
    PropagationEngine().cover_many(_sigma(schema), views)
    assert sorted(minimized) == [("R",), ("S",), ("T",)]


def test_union_over_one_relation_minimizes_it_once(minimized):
    schema = _schema()
    engine = PropagationEngine()
    view = _union_over(schema, "R", ["1", "2", "3"])
    cover = engine.cover(_sigma(schema), view)
    assert minimized == [("R",)]
    assert _dump(cover) == _dump(prop_cfd_spcu(_sigma(schema), view))


def test_delta_sigma_reminimizes_only_the_edited_relation(minimized):
    schema = _schema()
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", _sigma(schema))
    workspace.add_view("V", _view("V", schema, ["Q", "R"]))
    service = PropagationService(workspace)
    service.cover(CoverRequest(view="V"))
    assert sorted(minimized) == [("Q",), ("R",)]
    minimized.clear()

    update = service.delta_sigma(
        UpdateSigmaRequest(add=[FD("Q", ("C",), ("D",))])
    )
    assert update.affected_relations == ["Q"]
    after = service.cover(CoverRequest(view="V")).cover
    assert minimized == [("Q",)]
    cold = PropagationEngine(use_cache=False).cover(
        workspace.sigma("default"), workspace.view("V")
    )
    assert _dump(after) == _dump(cold)


def _memo_groups(engine: PropagationEngine) -> list[tuple[str, int]]:
    return sorted(
        (next(iter(key)).relation, len(key)) for key in engine._min_covers.keys()
    )


def test_invalidation_sweeps_relation_groups():
    schema = _schema()
    sigma = _sigma(schema)
    other = sigma + [FD("R", ("C",), ("D",))]  # a second R group, same S
    view = _view("V", schema, ["R", "S"])
    engine = PropagationEngine()
    engine.cover_many(sigma, [view])
    engine.cover_many(other, [view])
    assert _memo_groups(engine) == [("R", 3), ("R", 4), ("S", 3)]

    # Precise: only the old Sigma's R group goes.
    engine.invalidate_relations({"R"}, other)
    assert _memo_groups(engine) == [("R", 3), ("S", 3)]
    # Conservative: every R group goes; S is untouched either way.
    engine.invalidate_relations({"R"})
    assert _memo_groups(engine) == [("S", 3)]


def test_memo_is_bounded_and_cleared():
    schema = _schema()
    engine = PropagationEngine(cache_size=2)
    engine.cover(_sigma(schema), _view("V", schema, ["Q", "R", "S"]))
    assert len(engine._min_covers.keys()) == 2
    engine.clear()
    assert engine._min_covers.keys() == []
