"""Streaming Sigma: the delta-vs-cold byte-identity contract.

The PR 10 obligations (see ``docs/incremental.md``, "Streaming Sigma"):

1. *Delta-aware recompute is byte-identical to cold* — after any
   ``delta_sigma`` edit, verdicts and covers from the warm service (pair
   memo, branch-cover memo) equal those of a fresh service built on the
   edited Sigma: over generated edit traces,
   over every committed fuzz-corpus case, and over Example 4.1 through a
   50-edit trace.
2. *Edits are idempotent and precise* — a repeated or no-op edit
   invalidates nothing; after an edit, queries whose provenance avoids
   the edited relation still answer with ``chases == 0``, and union
   checks re-chase strictly fewer than the full ``k^2`` branch pairs.
3. *The trace format replays* — ``generate_trace`` is deterministic per
   seed, round-trips through save/load, and a `StreamingSession` over a
   live service reports per-edit warmth and the new engine counters.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.api import (
    CheckRequest,
    CoverRequest,
    PropagationService,
    RequestStats,
    UpdateSigmaRequest,
    Workspace,
)
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.fuzz.cases import parse_case
from repro.propagation.closure_baseline import example_41_workload
from repro.streaming import (
    ColdReference,
    StreamingSession,
    canonical_cover,
    canonical_verdicts,
    generate_trace,
    load_trace,
    parse_trace,
    save_trace,
    warmth_fraction,
)

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

ATTRS = ["A", "B", "C", "D"]


def _schema(relations=("R1", "R2", "R3")) -> DatabaseSchema:
    return DatabaseSchema([RelationSchema(name, ATTRS) for name in relations])


def _union_view(schema: DatabaseSchema, name: str = "U") -> SPCUView:
    branches = [
        SPCView(
            name,
            schema,
            [RelationAtom(rel, {a: a for a in ATTRS})],
            projection=["A", "B", "C"],
        )
        for rel in ("R1", "R2", "R3")
    ]
    return SPCUView(name, branches)


def _sigma(schema: DatabaseSchema) -> list:
    deps = []
    for rel in schema.relations:
        deps.append(FD(rel, ("A",), ("B",)))
        deps.append(FD(rel, ("B",), ("C",)))
        # A constant-pattern CFD defeats the closure fast path so
        # warm/cold distinctions show up as chase counts.
        deps.append(CFD(rel, {"A": "1"}, {"D": "9"}))
    return deps


def _service(schema, sigma, views, **options) -> PropagationService:
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", list(sigma))
    for name, view in views.items():
        workspace.add_view(name, view)
    options.setdefault("use_cache", True)
    return PropagationService(workspace, **options)


def _cold_answers(schema, sigma, view, targets) -> tuple[str, str]:
    """Canonical (check, cover) answers from a fresh cold service."""
    with _service(schema, sigma, {view.name: view}, use_cache=False) as cold:
        verdicts = cold.check(
            CheckRequest(view=view.name, targets=list(targets))
        ).propagated
        cover = cold.cover(CoverRequest(view=view.name)).cover
    return canonical_verdicts(verdicts), canonical_cover(cover)


# ----------------------------------------------------------------------
# The trace format.
# ----------------------------------------------------------------------


def test_generate_trace_is_deterministic():
    one = generate_trace(seed=11, edits=10, ops_per_edit=2)
    two = generate_trace(seed=11, edits=10, ops_per_edit=2)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    other = generate_trace(seed=12, edits=10, ops_per_edit=2)
    assert json.dumps(one, sort_keys=True) != json.dumps(
        other, sort_keys=True
    )


def test_trace_edits_interleave_with_ops():
    trace = generate_trace(seed=3, edits=6, ops_per_edit=3)
    kinds = [op["op"] for op in trace["ops"]]
    assert kinds.count("edit") == 6
    assert len(kinds) == 6 * 4  # each edit followed by 3 query ops
    for op in trace["ops"]:
        if op["op"] == "edit":
            assert op["kind"] in ("add", "drop", "tighten")
            assert isinstance(op["relation"], str)
        else:
            assert op["op"] in ("check", "cover")
            assert op["view"] == "U"


def test_trace_save_load_round_trip(tmp_path):
    trace = generate_trace(seed=5, edits=4)
    path = tmp_path / "t.json"
    save_trace(trace, path)
    assert json.dumps(load_trace(path), sort_keys=True) == json.dumps(
        trace, sort_keys=True
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="repro-trace/1"):
        load_trace(bad)
    with pytest.raises(ValueError, match="repro-trace/1"):
        parse_trace({"format": None})


# ----------------------------------------------------------------------
# Delta-vs-cold byte identity.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 9])
def test_session_matches_cold_reference(seed):
    """Every answer over a generated edit trace equals a cold recompute
    (the session raises DeltaMismatch on the first divergence)."""
    trace = generate_trace(seed=seed, edits=12, ops_per_edit=2)
    with PropagationService(use_cache=True) as service:
        report = StreamingSession(
            service, trace, verify=ColdReference(trace)
        ).run()
    assert report.edits == 12
    assert report.queries == 24
    assert len(report.answers) == 24
    assert 0.0 <= report.mean_warmth <= 1.0


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_case_stays_cold_identical_under_edits(path):
    """Replay a committed fuzz case through a short edit trace: after
    every edit the warm service's answers are byte-identical to a fresh
    cold service built on its own registered (post-edit) Sigma."""
    case = json.loads(path.read_text())["case"]
    schema, sigma, view, targets = parse_case(case)
    warm = _service(schema, sigma, {view.name: view})
    relations = sorted({atom.source for b in getattr(view, "branches", [view]) for atom in b.atoms})
    with warm:
        for step in range(6):
            relation = relations[step % len(relations)]
            attrs = list(schema.relation(relation).attribute_names)
            edit = CFD(
                relation,
                {attrs[0]: str(900000 + step)},
                {attrs[-1]: str(910000 + step)},
            )
            if step % 3 == 2:
                diff = UpdateSigmaRequest(remove=[edit_prev])  # noqa: F821
            else:
                diff = UpdateSigmaRequest(add=[edit])
                edit_prev = edit
            warm.delta_sigma(diff)
            live = list(warm.workspace.sigma("default"))
            warm_check = canonical_verdicts(
                warm.check(
                    CheckRequest(view=view.name, targets=list(targets))
                ).propagated
            )
            warm_cover = canonical_cover(
                warm.cover(CoverRequest(view=view.name)).cover
            )
            cold_check, cold_cover = _cold_answers(
                schema, live, view, targets
            )
            assert warm_check == cold_check, f"check diverged at edit {step}"
            assert warm_cover == cold_cover, f"cover diverged at edit {step}"


def test_example_41_through_50_edit_trace():
    """Example 4.1 under 50 interleaved edits: the warm delta service
    answers the eta-combination batch and the cover byte-identically to
    a cold service at every step."""
    from repro.propagation.closure_baseline import exponential_family_schema

    view, sigma, queries = example_41_workload(3, defeat_fast_path=True)
    schema = exponential_family_schema(3)
    warm = _service(schema, sigma, {view.name: view})
    live = list(sigma)
    with warm:
        for step in range(50):
            edit = CFD(
                "R", {"A1": str(500000 + step)}, {"D": str(510000 + step)}
            )
            if step % 2 == 0:
                warm.delta_sigma(UpdateSigmaRequest(add=[edit]))
            else:
                previous = CFD(
                    "R",
                    {"A1": str(500000 + step - 1)},
                    {"D": str(510000 + step - 1)},
                )
                warm.delta_sigma(UpdateSigmaRequest(remove=[previous]))
            live = list(warm.workspace.sigma("default"))
            warm_check = canonical_verdicts(
                warm.check(
                    CheckRequest(view=view.name, targets=list(queries))
                ).propagated
            )
            warm_cover = canonical_cover(
                warm.cover(CoverRequest(view=view.name)).cover
            )
            cold_check, cold_cover = _cold_answers(
                schema, live, view, queries
            )
            assert warm_check == cold_check, f"check diverged at edit {step}"
            assert warm_cover == cold_cover, f"cover diverged at edit {step}"


# ----------------------------------------------------------------------
# Idempotence and precision.
# ----------------------------------------------------------------------


def test_delta_sigma_idempotent_on_repeated_and_noop_edits():
    schema = _schema()
    views = {"U": _union_view(schema)}
    with _service(schema, _sigma(schema), views) as service:
        service.check(
            CheckRequest(view="U", targets=[FD("U", ("A",), ("B",))])
        )
        service.cover(CoverRequest(view="U"))
        diff = UpdateSigmaRequest(
            remove=[FD("R1", ("B",), ("C",))],
            add=[CFD("R1", {"B": "2"}, {"C": "7"})],
        )
        first = service.delta_sigma(diff)
        assert first.affected_relations == ["R1"]
        retry = service.delta_sigma(diff)
        assert retry.affected_relations == []
        assert retry.invalidated == 0
        assert warmth_fraction(retry) == 1.0
        noop = service.delta_sigma(UpdateSigmaRequest())
        assert noop.affected_relations == [] and noop.invalidated == 0


def test_untouched_relation_lines_answer_with_zero_chases():
    """After an R1 edit, a view reading only R2 answers entirely warm."""
    schema = _schema()
    v2 = SPCView(
        "V2",
        schema,
        [RelationAtom("R2", {a: a for a in ATTRS})],
        projection=["A", "C", "D"],
    )
    views = {"U": _union_view(schema), "V2": v2}
    with _service(schema, _sigma(schema), views) as service:
        target = FD("V2", ("A",), ("C",))
        service.check(CheckRequest(view="V2", targets=[target]))
        service.cover(CoverRequest(view="V2"))
        update = service.delta_sigma(
            UpdateSigmaRequest(add=[CFD("R1", {"B": "3"}, {"D": "8"})])
        )
        assert update.affected_relations == ["R1"]
        assert update.retained > 0
        verdict = service.check(CheckRequest(view="V2", targets=[target]))
        assert verdict.stats.chases == 0
        cover = service.cover(CoverRequest(view="V2"))
        assert cover.stats.chases == 0


def test_pair_chases_stay_under_k_squared_after_single_relation_edit():
    """A 3-branch union re-checked after an R1 edit re-chases only the
    pairs whose provenance meets R1 — strictly fewer than all k^2 = 9."""
    schema = _schema()
    # Every branch tags CC with the same constant, so an A -> CC target
    # propagates and the check visits all 9 branch pairs (a failing
    # target would early-exit at the first counterexample pair).
    branches = [
        SPCView(
            "U",
            schema,
            [RelationAtom(rel, {a: a for a in ATTRS})],
            projection=["A", "B", "CC"],
            constants={"CC": "9"},
        )
        for rel in ("R1", "R2", "R3")
    ]
    views = {"U": SPCUView("U", branches)}
    with _service(schema, _sigma(schema), views) as service:
        target = FD("U", ("A",), ("CC",))
        warm_up = service.check(CheckRequest(view="U", targets=[target]))
        assert warm_up.propagated == [True]
        assert warm_up.stats.pair_chases == 9  # all pairs, cold
        service.delta_sigma(
            UpdateSigmaRequest(add=[CFD("R1", {"B": "3"}, {"D": "8"})])
        )
        verdict = service.check(CheckRequest(view="U", targets=[target]))
        # Only pairs whose provenance meets R1 re-chase: 5 of 9.
        assert verdict.propagated == [True]
        assert verdict.stats.pair_chases == 5


def test_union_cover_after_an_edit_equals_the_cold_recompute():
    """A warm union cover re-derived after an edit to one relation equals
    the cold recompute under the edited Sigma."""
    schema = _schema()
    # The shared CC constant keeps the union cover non-empty.
    branches = [
        SPCView(
            "U",
            schema,
            [RelationAtom(rel, {a: a for a in ATTRS})],
            projection=["A", "B", "CC"],
            constants={"CC": "9"},
        )
        for rel in ("R1", "R2", "R3")
    ]
    views = {"U": SPCUView("U", branches)}
    sigma = _sigma(schema)
    with _service(schema, sigma, views) as service:
        service.cover(CoverRequest(view="U"))
        service.delta_sigma(
            UpdateSigmaRequest(add=[CFD("R1", {"B": "3"}, {"D": "8"})])
        )
        after = service.cover(CoverRequest(view="U"))
        live = list(service.workspace.sigma("default"))
        _, cold_cover = _cold_answers(
            schema, live, views["U"], []
        )
        assert canonical_cover(after.cover) == cold_cover


# ----------------------------------------------------------------------
# Sessions, reports, stats surfacing.
# ----------------------------------------------------------------------


def test_streaming_report_shape_and_counters():
    trace = generate_trace(seed=1, edits=10, ops_per_edit=2)
    with PropagationService(use_cache=True) as service:
        report = StreamingSession(service, trace).run()
        engine_stats = service.stats
    doc = report.to_json()
    assert doc["edits"] == 10 and doc["queries"] == 20
    assert len(doc["records"]) == 10
    assert doc["steady_state_ms"] >= 0.0
    assert 0.0 <= doc["mean_warmth"] <= 1.0
    record = doc["records"][0]
    for key in (
        "kind",
        "relation",
        "invalidated",
        "retained",
        "warmth",
        "chases",
        "pair_chases",
    ):
        assert key in record
    # The per-record counters reconcile with the engine totals.
    assert (
        sum(r["pair_chases"] for r in doc["records"])
        <= engine_stats.pair_chases
    )


def test_request_stats_total_sums_streaming_counters():
    parts = [
        RequestStats(queries=1, chases=3, pair_chases=2),
        RequestStats(queries=2, chases=0, pair_chases=5),
    ]
    total = RequestStats.total(parts, elapsed_ms=1.0)
    assert total.pair_chases == 7
    assert total.queries == 3
    assert total.chases == 3
    assert total.elapsed_ms == 1.0


def test_cli_stream_runs_verified(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.json"
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "stream",
            "--seed",
            "2",
            "--edits",
            "4",
            "--verify",
            "--save-trace",
            str(trace_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["edits"] == 4 and report["trace"]["verified"] is True
    replay = main(["stream", "--trace", str(trace_path)])
    assert replay == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["edits"] == 4
