"""Incremental-propagation benchmark: delta invalidation + streaming Sigma.

The acceptance experiment for PR 4's provenance-scoped keyspace
(``docs/incremental.md``): a *multi-relation* workspace is warmed, Sigma
is then edited on **one** relation, and the queries over every other
relation must keep answering with **zero chases** — from the in-memory
tiers on a warm service (the ``delta_sigma`` leg) and from the sqlite
store across real CLI processes (the two-process leg; nothing is shared
but the cache directory).  Under the pre-PR 4 whole-Sigma keys both legs
were full cold starts.

Series recorded per ``n`` (the Example 4.1 parameter; each relation
carries its own ``2^n``-query eta batch):

- ``cold process``        — fresh store, original Sigma: chases > 0.
- ``warm after delta``    — second process, Sigma edited on R1, querying
                            the *other* relation: chases = 0, persistent
                            hits > 0.
- ``edited relation``     — third process querying the edited relation:
                            recomputes (no stale reuse).
- ``delta_sigma (svc)``   — in-process service: warm, diff, re-ask — the
                            unaffected batch answers purely from memory.

PR 10 adds the streaming-Sigma legs, recorded to ``BENCH_incremental.json``:

- ``steady-state-latency`` — per-op latency of a :class:`StreamingSession`
                             at edit rates ``ops_per_edit`` 1/2/4 (the
                             second-half mean, past warm-up).
- ``retained-warmth``      — warmth fraction per edit over a
                             ``REPRO_STREAM_EDITS`` (default 1000) edit
                             trace.
- ``seeded-vs-cold``       — the warm delta service (pair memo and
                             branch covers) against a fresh cold
                             service per edit on a ``k``-branch union;
                             asserts the warm path is >= 2x faster
                             (best-of-reps on both sides).

Run ``python benchmarks/bench_incremental.py --smoke`` for the CI smoke
mode: the delta and streaming assertions on a tiny grid, no
pytest required (exit 0 = pass); the streaming legs are written to
``BENCH_incremental.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from repro import io as repro_io
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.api import (
    CheckRequest,
    PropagationService,
    UpdateSigmaRequest,
    Workspace,
)
from repro.core.cfd import CFD
from repro.core.fd import FD
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.propagation.closure_baseline import exponential_family

SIZES = [3, 4]
RELATIONS = ("R1", "R2")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
STREAM_EDITS = int(os.environ.get("REPRO_STREAM_EDITS", "1000") or "1000")

#: Where the streaming legs accumulate their records.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _record_bench(key: str, entry: dict) -> None:
    """Merge one record into ``BENCH_incremental.json`` (keyed per leg)."""
    doc: dict = {}
    if BENCH_FILE.exists():
        try:
            doc = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[key] = entry
    BENCH_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"bench_incremental: wrote {key} to {BENCH_FILE}")


def _workload(n: int):
    """Example 4.1 cloned onto each relation of a multi-relation schema.

    Returns ``(schema, sigma, views, batches)`` with one projection view
    and one ``2^n``-query eta batch per relation; Sigma carries each
    relation's FDs plus a constant CFD (so nothing trivializes into the
    closure fast path).
    """
    base, fds, projection = exponential_family(n)
    relations = [RelationSchema(rel, base.attribute_names) for rel in RELATIONS]
    schema = DatabaseSchema(relations)
    sigma: list = []
    views: dict[str, SPCView] = {}
    batches: dict[str, list[FD]] = {}
    for rel in RELATIONS:
        sigma.extend(FD(rel, fd.lhs, fd.rhs) for fd in fds)
        sigma.append(CFD(rel, {"A1": "1"}, {"D": "9"}))
        views[rel] = SPCView(
            f"V{rel}",
            schema,
            [RelationAtom(rel, {attr: attr for attr in base.attribute_names})],
            projection=projection,
        )
        batch = []
        for mask in range(2**n):
            lhs = tuple(
                (f"A{i + 1}" if mask & (1 << i) else f"B{i + 1}")
                for i in range(n)
            )
            batch.append(FD(f"V{rel}", lhs, ("D",)))
        batches[rel] = batch
    return schema, sigma, views, batches


def _edit_r1(sigma: list) -> list:
    """The delta: retire R1's constant CFD, strengthen one R1 FD."""
    edited = [
        dep
        for dep in sigma
        if not (dep.relation == "R1" and isinstance(dep, CFD))
    ]
    edited.append(CFD("R1", {"B1": "2"}, {"D": "9"}))
    return edited


def _write_files(workdir: Path, schema, sigma, view, batch) -> dict[str, Path]:
    paths = {
        "schema": workdir / "schema.json",
        "sigma": workdir / "sigma.json",
        "view": workdir / f"{view.name}.json",
        "phi": workdir / f"{view.name}-phi.json",
    }
    repro_io.dump_json(repro_io.schema_to_json(schema), paths["schema"])
    repro_io.dump_json(repro_io.dependencies_to_json(sigma), paths["sigma"])
    repro_io.dump_json(repro_io.spc_view_to_json(view), paths["view"])
    repro_io.dump_json(repro_io.dependencies_to_json(batch), paths["phi"])
    return paths


def _run_cli_process(paths: dict[str, Path], cache_dir: Path) -> dict:
    """One ``propagate-batch`` engine process; returns its stats counters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "propagate-batch",
            "--schema",
            str(paths["schema"]),
            "--sigma",
            str(paths["sigma"]),
            "--view",
            str(paths["view"]),
            "--phi",
            str(paths["phi"]),
            "--cache-dir",
            str(cache_dir),
            "--stats",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode in (0, 1), proc.stderr
    stats_line = next(
        line for line in proc.stderr.splitlines() if "EngineStats(" in line
    )
    counters = {
        key: int(value)
        for key, value in re.findall(r"(\w+)=(\d+)[,)]", stats_line)
    }
    counters["elapsed"] = elapsed
    return counters


# ----------------------------------------------------------------------
# Leg 1: two-process delta via the shared store.
# ----------------------------------------------------------------------


def _two_process_delta(tmp_path: Path, n: int, record=None) -> None:
    schema, sigma, views, batches = _workload(n)
    tmp_path.mkdir(parents=True, exist_ok=True)
    cache_dir = tmp_path / "store"

    warm_paths = {
        rel: _write_files(tmp_path, schema, sigma, views[rel], batches[rel])
        for rel in RELATIONS
    }
    cold = {rel: _run_cli_process(warm_paths[rel], cache_dir) for rel in RELATIONS}
    assert cold["R2"]["chase_invocations"] > 0
    assert cold["R2"]["persistent_writes"] > 0

    # Edit Sigma on R1; re-serialize; a fresh process asks the R2 batch.
    edited = _edit_r1(sigma)
    edited_dir = tmp_path / "edited"
    edited_dir.mkdir()
    edited_paths = {
        rel: _write_files(edited_dir, schema, edited, views[rel], batches[rel])
        for rel in RELATIONS
    }
    warm = _run_cli_process(edited_paths["R2"], cache_dir)
    assert warm["chase_invocations"] == 0, "R2 must stay warm across the delta"
    assert warm["persistent_hits"] > 0

    # The edited relation really recomputes (no stale reuse).
    recomputed = _run_cli_process(edited_paths["R1"], cache_dir)
    assert recomputed["chase_invocations"] > 0

    if record is not None:
        record(
            "Incremental delta (two processes)",
            n,
            "cold process",
            cold["R2"]["elapsed"],
            {"chases": cold["R2"]["chase_invocations"]},
        )
        record(
            "Incremental delta (two processes)",
            n,
            "warm after delta",
            warm["elapsed"],
            {"chases": 0, "persistent_hits": warm["persistent_hits"]},
        )
        record(
            "Incremental delta (two processes)",
            n,
            "edited relation",
            recomputed["elapsed"],
            {"chases": recomputed["chase_invocations"]},
        )


def test_two_process_delta_keeps_unaffected_relations_warm(tmp_path):
    from conftest import record_point

    for n in SIZES:
        _two_process_delta(tmp_path / str(n), n, record_point)


# ----------------------------------------------------------------------
# Leg 2: in-process delta_sigma through the service.
# ----------------------------------------------------------------------


def _service_delta(n: int, record=None) -> None:
    schema, sigma, views, batches = _workload(n)
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", sigma)
    for rel, view in views.items():
        workspace.add_view(view.name, view)
    service = PropagationService(workspace)

    cold_started = time.perf_counter()
    before = {
        rel: service.check(CheckRequest(view=views[rel].name, targets=batches[rel]))
        for rel in RELATIONS
    }
    cold_elapsed = time.perf_counter() - cold_started
    assert before["R2"].stats.chases > 0

    update = service.delta_sigma(
        UpdateSigmaRequest(
            remove=[CFD("R1", {"A1": "1"}, {"D": "9"})],
            add=[CFD("R1", {"B1": "2"}, {"D": "9"})],
        )
    )
    assert update.affected_relations == ["R1"]
    assert update.retained > 0

    warm_started = time.perf_counter()
    after = service.check(CheckRequest(view=views["R2"].name, targets=batches["R2"]))
    warm_elapsed = time.perf_counter() - warm_started
    assert after.propagated == before["R2"].propagated
    assert after.stats.chases == 0, "unaffected batch must not chase"
    assert after.stats.memo_hits == len(set(batches["R2"]))

    if record is not None:
        record(
            "Incremental delta (warm service)",
            n,
            "cold batch",
            cold_elapsed,
            {"chases": before["R2"].stats.chases},
        )
        record(
            "Incremental delta (warm service)",
            n,
            "delta_sigma (svc)",
            warm_elapsed,
            {"chases": 0, "memo_hits": after.stats.memo_hits},
        )


def test_delta_sigma_service_answers_unaffected_from_memory():
    from conftest import record_point

    for n in SIZES:
        _service_delta(n, record_point)


# ----------------------------------------------------------------------
# Leg 3: streaming sessions (steady-state latency, retained warmth).
# ----------------------------------------------------------------------


def _streaming_latency(edits: int, rates=(1, 2, 4), record=None) -> dict:
    """Per-op steady-state latency of a session at several edit rates."""
    from repro.streaming import StreamingSession, generate_trace

    entry: dict = {"edits": edits, "rates": {}}
    for rate in rates:
        trace = generate_trace(seed=17, edits=edits, ops_per_edit=rate)
        with PropagationService(use_cache=True) as service:
            report = StreamingSession(service, trace).run()
        entry["rates"][f"ops_per_edit={rate}"] = {
            "steady_state_ms": round(report.steady_state_ms, 4),
            "mean_warmth": round(report.mean_warmth, 4),
            "queries": report.queries,
        }
        if record is not None:
            record(
                "Streaming steady-state latency",
                rate,
                "per-op (warm)",
                report.steady_state_ms / 1000.0,
                {"edits": edits, "warmth": round(report.mean_warmth, 3)},
            )
    return entry


def _retained_warmth(edits: int, record=None) -> dict:
    """Warmth fraction per edit over a long generated trace."""
    from repro.streaming import StreamingSession, generate_trace

    trace = generate_trace(seed=0, edits=edits, ops_per_edit=2)
    started = time.perf_counter()
    with PropagationService(use_cache=True) as service:
        report = StreamingSession(service, trace).run()
    elapsed = time.perf_counter() - started
    warmths = [record_.warmth for record_ in report.records]
    tail = warmths[len(warmths) // 2 :]
    entry = {
        "edits": edits,
        "mean_warmth": round(report.mean_warmth, 4),
        "tail_mean_warmth": round(sum(tail) / len(tail), 4),
        "min_warmth": round(min(warmths), 4),
        "steady_state_ms": round(report.steady_state_ms, 4),
        "total_s": round(elapsed, 3),
        "pair_chases": sum(r.pair_chases for r in report.records),
    }
    if record is not None:
        record(
            "Streaming retained warmth",
            edits,
            "session",
            elapsed,
            {"mean_warmth": entry["mean_warmth"]},
        )
    return entry


# ----------------------------------------------------------------------
# Leg 4: seeded delta vs cold-per-edit on a k-branch union.
# ----------------------------------------------------------------------


def _stream_union_workload(k: int):
    """A ``k``-branch union whose targets propagate (no early exits).

    Every branch tags ``CC`` with the same constant and Sigma carries an
    FD chain plus a constant CFD per relation, so the check visits all
    ``k^2`` branch pairs and the union cover is non-empty — the warm
    path exercises the pair memo and the branch-cover memo on every
    edit.
    """
    attrs = ["A", "B", "C", "D", "E", "F"]
    rels = [f"S{i}" for i in range(1, k + 1)]
    schema = DatabaseSchema([RelationSchema(r, attrs) for r in rels])
    sigma: list = []
    for r in rels:
        sigma.extend(FD(r, (a,), (b,)) for a, b in zip(attrs, attrs[1:]))
        sigma.append(CFD(r, {"A": "1"}, {"F": "9"}))
    branches = [
        SPCView(
            "U",
            schema,
            [RelationAtom(r, {a: a for a in attrs})],
            projection=["A", "B", "C", "CC"],
            constants={"CC": "9"},
        )
        for r in rels
    ]
    view = SPCUView("U", branches)
    targets = [
        FD("U", ("A",), ("B",)),
        FD("U", ("A",), ("C",)),
        FD("U", ("B",), ("C",)),
        FD("U", ("A",), ("CC",)),
        CFD("U", {"A": "1"}, {"CC": "9"}),
    ]
    return schema, sigma, view, targets


def _stream_service(schema, sigma, view) -> PropagationService:
    workspace = Workspace()
    workspace.add_schema("default", schema)
    workspace.add_sigma("default", list(sigma))
    workspace.add_view("U", view)
    return PropagationService(workspace, use_cache=True)


def _seeded_vs_cold_once(k: int, edits: int) -> tuple[float, float]:
    """One rep: (warm seconds, cold seconds) over an edit loop.

    The warm side is a single service taking ``delta_sigma`` edits; the
    cold side builds a fresh service on the accumulated Sigma for every
    edit.  Verdicts and cover sizes are asserted identical.
    """
    from repro.api import CoverRequest

    schema, sigma, view, targets = _stream_union_workload(k)
    warm = _stream_service(schema, sigma, view)
    warm.check(CheckRequest(view="U", targets=targets))
    warm.cover(CoverRequest(view="U"))
    live = list(sigma)
    warm_s = cold_s = 0.0
    with warm:
        for e in range(edits):
            edit = CFD("S1", {"B": str(7000 + e)}, {"D": str(8000 + e)})
            live = live + [edit]
            started = time.perf_counter()
            warm.delta_sigma(UpdateSigmaRequest(add=[edit]))
            warm_check = warm.check(CheckRequest(view="U", targets=targets))
            warm_cover = warm.cover(CoverRequest(view="U"))
            warm_s += time.perf_counter() - started
            started = time.perf_counter()
            with _stream_service(schema, live, view) as cold:
                cold_check = cold.check(
                    CheckRequest(view="U", targets=targets)
                )
                cold_cover = cold.cover(CoverRequest(view="U"))
            cold_s += time.perf_counter() - started
            assert warm_check.propagated == cold_check.propagated
            assert len(warm_cover.cover) == len(cold_cover.cover)
    return warm_s, cold_s


def _seeded_vs_cold(k: int, edits: int, reps: int = 3, record=None) -> dict:
    """Best-of-reps warm vs cold-per-edit; asserts the >= 2x bar."""
    warm_best = cold_best = float("inf")
    for _ in range(reps):
        warm_s, cold_s = _seeded_vs_cold_once(k, edits)
        warm_best = min(warm_best, warm_s)
        cold_best = min(cold_best, cold_s)
    speedup = cold_best / warm_best if warm_best else 0.0
    entry = {
        "k": k,
        "edits": edits,
        "reps": reps,
        "warm_s": round(warm_best, 4),
        "cold_s": round(cold_best, 4),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 2.0, (
        f"seeded delta must beat cold-per-edit 2x, got {speedup:.2f}x "
        f"(warm {warm_best:.3f}s vs cold {cold_best:.3f}s at k={k})"
    )
    if record is not None:
        record(
            "Seeded delta vs cold per edit",
            k,
            "warm (delta)",
            warm_best,
            {"edits": edits},
        )
        record(
            "Seeded delta vs cold per edit",
            k,
            "cold per edit",
            cold_best,
            {"edits": edits, "speedup": entry["speedup"]},
        )
    return entry


def test_streaming_latency_records_per_rate():
    from conftest import record_point

    _streaming_latency(edits=10, rates=(1, 2), record=record_point)


def test_retained_warmth_over_short_trace():
    from conftest import record_point

    entry = _retained_warmth(40, record=record_point)
    assert 0.0 <= entry["mean_warmth"] <= 1.0


def test_seeded_delta_beats_cold_per_edit():
    from conftest import record_point

    entry = _seeded_vs_cold(k=8, edits=4, reps=3, record=record_point)
    assert entry["speedup"] >= 2.0


# ----------------------------------------------------------------------
# --smoke: the CI entry point (no pytest machinery).
# ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    n = 2 if smoke else SIZES[0]
    _service_delta(n)
    if not smoke:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            _two_process_delta(Path(tmp), n)
    _record_bench(
        "steady-state-latency",
        _streaming_latency(edits=10 if smoke else 30),
    )
    stream_edits = min(STREAM_EDITS, 120) if smoke else STREAM_EDITS
    _record_bench("retained-warmth", _retained_warmth(stream_edits))
    seeded = _seeded_vs_cold(k=8, edits=4 if smoke else 8, reps=3)
    _record_bench("seeded-vs-cold", seeded)
    print(
        f"bench_incremental {'smoke ' if smoke else ''}OK: "
        f"delta kept unaffected relations warm (n={n}), "
        f"streaming warm path {seeded['speedup']}x over cold per edit"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
