"""Persistent-cache benchmark: warm restarts across real processes.

The acceptance experiment for the tiered cache (PR 2): one engine
process answers the Example 4.1 batch cold and warms the sqlite store
under ``--cache-dir``; a *second engine process* pointed at the same
directory answers the identical batch with **zero chases**, purely from
persistent-tier hits.  Both runs go through the real CLI
(``repro.cli propagate-batch``) in subprocesses, so process isolation is
genuine — nothing is shared but the cache directory.

A third leg re-runs the batch in-process with a deliberately tiny
``cache_size`` to exercise (and record) LRU eviction counts, and an
uncached leg anchors the ablation.

Series recorded per ``n`` (the Example 4.1 parameter; the batch is the
``2^n x 2`` eta-combination queries x 3 repeats):

- ``cold process``   — fresh store: chases > 0, persistent writes.
- ``warm process``   — second process: chases = 0, persistent hits.
- ``bounded (LRU)``  — in-process, ``cache_size=8``: evictions > 0.
- ``uncached``       — the ``--no-cache`` baseline.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import io as repro_io
from repro.algebra.spc import RelationAtom, SPCView
from repro.core.fd import FD
from repro.core.schema import DatabaseSchema
from repro.propagation.closure_baseline import exponential_family
from repro.propagation.engine import PropagationEngine

from conftest import record_point

SIZES = [3, 4]
REPEATS = 3

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _workload(n: int):
    """The Example 4.1 projection view plus the repeated eta batch."""
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
    return schema, fds, view, queries * REPEATS


def _write_workload(n: int, workdir: Path) -> dict[str, Path]:
    schema, fds, view, queries = _workload(n)
    paths = {
        "schema": workdir / "schema.json",
        "sigma": workdir / "sigma.json",
        "view": workdir / "view.json",
        "phi": workdir / "phi.json",
    }
    repro_io.dump_json(
        repro_io.schema_to_json(DatabaseSchema([schema])), paths["schema"]
    )
    repro_io.dump_json(repro_io.dependencies_to_json(fds), paths["sigma"])
    repro_io.dump_json(repro_io.spc_view_to_json(view), paths["view"])
    repro_io.dump_json(repro_io.dependencies_to_json(queries), paths["phi"])
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
    # Exit 1 just means "not every target propagated" — expected here
    # (the A1-concluding half of the batch is false); 2 is a real error.
    assert proc.returncode in (0, 1), proc.stderr
    stats_line = next(
        line for line in proc.stderr.splitlines() if "EngineStats(" in line
    )
    counters = {
        key: int(value)
        for key, value in re.findall(r"(\w+)=(\d+)[,)]", stats_line)
    }
    counters["elapsed"] = elapsed
    counters["propagated"] = sum(
        line.startswith("PROPAGATED") for line in proc.stdout.splitlines()
    )
    return counters


@pytest.mark.parametrize("n", SIZES)
def test_persistent_cache_cold_then_warm_process(tmp_path, n):
    """The headline: a second process answers the batch with 0 chases."""
    paths = _write_workload(n, tmp_path)
    cache_dir = tmp_path / "store"

    cold = _run_cli_process(paths, cache_dir)
    assert cold["persistent_writes"] > 0

    warm = _run_cli_process(paths, cache_dir)
    assert warm["chase_invocations"] == 0, "warm process must not chase"
    assert warm["closure_fast_path"] == 0, "answers come from the store"
    assert warm["persistent_hits"] > 0

    record_point(
        "Persistent cache (two processes)",
        n,
        "cold process",
        cold["elapsed"],
        {
            "chases": cold["chase_invocations"],
            "persistent_writes": cold["persistent_writes"],
        },
    )
    record_point(
        "Persistent cache (two processes)",
        n,
        "warm process",
        warm["elapsed"],
        {
            "chases": warm["chase_invocations"],
            "persistent_hits": warm["persistent_hits"],
        },
    )


@pytest.mark.parametrize("n", SIZES)
def test_bounded_tier_reports_evictions(benchmark, n):
    """A tiny LRU bound: verdicts stay correct, evictions are counted."""
    _, fds, view, queries = _workload(n)

    def run():
        engine = PropagationEngine(cache_size=8)
        return engine, engine.check_many(fds, view, queries)

    engine, verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = PropagationEngine(use_cache=False)
    assert baseline.check_many(fds, view, queries) == verdicts
    assert engine.stats.evictions > 0
    record_point(
        "Persistent cache (two processes)",
        n,
        "bounded (LRU)",
        benchmark.stats.stats.mean,
        {"evictions": engine.stats.evictions},
    )
    record_point(
        "Persistent cache (two processes)",
        n,
        "uncached",
        0.0,
        {"chases": baseline.stats.chase_invocations},
    )
