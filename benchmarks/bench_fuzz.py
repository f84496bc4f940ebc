"""Differential-fuzzing throughput: seeded cases through the full matrix.

The fuzz harness (``src/repro/fuzz/``, PR 7) answers every generated
case on every execution path the system has grown and insists the
answers agree byte-for-byte.  This benchmark records how fast that
matrix can chew through the seeded case stream, and which generator
corner profiles the stream actually hit — the coverage counters that
tell us the degenerate shapes (empty projections, 1-branch unions,
constant-only LHS patterns, ...) are exercised every run, not just
representable.

Two entry points, following ``bench_server.py``:

- **pytest** (``PYTHONPATH=src:benchmarks python -m pytest
  benchmarks/bench_fuzz.py``): a local-matrix run (no sockets) recorded
  through the shared ``record_point`` series, asserting zero
  disagreements and full corner coverage.
- **``--smoke``** (pytest-free, for CI): one full-matrix run — engine
  settings plus the tcp/http/replica endpoints — writing
  cases/s, the run digest, and the per-profile corner-hit counters to
  ``BENCH_fuzz.json``, so fuzz throughput is tracked run over run.

Env knobs:

- ``REPRO_FUZZ_CASES`` — cases per run (default 32 pytest / 64 smoke);
- ``REPRO_FUZZ_SEED``  — the stream seed (default 0).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.fuzz import PROFILES, run_fuzz

from conftest import record_point

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0") or "0")
PYTEST_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "32") or "32")
SMOKE_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "64") or "64")

#: Engine-settings-only matrix: no sockets, so the pytest leg measures
#: pure matrix arithmetic rather than loopback latency.
LOCAL_MATRIX = ["baseline", "cache"]

#: Where ``--smoke`` accumulates its throughput records.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"


def test_fuzz_throughput_local_matrix():
    report = run_fuzz(PYTEST_CASES, SEED, matrix=LOCAL_MATRIX)
    assert report.ok, "\n".join(f.describe() for f in report.failures)
    assert set(report.corner_hits) == set(PROFILES), "a corner went unhit"
    record_point(
        "fuzz throughput",
        PYTEST_CASES,
        "local matrix",
        report.elapsed_s,
        {
            "cases_per_s": round(report.cases_per_s, 1),
            "digest": report.digest[:12],
            "corners": len(report.corner_hits),
        },
    )


# ----------------------------------------------------------------------
# --smoke: the CI full-matrix run (no pytest machinery).
# ----------------------------------------------------------------------


def _record_bench(key: str, entry: dict) -> None:
    """Merge one record into ``BENCH_fuzz.json`` (keyed per leg)."""
    doc: dict = {}
    if BENCH_FILE.exists():
        try:
            doc = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[key] = entry
    BENCH_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"bench_fuzz --smoke: wrote {key} to {BENCH_FILE}")


def _smoke() -> int:
    started = time.perf_counter()
    report = run_fuzz(SMOKE_CASES, SEED)  # the full default matrix
    if not report.ok:
        for failure in report.failures:
            print(failure.describe(), file=sys.stderr)
        return 1
    if set(report.corner_hits) != set(PROFILES):
        missed = sorted(set(PROFILES) - set(report.corner_hits))
        print(f"bench_fuzz --smoke: unhit corners: {missed}", file=sys.stderr)
        return 1
    _record_bench(
        f"full-matrix-s{SEED}",
        {
            "cases": report.cases,
            "seed": report.seed,
            "matrix": report.matrix,
            "digest": report.digest,
            "elapsed_s": round(report.elapsed_s, 3),
            "cases_per_s": round(report.cases_per_s, 1),
            "corner_hits": dict(sorted(report.corner_hits.items())),
        },
    )
    print(
        f"bench_fuzz --smoke OK: {report.cases} cases, 0 disagreements, "
        f"{report.cases_per_s:.1f} cases/s over {len(report.matrix)} configs "
        f"(total {time.perf_counter() - started:.1f}s)"
    )
    return 0


def main(argv: list[str]) -> int:
    if "--smoke" not in argv:
        print(
            "usage: python benchmarks/bench_fuzz.py --smoke\n"
            "  (REPRO_FUZZ_CASES=N, REPRO_FUZZ_SEED=S; the pytest entry "
            "point is `python -m pytest benchmarks/bench_fuzz.py`)",
            file=sys.stderr,
        )
        return 2
    return _smoke()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
