"""Server-mode throughput: one warm ``repro serve`` across many batches.

The acceptance experiment for server mode (PR 3, extended by PR 5): a
``repro serve`` subprocess (the real CLI) answers the Example 4.1 batch
repeatedly.  The first batch is cold (chases > 0); every subsequent
batch must be answered purely from the warm engine — **zero chases** —
and the benchmark records the cold/warm latency gap and the warm-leg
request throughput.

Two entry points:

- **pytest** (the default; ``PYTHONPATH=src:benchmarks python -m pytest
  benchmarks/bench_server.py``): the PR 3 stdio experiment, recorded
  through the shared ``record_point`` series.
- **``--smoke``** (pytest-free, for CI): drives the endpoint stack of
  PR 5 — launches ``repro serve`` on a socket, talks to it through the
  typed client SDK (:func:`repro.api.connect`), and appends the
  cold/warm throughput numbers to ``BENCH_server.json`` keyed by
  transport and worker count, so the perf trajectory across transports
  is recorded run over run.

Env knobs (``docs/caching.md`` documents the shared ones):

- ``REPRO_CACHE_DIR`` — forwarded as ``--cache-dir`` (persistent tier);
- ``REPRO_TRANSPORT`` — ``--smoke`` only: ``ndjson`` (TCP NDJSON,
  default) or ``http`` picks the server transport under test;
- ``REPRO_WORKERS``   — ``--smoke`` only: > 1 runs the fault-injection
  experiment instead of the single-server throughput loop — that many
  ``repro serve`` replicas behind a :class:`~repro.api.ReplicaSet`
  answer a 3-branch union view, one replica is hard-killed mid-run, and
  the set must fail over to the survivors and keep matching a single
  endpoint; recovery latency and the degraded-fleet throughput are
  recorded to ``BENCH_server.json``;
- ``REPRO_SHARED_STORE`` — ``--smoke`` only: the shared-store
  experiment — a worker answering the cold batch through
  ``--store-url sqlite://DIR``, then a *second, freshly started* worker
  on the same directory whose very first batch must be chase-free (it
  joins a warm fleet); the cold/join latencies land in
  ``BENCH_server.json`` as ``store-shared-w2``.

Series recorded per ``n`` (the Example 4.1 parameter; one batch is the
``2^n`` eta-combination queries):

- ``cold batch``  — first request: chases > 0.
- ``warm batch``  — mean over the remaining requests: chases = 0,
  with requests/second in the extras.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import io as repro_io
from repro.propagation.closure_baseline import (
    example_41_workload,
    exponential_family_schema,
)

from conftest import record_point

SIZES = [3, 4]
WARM_BATCHES = 10

_SRC = str(Path(__file__).resolve().parent.parent / "src")
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None
TRANSPORT = os.environ.get("REPRO_TRANSPORT", "ndjson")
WORKERS = int(os.environ.get("REPRO_WORKERS", "1") or "1")
SHARED_STORE = bool(os.environ.get("REPRO_SHARED_STORE"))

#: Where ``--smoke`` accumulates its per-transport throughput records.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_server.json"


def _serve_args(n: int, workdir: Path) -> tuple[list[str], list[dict]]:
    """Write the shared Example 4.1 workload; returns (args, phi docs)."""
    view, sigma, queries = example_41_workload(n, defeat_fast_path=True)
    paths = {
        "schema": workdir / "schema.json",
        "sigma": workdir / "sigma.json",
        "view": workdir / "view.json",
    }
    repro_io.dump_json(
        repro_io.schema_to_json(exponential_family_schema(n)), paths["schema"]
    )
    repro_io.dump_json(repro_io.dependencies_to_json(sigma), paths["sigma"])
    repro_io.dump_json(repro_io.spc_view_to_json(view), paths["view"])
    args = [
        "--schema", str(paths["schema"]),
        "--sigma", str(paths["sigma"]),
        "--view", str(paths["view"]),
    ]
    if CACHE_DIR:
        args += ["--cache-dir", CACHE_DIR]
    return args, repro_io.dependencies_to_json(queries)


@pytest.mark.parametrize("n", SIZES)
def test_server_throughput(n, tmp_path):
    args, phis = _serve_args(n, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    batch = json.dumps({"op": "check", "view": "V", "phis": phis})
    try:
        timings = []
        replies = []
        for _ in range(1 + WARM_BATCHES):
            started = time.perf_counter()
            proc.stdin.write(batch + "\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            timings.append(time.perf_counter() - started)
            assert reply["ok"], reply
            replies.append(reply["result"])
        proc.stdin.write(json.dumps({"op": "shutdown"}) + "\n")
        proc.stdin.flush()
    finally:
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0

    cold, warm = replies[0], replies[1:]
    assert cold["stats"]["chases"] > 0 or CACHE_DIR  # cold unless pre-warmed
    for result in warm:
        assert result["propagated"] == cold["propagated"]
        assert result["stats"]["chases"] == 0  # every warm leg is chase-free

    warm_mean = sum(timings[1:]) / WARM_BATCHES
    record_point(
        "server throughput",
        2**n,
        "cold batch",
        timings[0],
        {"chases": cold["stats"]["chases"]},
    )
    record_point(
        "server throughput",
        2**n,
        "warm batch",
        warm_mean,
        {
            "chases": 0,
            "req_per_s": round(1.0 / warm_mean, 1),
            "queries_per_s": round(len(phis) / warm_mean, 1),
        },
    )


# ----------------------------------------------------------------------
# --smoke: the CI endpoint experiment (no pytest machinery).
# ----------------------------------------------------------------------


def _launch_endpoint(args: list[str], transport: str, extra: list[str] = ()):
    """Start ``repro serve`` on an ephemeral socket; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "repro.cli", "serve", *args, "--port", "0", *extra]
    if transport == "http":
        cmd += ["--transport", "http"]
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stderr.readline()  # "listening on HOST:PORT"
    assert "listening on" in line, f"server failed to start: {line!r}"
    host_port = line.strip().removeprefix("listening on ")
    scheme = "http" if transport == "http" else "tcp"
    return proc, f"{scheme}://{host_port}"


def _record_bench(key: str, entry: dict) -> None:
    """Merge one record into ``BENCH_server.json`` (keyed per leg)."""
    doc: dict = {}
    if BENCH_FILE.exists():
        try:
            doc = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[key] = entry
    BENCH_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"bench_server --smoke: wrote {key} to {BENCH_FILE}")


def _single_server_smoke(transport: str, workdir: Path, n: int = 3) -> None:
    """Cold/warm throughput against one server over the client SDK."""
    from repro.api import connect

    args, phis = _serve_args(n, workdir)
    proc, url = _launch_endpoint(args, transport)
    batch = {"op": "check", "view": "V", "phis": phis}
    try:
        client = connect(url)
        assert client.protocol is not None
        timings = []
        replies = []
        for _ in range(1 + WARM_BATCHES):
            started = time.perf_counter()
            result = client.result(dict(batch))
            timings.append(time.perf_counter() - started)
            replies.append(result)
        cold, warm = replies[0], replies[1:]
        assert cold["stats"]["chases"] > 0 or CACHE_DIR
        for result in warm:
            assert result["propagated"] == cold["propagated"]
            assert result["stats"]["chases"] == 0, "warm leg must be chase-free"
        client.shutdown()
        client.close()
    except BaseException:
        proc.kill()  # don't mask the real failure with a wait timeout
        raise
    assert proc.wait(timeout=60) == 0
    warm_mean = sum(timings[1:]) / WARM_BATCHES
    _record_bench(
        f"{transport}-w1",
        {
            "transport": transport,
            "workers": 1,
            "n": n,
            "queries_per_batch": len(phis),
            "cold_s": round(timings[0], 4),
            "warm_mean_s": round(warm_mean, 4),
            "warm_req_per_s": round(1.0 / warm_mean, 1),
            "warm_queries_per_s": round(len(phis) / warm_mean, 1),
        },
    )
    print(
        f"bench_server --smoke OK: transport={transport} cold={timings[0]:.3f}s "
        f"warm={warm_mean:.4f}s ({1.0 / warm_mean:.0f} req/s)"
    )


def _shared_store_smoke(transport: str, workdir: Path, n: int = 3) -> None:
    """A cold worker joining a warm fleet must answer with zero chases.

    Two ``repro serve`` worker processes share one ``sqlite://``
    directory.  Worker A pays the cold batch and writes every verdict
    through the shared store; worker B — a *new process* whose engine
    has never seen the workload, started while A is still serving —
    then answers its very first batch purely from the store.
    """
    from repro.api import connect

    args, phis = _serve_args(n, workdir)
    batch = {"op": "check", "view": "V", "phis": phis}
    store_args = [*args, "--store-url", f"sqlite://{workdir / 'shared-store'}"]
    procs = []
    try:
        proc_a, url_a = _launch_endpoint(store_args, transport)
        procs.append(proc_a)
        client_a = connect(url_a)
        started = time.perf_counter()
        cold = client_a.result(dict(batch))
        cold_s = time.perf_counter() - started
        assert cold["stats"]["chases"] > 0, "worker A must pay the cold batch"

        proc_b, url_b = _launch_endpoint(store_args, transport)
        procs.append(proc_b)
        client_b = connect(url_b)
        started = time.perf_counter()
        joined = client_b.result(dict(batch))
        join_s = time.perf_counter() - started
        join_chases = joined["stats"]["chases"]
        assert joined["propagated"] == cold["propagated"]
        assert join_chases == 0, (
            f"joining worker must answer from the shared store, "
            f"chased {join_chases}x"
        )
        assert joined["stats"]["persistent_hits"] > 0
        for client in (client_a, client_b):
            client.shutdown()
            client.close()
        for proc in procs:
            assert proc.wait(timeout=60) == 0
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    _record_bench(
        "store-shared-w2",
        {
            "transport": transport,
            "workers": 2,
            "n": n,
            "queries_per_batch": len(phis),
            "store": "sqlite",
            "cold_s": round(cold_s, 4),
            "join_warm_s": round(join_s, 4),
            "join_chases": join_chases,
        },
    )
    print(
        f"bench_server --smoke OK: shared-store fleet cold={cold_s:.3f}s, "
        f"cold-worker-joins-warm-fleet={join_s:.3f}s with {join_chases} chases"
    )


def _union_workload_docs():
    """The shared 3-branch union workload, as registerable documents."""
    from repro.propagation.closure_baseline import union_shard_workload

    schema, sigma, view, phis = union_shard_workload()
    return {
        "schema": repro_io.schema_to_json(schema),
        "sigma": repro_io.dependencies_to_json(sigma),
        "view": repro_io.view_to_json(view),
        "phis": phis,
    }


def _failover_smoke(transport: str, workers: int) -> None:
    """The fault-injection experiment: kill 1 of N replicas mid-run.

    Every replica answers one cold check; then replica 0, the next in
    the round-robin, is hard-killed (SIGKILL — no goodbye on the wire)
    and the batch loop
    keeps going.  The :class:`~repro.api.ReplicaSet` must detect the
    death, fail the request over to a survivor, and land the *same*
    verdict as a single endpoint.  Records the recovery latency (kill to
    the first correct verdict) and the degraded-fleet throughput.
    """
    from repro.api import CheckRequest, ReplicaSet, connect

    assert workers >= 2, "failover needs a worker to lose and one to keep"
    docs = _union_workload_docs()
    with connect("local://") as reference:
        reference.register_schema("default", docs["schema"])
        reference.register_sigma("default", docs["sigma"])
        reference.register_view("U", docs["view"])
        expected = reference.check(CheckRequest(view="U", targets=docs["phis"]))

    procs = []
    urls = []
    try:
        for _ in range(workers):
            proc, url = _launch_endpoint([], transport)
            procs.append(proc)
            urls.append(url)
        with ReplicaSet(urls) as replicas:
            replicas.register_schema("default", docs["schema"])
            replicas.register_sigma("default", docs["sigma"])
            replicas.register_view("U", docs["view"])
            request = CheckRequest(view="U", targets=docs["phis"])
            for _ in range(workers):  # round-robin: one cold check each
                cold = replicas.check(request)
                assert cold.propagated == expected.propagated, (
                    "replica verdict != single endpoint"
                )

            procs[0].kill()
            procs[0].wait(timeout=60)
            killed_at = time.perf_counter()
            recovered = replicas.check(request)
            recovery_s = time.perf_counter() - killed_at
            assert recovered.propagated == expected.propagated, (
                "failover verdict != single endpoint"
            )
            assert replicas.failovers >= 1, "the replica death went undetected"
            assert replicas.live_workers() == list(range(1, workers))

            started = time.perf_counter()
            for _ in range(WARM_BATCHES):
                warm = replicas.check(request)
                assert warm.propagated == expected.propagated
            degraded_mean = (time.perf_counter() - started) / WARM_BATCHES
            assert warm.stats.chases == 0, "surviving replicas answer warm"
            failovers = replicas.failovers
            for index in replicas.live_workers():
                replicas.workers[index].shutdown()
    except BaseException:
        for proc in procs:
            proc.kill()  # don't mask the real failure with a wait timeout
        raise
    for proc in procs[1:]:  # the killed one exits nonzero by design
        assert proc.wait(timeout=60) == 0
    _record_bench(
        f"{transport}-failover-w{workers}",
        {
            "transport": transport,
            "workers": workers,
            "killed": 1,
            "queries_per_batch": len(docs["phis"]),
            "cold_chases": cold.stats.chases,
            "recovery_s": round(recovery_s, 4),
            "degraded_warm_mean_s": round(degraded_mean, 4),
            "degraded_req_per_s": round(1.0 / degraded_mean, 1),
            "failovers": failovers,
        },
    )
    print(
        f"bench_server --smoke OK: killed 1/{workers} {transport} replicas; "
        f"verdict still matched, recovery={recovery_s:.3f}s, degraded warm "
        f"{1.0 / degraded_mean:.0f} req/s"
    )


def main(argv: list[str]) -> int:
    if "--smoke" not in argv:
        print(
            "usage: python benchmarks/bench_server.py --smoke\n"
            "  (REPRO_TRANSPORT=ndjson|http, REPRO_WORKERS=N > 1 for the "
            "replica fault-injection leg; the pytest "
            "entry point is `python -m pytest benchmarks/bench_server.py`)",
            file=sys.stderr,
        )
        return 2
    import tempfile

    if SHARED_STORE:
        with tempfile.TemporaryDirectory() as workdir:
            _shared_store_smoke(TRANSPORT, Path(workdir))
    elif WORKERS > 1:
        _failover_smoke(TRANSPORT, WORKERS)
    else:
        with tempfile.TemporaryDirectory() as workdir:
            _single_server_smoke(TRANSPORT, Path(workdir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
