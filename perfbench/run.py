"""The repository benchmark: one command, four workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-cover --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice for half the time each, untraced
and then with every layer call wrapped (``tracing.py``), and reports the
per-layer metrics plus the tracing overhead.  ``--smoke`` shrinks every
input to a seconds-long size (the self-test uses it).
``--record-digests`` recomputes the committed ``fig5_digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  The exit code is 0 only when every
answer was correct.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import array
import bisect
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Reserved for the final measurement of a claimed gain: never run it
#: while a change is being written or tuned.
HELD_OUT_SEED = 4242
#: Allowed unattributed share of traced time beyond the tracing overhead.
SANITY_SLACK_PCT = 10.0
#: Median time of ``workloads.probe_work`` on a quiet core of the
#: reference machine (2-vCPU x86-64 VM, Python 3.11.7).  Every timing is
#: reported at this machine speed (see ``scaled``).
NOMINAL_PROBE_S = 0.9e-3
#: Probes within this many seconds of a sample set its speed scale.
PROBE_WINDOW_S = 1.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def pairs(flat) -> list[tuple[float, float]]:
    """``(start, seconds)`` pairs from a flat ``start, seconds, ...`` array."""
    return list(zip(flat[::2], flat[1::2]))


def seconds_of(flat) -> list[float]:
    return list(flat[1::2])


def scaled(samples, probes) -> list[float]:
    """Each ``start, seconds`` sample at the nominal machine speed.

    A shared machine runs this process slower at times, by up to 2x for
    seconds to minutes.  The probe (a fixed reference loop timed every
    0.1 s between operations) slows with it, so each sample is multiplied
    by ``NOMINAL_PROBE_S`` over the mean probe time within
    ``PROBE_WINDOW_S`` of its start (the run's mean probe when none is).
    """
    times = probes[::2]
    prefix = [0.0, *itertools.accumulate(probes[1::2])]
    overall = prefix[-1] / len(times)
    out = []
    for started, seconds in pairs(samples):
        lo = bisect.bisect_left(times, started - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, started + PROBE_WINDOW_S)
        local = (prefix[hi] - prefix[lo]) / (hi - lo) if hi > lo else overall
        out.append(seconds * NOMINAL_PROBE_S / local)
    return out


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for label, cuts in (("p99.9", 1000), ("p99", 100), ("p90", 10)):
        if len(values) / cuts >= 10:
            return label, statistics.quantiles(values, n=cuts)[-1]
    return None


def describe(name: str, unit: str, scale: float, values: list[float], raw: list[float]) -> dict:
    """Print and return one latency: median, tail and sample count."""
    out = {
        "p50": statistics.median(values) * scale,
        "unscaled_p50": statistics.median(raw) * scale,
        "n": len(values),
    }
    line = f"  {name:<20} {out['p50']:12.6g} {unit:<3} n={len(values)}"
    found = tail(values)
    if found:
        out[found[0]] = found[1] * scale
        line += f"  {found[0]}={out[found[0]]:.6g} {unit}"
    print(f"{line}  (unscaled p50 {out['unscaled_p50']:.6g} {unit})")
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Per-layer metrics (traced run).
# ----------------------------------------------------------------------


def merge_spans(*snapshots: dict | None) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for snap in snapshots:
        for name, totals in (snap or {}).items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in totals.items():
                into[key] += value
    return merged


def layer_metrics(span_names: list[str], spans: dict, engine: dict, ops: int, speed: float) -> dict:
    """Per-op layer metrics from span totals and engine counters."""
    out: dict[str, float] = {}
    for name in span_names:
        out[f"{name}.calls"] = spans[name]["calls"] / ops
        out[f"{name}.self_ms"] = spans[name]["self_s"] * speed * 1e3 / ops
    request = spans["api.client.Transport.request"]["total_s"]
    respond = spans["api.server.PropagationServer.respond_line"]["total_s"]
    handle = spans["api.wire.handle_request"]["total_s"]
    out["api.client.wait_us"] = (request - respond) * speed * 1e6 / ops if request else 0.0
    out["api.server.wait_us"] = (respond - handle) * speed * 1e6 / ops if respond else 0.0
    count = lambda key: engine.get(key, 0)  # noqa: E731
    out["engine.memo_hit_ratio"] = ratio(
        count("verdict_hits") + count("cover_hits"),
        count("check_queries") + count("cover_queries"),
    )
    out["engine.retained_ratio"] = ratio(
        count("retained"), count("retained") + count("invalidated")
    )
    out["engine.cover_seed_hit_ratio"] = ratio(
        count("cover_seed_hits"), count("cover_seed_hits") + count("cover_seed_misses")
    )
    for key in ("chase_invocations", "pair_chases", "closure_fast_path"):
        out[f"engine.{key}"] = count(key) / ops
    for key in ("resolvent_pairs", "mincover_passes"):
        out[f"rbr.{key}"] = count(f"rbr.{key}") / ops
    return out


def blocking_path_s(client: dict, server: dict | None) -> float:
    """Span self time along the blocking path of the traced window.

    In-process, that is every span's self time.  Across the socket the
    client's ``Transport.request`` is replaced by its parts: the client's
    wait (request minus the server's ``respond_line``), the server's wait
    (``respond_line`` minus ``handle_request``, which runs on an executor
    thread) and the self times of the server-side spans.
    """
    total = sum(s["self_s"] for s in client.values())
    if not server:
        return total
    request = client["api.client.Transport.request"]["total_s"]
    respond = server["api.server.PropagationServer.respond_line"]["total_s"]
    handle = server["api.wire.handle_request"]["total_s"]
    below = sum(
        s["self_s"]
        for name, s in server.items()
        if name != "api.server.PropagationServer.respond_line"
    )
    return total - request + (request - respond) + (respond - handle) + below


def declared(kind: str, values: dict[str, float]) -> dict:
    """*values* as the result line's metrics: exactly the metrics of
    ``BENCHMARK.json``'s *kind* list, each with its declared unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


# ----------------------------------------------------------------------
# Runs.
# ----------------------------------------------------------------------


def run_untraced(workload, seconds: float, workloads) -> tuple[dict, dict, object]:
    setups = []
    for _ in range(SETUP_REPS):
        workload.close()
        probes = array.array("d")
        probe = workloads.Probe(probes)
        for _ in range(3):
            probe.force()
        started = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - started
        for _ in range(3):
            probe.force()
        setups.append((elapsed, elapsed * NOMINAL_PROBE_S / statistics.fmean(probes[1::2])))
    m = workload.measure(seconds)
    rss = workload.rss_bytes()
    workload.verify(m)
    workload.close()

    print(f"machine speed: mean probe {statistics.fmean(m.probes[1::2]) * 1e3:.4g} ms "
          f"over {len(m.probes) // 2} probes; nominal {NOMINAL_PROBE_S * 1e3:.4g} ms")
    print("end-to-end, at nominal machine speed (medians; tails beside them are not gated):")
    summary = {}
    for key, (name, unit, scale) in workload.latencies.items():
        samples = m.samples[key]
        summary[name] = describe(
            name, unit, scale, scaled(samples, m.probes), seconds_of(samples)
        )
    setup_s = statistics.median(s for _, s in setups)
    rss_mb = rss / 2**20
    error_rate = ratio(len(m.failures), m.attempted)
    print(f"  {'setup_s':<20} {setup_s:12.6g} s   median of {SETUP_REPS}"
          f"  (unscaled {', '.join(f'{raw:.4g}' for raw, _ in setups)} s)")
    print(f"  {'rss_mb':<20} {rss_mb:12.6g} MB")
    print(f"  {'error_rate':<20} {error_rate:12.6g}     ({len(m.failures)}/{m.attempted})")
    print(f"work counters, first {workload.counted_ops} ops: "
          f"{json.dumps(m.counters, sort_keys=True)}")
    primary = summary[workload.latencies["op"][0]]
    metrics = {
        "op_ms_p50": primary["p50"] / workload.latencies["op"][2] * 1e3,
        "setup_s": setup_s,
        "rss_mb": rss_mb,
    }
    detail = {
        "latencies": summary,
        "setup_s": [scaled_ for _, scaled_ in setups],
        "setup_s_unscaled": [raw for raw, _ in setups],
        "error_rate": error_rate,
        "counters": m.counters,
    }
    return declared("end_to_end", metrics), detail, m


def run_traced(workload, seconds: float, tracing) -> tuple[dict, dict, object]:
    half = seconds / 2
    workload.setup()
    untraced = workload.measure(half)
    workload.close()

    tracer = tracing.Tracer()
    workload.setup(trace=True)
    m = workload.measure(half, tracer)
    server = workload.server_spans()
    workload.verify(m)
    workload.close()
    m.failures = untraced.failures + m.failures
    m.attempted += untraced.attempted

    ops = max(1, len(m.samples["op"]) // 2)
    speed = NOMINAL_PROBE_S / statistics.fmean(m.probes[1::2])
    client = tracer.snapshot()
    metrics = layer_metrics(
        tracing.SPAN_NAMES, merge_spans(client, server), m.engine, ops, speed
    )
    traced_p50 = statistics.median(scaled(m.samples["op"], m.probes))
    untraced_p50 = statistics.median(scaled(untraced.samples["op"], untraced.probes))
    overhead_pct = (traced_p50 / untraced_p50 - 1) * 100
    busy = sum(sum(seconds_of(m.samples[key])) for key in workload.busy_keys)
    attributed = blocking_path_s(client, server)
    unattributed_pct = (1 - attributed / busy) * 100
    sane = unattributed_pct <= max(overhead_pct, 0.0) + SANITY_SLACK_PCT
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.unattributed_pct"] = unattributed_pct

    name, unit, scale = workload.latencies["op"]
    print(f"tracing overhead on {name}: traced {traced_p50 * scale:.6g} {unit} vs "
          f"untraced {untraced_p50 * scale:.6g} {unit} ({overhead_pct:+.1f}%)")
    print(f"blocking path: {attributed * 1e3 / ops:.6g} ms/op of span self time vs "
          f"{busy * 1e3 / ops:.6g} ms/op traced end to end (unscaled); unattributed "
          f"{unattributed_pct:.1f}% -> {'ok' if sane else 'FAIL'} "
          f"(limit: overhead + {SANITY_SLACK_PCT:.0f}%)")
    print(f"per layer, per op ({ops} ops; self times at nominal machine speed; "
          f"calls-free layers omitted):")
    for span in tracing.SPAN_NAMES:
        if metrics[f"{span}.calls"]:
            print(f"  {span:<48} calls {metrics[f'{span}.calls']:10.4g}  "
                  f"self {metrics[f'{span}.self_ms']:10.4g} ms")
    for key in sorted(metrics):
        if not key.endswith((".calls", ".self_ms")):
            print(f"  {key:<48} {metrics[key]:.6g}")
    detail = {"trace_sane": sane, "engine": m.engine}
    return declared("per_layer", metrics), detail, m


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if "PYTHONHASHSEED" not in os.environ:
        # Set iteration order feeds chase order; pin it so the work
        # counters repeat exactly between runs.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    if args.record_digests:
        workloads.record_fig5_digests()
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: --workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    allowed = sorted(os.sched_getaffinity(0))
    pinning = "none"
    if args.workload == "serve-warm":
        # Client and server share one core: cross-core wake-ups measure
        # the scheduler, not the program.
        os.sched_setaffinity(0, {allowed[0]})
        pinning = f"cpu {allowed[0]} (client and server)"
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(allowed),
        "cpu_pinning": pinning,
        "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"],
    }
    print(f"perfbench {json.dumps(env)}")

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        metrics, detail, m = (
            run_traced(workload, args.seconds, tracing)
            if args.trace
            else run_untraced(workload, args.seconds, workloads)
        )
    finally:
        workload.close()
    for failure in m.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"result {json.dumps({'env': env, **detail}, sort_keys=True)}")
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }))
    return 0 if not m.failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
