"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``,
runs closed-loop operations for a fixed number of seconds in ``measure``
(checking every answer as it goes), and reports what it measured as a
:class:`Measurement`.  The program under test sees only the generated
inputs.  Engines run with their defaults (``jobs=1``, ``shards=1``).
"""

from __future__ import annotations

import array
import dataclasses
import hashlib
import json
import random
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.api import CheckRequest, CoverRequest, PropagationService, connect
from repro.core.cfd import CFD
from repro.core.fd import clear_closure_cache
from repro.generators import random_cfds, random_schema, random_spc_view
from repro.io import dependency_to_json
from repro.kernel.closure import clear_program_cache
from repro.propagation import check as check_module
from repro.propagation.closure_baseline import (
    example_41_workload,
    exponential_family_schema,
    union_shard_workload,
)
from repro.propagation.engine import PropagationEngine
from repro.streaming import (
    ColdReference,
    DeltaMismatch,
    StreamingSession,
    canonical_cover,
    canonical_verdicts,
    generate_trace,
    parse_trace,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "fig5_digests.json"

#: The Section 5 generator seed the figure benchmarks use; it fixes the
#: Fig. 5 schema and view, and the base trace of ``stream-edits``.
PAPER_SEED = 20080824


@dataclasses.dataclass
class Measurement:
    """What one timed window measured.

    ``samples`` maps a latency name (``"op"`` for the workload's unit
    operation, plus its secondary latencies) to a flat array of
    ``start, seconds`` pairs (compact, so the harness adds little to the
    measured process's memory); ``probes`` holds the reference-loop
    timings the same way.
    ``engine`` sums engine counters over the window, ``counters`` over
    the workload's fixed counted prefix (hardware-independent, identical
    between runs of the same code and seed).
    """

    samples: dict[str, array.array] = dataclasses.field(
        default_factory=lambda: {"op": array.array("d")}
    )
    probes: array.array = dataclasses.field(default_factory=lambda: array.array("d"))
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    counters: dict[str, int] = dataclasses.field(default_factory=dict)
    engine: dict[str, int] = dataclasses.field(default_factory=dict)

    def add(self, key: str, started: float, seconds: float) -> None:
        self.samples.setdefault(key, array.array("d")).extend((started, seconds))


def stats_dict(stats) -> dict[str, int]:
    """An ``EngineStats`` as flat integer counters (``rbr.*`` nested ones)."""
    out = dataclasses.asdict(stats)
    rbr = out.pop("rbr", {})
    out.update({f"rbr.{name}": value for name, value in rbr.items()})
    return out


def add_counts(total: dict[str, int], after: dict, before: dict | None = None) -> None:
    for name, value in after.items():
        if isinstance(value, int):
            total[name] = total.get(name, 0) + value - (before or {}).get(name, 0)


def clear_process_caches() -> None:
    """Empty the process-wide memos, so a cold operation is cold.

    Engines and services are created fresh per cold operation; these are
    the memos that outlive them (attribute closures, compiled closure
    programs, normalized Sigma lists).
    """
    clear_closure_cache()
    clear_program_cache()
    memo = getattr(check_module, "_SIGMA_MEMO", None)
    if memo is not None:
        memo.clear()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def vm_hwm_bytes(pid: int | str = "self") -> int:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# The machine-speed probe and the timed loop.
# ----------------------------------------------------------------------

_PROBE_KEYS = list(range(512))
_PROBE_TABLE = {key: key * 7 for key in _PROBE_KEYS}
_PROBE_SET = frozenset(range(0, 1024, 3))


def probe_work() -> int:
    """A fixed interpreter-bound reference loop (~1 ms on a quiet core).

    It allocates nothing the garbage collector tracks, touches only a few
    KiB and calls nothing of the program, so its time moves only with the
    speed the machine gives this process.
    """
    acc = 0
    table, members = _PROBE_TABLE, _PROBE_SET
    for _ in range(32):
        for key in _PROBE_KEYS:
            acc += table[key] if key in members else key % 5
    return acc


class Probe:
    """Times :func:`probe_work` between operations, at most every 0.1 s."""

    INTERVAL_S = 0.1

    def __init__(self, probes: array.array) -> None:
        self.probes = probes
        self._due = 0.0

    def __call__(self) -> None:
        if time.perf_counter() >= self._due:
            self.force()

    def force(self) -> None:
        started = time.perf_counter()
        probe_work()
        ended = time.perf_counter()
        self.probes.extend((started, ended - started))
        self._due = ended + self.INTERVAL_S


def run_until(seconds: float, op, probe: Probe) -> None:
    """Call ``op(i)`` for i = 0, 1, ... until *seconds* have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        probe()
        op(i)
        i += 1


def traced(tracer, fn):
    """Run *fn* with *tracer* installed (when given)."""
    if tracer is None:
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


class Workload:
    name = ""
    #: (metric name, unit, scale from seconds) per latency key; "op" first.
    latencies: dict[str, tuple[str, str, float]] = {}
    #: Latency keys whose samples together make up the unit operations.
    busy_keys = ("op",)
    #: Unit operations counted into ``Measurement.counters``.
    counted_ops = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, trace: bool = False) -> None:
        """Generate inputs and warm what users would have warm."""

    def measure(self, seconds: float, tracer=None) -> Measurement:
        raise NotImplementedError

    def verify(self, measurement: Measurement) -> None:
        """Untimed checks after the window; failures go into *measurement*."""

    def rss_bytes(self) -> int:
        return vm_hwm_bytes()

    def server_spans(self) -> dict | None:
        return None

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fig5-cover
# ----------------------------------------------------------------------


def fig5_inputs():
    """The Fig. 5 schema and view: |Y| = 25, |F| = 10, |Ec| = 4, block projection."""
    schema = random_schema(random.Random(PAPER_SEED), num_relations=10)
    view = random_spc_view(
        random.Random(PAPER_SEED + 7919 * 25 + 31 * 10 + 4),
        schema,
        num_projected=25,
        num_selections=10,
        num_atoms=4,
        block_projection=True,
    )
    return schema, view


def fig5_sigma(schema, size: int, sigma_seed: int, var_pct: float) -> list:
    return random_cfds(
        random.Random(sigma_seed), schema, size, max_lhs=9, min_lhs=3, var_pct=var_pct
    )


def fig5_cover_digest(cover) -> str:
    return digest(canonical_cover(cover))


#: Pool sizes: (|Sigma|, number of Sigma seeds) per mode.
FIG5_POOLS = {"full": (200, 128), "smoke": (60, 8)}


def record_fig5_digests() -> None:
    """Recompute the committed cover digests (``run.py --record-digests``)."""
    schema, view = fig5_inputs()
    doc = {}
    for mode, (size, count) in FIG5_POOLS.items():
        entries = []
        for index in range(count):
            sigma_seed = PAPER_SEED + 1000 * size + index
            var_pct = (0.4, 0.5)[index % 2]
            sigma = fig5_sigma(schema, size, sigma_seed, var_pct)
            clear_process_caches()
            cover = PropagationEngine().cover(sigma, view)
            entries.append(
                {
                    "sigma_seed": sigma_seed,
                    "var_pct": var_pct,
                    "cover_size": len(cover),
                    "digest": fig5_cover_digest(cover),
                }
            )
            print(f"{mode} {index}: |cover| = {len(cover)}", file=sys.stderr)
        doc[mode] = {"sigma_size": size, "sigmas": entries}
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")


class Fig5Cover(Workload):
    """One cold ``PropagationEngine().cover(Sigma, V)`` per operation.

    Each operation takes the next Sigma of a seed-shuffled pool of Fig. 5
    generator sets (LHS 3..9, var% 40 and 50 alternating), whose
    canonical cover digests are committed in ``fig5_digests.json``.
    """

    name = "fig5-cover"
    latencies = {"op": ("cover_s_p50", "s", 1.0)}
    counted_ops = 2

    def setup(self, trace: bool = False) -> None:
        pool = json.loads(DIGESTS.read_text())["smoke" if self.smoke else "full"]
        self.size = pool["sigma_size"]
        schema, self.view = fig5_inputs()
        entries = list(pool["sigmas"])
        random.Random(self.seed).shuffle(entries)
        self.entries = [
            (entry, fig5_sigma(schema, self.size, entry["sigma_seed"], entry["var_pct"]))
            for entry in entries
        ]

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()

        def op(i: int) -> None:
            entry, sigma = self.entries[i % len(self.entries)]
            clear_process_caches()
            started = time.perf_counter()
            engine = PropagationEngine()
            cover = engine.cover(sigma, self.view)
            m.add("op", started, time.perf_counter() - started)
            m.attempted += 1
            stats = stats_dict(engine.stats)
            engine.close()
            add_counts(m.engine, stats)
            if i < self.counted_ops:
                add_counts(m.counters, stats)
            if fig5_cover_digest(cover) != entry["digest"]:
                m.failures.append(f"cover digest mismatch for Sigma seed {entry['sigma_seed']}")
            elif len(cover) > self.size:
                m.failures.append(f"|cover| = {len(cover)} > |Sigma| = {self.size}")

        traced(tracer, lambda: run_until(seconds, op, Probe(m.probes)))
        return m


# ----------------------------------------------------------------------
# ex41-check
# ----------------------------------------------------------------------


class Ex41Check(Workload):
    """The Example 4.1 batch, cold on a fresh engine, then replayed warm.

    All ``2^n`` verdicts are true; the warm replay (one single-target
    ``check_many`` per query, in a seed-shuffled order) must run zero
    chases.
    """

    name = "ex41-check"
    latencies = {
        "op": ("check_batch_ms_p50", "ms", 1e3),
        "warm_check": ("warm_check_us_p50", "us", 1e6),
    }
    busy_keys = ("op", "warm_check")

    def setup(self, trace: bool = False) -> None:
        n = 4 if self.smoke else 8
        self.view, self.sigma, queries = example_41_workload(n, defeat_fast_path=True)
        rng = random.Random(self.seed)
        self.batch = rng.sample(queries, len(queries))
        self.replay = rng.sample(queries, len(queries))
        self._cold_then_warm(Measurement())  # warm-up: lazy imports, first calls

    def _cold_then_warm(self, m: Measurement) -> tuple[int, int, dict]:
        """One operation; returns (wrong verdicts, warm chases, engine stats)."""
        clear_process_caches()
        started = time.perf_counter()
        engine = PropagationEngine()
        verdicts = engine.check_many(self.sigma, self.view, self.batch)
        m.add("op", started, time.perf_counter() - started)
        chases = engine.stats.chase_invocations
        wrong = verdicts.count(False)
        for phi in self.replay:
            started = time.perf_counter()
            verdict = engine.check_many(self.sigma, self.view, [phi])
            m.add("warm_check", started, time.perf_counter() - started)
            wrong += verdict != [True]
        warm_chases = engine.stats.chase_invocations - chases
        stats = stats_dict(engine.stats)
        engine.close()
        return wrong, warm_chases, stats

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()

        def op(i: int) -> None:
            wrong, warm_chases, stats = self._cold_then_warm(m)
            m.attempted += 1
            add_counts(m.engine, stats)
            if i < self.counted_ops:
                add_counts(m.counters, stats)
            if wrong:
                m.failures.append(f"op {i}: {wrong} verdicts not propagated")
            elif warm_chases:
                m.failures.append(f"op {i}: warm replay ran {warm_chases} chases")

        traced(tracer, lambda: run_until(seconds, op, Probe(m.probes)))
        return m


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------


def _serve_requests():
    """The serve-warm mix: (registrations, [(request, kind)])."""
    view41, sigma41, queries41 = example_41_workload(5, defeat_fast_path=True)
    union_schema, union_sigma, union_view, union_phis = union_shard_workload()
    registrations = [
        ("ex41", exponential_family_schema(5), sigma41, "V", view41),
        ("union", union_schema, union_sigma, "U", union_view),
    ]
    requests = [
        (CheckRequest(view="V", sigma="ex41", targets=[phi]), "check")
        for phi in queries41
    ]
    requests += [
        (CheckRequest(view="U", sigma="union", targets=[phi]), "check")
        for phi in union_phis
    ]
    requests.append((CoverRequest(view="U", sigma="union"), "cover"))
    return registrations, requests


def canonical_answer(response, kind: str) -> str:
    if kind == "check":
        return canonical_verdicts(response.propagated)
    return canonical_cover(response.cover)


class ServeWarm(Workload):
    """A ``tcp://`` server subprocess driven by one closed-loop client.

    The client cycles through single-target checks of Example 4.1
    (n = 5) and of the 3-branch union, plus the union's cover, in a
    seed-shuffled order.  Every request is answered once before timing,
    so each timed reply must come from warm state (``chases == 0``) and
    equal the in-process answer.  Counters cover the first full cycle.
    """

    name = "serve-warm"
    latencies = {"op": ("rpc_us_p50", "us", 1e6)}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.proc = None
        self.client = None
        self._stderr_drain = None
        self._spans = None
        self.registrations, requests = _serve_requests()
        random.Random(seed).shuffle(requests)
        self.requests = requests
        self.counted_ops = len(requests)
        with PropagationService() as service:
            for name, schema, sigma, view_name, view in self.registrations:
                service.workspace.add_schema(name, schema)
                service.workspace.add_sigma(name, sigma)
                service.workspace.add_view(view_name, view, name)
            self.expected = [
                canonical_answer(service.submit(request), kind)
                for request, kind in requests
            ]

    def setup(self, trace: bool = False) -> None:
        self.close()
        command = [sys.executable, str(HERE / "serve.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stderr], [], [], 60)
        line = self.proc.stderr.readline() if ready else ""
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
        self._stderr_drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._stderr_drain.start()
        host, port = line.split()[-1].rsplit(":", 1)
        self.client = connect(f"tcp://{host}:{port}")
        for name, schema, sigma, view_name, view in self.registrations:
            self.client.register_schema(name, schema)
            self.client.register_sigma(name, sigma)
            self.client.register_view(view_name, view, name)
        for request, _ in self.requests:  # warm-up: every request once
            self.client.submit(request)

    def _control(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()
        cycle = len(self.requests)
        before = self.client.stats()["counters"]
        counted = {}

        def op(i: int) -> None:
            request, kind = self.requests[i % cycle]
            started = time.perf_counter()
            response = self.client.submit(request)
            m.add("op", started, time.perf_counter() - started)
            m.attempted += 1
            if canonical_answer(response, kind) != self.expected[i % cycle]:
                m.failures.append(f"request {i}: answer differs from in-process")
            elif response.stats.chases:
                m.failures.append(f"request {i}: warm reply ran {response.stats.chases} chases")
            if tracer is None and i + 1 == cycle:
                counted.update(self.client.stats()["counters"])

        if tracer is not None:
            self._control("reset")
        traced(tracer, lambda: run_until(seconds, op, Probe(m.probes)))
        if tracer is not None:
            self._spans = json.loads(self._control("dump"))
        add_counts(m.engine, self.client.stats()["counters"], before)
        if counted:
            add_counts(m.counters, counted, before)
        return m

    def rss_bytes(self) -> int:
        return vm_hwm_bytes(self.proc.pid)

    def server_spans(self) -> dict | None:
        return self._spans

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
        finally:
            self.client = None
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if self._stderr_drain is not None:
                self._stderr_drain.join(timeout=10)
            proc.stdout.close()
            proc.stderr.close()


# ----------------------------------------------------------------------
# stream-edits
# ----------------------------------------------------------------------

#: Constants for generated check targets (the trace generator's pool).
_TARGET_CONSTANTS = ("1", "2", "3", "7")


def reseed_targets(trace: dict, seed: int) -> dict:
    """*trace* with every check op's targets redrawn from *seed*.

    The schema, initial Sigma, view and edit sequence stay those of the
    base trace; only the follow-up check targets vary with the seed, in
    the shape the trace generator draws them (one or two LHS attributes,
    wildcards at 60%).
    """
    _, _, views, _ = parse_trace(trace)
    rng = random.Random(seed)
    ops = []
    for op in trace["ops"]:
        if op["op"] == "check":
            view = views[op["view"]]
            projection = list(view.projection)
            targets = []
            for _ in op["targets"]:
                chosen = rng.sample(projection, rng.randint(1, 2) + 1)
                lhs = {
                    attr: "_" if rng.random() < 0.6 else rng.choice(_TARGET_CONSTANTS)
                    for attr in chosen[:-1]
                }
                rhs = "_" if rng.random() < 0.6 else rng.choice(_TARGET_CONSTANTS)
                targets.append(dependency_to_json(CFD(view.name, lhs, {chosen[-1]: rhs})))
            op = {**op, "targets": targets}
        ops.append(op)
    return {**trace, "ops": ops}


class _TimedService:
    """The service a :class:`StreamingSession` drives, timing each call.

    The session's own clocks also cover its request decoding; this proxy
    times only the service calls, and gives the probe its turn between
    them.  ``calls`` holds ``(kind, start, seconds, response)``.
    """

    def __init__(self, service: PropagationService, probe: Probe) -> None:
        self.service = service
        self.workspace = service.workspace
        self.probe = probe
        self.calls: list[tuple[str, float, float, object]] = []

    def _call(self, kind: str, method, request):
        self.probe()
        started = time.perf_counter()
        response = method(request)
        self.calls.append((kind, started, time.perf_counter() - started, response))
        return response

    def delta_sigma(self, request):
        return self._call("edit", self.service.delta_sigma, request)

    def check(self, request):
        return self._call("query", self.service.check, request)

    def cover(self, request):
        return self._call("query", self.service.cover, request)


class StreamEdits(Workload):
    """A ``repro-trace/1`` edit trace replayed against an in-process service.

    The base trace is ``generate_trace(PAPER_SEED, 400, ops_per_edit=2)``;
    the seed redraws its check targets.  Each pass replays the whole trace
    on a fresh service (Sigma grows along it, so passes are never cut
    short); one operation is one edit plus its follow-up check and cover.
    Every pass's answers are compared, after the timed window, with one
    replay verified query by query against :class:`ColdReference`.
    """

    name = "stream-edits"
    latencies = {
        "op": ("edit_ms_p50", "ms", 1e3),
        "edit_write": ("edit_write_ms_p50", "ms", 1e3),
    }

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.counted_ops = 40 if smoke else 400
        self.passes: list[list[str]] = []

    def setup(self, trace: bool = False) -> None:
        self.trace = reseed_targets(
            generate_trace(PAPER_SEED, self.counted_ops, ops_per_edit=2), self.seed
        )

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()
        probe = Probe(m.probes)
        m.engine.update(retained=0, invalidated=0)

        def one_pass(i: int) -> None:
            clear_process_caches()
            with PropagationService() as service:
                timed = _TimedService(service, probe)
                report = StreamingSession(timed, self.trace).run()
                stats = stats_dict(service.stats)
            edits = []  # [start, seconds of the edit and its follow-up ops]
            for kind, started, seconds_, response in timed.calls:
                if kind == "query":
                    edits[-1][1] += seconds_
                    continue
                edits.append([started, seconds_])
                m.add("edit_write", started, seconds_)
                m.engine["retained"] += response.retained
                m.engine["invalidated"] += response.invalidated
            for started, seconds_ in edits:
                m.add("op", started, seconds_)
            m.attempted += report.edits
            add_counts(m.engine, stats)
            if i == 0:
                add_counts(m.counters, stats)
            self.passes.append(report.answers)

        traced(tracer, lambda: run_until(seconds, one_pass, probe))
        return m

    def verify(self, m: Measurement) -> None:
        """Replay once more against ``ColdReference`` and compare answers."""
        clear_process_caches()
        try:
            with PropagationService() as service:
                expected = StreamingSession(
                    service, self.trace, verify=ColdReference(self.trace)
                ).run().answers
        except DeltaMismatch as exc:
            m.failures.append(f"cold-verified replay diverged: {exc}")
            return
        per_edit = len(expected) // self.counted_ops
        for answers in self.passes:
            wrong_edits = {
                index // per_edit
                for index, (got, want) in enumerate(zip(answers, expected))
                if got != want
            }
            if len(answers) != len(expected):
                wrong_edits.add(-1)
            m.failures += [
                f"edit {e}: answers differ from the verified replay"
                for e in sorted(wrong_edits)
            ]
        self.passes = []


WORKLOADS = {w.name: w for w in (Fig5Cover, Ex41Check, ServeWarm, StreamEdits)}
