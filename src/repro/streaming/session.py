"""The continuous-edit session driver.

:class:`StreamingSession` applies one trace (:mod:`repro.streaming.trace`)
against a live target — an in-process
:class:`~repro.api.PropagationService` or a :func:`repro.api.connect`
client over any endpoint — through the same typed request objects either
way.  Per edit it records what the delta path did (lines invalidated
versus retained, the warmth fraction) and what the follow-up traffic
cost (wall time and the engine counters it moved), aggregating into a
:class:`StreamingReport`: steady-state latency and retained warmth over
the whole trace, the two curves ``benchmarks/bench_incremental.py``
charts.

With ``verify=ColdReference(trace)`` every query answer is compared to a
fresh cold recompute as the session runs — the byte-identity contract of
the delta path, enforced live (:class:`DeltaMismatch` on divergence).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from ..api import CheckRequest, CoverRequest, UpdateSigmaRequest
from ..io import dependencies_from_json
from .delta import ColdReference, canonical_cover, canonical_verdicts, warmth_fraction
from .trace import parse_trace

__all__ = [
    "DeltaMismatch",
    "EditRecord",
    "StreamingReport",
    "StreamingSession",
]


class DeltaMismatch(AssertionError):
    """The warm delta path diverged from the cold reference."""


@dataclass
class EditRecord:
    """One edit plus its follow-up traffic, as measured."""

    index: int
    kind: str
    relation: str
    invalidated: int
    retained: int
    warmth: float
    edit_ms: float
    op_ms: float
    ops: int
    chases: int
    pair_chases: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class StreamingReport:
    """What one trace replay measured, edit by edit and in aggregate.

    ``answers`` holds the canonical string per query op (trace order) —
    the digest the differential suite compares across delta and cold
    runs.  ``steady_state_ms`` is the mean per-op latency over the
    second half of the trace, past the warm-up transient.
    """

    edits: int = 0
    queries: int = 0
    records: list[EditRecord] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)

    @property
    def mean_warmth(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.warmth for r in self.records) / len(self.records)

    @property
    def steady_state_ms(self) -> float:
        tail = self.records[len(self.records) // 2 :]
        ops = sum(r.ops for r in tail)
        if ops == 0:
            return 0.0
        return sum(r.op_ms for r in tail) / ops

    @property
    def total_ms(self) -> float:
        return sum(r.edit_ms + r.op_ms for r in self.records)

    def to_json(self) -> dict:
        return {
            "edits": self.edits,
            "queries": self.queries,
            "mean_warmth": self.mean_warmth,
            "steady_state_ms": self.steady_state_ms,
            "total_ms": self.total_ms,
            "records": [r.to_json() for r in self.records],
        }


class StreamingSession:
    """Drive a trace against a live service or client.

    The target only needs the service request surface (``check`` /
    ``cover`` / ``delta_sigma``); registration dispatches on shape —
    a client exposes ``register_schema``, a service its ``workspace``.
    """

    def __init__(self, target, trace: dict, verify: ColdReference | None = None):
        self.target = target
        self.trace = trace
        self.verify = verify

    def _register(self) -> dict:
        schema, sigma, views, ops = parse_trace(self.trace)
        if hasattr(self.target, "register_schema"):
            self.target.register_schema("default", schema)
            self.target.register_sigma("default", sigma)
            for name, view in views.items():
                self.target.register_view(name, view)
        else:
            self.target.workspace.add_schema("default", schema)
            self.target.workspace.add_sigma("default", list(sigma))
            for name, view in views.items():
                self.target.workspace.add_view(name, view)
        return ops

    def _answer(self, op: dict) -> tuple[str, object]:
        if op["op"] == "check":
            verdict = self.target.check(
                CheckRequest(
                    view=op["view"],
                    targets=dependencies_from_json(op["targets"]),
                )
            )
            return canonical_verdicts(verdict.propagated), verdict
        if op["op"] == "cover":
            result = self.target.cover(CoverRequest(view=op["view"]))
            return canonical_cover(result.cover), result
        raise ValueError(f"not a query op: {op['op']!r}")

    def run(self) -> StreamingReport:
        ops = self._register()
        report = StreamingReport()
        record: EditRecord | None = None
        for op in ops:
            if op["op"] == "edit":
                started = time.perf_counter()
                update = self.target.delta_sigma(
                    UpdateSigmaRequest(
                        name="default",
                        add=dependencies_from_json(op["add"]),
                        remove=dependencies_from_json(op["remove"]),
                    )
                )
                elapsed = (time.perf_counter() - started) * 1000.0
                if self.verify is not None:
                    self.verify.apply_edit(op)
                record = EditRecord(
                    index=report.edits,
                    kind=op["kind"],
                    relation=op["relation"],
                    invalidated=update.invalidated,
                    retained=update.retained,
                    warmth=warmth_fraction(update),
                    edit_ms=elapsed,
                    op_ms=0.0,
                    ops=0,
                    chases=0,
                    pair_chases=0,
                )
                report.records.append(record)
                report.edits += 1
                continue
            started = time.perf_counter()
            answer, response = self._answer(op)
            elapsed = (time.perf_counter() - started) * 1000.0
            report.answers.append(answer)
            report.queries += 1
            if self.verify is not None:
                expected = self.verify.answer(op)
                if answer != expected:
                    raise DeltaMismatch(
                        f"query #{report.queries - 1} ({op['op']} on "
                        f"{op['view']!r}) after edit #{report.edits - 1}: "
                        f"delta={answer} cold={expected}"
                    )
            if record is not None:
                record.op_ms += elapsed
                record.ops += 1
                stats = response.stats
                record.chases += stats.chases
                record.pair_chases += stats.pair_chases
        return report
