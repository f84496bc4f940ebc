"""The differential oracle: one case, every configuration, one answer.

:class:`MatrixHarness` owns one long-lived runner per matrix entry —
warm local services for the engine-settings axes, background TCP/HTTP
endpoints and a :class:`~repro.api.orchestrator.ReplicaSet` over both —
and runs each case's check/cover/emptiness requests through all of
them.  Results are *canonicalized* (verdict lists, covers as sorted
canonical-JSON dependency documents, emptiness booleans; typed
:class:`~repro.api.ApiError` failures collapse to their taxonomy kind)
so agreement is byte-level string equality and never depends on
transport framing or response field order.

The reference entry is ``baseline``: an uncached local service, i.e. the
plain single-query procedures of :mod:`repro.propagation` with no memo,
no parallelism.  Every other entry must match it
exactly.  On top of the differential matrix,
:func:`closure_oracle_disagreements` checks the FD-over-projection
fragment against the *independent* textbook closure baseline
(:mod:`repro.propagation.closure_baseline`) — semantic cover equivalence
via :func:`repro.core.fd.equivalent`, since minimal covers are unique
only up to FD-theory equality.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from typing import Any, Sequence

from .. import io as repro_io
from ..api import (
    ApiError,
    CheckRequest,
    CoverRequest,
    EmptinessRequest,
    PropagationService,
    UpdateSigmaRequest,
)
from ..api.client import connect
from ..api.orchestrator import ReplicaSet
from ..api.server import background_server
from ..core.fd import FD, equivalent, implies
from ..core.values import is_wildcard
from ..propagation.closure_baseline import closure_projection_cover
from .cases import is_fd_projection_case, parse_case

__all__ = [
    "BASELINE",
    "DEFAULT_MATRIX",
    "Disagreement",
    "MatrixHarness",
    "closure_oracle_disagreements",
]

#: The reference configuration every other entry must agree with.
BASELINE = "baseline"

#: Every matrix entry, in evaluation order.
DEFAULT_MATRIX = (
    BASELINE,
    "cache",
    "kernel",
    "store",
    "delta",
    "tcp",
    "http",
    "replicas",
)

_ALL_OPS = ("check", "cover", "empty")


@dataclass(frozen=True)
class Disagreement:
    """One configuration answering one op differently from the baseline."""

    config: str
    op: str
    expected: str
    actual: str

    def describe(self) -> str:
        return (
            f"{self.config}/{self.op}: expected {self.expected}, "
            f"got {self.actual}"
        )


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _canonical_cover(cover) -> str:
    docs = sorted(
        _canonical(repro_io.dependency_to_json(dep)) for dep in cover
    )
    return _canonical({"cover": docs})


class _Runner:
    """One matrix entry: typed requests against one execution path."""

    def prepare(self, case: dict) -> None:
        """Per-case setup (endpoint entries register the case schema)."""

    def check(self, view, sigma, targets) -> str:
        raise NotImplementedError

    def cover(self, view, sigma) -> str:
        raise NotImplementedError

    def empty(self, view, sigma) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _ServiceRunner(_Runner):
    """A warm local :class:`PropagationService` with fixed settings."""

    def __init__(self, **service_options) -> None:
        self.service = PropagationService(**service_options)

    def check(self, view, sigma, targets) -> str:
        verdict = self.service.check(
            CheckRequest(view=view, targets=targets, sigma=sigma)
        )
        return _canonical({"propagated": list(verdict.propagated)})

    def cover(self, view, sigma) -> str:
        result = self.service.cover(CoverRequest(view=view, sigma=sigma))
        return _canonical_cover(result.cover)

    def empty(self, view, sigma) -> str:
        result = self.service.emptiness(
            EmptinessRequest(view=view, sigma=sigma)
        )
        return _canonical({"empty": bool(result.empty)})

    def close(self) -> None:
        self.service.close()


class _DeltaRunner(_Runner):
    """The delta-aware recompute paths under a mid-stream Sigma edit.

    Per op this entry perturbs the case: it *adds* a fresh CFD on a
    relation the view reads via ``delta_sigma`` (driving the selective
    invalidation, the pair memo, the branch-cover memo and the cover
    seeds of one long-lived warm service), answers under the edited
    Sigma, and differentially compares that answer to a fresh **cold**
    service built on the same edited set — the byte-identity contract
    of the delta path.  A divergence poisons the returned string so it
    surfaces as an ordinary matrix disagreement.  The edit is then
    reverted (again via ``delta_sigma``) and the op re-answered under
    the restored Sigma; that answer is what the baseline comparison
    sees, so this entry also proves edit+revert round-trips to the
    original answers.
    """

    def __init__(self) -> None:
        self.service = PropagationService(use_cache=True)

    def prepare(self, case: dict) -> None:
        schema, sigma, view, _ = parse_case(case)
        self._schema = schema
        self.service.workspace.add_schema("default", schema)
        self.service.workspace.add_sigma("default", list(sigma))
        self._edit = self._novel_edit(schema, sigma, view)

    @staticmethod
    def _novel_edit(schema, sigma, view):
        """A CFD guaranteed absent from Sigma, on a relation the view
        reads (so the edit actually invalidates the case's warm lines)
        and with constants outside the case's value space (so the revert
        removes the edit and nothing else)."""
        from ..core.cfd import CFD
        from ..propagation.check import _as_cfds
        from ..propagation.engine import touched_relations

        relation = sorted(touched_relations(view))[0]
        attrs = list(schema.relation(relation).attribute_names)
        present = {frozenset(_as_cfds([dep])) for dep in sigma}
        constant = 999983
        while True:
            edit = CFD(
                relation,
                {attrs[0]: str(constant)},
                {attrs[-1]: str(constant + 4)},
            )
            if frozenset(_as_cfds([edit])) not in present:
                return edit
            constant += 1

    def _differential(self, run) -> str:
        """Edit, answer warm, compare to cold, revert; the restored
        answer (or the poisoned mismatch report) comes back."""
        self.service.delta_sigma(UpdateSigmaRequest(add=[self._edit]))
        warm = run(self.service)
        edited = list(self.service.workspace.sigma("default"))
        with PropagationService(use_cache=False) as cold:
            cold.workspace.add_schema("default", self._schema)
            cold.workspace.add_sigma("default", edited)
            expected = run(cold)
        self.service.delta_sigma(UpdateSigmaRequest(remove=[self._edit]))
        if warm != expected:
            return _canonical(
                {"delta-mismatch": {"warm": warm, "cold": expected}}
            )
        return run(self.service)

    def check(self, view, sigma, targets) -> str:
        def run(service):
            verdict = service.check(
                CheckRequest(view=view, targets=targets, sigma="default")
            )
            return _canonical({"propagated": list(verdict.propagated)})

        return self._differential(run)

    def cover(self, view, sigma) -> str:
        def run(service):
            result = service.cover(CoverRequest(view=view, sigma="default"))
            return _canonical_cover(result.cover)

        return self._differential(run)

    def empty(self, view, sigma) -> str:
        def run(service):
            result = service.emptiness(
                EmptinessRequest(view=view, sigma="default")
            )
            return _canonical({"empty": bool(result.empty)})

        return self._differential(run)

    def close(self) -> None:
        self.service.close()


class _ClientRunner(_Runner):
    """A typed client over a wire endpoint (``tcp://`` / ``http://``), or
    a :class:`ReplicaSet` balancing over both (it mirrors the client).

    Views and Sigma travel inline in every request; inline views parse
    against the endpoint's ``"default"`` schema registration, which
    :meth:`prepare` re-registers per case.
    """

    def __init__(self, client) -> None:
        self.client = client

    def prepare(self, case: dict) -> None:
        self.client.register_schema("default", case["schema"])

    def check(self, view, sigma, targets) -> str:
        verdict = self.client.check(
            CheckRequest(view=view, targets=targets, sigma=sigma)
        )
        return _canonical({"propagated": list(verdict.propagated)})

    def cover(self, view, sigma) -> str:
        result = self.client.cover(CoverRequest(view=view, sigma=sigma))
        return _canonical_cover(result.cover)

    def empty(self, view, sigma) -> str:
        result = self.client.emptiness(
            EmptinessRequest(view=view, sigma=sigma)
        )
        return _canonical({"empty": bool(result.empty)})

    def close(self) -> None:
        self.client.close()


class MatrixHarness:
    """Every requested matrix entry, built once and kept warm for a run."""

    def __init__(self, matrix: Sequence[str] | None = None) -> None:
        names = list(matrix) if matrix else list(DEFAULT_MATRIX)
        if BASELINE not in names:
            names.insert(0, BASELINE)
        unknown = sorted(set(names) - set(DEFAULT_MATRIX))
        if unknown:
            raise ValueError(
                f"unknown matrix entries {unknown}; "
                f"known entries are {sorted(DEFAULT_MATRIX)}"
            )
        # Evaluation order is the canonical DEFAULT_MATRIX order so a
        # subset matrix still reports deterministically.
        self.names = [n for n in DEFAULT_MATRIX if n in names]
        self._runners: dict[str, _Runner] = {}
        self._contexts: list = []
        try:
            self._build()
        except BaseException:
            self.close()
            raise

    def _endpoint(self, transport: str) -> str:
        """Start a background endpoint whose lifetime matches the harness."""
        service = PropagationService()
        self._contexts.append(service)
        context = background_server(service, transport)
        url = context.__enter__()
        self._contexts.append(context)
        return url

    def _build(self) -> None:
        wanted = set(self.names)
        runners = self._runners
        if BASELINE in wanted:
            runners[BASELINE] = _ServiceRunner(use_cache=False)
        if "cache" in wanted:
            runners["cache"] = _ServiceRunner(use_cache=True)
        if "kernel" in wanted:
            # The packed chase kernel, pinned explicitly so the entry
            # exercises it even when REPRO_KERNEL=baseline (the CI
            # matrix sets exactly that to flip the roles: the *other*
            # entries then run the baseline kernel and this one stays
            # the packed side of the differential).
            runners["kernel"] = _ServiceRunner(use_cache=True, kernel="bitset")
        if "store" in wanted:
            # The shared sqlite tier behind the cached service, in a
            # directory the harness owns: payload encode/decode and
            # single-flight lease promotion are in the loop.
            store_dir = tempfile.TemporaryDirectory(prefix="repro-fuzz-store-")
            self._contexts.append(store_dir)
            runners["store"] = _ServiceRunner(store_url=f"sqlite://{store_dir.name}")
        if "delta" in wanted:
            runners["delta"] = _DeltaRunner()
        tcp_url = http_url = None
        if wanted & {"tcp", "replicas"}:
            tcp_url = self._endpoint("tcp")
        if wanted & {"http", "replicas"}:
            http_url = self._endpoint("http")
        if "tcp" in wanted:
            runners["tcp"] = _ClientRunner(connect(tcp_url))
        if "http" in wanted:
            runners["http"] = _ClientRunner(connect(http_url))
        if "replicas" in wanted:
            runners["replicas"] = _ClientRunner(ReplicaSet([tcp_url, http_url]))

    # ------------------------------------------------------------------
    # Case evaluation.
    # ------------------------------------------------------------------

    @staticmethod
    def _run_op(runner: _Runner, op: str, view, sigma, targets) -> str:
        try:
            if op == "check":
                return runner.check(view, sigma, targets)
            if op == "cover":
                return runner.cover(view, sigma)
            return runner.empty(view, sigma)
        except ApiError as exc:
            return _canonical({"error": exc.kind})

    def run_case(self, case: dict) -> tuple[dict, list[Disagreement]]:
        """Run one case through every entry.

        Returns ``(results, disagreements)`` where ``results`` maps
        ``config -> op -> canonical string`` and ``disagreements`` lists
        every non-baseline answer that differs from the baseline's for
        the same op.
        """
        schema, sigma, view, targets = parse_case(case)
        results: dict[str, dict[str, str]] = {}
        for name in self.names:
            runner = self._runners[name]
            runner.prepare(case)
            results[name] = {
                op: self._run_op(runner, op, view, sigma, targets)
                for op in _ALL_OPS
            }
        reference = results[BASELINE]
        disagreements = [
            Disagreement(name, op, reference[op], answer)
            for name in self.names
            if name != BASELINE
            for op, answer in results[name].items()
            if answer != reference[op]
        ]
        return results, disagreements

    def baseline_results(self, case: dict) -> dict[str, str]:
        """The baseline entry's canonical answers alone (corpus replay)."""
        schema, sigma, view, targets = parse_case(case)
        runner = self._runners[BASELINE]
        runner.prepare(case)
        return {
            op: self._run_op(runner, op, view, sigma, targets)
            for op in _ALL_OPS
        }

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        for runner in self._runners.values():
            try:
                runner.close()
            except Exception:
                pass
        self._runners = {}
        # Unwind endpoints after the clients/fleets that talk to them.
        for context in reversed(self._contexts):
            try:
                if hasattr(context, "__exit__"):
                    context.__exit__(None, None, None)
                else:
                    context.close()
            except Exception:
                pass
        self._contexts = []

    def __enter__(self) -> "MatrixHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# The independent closure-baseline oracle (FD-over-projection fragment).
# ----------------------------------------------------------------------


def closure_oracle_disagreements(case: dict) -> list[Disagreement]:
    """Check an FD-over-projection case against the textbook baseline.

    Applies only to cases :func:`~repro.fuzz.cases.is_fd_projection_case`
    recognizes; returns ``[]`` for everything else.  The baseline entry's
    answers are recomputed here (uncached service) rather than threaded
    through, so this oracle is self-contained for corpus replay.
    """
    if not is_fd_projection_case(case):
        return []
    schema, sigma, view, targets = parse_case(case)
    atom = view.atoms[0]
    mapping = atom.mapping_dict
    renamed = [
        FD(
            view.name,
            tuple(mapping[a] for a in dep.lhs),
            tuple(mapping[a] for a in dep.rhs),
        )
        for dep in sigma
    ]
    attrs = list(view.es_attributes())
    expected_cover = closure_projection_cover(
        renamed, view.name, attrs, view.projection
    )

    out: list[Disagreement] = []
    with PropagationService(use_cache=False) as service:
        verdict = service.check(
            CheckRequest(view=view, targets=targets, sigma=sigma)
        )
        for phi, got in zip(targets, verdict.propagated):
            want = implies(expected_cover, FD(view.name, phi.lhs, phi.rhs))
            if bool(got) != want:
                out.append(
                    Disagreement(
                        "closure-oracle", "check", str(want), str(bool(got))
                    )
                )
        cover = service.cover(CoverRequest(view=view, sigma=sigma)).cover
        if all(
            all(is_wildcard(e) for _, e in phi.lhs + phi.rhs) for phi in cover
        ):
            engine_fds = [
                FD(view.name, phi.lhs_attrs, phi.rhs_attrs) for phi in cover
            ]
            if not equivalent(engine_fds, expected_cover):
                out.append(
                    Disagreement(
                        "closure-oracle",
                        "cover",
                        _canonical_cover(expected_cover),
                        _canonical_cover(cover),
                    )
                )
        else:
            out.append(
                Disagreement(
                    "closure-oracle",
                    "cover",
                    "all-wildcard (plain-FD) cover",
                    _canonical_cover(cover),
                )
            )
        empty = service.emptiness(
            EmptinessRequest(view=view, sigma=sigma)
        ).empty
        # A selection-free, constant-free projection view over FD-only
        # sources always admits a nonempty satisfying instance.
        if empty:
            out.append(
                Disagreement("closure-oracle", "empty", "False", "True")
            )
    return out
