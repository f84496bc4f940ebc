"""The unified propagation service: one entry point for every query class.

:class:`PropagationService` is the layer the CLI, the server and library
callers all talk to.  It owns

- a :class:`~repro.api.Workspace` (named schemas / Sigmas / views,
  registered once),
- a pool of warm :class:`~repro.propagation.engine.PropagationEngine`
  instances, one per engine-settings combination (``use_cache``,
  ``max_instantiations``, ``assume_infinite``), all sharing the service's
  cache configuration (``cache_dir`` / ``cache_size`` / ``store_url``),
  and
- *capability routing*: each request is classified by the shape of its
  inputs and dispatched to the procedure family that decides it.

Routing table (mirrored in ``docs/api.md``; the route label is returned
in every response)::

    check     assume_infinite              -> "ptime-chase"  (single-chase, incomplete)
              finite-domain attribute      -> "general"      (coNP enumeration)
              FD-only Sigma over a plain
              projection view              -> "closure"      (attribute_closure, no chase)
              union view, > 1 branch       -> "spcu"         (k^2 branch pairs)
              otherwise                    -> "spc"
    cover     union view, > 1 branch       -> "spcu"         (PropCFD_SPCU)
              otherwise                    -> "spc"          (PropCFD_SPC / RBR)
    empty     always                       -> "emptiness"    (per-branch chase)
    update-sigma                           -> "delta-sigma"  (diff + selective
                                                              invalidation)

The labels classify which family *answers a miss*; hits short-circuit in
the engine's memo tiers regardless of route, and the per-request
:class:`~repro.api.requests.RequestStats` delta records what actually
ran.  The service keeps no memo or key: the engine owns the one view
interner and every line (emptiness too), returns the route capabilities
with a check's verdicts, and ``invalidate_relations`` is the one sweep.

Errors are normalized at this boundary: anything a procedure raises
reaches the caller as an :class:`~repro.api.ApiError` from the stable
taxonomy in :mod:`repro.api.errors`.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, NamedTuple

from ..algebra.spcu import SPCUView
from ..core.fd import FD
from ..kernel.config import resolve_kernel
from ..propagation.check import DependencyLike, ViewLike
from ..propagation.engine import EngineStats, PropagationEngine
from ..propagation.engine.core import _all_wildcard
from ..store import validate_store_url
from .errors import ApiError, api_errors
from .requests import (
    BatchRequest,
    BatchResult,
    CheckRequest,
    CoverRequest,
    CoverResult,
    EmptinessRequest,
    EmptinessResult,
    Request,
    RequestStats,
    Response,
    SigmaUpdate,
    UpdateSigmaRequest,
    Verdict,
    settings_from_json,
)
from .workspace import DEFAULT_NAME, Workspace

__all__ = ["PropagationService"]


class _Effective(NamedTuple):
    """A request's engine settings after falling back to service defaults
    (a tuple: it keys the engine pool and the server's pool locks)."""

    use_cache: bool
    max_instantiations: int | None
    assume_infinite: bool
    kernel: str | None = None


class PropagationService:
    """Routes typed propagation requests over warm, cached engines."""

    def __init__(
        self,
        workspace: Workspace | None = None,
        *,
        use_cache: bool = True,
        max_instantiations: int | None = None,
        assume_infinite: bool = False,
        cache_dir: str | None = None,
        cache_size: int | None = None,
        store_url: str | None = None,
        kernel: str | None = None,
    ) -> None:
        self.workspace = workspace if workspace is not None else Workspace()
        if store_url:
            # Fail fast at construction — a typo'd --store-url /
            # REPRO_STORE_URL scheme is a typed `format` error here, not
            # a traceback on the first cache miss.
            validate_store_url(store_url)
        # Same contract for a typo'd kernel name: a typed bad-request.
        settings_from_json({"kernel": kernel})
        self._defaults = _Effective(
            use_cache,
            max_instantiations,
            assume_infinite,
            kernel=resolve_kernel(kernel),
        )
        self._engine_opts = dict(
            cache_dir=cache_dir,
            cache_size=cache_size,
            store_url=store_url or None,
        )
        self._engines: dict[tuple, PropagationEngine] = {}
        # Engine-pool creation guard: the server's per-pool locks allow
        # requests on *different* pool keys to run concurrently, so two
        # executor threads may reach `_engine` at once.
        self._pool_guard = threading.Lock()

    # ------------------------------------------------------------------
    # Engine pool.
    # ------------------------------------------------------------------

    def _effective(self, overrides: Mapping) -> _Effective:
        """Per-request *overrides* (``None`` = inherit) over the defaults;
        the one validation every entry point (wire decode, the server's
        pool key, in-process requests) passes before any engine exists."""
        return _Effective._make(
            default if value is None else value
            for value, default in zip(
                settings_from_json(overrides).values(), self._defaults
            )
        )

    def _engine(
        self, settings: _Effective, *, create: bool = True
    ) -> PropagationEngine | None:
        # Keyed by the settings, `kernel` included — not because answers
        # differ (it is in no cache key), but because an engine is pinned
        # to one implementation: a baseline request must get the oracle.
        engine = self._engines.get(settings)
        if engine is not None or not create:
            return engine
        with self._pool_guard:
            engine = self._engines.get(settings)
            if engine is None:
                engine = PropagationEngine(
                    use_cache=settings.use_cache,
                    max_instantiations=settings.max_instantiations,
                    assume_infinite=settings.assume_infinite,
                    kernel=settings.kernel,
                    **self._engine_opts,
                )
                self._engines[settings] = engine
        return engine

    def pool_key(self, doc: Mapping) -> _Effective:
        """The engine-pool key a wire document's settings resolve to.

        This is the lock granularity of the server's per-engine-pool
        locks (:class:`~repro.api.server.PropagationServer`) and the
        key of the engine itself: documents with the same pool key
        dispatch to the same warm engine and must serialize.  Unset
        fields fall back to the service defaults; a mistyped one raises
        the typed ``bad-request`` request decode raises.
        """
        return self._effective(doc)

    @property
    def engine(self) -> PropagationEngine:
        """The default-settings engine (created on first use)."""
        return self._engine(self._defaults)

    @property
    def stats(self) -> EngineStats:
        """The default-settings engine's counters (the CLI's ``--stats``)."""
        return self.engine.stats

    def close(self) -> None:
        """Close every pooled engine (and its store); idempotent."""
        with self._pool_guard:
            engines, self._engines = list(self._engines.values()), {}
        for engine in engines:
            engine.close()

    def __enter__(self) -> "PropagationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Capability routing.
    # ------------------------------------------------------------------

    # An instance method, not a staticmethod: perfbench's tracer wraps it
    # on the class by name, and a plain-function wrapper would bind self.
    def route_check(
        self,
        view: ViewLike,
        targets: list[DependencyLike],
        settings: _Effective,
        finite_domain: bool,
        fast_path: bool,
    ) -> str:
        """Classify which procedure family decides this check request: a
        pure function of the settings, the targets and the two
        capabilities the engine returns with the verdicts (a finite-domain
        attribute present, the closure fast path applicable)."""
        if settings.assume_infinite:
            return "ptime-chase"
        if finite_domain:
            return "general"
        if settings.use_cache and fast_path and targets and all(
            isinstance(phi, FD) or _all_wildcard(phi) for phi in targets
        ):
            return "closure"
        return self.route_cover(view)  # "spcu" for a multi-branch union

    @staticmethod
    def route_cover(view: ViewLike) -> str:
        if isinstance(view, SPCUView) and len(view.branches) > 1:
            return "spcu"
        return "spc"

    # ------------------------------------------------------------------
    # Request dispatch.
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> Response:
        """Answer any request type (the single front door)."""
        if isinstance(request, CheckRequest):
            return self.check(request)
        if isinstance(request, CoverRequest):
            return self.cover(request)
        if isinstance(request, EmptinessRequest):
            return self.emptiness(request)
        if isinstance(request, UpdateSigmaRequest):
            return self.delta_sigma(request)
        if isinstance(request, BatchRequest):
            return self.batch(request)
        raise ApiError(
            "bad-request", f"unknown request type {type(request).__name__}"
        )

    def delta_sigma(self, request: UpdateSigmaRequest) -> SigmaUpdate:
        """Apply a Sigma diff and selectively invalidate warm state.

        The registered set named by ``request.name`` (``None`` = the
        ``"default"`` registration) is diffed in place by
        :meth:`Workspace.edit_sigma <repro.api.Workspace.edit_sigma>`:
        dependencies whose normalized CFDs are covered by ``remove`` drop
        out, ``add`` appends.  Each registered dependency was normalized
        once, when it was registered or added, so the edit normalizes only
        its own diff and hands the engines the prepared Sigma.  The
        *affected relations* are those mentioned by the diff; every pooled
        engine drops only the lines whose provenance meets them (the
        service keeps no memo of its own), and an engine none of whose
        views reads them returns without visiting a line.  Because all
        keys are provenance-scoped, the surviving lines are immediately
        reachable under the updated Sigma — queries on untouched
        relations keep answering with zero chases, from the memory tiers
        and the persistent store alike (``tests/test_incremental.py`` /
        ``benchmarks/bench_incremental.py``).
        """
        with api_errors():
            started = time.perf_counter()
            name = request.name if request.name is not None else DEFAULT_NAME
            current, updated, affected = self.workspace.edit_sigma(
                name, request.add, request.remove
            )
            invalidated = retained = 0
            with self._pool_guard:
                engines = list(self._engines.values())
            for engine in engines:
                # `current` (the pre-edit registration) makes the sweep
                # precise: lines warmed under other Sigmas that mention
                # the affected relations keep their (unchanged) keys.
                out = engine.invalidate_relations(affected, sigma=current)
                invalidated += out["invalidated"]
                retained += out["retained"]
            stats = RequestStats(
                elapsed_ms=(time.perf_counter() - started) * 1000.0
            )
            return SigmaUpdate(
                name=name,
                size=len(updated),
                affected_relations=sorted(affected),
                invalidated=invalidated,
                retained=retained,
                stats=stats,
            )

    def peek(self, request: Request) -> Verdict | CoverResult | None:
        """:meth:`check`/:meth:`cover`'s answer, ticking the same counters, if
        the engine pool and the engine's memory lines (only read) hold it;
        else ``None`` (a witness or another op too).  The event-loop path."""
        if isinstance(request, CheckRequest) and not request.witness:
            return self._check(request, peek=True)
        if isinstance(request, CoverRequest):
            return self._cover(request, peek=True)
        return None

    def check(self, request: CheckRequest) -> Verdict:
        return self._check(request, peek=False)

    def _check(self, request: CheckRequest, *, peek: bool) -> Verdict | None:
        with api_errors():
            view = self.workspace.view(request.view)
            sigma = self.workspace.sigma(request.sigma)
            targets = list(request.targets)
            settings = self._effective(vars(request))
            engine = self._engine(settings, create=not peek)
            if engine is None:
                return None
            before, started = vars(engine.stats).copy(), time.perf_counter()
            decided = engine._decide(sigma, view, targets, peek=peek)
            if decided is None:
                return None
            verdicts, finite_domain, fast_path = decided
            route = self.route_check(view, targets, settings, finite_domain, fast_path)
            witnesses = None
            if request.witness:
                witnesses = [
                    None
                    if verdict
                    else engine.find_counterexample(sigma, view, phi).database
                    for phi, verdict in zip(targets, verdicts)
                ]
            stats = self._delta(engine, before, started, len(targets))
            return Verdict(verdicts, route, stats, witnesses)

    def cover(self, request: CoverRequest) -> CoverResult:
        return self._cover(request, peek=False)

    def _cover(self, request: CoverRequest, *, peek: bool) -> CoverResult | None:
        with api_errors():
            view = self.workspace.view(request.view)
            sigma = self.workspace.sigma(request.sigma)
            settings = self._effective(vars(request))
            route = self.route_cover(view)
            engine = self._engine(settings, create=not peek)
            if engine is None:
                return None
            before, started = vars(engine.stats).copy(), time.perf_counter()
            cover = (engine.peek if peek else engine.cover)(sigma, view)
            if cover is None:
                return None
            return CoverResult(cover, route, self._delta(engine, before, started, 1))

    def emptiness(self, request: EmptinessRequest) -> EmptinessResult:
        with api_errors():
            view = self.workspace.view(request.view)
            sigma = self.workspace.sigma(request.sigma)
            settings = self._effective(vars(request))
            started = time.perf_counter()
            empty, witness = self._engine(settings)._emptiness(sigma, view)
            stats = RequestStats(
                elapsed_ms=(time.perf_counter() - started) * 1000.0, queries=1
            )
            return EmptinessResult(
                empty, "emptiness", stats, witness if request.witness else None
            )

    def batch(self, request: BatchRequest) -> BatchResult:
        started = time.perf_counter()
        results = [self.submit(sub) for sub in request.requests]
        stats = RequestStats.total(
            [r.stats for r in results],
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )
        return BatchResult(results, stats)

    @staticmethod
    def _delta(
        engine: PropagationEngine, before: dict, started: float, queries: int
    ) -> RequestStats:
        """Engine-counter deltas since *before* (a ``vars`` copy of the
        engine's stats; ``asdict`` would deep-copy on every request).

        *queries* comes from the request (its targets, or its one view):
        the engine's own query counters also tick for an SPCU cover's
        internal candidate checks.
        """
        return RequestStats.engine_delta(
            before,
            vars(engine.stats),
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            queries=queries,
        )

