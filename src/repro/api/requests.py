"""Typed request and response objects of the propagation service.

Requests name *what* to decide; the service decides *how* (capability
routing — see :mod:`repro.api.service`).  A request references its view
and Sigma either directly (the objects) or by the name they were
registered under in the service's :class:`~repro.api.Workspace`; ``None``
for Sigma means the workspace's ``"default"`` registration.

Per-request knobs (``use_cache``, ``max_instantiations``,
``assume_infinite``) default to ``None`` = "inherit the service's
settings"; a non-``None`` value routes the request to a warm engine
dedicated to that settings combination, so differently-parameterized
requests never share a cache line (the semantics-bearing settings are
part of every cache key anyway).

:class:`UpdateSigmaRequest` is the incremental-update path: it applies
a diff to a *registered* Sigma and selectively invalidates, keeping
cache lines warm for every relation the diff does not mention (see
``docs/incremental.md``).

Every response carries the route that served it and a
:class:`RequestStats` delta — elapsed time plus the engine counters this
request moved, which is what the server surfaces per request and the
warm-cache smoke tests assert on (``chases == 0`` on a warm leg).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence, Union

from ..algebra.instance import DatabaseInstance
from ..core.cfd import CFD
from ..kernel.config import KERNELS
from ..propagation.check import DependencyLike, ViewLike
from .errors import ApiError

__all__ = [
    "ENGINE_SUMS",
    "BatchRequest",
    "BatchResult",
    "CheckRequest",
    "CoverRequest",
    "CoverResult",
    "EmptinessRequest",
    "EmptinessResult",
    "Request",
    "RequestStats",
    "Response",
    "SigmaUpdate",
    "UpdateSigmaRequest",
    "Verdict",
    "settings_from_json",
]

#: A view reference: a registered name or the view object itself.
ViewRef = Union[str, ViewLike]
#: A Sigma reference: a registered name, the dependency list itself, or
#: ``None`` for the workspace default.
SigmaRef = Union[str, Sequence[DependencyLike], None]


@dataclass
class _Settings:
    """The per-request engine-setting overrides (``None`` = inherit).

    ``kernel`` selects the chase implementation (``"bitset"`` — the
    packed fast path — or ``"baseline"``); kernels are answer-identical,
    so unlike the semantics-bearing settings it never enters a cache
    key, but it *is* part of the engine-pool key so a request can pin
    an engine to one implementation.
    """

    use_cache: bool | None = None
    max_instantiations: int | None = None
    assume_infinite: bool | None = None
    kernel: str | None = None


#: Each :class:`_Settings` field -> (what a non-null value must be, its test).
_SETTING_RULES = {
    "use_cache": ("a boolean", lambda v: isinstance(v, bool)),
    "max_instantiations": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "assume_infinite": ("a boolean", lambda v: isinstance(v, bool)),
    "kernel": (f"one of {', '.join(KERNELS)}", lambda v: v in KERNELS),
}
SETTING_FIELDS = tuple(_SETTING_RULES)


def settings_from_json(doc: Mapping[str, Any]) -> dict:
    """*doc*'s per-request settings, each ``None`` or validated: a mistyped
    one is a ``bad-request`` before any engine or lock exists for it."""
    settings = {}
    for name, (expected, valid) in _SETTING_RULES.items():
        value = doc.get(name)
        if value is not None and not valid(value):
            raise ApiError("bad-request", f"{name} must be {expected}, got {value!r}")
        settings[name] = value
    return settings


@dataclass
class CheckRequest(_Settings):
    """Decide ``Sigma |=_V phi`` for each target dependency.

    ``witness=True`` additionally asks for a counterexample database per
    non-propagated target (positionally aligned, ``None`` elsewhere).
    """

    view: ViewRef = "default"
    targets: Sequence[DependencyLike] = ()
    sigma: SigmaRef = None
    witness: bool = False


@dataclass
class CoverRequest(_Settings):
    """Compute a minimal propagation cover of Sigma via the view."""

    view: ViewRef = "default"
    sigma: SigmaRef = None


@dataclass
class EmptinessRequest(_Settings):
    """Is the view empty under every database satisfying Sigma?"""

    view: ViewRef = "default"
    sigma: SigmaRef = None
    witness: bool = False


@dataclass
class UpdateSigmaRequest:
    """Apply a diff to a registered Sigma and selectively invalidate.

    ``name=None`` targets the workspace's ``"default"`` registration.
    ``remove`` drops every registered dependency whose normalized CFD
    set is covered by the normalized ``remove`` set (so removing an FD
    also removes its all-wildcard CFD embedding); ``add`` appends.  The
    service computes the *affected relations* — the relations mentioned
    by added or removed CFDs — and invalidates only the warm lines whose
    provenance meets them; everything else stays warm, in the memory
    tiers and the persistent store alike.
    """

    name: str | None = None
    add: Sequence[DependencyLike] = ()
    remove: Sequence[DependencyLike] = ()


@dataclass
class BatchRequest:
    """A sequence of requests answered by one warm service, in order.

    Fail-fast: the first sub-request raising an ApiError aborts the
    batch (the server reports the error for the whole request).
    """

    requests: Sequence["Request"] = ()


Request = Union[
    CheckRequest, CoverRequest, EmptinessRequest, UpdateSigmaRequest, BatchRequest
]


def _sums(*engine_fields: str):
    """A counter summing this request's deltas of *engine_fields*."""
    return field(default=0, metadata={"sums": engine_fields})


@dataclass
class RequestStats:
    """What one request cost: wall time plus engine-counter deltas.

    Each engine-derived counter declares, once, which
    :class:`~repro.propagation.cache.EngineStats` fields it sums
    (collected in :data:`ENGINE_SUMS`); ``queries`` comes from the
    request itself.
    """

    elapsed_ms: float = 0.0
    queries: int = 0
    chases: int = _sums("chase_invocations")
    memo_hits: int = _sums("verdict_hits", "cover_hits")
    persistent_hits: int = _sums("persistent_hits")
    closure_fast_path: int = _sums("closure_fast_path")
    pair_chases: int = _sums("pair_chases")

    def to_json(self) -> dict:
        return dict(vars(self))  # all scalars: asdict's deepcopy is waste

    @classmethod
    def engine_delta(
        cls, before: dict, after: dict, *, elapsed_ms: float, queries: int
    ) -> "RequestStats":
        """The counters moved between two ``vars(EngineStats)`` reads."""
        return cls(
            elapsed_ms=elapsed_ms,
            queries=queries,
            **{
                name: sum(after[f] - before[f] for f in engine_fields)
                for name, engine_fields in ENGINE_SUMS.items()
            },
        )

    @classmethod
    def total(
        cls, parts: Sequence["RequestStats"], *, elapsed_ms: float = 0.0
    ) -> "RequestStats":
        """Sum every counter field across *parts* (wall time is not
        additive across concurrent parts, so ``elapsed_ms`` is supplied
        by the aggregator).  Derived from :func:`dataclasses.fields` so
        a counter added later can never be silently dropped.
        """
        return cls(
            elapsed_ms=elapsed_ms,
            **{
                f.name: sum(getattr(part, f.name) for part in parts)
                for f in fields(cls)
                if f.name != "elapsed_ms"
            },
        )


#: Each engine-derived :class:`RequestStats` counter -> the
#: ``EngineStats`` fields it sums.
ENGINE_SUMS: dict[str, tuple[str, ...]] = {
    f.name: f.metadata["sums"] for f in fields(RequestStats) if "sums" in f.metadata
}


@dataclass
class Verdict:
    """The response to a :class:`CheckRequest`."""

    propagated: list[bool]
    route: str
    stats: RequestStats
    witnesses: list[DatabaseInstance | None] | None = None

    @property
    def all_propagated(self) -> bool:
        return all(self.propagated)


@dataclass
class CoverResult:
    """The response to a :class:`CoverRequest`."""

    cover: list[CFD]
    route: str
    stats: RequestStats


@dataclass
class EmptinessResult:
    """The response to an :class:`EmptinessRequest`."""

    empty: bool
    route: str
    stats: RequestStats
    witness: DatabaseInstance | None = None


@dataclass
class SigmaUpdate:
    """The response to an :class:`UpdateSigmaRequest`.

    ``invalidated``/``retained`` count in-memory cache lines across the
    service's engine pool: lines whose provenance met the affected
    relations (dropped) versus lines left warm.
    """

    name: str
    size: int
    affected_relations: list[str]
    invalidated: int
    retained: int
    route: str = "delta-sigma"
    stats: RequestStats = field(default_factory=RequestStats)


@dataclass
class BatchResult:
    """The response to a :class:`BatchRequest`: sub-results, in order."""

    results: list["Response"] = field(default_factory=list)
    stats: RequestStats = field(default_factory=RequestStats)


Response = Union[Verdict, CoverResult, EmptinessResult, SigmaUpdate, BatchResult]
