"""The batch propagation engine: memoized chase and tiered caches.

Every decision procedure in this package re-derives its symbolic tableaux
and re-runs its chases from scratch on each ``Sigma |=_V phi`` query.
That is fine for a single query; it is wasteful for the workloads the
paper's evaluation (and any production deployment) actually runs —
*batches* of queries against one view and one dependency set, where the
``k^2`` branch combinations, the coupled instance skeletons and the
attribute closures are shared structure.

This module is the *engine core* of the layered
:mod:`repro.propagation.engine` package; key construction lives in
:mod:`~repro.propagation.engine.keys` (the provenance layer).

:class:`PropagationEngine` answers batches:

- ``check_many(sigma, view, phis)`` / ``check(...)`` — batched
  ``Sigma |=_V phi`` with three layers of tableau sharing (see
  :class:`~repro.propagation.check.BranchPairCache`): materialized branch
  pairs per view, coupled skeletons per LHS shape, and chased results per
  ``(Sigma, pair, LHS shape)`` in the single-chase setting.
- ``cover(sigma, view)`` / ``cover_many(sigma, views)`` — propagation
  covers with the input ``MinCover(Sigma)`` computed per relation, only
  for the relations a view reads, and shared across views and SPCU
  branches; SPCU candidate verification is routed through the cached
  checker.
- A *closure fast path*: for all-FD dependencies over selection-free,
  constant-free, infinite-domain views, ``Sigma |=_V (X -> B)`` reduces
  to per-atom FD implication, decided by the memoized
  :func:`repro.core.fd.attribute_closure` without any chase at all.

Verdicts and covers are memoized in *tiered caches*
(:mod:`repro.propagation.cache`): an LRU-bounded in-memory tier
(``cache_size``; unbounded by default) optionally backed by a
schema-versioned sqlite store (``cache_dir``; :mod:`repro.store.sqlite`)
— so warm lines survive restarts and are shared across worker processes
pointing at one cache directory.

Cache keys are **provenance-scoped** (:mod:`.keys`): Sigma enters every
key restricted to the relations the view's chase can read, as the
frozenset of its normalized CFDs on those relations (memory tier) and as
a composite of per-relation stable fingerprints (persistent tier).
Editing CFDs on relation ``R`` therefore moves only the keys of queries
whose provenance includes ``R`` — warm lines for untouched relations
survive in both tiers, which is what makes incremental Sigma updates
(``PropagationService.delta_sigma``) cheap.
:meth:`PropagationEngine.invalidate_relations` is the explicit hygiene
hook the delta path calls.

Each batch is partitioned into *hits* (answered inline from the memory
tier, the persistent tier, or the closure fast path) and *misses*, which
resolve sequentially through the shared tableau caches and are written
back through both tiers.

``PropagationEngine(use_cache=False)`` disables every layer (including
the fast path and the persistent store) and
routes queries through the plain single-query procedures — the
``--no-cache`` ablation baseline.  Counters in :class:`EngineStats` stay
live either way, which is what the perf-regression tests assert on.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Sequence

from ...algebra.instance import DatabaseInstance
from ...algebra.spc import SPCView
from ...algebra.spcu import SPCUView
from ...core.cfd import CFD, as_cfd
from ...core.fd import FD, attribute_closure, closure_cache_info
from ...core.lru import LRUCache
from ...core.mincover import min_cover
from ...kernel.config import resolve_kernel
from ...core.values import WILDCARD
from ...io import dependencies_to_json, dependency_from_json
from ..cache import EngineStats, TieredCache, view_fingerprint
from ..check import (
    BranchPairCache,
    Counterexample,
    DependencyLike,
    SigmaState,
    ViewLike,
    _branches,
    _sigma_state,
    conjuncts,
    find_counterexample,
    program_verdicts,
    search_violation,
)
from ..cover import prop_cfd_spc, prop_cfd_spc_report
from ..emptiness import nonempty_witness
from ..spcu_cover import prop_cfd_spcu
from ...store import DEFAULT_LEASE_TTL, BlobStore, SqliteStore, open_store
from .keys import (
    ViewTokens,
    branch_touched_relations,
    cover_key,
    make_stale_predicate,
    provenance_fingerprint,
    sweep_stale,
    touched_relations,
    verdict_key,
)

__all__ = ["PropagationEngine"]

#: ``_fast_contexts`` caches ``None`` for views off the fast path, so a
#: lookup needs its own miss marker.
_NO_CONTEXT = object()


def _all_wildcard(phi: CFD) -> bool:
    return all(e is WILDCARD for _, e in chain(phi.lhs, phi.rhs))


def _encode_cover(cover: list[CFD]) -> str:
    return json.dumps(dependencies_to_json(cover), sort_keys=True)


def _decode_cover(payload: str) -> list[CFD]:
    return [dependency_from_json(doc) for doc in json.loads(payload)]


class PropagationEngine:
    """Answers batches of propagation queries with cross-query caching.

    Parameters
    ----------
    use_cache:
        ``False`` gives the uncached ablation baseline: every query runs
        the plain single-query procedure (no tableau reuse, no verdict
        memo, no closure fast path, no persistent store).  Verdicts are
        guaranteed identical either way — the differential tests enforce
        it.
    max_instantiations / assume_infinite:
        Defaults forwarded to the underlying decision procedure (the
        finite-domain enumeration cap and the deliberately incomplete
        PTIME mode, respectively).  Both are part of every cache key.
    cache_dir:
        When set (and ``use_cache`` is on), verdicts and covers are
        additionally written to — and served from — a schema-versioned
        sqlite store under this directory, shared across processes.
    store_url:
        The persistent tier as a URL (``sqlite://DIR`` or ``memory://``
        — see :mod:`repro.store`); takes precedence over ``cache_dir``.
        Engines in many processes pointed at one ``sqlite://`` directory
        share its warmth.  Store errors raise; they are never absorbed
        as cache misses.
    lease_ttl:
        Single-flight lease lifetime in seconds.  With a store attached,
        each persistent-tier miss first tries to acquire the
        key's lease: the winner computes (and writes, and releases),
        the losers wait up to this long for the winner's payload
        (counted in :attr:`EngineStats.single_flight_waits`) before
        falling back to computing locally — so N workers missing the
        same fingerprint run one chase, and a crashed winner can delay
        but never wedge its waiters.
    cache_size:
        LRU capacity of each in-memory memo tier (verdicts and covers
        separately) *and* of the growing tableau layers (coupled
        skeletons, chased results) of the per-view
        :class:`~repro.propagation.check.BranchPairCache`, and the
        number of per-view tableau caches, view fingerprints and union
        branch-provenance tables kept; ``None`` keeps them unbounded.
        Evictions are counted in :attr:`EngineStats.evictions` (memo
        tiers) and :attr:`EngineStats.tableau_evictions` (tableau
        layers).
    kernel:
        The chase/closure representation: ``"bitset"`` (the packed
        int-array fast path of :mod:`repro.kernel`) or ``"baseline"``
        (the frozenset/``SymVar`` reference implementation).  ``None``
        resolves the ``REPRO_KERNEL`` environment variable, defaulting
        to ``"bitset"``.  Answers are identical either way (the fuzz
        matrix and ``tests/test_kernel.py`` enforce it byte-for-byte);
        the kernel joins no cache key, so persisted lines are shared
        across kernels.  Constructs outside the packed fast path
        (finite domains, instantiation caps, unhashable constants,
        disabled caches) fall back to the baseline automatically.
    """

    def __init__(
        self,
        use_cache: bool = True,
        max_instantiations: int | None = None,
        assume_infinite: bool = False,
        *,
        cache_dir: str | None = None,
        cache_size: int | None = None,
        store_url: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        kernel: str | None = None,
    ) -> None:
        self.use_cache = use_cache
        self.max_instantiations = max_instantiations
        self.assume_infinite = assume_infinite
        #: The chase/closure representation (``"bitset"`` | ``"baseline"``).
        #: ``None`` resolves through ``REPRO_KERNEL`` (default bitset).
        #: Deliberately NOT part of any memo or persist key: kernels are
        #: answer-identical (differential-tested), so cache lines warmed
        #: under one kernel stay valid under the other.
        self.kernel = resolve_kernel(kernel)
        self.cache_size = cache_size
        self.lease_ttl = lease_ttl
        self.stats = EngineStats()
        self._store: BlobStore | None = None
        if use_cache:
            if store_url:
                self._store = open_store(store_url)
            elif cache_dir is not None:
                self._store = SqliteStore.open_dir(cache_dir)
        self._verdict_tier = TieredCache(
            "verdicts",
            capacity=cache_size,
            store=self._store,
            encode=lambda v: "1" if v else "0",
            decode=lambda payload: payload == "1",
            stats=self.stats,
        )
        self._cover_tier = TieredCache(
            "covers",
            capacity=cache_size,
            store=self._store,
            encode=_encode_cover,
            decode=_decode_cover,
            stats=self.stats,
        )
        # Each call interns its view's structural key once; every line
        # below is keyed by that int token, never by the nested tuple.
        self._views = ViewTokens()
        # One tableau cache per view token; its counters tick self.stats,
        # so an evicted cache takes no history with it.
        self._pair_caches = LRUCache(capacity=cache_size)
        # Input MinCover per relation: one relation's CFD frozenset ->
        # its minimal cover (see _minimized_sigma).
        self._min_covers = LRUCache(capacity=cache_size)
        # Keyed ``(scoped sigma frozenset, view token)``, like the
        # verdict and cover tiers (whose keys add phi and settings): the
        # closure fast-path contexts (also the ``closure`` route's
        # capability) and the ``(empty, witness)`` emptiness lines.
        self._fast_contexts = LRUCache(capacity=cache_size)
        self._empty_memo = LRUCache(capacity=cache_size)
        # The delta-path memo layers (streaming Sigma).  Every key leads
        # with ``(scoped sigma frozenset, touched relations)`` so the
        # shared stale predicate sweeps them like every other tier:
        # - ``_pair_verdicts``: per branch-*pair* "no violation" bits of
        #   the k^2 SPCU check loop, Sigma-scoped to the pair's
        #   provenance — after an edit only pairs meeting the edited
        #   relation re-chase.
        # - ``_branch_covers``: per-branch ``PropCFD_SPC`` covers (the
        #   SPCU candidate pool), Sigma-scoped to the branch's atoms.
        self._pair_verdicts = LRUCache(capacity=cache_size)
        self._branch_covers = LRUCache(capacity=cache_size)
        # Pure functions of their keys, memoized: the per-branch
        # touched-relation sets per view token (the whole-view set lives
        # in ``_views``) and the stable fingerprints of the persistent
        # tier.
        self._branch_touched = LRUCache(capacity=cache_size)
        self._prov_fps = LRUCache(capacity=cache_size)
        self._view_fps = LRUCache(capacity=cache_size)
        #: Process-wide closure-memo counters at construction; the stats
        #: report deltas from here (this engine's window of traffic).
        info = closure_cache_info()
        self._closure_base = (info.hits, info.misses)

    # ------------------------------------------------------------------
    # Cache plumbing.
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every in-memory tableau, verdict and cover memo.

        Stats survive, and so does the persistent store: a cleared engine
        re-fills its memory tier from sqlite on the next queries.
        """
        self._pair_caches.clear()
        self._verdict_tier.clear_memory()
        self._cover_tier.clear_memory()
        self._min_covers.clear()
        self._fast_contexts.clear()
        self._empty_memo.clear()
        self._pair_verdicts.clear()
        self._branch_covers.clear()
        self._prov_fps.clear()

    def close(self) -> None:
        """Close the persistent store (idempotent)."""
        if self._store is not None:
            self._store.close()
            self._store = None
            self._verdict_tier.store = None
            self._cover_tier.store = None

    def __enter__(self) -> "PropagationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def invalidate_relations(
        self,
        relations: Iterable[str],
        sigma: Iterable[DependencyLike] | None = None,
    ) -> dict[str, int]:
        """Drop warm state whose provenance meets *relations*.

        The provenance-scoped keys already guarantee that a Sigma edit on
        *relations* can never be *served* a stale line — the edit moves
        the keys of every affected query.  This hook is the hygiene and
        observability half of delta-aware invalidation: it evicts the
        now-unreachable lines eagerly (instead of waiting for LRU churn)
        and reports how many lines were invalidated versus retained
        warm, which is what ``PropagationService.delta_sigma`` surfaces
        to callers.  Only memory tiers are touched; the persistent store
        keeps every row (old-provenance rows are unreachable under the
        new keys and harmless).

        *sigma* — the *pre-edit* dependency set being replaced — makes
        the sweep precise: only lines whose key was derived from that
        set are dropped, so lines warmed under *other* Sigmas that
        happen to mention the affected relations survive (they remain
        reachable — their keys never moved).  Without it every
        provenance-meeting line goes (the conservative sweep).

        An edit missing :attr:`ViewTokens.relations` (every line's
        provenance lies within it) returns without visiting a line, with
        the walk's counts: nothing invalidated, both tiers retained.
        """
        affected = frozenset(relations)
        if affected.isdisjoint(self._views.relations):
            retained = len(self._verdict_tier.memory) + len(self._cover_tier.memory)
            return {"invalidated": 0, "retained": retained}
        stale = make_stale_predicate(affected, sigma, self.cache_size)
        touched_of = self._views.touched

        invalidated = retained = 0
        for tier in (self._verdict_tier, self._cover_tier):
            dropped, kept = sweep_stale(tier.memory, stale, touched_of)
            invalidated += dropped
            retained += kept
        # Same rule for the fast-path (route capability) and emptiness
        # lines; they are not memo-tier lines, so neither count sees them.
        for memo in (self._fast_contexts, self._empty_memo):
            sweep_stale(memo, stale, touched_of)
        # The delta-path layers carry their own provenance in the key
        # (``(scoped sigma, touched, ...)``), so the shared predicate
        # applies directly.  They are internal work-sharing state, not
        # servable lines, so they join neither count above — the
        # invalidated/retained report keeps meaning "memo-tier lines".
        for memo in (self._pair_verdicts, self._branch_covers, self._prov_fps):
            sweep_stale(memo, stale)
        # Each MinCover line is one relation's CFD group, so its
        # provenance is that single relation.
        for key in self._min_covers.keys():
            if stale(key, frozenset((next(iter(key)).relation,))):
                self._min_covers.discard(key)
        if sigma is None:
            # Pair-cache skeleton layers are Sigma-independent and the
            # chased layer is Sigma-keyed (stale entries unreachable),
            # so the precise sweep leaves them; only the conservative
            # sweep drops whole caches for affected views.
            for token in self._pair_caches.keys():
                touched = touched_of(token)
                if touched is None or not touched.isdisjoint(affected):
                    self._pair_caches.discard(token)
        return {"invalidated": invalidated, "retained": retained}

    def _keyspace(
        self, state: SigmaState, view: ViewLike, *, intern: bool = True
    ) -> tuple[int, frozenset[str], list[CFD], frozenset] | None:
        """``(view token, touched relations, scoped Sigma, its frozenset)``,
        every memo key's material; ``intern=False`` gives ``None`` for an
        unseen view instead of allocating its token.  A registered view
        brings its key and *state* its scope, so a warm call builds
        neither."""
        views = self._views
        token = views.intern(view) if intern else views.lookup(view)
        if token is None:
            return None
        touched = views.touched(token)
        return (token, touched, *state.scope(touched, self.cache_size))

    def _memo_key(self, sigma_key: frozenset, token: int, *phi: CFD) -> tuple:
        """The memory-tier key of *phi*'s verdict, or without *phi* the cover's;
        it leads with ``(scoped sigma, view token)`` for :func:`sweep_stale`."""
        return (sigma_key, token, *phi, self.max_instantiations, self.assume_infinite)

    def _persist_fps(
        self,
        sigma_key: frozenset,
        scoped_cfds: list[CFD],
        touched: frozenset[str],
        token: int,
        view: ViewLike,
    ) -> tuple[str, str] | None:
        """Stable (provenance, view) fingerprints, or ``None`` when the
        line must not persist (no store)."""
        if self._store is None:
            return None
        prov_fp = self._prov_fps.get((sigma_key, touched))
        if prov_fp is None:
            prov_fp = provenance_fingerprint(scoped_cfds, touched)
            self._prov_fps.put((sigma_key, touched), prov_fp)
        view_fp = self._view_fps.get(token)
        if view_fp is None:
            view_fp = view_fingerprint(view)
            self._view_fps.put(token, view_fp)
        return prov_fp, view_fp

    def _fast_context(
        self,
        view: ViewLike,
        token: int,
        scoped_cfds: list[CFD],
        sigma_key: frozenset,
    ) -> "_FastPathContext | None":
        # Memoized per (scoped Sigma, view): the SPCU cover path funnels
        # every candidate through check(), which must not rebuild the
        # context.  Scoping Sigma first also widens applicability: CFDs
        # on relations the view never reads cannot disqualify the path.
        key = (sigma_key, token)
        context = self._fast_contexts.get(key, _NO_CONTEXT)
        if context is _NO_CONTEXT:
            context = _FastPathContext.of(view, scoped_cfds)
            self._fast_contexts.put(key, context)
        return context

    def _pair_cache(self, view: ViewLike, token: int) -> BranchPairCache:
        cache = self._pair_caches.get(token)
        if cache is None or cache.view is not view:
            # One tableau cache per view *object*: skeleton instances hold
            # SymVars handed out by the view's materialization, so a
            # structurally equal but distinct object gets a fresh cache
            # (the verdict/cover memos still share across objects).
            cache = BranchPairCache(
                view, enabled=True, capacity=self.cache_size, stats=self.stats
            )
            self._pair_caches.put(token, cache)
        return cache

    def _read_closure_window(self) -> None:
        """Refresh this engine's window onto the process-wide closure memo."""
        info = closure_cache_info()
        self.stats.closure_hits = info.hits - self._closure_base[0]
        self.stats.closure_misses = info.misses - self._closure_base[1]

    # ------------------------------------------------------------------
    # Cross-process single-flight (store leases).
    # ------------------------------------------------------------------

    def _lease_partition(
        self, tier: TieredCache, misses: list
    ) -> tuple[list, list]:
        """Split deduplicated misses into lease owners and waiters.

        Each miss is ``(memo key, [query, persist key, indices, answer])``,
        the answer filled in by whoever resolves it.  For each persistable
        miss, try to acquire its single-flight lease on the shared store:
        winners compute (the *owned* list), losers wait for the winner's
        payload (the *waiters* list).  Misses without a persist key (no
        store) are owned: no coordination, compute locally.
        """
        store = self._store
        if store is None:
            return misses, []
        owned, waiters = [], []
        for line in misses:
            pkey = line[1][1]
            if pkey is None:
                owned.append(line)
                continue
            acquired = store.acquire_lease(tier.table, pkey, self.lease_ttl)
            # A flight that landed between the caller's miss and this
            # acquire leaves a free lease beside its payload: wait on
            # that payload instead of computing it again.
            if acquired and store.get(tier.table, pkey) is not None:
                store.release_lease(tier.table, pkey)
                acquired = False
            (owned if acquired else waiters).append(line)
        return owned, waiters

    def _release_lease(self, tier: TieredCache, pkey: str | None) -> None:
        if pkey is not None and self._store is not None:
            self._store.release_lease(tier.table, pkey)

    def _await_flights(self, tier: TieredCache, waiters: list) -> list:
        """Wait out other workers' flights; return what still needs computing.

        Each waiter polls the store for the lease owner's payload (up to
        ``lease_ttl``); arrivals are promoted into the memory tier, set
        as their entry's answer and counted as ``single_flight_waits``.
        Lines whose owner died come back for a local compute.
        """
        leftovers = []
        for line in waiters:
            memo_key, entry = line
            value, ok = tier.wait_promote(memo_key, entry[1], self.lease_ttl)
            if ok:
                self.stats.single_flight_waits += 1
                entry[3] = value
            else:
                leftovers.append(line)
        return leftovers

    # ------------------------------------------------------------------
    # Batched checking.
    # ------------------------------------------------------------------

    def check(
        self, sigma: Iterable[DependencyLike], view: ViewLike, phi: DependencyLike
    ) -> bool:
        """Decide ``Sigma |=_V phi`` (single query through the caches)."""
        return self.check_many(sigma, view, [phi])[0]

    def check_many(
        self,
        sigma: Iterable[DependencyLike],
        view: ViewLike,
        phis: Sequence[DependencyLike],
    ) -> list[bool]:
        """Decide ``Sigma |=_V phi`` for every *phi*, sharing work.

        Verdicts are positionally aligned with *phis* and identical to
        ``propagates(sigma, view, phi)`` on each query.  The batch is
        partitioned into hits (memory tier, persistent tier, closure
        fast path — answered inline) and misses, which are decided
        sequentially and written back through both cache tiers.
        """
        return self._decide(sigma, view, phis)[0]

    def peek(
        self,
        sigma: Iterable[DependencyLike],
        view: ViewLike,
        phis: Sequence[DependencyLike] | None = None,
    ) -> list | None:
        """:meth:`check_many`'s verdicts (or, without *phis*, :meth:`cover`)
        if the memory tier holds every line, with the same counters
        ticked; else ``None``, having ticked, created and leased nothing
        and never touched the persistent store."""
        if phis is not None:
            decided = self._decide(sigma, view, phis, peek=True)
            return None if decided is None else decided[0]
        scope = self.use_cache and self._keyspace(_sigma_state(sigma), view, intern=False)
        return self._memory_answers(scope[3], scope[0]) if scope else None

    def _memory_answers(
        self, sigma_key: frozenset, token: int, phis: Sequence | None = None
    ) -> list | None:
        """:meth:`peek`'s read of the memory tier under one keyspace."""
        if phis is None:
            memory, lines = self._cover_tier.memory, [()]
        else:
            memory = self._verdict_tier.memory
            lines = [(as_cfd(p),) for p in phis]
        keys = [self._memo_key(sigma_key, token, *line) for line in lines]
        if not all(key in memory for key in keys):
            return None
        answers = [memory.get(key) for key in keys]
        if None in answers:  # evicted by a pool thread since the check
            return None
        if phis is None:
            self.stats.cover_queries += 1
            self.stats.cover_hits += 1
            answers = list(answers[0])
        else:
            self.stats.check_queries += len(keys)
            self.stats.verdict_hits += len(keys)
        self._read_closure_window()
        return answers

    def _decide(
        self,
        sigma: Iterable[DependencyLike],
        view: ViewLike,
        phis: Sequence[DependencyLike],
        *,
        peek: bool = False,
    ) -> tuple[list[bool], bool, bool] | None:
        """``(verdicts, finite-domain attribute present, closure fast path
        applies)`` from one keyspace: the service's check path, routed on
        the token's record and the ``_fast_contexts`` line.  ``peek=True``
        is :meth:`peek`, ``None`` unless memory holds every verdict *and*
        the fast-path line.  The uncached engine reads the finite-domain
        flag off the view and never takes the fast path."""
        if not self.use_cache:
            if peek:
                return None
            self.stats.check_queries += len(phis)
            cache = BranchPairCache(view, enabled=False, stats=self.stats)
            sigma_cfds, sigma_key = _sigma_state(sigma)
            projection = set(view.projection)
            verdicts = [
                search_violation(
                    sigma_cfds,
                    sigma_key,
                    cache.branches,
                    conjuncts(as_cfd(p), projection),
                    self.max_instantiations,
                    self.assume_infinite,
                    cache,
                )
                is None
                for p in phis
            ]
            self._read_closure_window()
            return verdicts, view.has_finite_domain_attribute(), False

        state = _sigma_state(sigma)
        scope = self._keyspace(state, view, intern=not peek)
        if scope is None:
            return None
        token, touched, scoped, sigma_key = scope
        finite = self._views.finite_domain(token)
        if peek:
            fast = self._fast_contexts.get((sigma_key, token), _NO_CONTEXT)
            if fast is _NO_CONTEXT:
                return None
            verdicts = self._memory_answers(sigma_key, token, phis)
            return None if verdicts is None else (verdicts, finite, fast is not None)

        fast = self._fast_context(view, token, scoped, sigma_key)
        cache = self._pair_cache(view, token)
        fps = self._persist_fps(sigma_key, scoped, touched, token, view)
        settings = (self.max_instantiations, self.assume_infinite)

        def persist_key(phi_cfd: CFD) -> str | None:
            if fps is None:
                return None
            return verdict_key(fps[0], fps[1], phi_cfd, *settings)

        # One line per distinct target, memo key -> [phi, persist key,
        # indices, verdict]; ``None`` marks a miss.  The key's tuple hash
        # is not cached, so only this setdefault, the tier get and, for a
        # miss, the tier put take it: no step looks a line up again.
        lines: dict[tuple, list] = {}
        misses = []
        for idx, phi in enumerate(phis):
            self.stats.check_queries += 1
            phi_cfd = as_cfd(phi)
            memo_key = self._memo_key(sigma_key, token, phi_cfd)
            entry = [phi_cfd, None, [idx], None]
            line = lines.setdefault(memo_key, entry)
            if line is not entry:
                # A duplicate: a memory hit by now, or answered with the
                # in-flight miss it repeats.
                self.stats.verdict_hits += 1
                line[2].append(idx)
                continue
            pkey = entry[1] = persist_key(phi_cfd)
            value, layer = self._verdict_tier.get(memo_key, pkey)
            if layer is not None:
                if layer == "memory":
                    self.stats.verdict_hits += 1
                entry[3] = value
                continue
            if fast is not None:
                verdict = fast.decide(phi_cfd)
                if verdict is not None:
                    self.stats.closure_fast_path += 1
                    self._verdict_tier.put(memo_key, verdict, pkey)
                    entry[3] = verdict
                    continue
            misses.append((memo_key, entry))

        if misses:
            tier = self._verdict_tier
            owned, waiting = self._lease_partition(tier, misses)

            def compute(keyed: list, *, release: bool) -> None:
                miss_phis = [entry[0] for _, entry in keyed]
                for (memo_key, entry), verdict in zip(
                    keyed,
                    self._resolve_check_misses(
                        state, scoped, sigma_key, view, token, cache, miss_phis
                    ),
                ):
                    tier.put(memo_key, verdict, entry[1])
                    if release:
                        self._release_lease(tier, entry[1])
                    entry[3] = verdict

            if owned:
                compute(owned, release=True)
            if waiting:
                leftovers = self._await_flights(tier, waiting)
                if leftovers:
                    # The lease owner died mid-flight; compute locally.
                    # These leases were never ours, so there is nothing
                    # to release.
                    compute(leftovers, release=False)
        verdicts = [None] * len(phis)
        for _, _, indices, verdict in lines.values():
            for idx in indices:
                verdicts[idx] = verdict
        self._read_closure_window()
        return verdicts, finite, fast is not None

    def _resolve_check_misses(
        self,
        state: SigmaState,
        scoped: list[CFD],
        sigma_key: frozenset,
        view: ViewLike,
        token: int,
        cache: BranchPairCache,
        miss_phis: list[CFD],
    ) -> list[bool]:
        """Decide the deduplicated cache misses of one check batch.

        Multi-branch unions go through the per-pair verdict memo
        (:meth:`_check_by_pairs`), so after a Sigma edit only pairs
        whose provenance meets the edited relation re-chase, and on the
        bitset kernel a single-branch view over distinct relations is
        decided by its compiled implication program
        (:meth:`BranchPairCache.implication_program`).
        """
        if isinstance(view, SPCUView) and len(view.branches) > 1:
            return [
                self._check_by_pairs(
                    state, scoped, sigma_key, view, token, cache, phi_cfd
                )
                for phi_cfd in miss_phis
            ]

        program = None
        if self.kernel == "bitset" and self.max_instantiations is None:
            program = cache.implication_program(scoped, sigma_key)
        if program is None:
            verdicts: list[bool | None] = [None] * len(miss_phis)
        else:
            verdicts = program_verdicts(cache, program, miss_phis)
        for idx, verdict in enumerate(verdicts):
            if verdict is None:
                verdicts[idx] = (
                    search_violation(
                        scoped,
                        sigma_key,
                        cache.branches,
                        conjuncts(miss_phis[idx], set(view.projection)),
                        self.max_instantiations,
                        self.assume_infinite,
                        cache,
                        kernel=self.kernel,
                    )
                    is None
                )
        return verdicts

    def _branch_provenance(
        self, view: SPCUView, token: int
    ) -> tuple[tuple[frozenset[str], ...], dict]:
        """Per-branch provenance plus the interned pair-union table.

        The ``(i, j) -> union`` frozensets are built once per view and
        reused for every unit, so their (cached) hashes make the pair
        memo lookups cheap — rebuilding the union per unit would re-hash
        every member on every lookup.
        """
        entry = self._branch_touched.get(token)
        if entry is None:
            per_branch = branch_touched_relations(view)
            k = len(per_branch)
            pair_unions = {
                (i, j): per_branch[i] | per_branch[j]
                for i in range(k)
                for j in range(k)
            }
            entry = (per_branch, pair_unions)
            self._branch_touched.put(token, entry)
        return entry

    def _check_by_pairs(
        self,
        state: SigmaState,
        scoped: list[CFD],
        sigma_key: frozenset,
        view: SPCUView,
        token: int,
        cache: BranchPairCache,
        phi_cfd: CFD,
    ) -> bool:
        """One multi-branch SPCU miss, unit by unit through the pair memo.

        A verdict path (no witness database; a kernel-named pair is
        answered by its certified chased state) walking
        :func:`~repro.propagation.check.search_violation`'s loop exactly
        — ``conjuncts`` in order, the ``k^2`` pairs row-major for pattern
        conjuncts and the diagonal branches for equality conjuncts, early
        exit on the first violating unit — but consulting a per-unit
        verdict memo before searching that one unit.  Each unit's memo
        key scopes Sigma to the *pair's* provenance (the relations
        branches ``i`` and ``j`` read; CFDs elsewhere are vacuous for
        that pair), read off *state*'s scope memo, so a ``delta_sigma``
        edit leaves every unit missing the edited relation warm.  The
        search still receives the full view-scoped Sigma and the shared
        tableau cache, so verdicts, chased-layer keys and chase order
        equal the unrestricted sweep.
        """
        branches = list(view.branches)
        k = len(branches)
        per_branch, pair_unions = self._branch_provenance(view, token)
        settings = (self.max_instantiations, self.assume_infinite)
        for normal in conjuncts(phi_cfd, set(branches[0].projection)):
            if normal.is_equality:
                units = [(i, i) for i in range(k)]
            else:
                units = [(i, j) for i in range(k) for j in range(k)]
            for i, j in units:
                pair_touched = pair_unions[i, j]
                memo_key = (
                    state.scope(pair_touched, self.cache_size)[1],
                    pair_touched,
                    token,
                    i,
                    j,
                    normal,
                    *settings,
                )
                clean = self._pair_verdicts.get(memo_key)
                if clean is None:
                    self.stats.pair_chases += 1
                    clean = (
                        search_violation(
                            scoped,
                            sigma_key,
                            branches,
                            [normal],
                            self.max_instantiations,
                            self.assume_infinite,
                            cache,
                            [(i, j)],
                            self.kernel,
                        )
                        is None
                    )
                    self._pair_verdicts.put(memo_key, clean)
                if not clean:
                    return False
        return True

    def _emptiness(
        self, sigma: list[DependencyLike], view: ViewLike
    ) -> tuple[bool, DatabaseInstance | None]:
        """``(empty, witness)``, the service's emptiness route, memoized
        under the view's keyspace (the uncached engine recomputes)."""
        key = line = None
        if self.use_cache:
            token, _, _, sigma_key = self._keyspace(_sigma_state(sigma), view)
            key = (sigma_key, token)
            line = self._empty_memo.get(key)
        if line is None:
            witness = nonempty_witness(
                sigma, view, max_instantiations=self.max_instantiations
            )
            line = (witness is None, witness)
            if key is not None:
                self._empty_memo.put(key, line)
        return line

    def find_counterexample(
        self, sigma: Iterable[DependencyLike], view: ViewLike, phi: DependencyLike
    ) -> Counterexample | None:
        """As :func:`repro.propagation.find_counterexample`, cache-backed.

        Witnesses are not memoized (each call may need a fresh concrete
        database), but tableau materialization and chases are shared.
        """
        cache = None
        if self.use_cache:
            cache = self._pair_cache(view, self._views.intern(view))
        witness = find_counterexample(
            sigma,
            view,
            phi,
            max_instantiations=self.max_instantiations,
            assume_infinite=self.assume_infinite,
            cache=cache,
            kernel=self.kernel if cache is not None else None,
        )
        if cache is not None:
            self._read_closure_window()
        return witness

    # ------------------------------------------------------------------
    # Batched covers.
    # ------------------------------------------------------------------

    def cover(
        self, sigma: Iterable[DependencyLike], view: ViewLike
    ) -> list[CFD]:
        """A minimal propagation cover of *sigma* via *view*."""
        return self.cover_many(sigma, [view])[0]

    def cover_many(
        self, sigma: Iterable[DependencyLike], views: Sequence[ViewLike]
    ) -> list[list[CFD]]:
        """Covers for many views over one Sigma, sharing the input MinCover.

        ``PropCFD_SPC`` spends its view-independent prefix (Figure 2
        line 1) minimizing Sigma.  MinCover works per relation, so the
        engine minimizes only the relations a view (or SPCU branch)
        reads and memoizes each relation's cover by its CFD group: views
        and branches reading one relation share its cover, and a Sigma
        edit re-minimizes only the edited relations.  SPCU candidate
        verification is routed through :meth:`check`, so the k^2 pair
        tableaux are shared across all candidates of a union view.  Like
        :meth:`check_many`, the batch partitions into tier hits and
        misses.
        """
        if not isinstance(sigma, list):  # keeps a PreparedSigma's forms
            sigma = list(sigma)
        state = _sigma_state(sigma)
        settings = (self.max_instantiations, self.assume_infinite)
        covers: list[list[CFD] | None] = [None] * len(views)
        # Misses, deduplicated: memo key -> [view, persist key, indices,
        # cover], as in _decide.
        pending: dict[tuple, list] = {}
        for idx, view in enumerate(views):
            self.stats.cover_queries += 1
            if not self.use_cache:
                covers[idx] = self._compute_cover(sigma, state, view)
                continue
            token, touched, scoped, sigma_key = self._keyspace(state, view)
            memo_key = self._memo_key(sigma_key, token)
            entry = pending.get(memo_key)
            if entry is not None:
                self.stats.cover_hits += 1
                entry[2].append(idx)
                continue
            fps = self._persist_fps(sigma_key, scoped, touched, token, view)
            pkey = None if fps is None else cover_key(fps[0], fps[1], *settings)
            value, layer = self._cover_tier.get(memo_key, pkey)
            if layer is not None:
                if layer == "memory":
                    self.stats.cover_hits += 1
                covers[idx] = list(value)
                continue
            pending[memo_key] = [view, pkey, [idx], None]

        if pending:
            tier = self._cover_tier
            owned, waiting = self._lease_partition(tier, list(pending.items()))

            def compute(lines: list, *, release: bool) -> None:
                for memo_key, entry in lines:
                    entry[3] = self._compute_cover(sigma, state, entry[0])
                    tier.put(memo_key, entry[3], entry[1])
                    if release:
                        self._release_lease(tier, entry[1])

            if owned:
                compute(owned, release=True)
            if waiting:
                leftovers = self._await_flights(tier, waiting)
                if leftovers:
                    compute(leftovers, release=False)
            for _, _, indices, cover in pending.values():
                for idx in indices:
                    covers[idx] = list(cover)

        self._read_closure_window()
        return covers

    def _minimized_sigma(
        self, state: SigmaState, touched: frozenset[str]
    ) -> list[CFD]:
        """``MinCover`` of Sigma (*state*) scoped to the *touched* relations.

        ``min_cover`` minimizes each relation alone and emits relations
        in sorted order, so concatenating the memoized per-relation
        covers in that order is exactly ``min_cover`` of the scoped
        Sigma.  Each relation's group is the state's own one-relation
        scope.  The uncached engine — the fuzz matrix's baseline oracle —
        minimizes the whole Sigma, so the differential matrix checks the
        scoping.
        """
        if not self.use_cache:
            return min_cover(state[0])
        minimized: list[CFD] = []
        for relation in sorted(touched):
            group, key = state.scope(frozenset((relation,)), self.cache_size)
            if group:
                cover = self._min_covers.get(key)
                if cover is None:
                    cover = min_cover(group, kernel=self.kernel)
                    self._min_covers.put(key, cover)
                minimized.extend(cover)
        return minimized

    def _compute_cover(
        self, sigma: list[DependencyLike], state: SigmaState, view: ViewLike
    ) -> list[CFD]:
        if isinstance(view, SPCUView):
            if len(view.branches) == 1:
                view = view.branches[0]
            else:
                # Candidate verification must honor this engine's settings
                # in BOTH modes — cached and uncached covers are required
                # to be identical, including under assume_infinite.  The
                # batched verifier shares Sigma normalization and the k^2
                # pair tableaux across all candidates.
                if not self.use_cache:
                    return prop_cfd_spcu(
                        sigma,
                        view,
                        max_instantiations=self.max_instantiations,
                        check_many=self.check_many,
                    )
                # The cached path additionally threads a
                # provenance-keyed memo under the per-branch candidate
                # pools: after an edit only branches reading the edited
                # relation recompute.  It does not change the answer:
                # the pool generator is prop_cfd_spc on the branch's
                # memoized input MinCover (the cover is invariant under
                # scoping Sigma to the branch's relations).

                def branch_cover(_sigma, branch, partition_size):
                    b_token = self._views.intern(branch)
                    b_touched = self._views.touched(b_token)
                    memo_key = (
                        state.scope(b_touched, self.cache_size)[1],
                        b_touched,
                        b_token,
                        partition_size,
                    )
                    cover = self._branch_covers.get(memo_key)
                    if cover is None:
                        cover = prop_cfd_spc(
                            self._minimized_sigma(state, b_touched),
                            branch,
                            partition_size=partition_size,
                            minimize_input=False,
                            kernel=self.kernel,
                        )
                        self._branch_covers.put(memo_key, cover)
                    return list(cover)

                return prop_cfd_spcu(
                    sigma,
                    view,
                    max_instantiations=self.max_instantiations,
                    check_many=self.check_many,
                    branch_cover=branch_cover,
                    kernel=self.kernel,
                )
        minimized = self._minimized_sigma(state, touched_relations(view))
        report = prop_cfd_spc_report(
            minimized,
            view,
            minimize_input=False,
            rbr_stats=self.stats.rbr,
            # The uncached engine is the fuzz matrix's baseline oracle.
            kernel=self.kernel if self.use_cache else None,
        )
        return report.cover


class _FastPathContext:
    """The closure fast path for FD-only Sigma over projection-style views.

    Applicability (checked once per batch): a single-branch view with no
    selection condition, no constant relation and no finite-domain
    attribute, and a (provenance-scoped) Sigma consisting solely of
    all-wildcard CFDs (plain FDs).  For such views a view tuple is an
    arbitrary combination of one free tuple per atom, so
    ``Sigma |=_V (X -> B)`` holds iff the embedded per-atom implication
    does: with ``B`` produced by atom ``j``, ``X ∩ attrs(j) -> B`` must
    follow from Sigma on atom ``j``'s source — attributes of other atoms
    never constrain ``B`` (two view tuples may agree on them while
    drawing distinct source tuples).  That implication is exactly
    ``B ∈ closure(X_j)``, served by the memoized
    :func:`repro.core.fd.attribute_closure`.
    """

    def __init__(self, branch: SPCView, sigma_cfds: list[CFD]) -> None:
        self._attr_to_atom: dict[str, int] = {}
        self._to_source: list[dict[str, str]] = []
        self._atom_fds: list[frozenset[FD]] = []
        for index, atom in enumerate(branch.atoms):
            inverse = {v: s for s, v in atom.mapping}
            self._to_source.append(inverse)
            for view_name in atom.view_attributes:
                self._attr_to_atom[view_name] = index
            self._atom_fds.append(
                frozenset(
                    phi.embedded_fd()
                    for phi in sigma_cfds
                    if phi.relation == atom.source
                )
            )
        self._projection = set(branch.projection)

    @classmethod
    def of(cls, view: ViewLike, sigma_cfds: list[CFD]) -> "_FastPathContext | None":
        branches = _branches(view)
        if len(branches) != 1:
            return None
        branch = branches[0]
        if not isinstance(branch, SPCView):
            return None
        if branch.selection or branch.constants or branch.unsatisfiable:
            return None
        if branch.has_finite_domain_attribute():
            return None
        if not all(_all_wildcard(phi) for phi in sigma_cfds):
            return None
        return cls(branch, sigma_cfds)

    def decide(self, phi: CFD) -> bool | None:
        """The fast-path verdict, or ``None`` when *phi* is out of scope."""
        if not _all_wildcard(phi):  # the equality form has no wildcard
            return None
        lhs = set(phi.lhs_attrs)
        # The decision procedure's contract exactly: only a nontrivial
        # conjunct referencing unprojected attributes is an error.
        for normal in conjuncts(phi, self._projection):
            rhs_attr = normal.rhs_attr
            if rhs_attr in lhs:
                continue
            atom_index = self._attr_to_atom[rhs_attr]
            inverse = self._to_source[atom_index]
            source_lhs = frozenset(inverse[a] for a in lhs if a in inverse)
            closure = attribute_closure(source_lhs, self._atom_fds[atom_index])
            if inverse[rhs_attr] not in closure:
                return False

        return True
