"""The dependency propagation test: ``Sigma |=_V phi`` (Theorems 3.1-3.5).

The procedure is the appendix construction made executable:

1. For every ordered pair of branches ``(e_i, e_j)`` of the (SPCU) view,
   materialize two independent copies of the view tableaux into one
   symbolic source instance — this is the instance ``I = rho1(T_V) U
   rho2(T_V)`` of the Theorem 3.1 proof, generalized to pairs of distinct
   disjuncts (the ``k^2`` combinations of part (a.2)).
2. Couple the two summaries through the LHS of the view CFD ``phi``:
   pattern constants are bound into both copies, wildcard positions share
   one variable.  If the coupling fails (the mapping ``rho`` is undefined)
   no violating pair can come from this branch combination.
3. Chase with the source dependencies.  An undefined chase likewise rules
   out a violation.  Otherwise the chased tableau instantiates to a
   concrete source instance satisfying ``Sigma``, and ``phi`` is violated
   on the view unless the two RHS cells were identified (and forced to the
   RHS pattern constant, when there is one).

``Sigma |=_V phi`` holds iff no branch combination yields a violation.

Finite domains are handled by enumerating instantiations of finite-domain
variables before each chase (``chase_with_instantiations``), which is the
general-setting coNP procedure of Theorems 3.2/3.3 and Corollary 3.6; with
no finite-domain attributes a single chase runs and the whole test is
polynomial.  ``assume_infinite=True`` forces the single-chase PTIME
procedure even in the presence of finite domains — deliberately incomplete,
used to demonstrate why the general setting costs more (Theorem 3.2).

In the cache stack (``docs/architecture.md``), :class:`BranchPairCache`
is the *working-state* layer below the engine's verdict/cover memo
tiers (:mod:`repro.propagation.cache`): it shares materialized, coupled
and chased tableau skeletons across the queries of one view within one
process, while the tiers above it memoize finished answers — bounded by
an LRU and optionally persisted to sqlite across processes.  Skeletons
hold process-local ``SymVar`` objects, so this layer is never
serialized; only verdicts and covers cross the persistence boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Union

from ..algebra.instance import DatabaseInstance
from ..algebra.ops import AttrEq
from ..algebra.spc import SPCView
from ..algebra.spcu import SPCUView
from ..core.cfd import CFD, as_cfd, normal_forms
from ..core.chase import (
    ChaseStatus,
    SymbolicInstance,
    SymVar,
    Value,
    VarFactory,
    chase,
    chase_with_instantiations,
    premise_positions,
)
from ..core.fd import FD
from ..core.values import const, is_const
from ..tableau.tableau import materialize_branch
from .cache import EngineStats, LRUCache

_MISSING = object()

ViewLike = Union[SPCView, SPCUView]
DependencyLike = Union[CFD, FD]
_Hit = tuple[tuple[int, int], SymbolicInstance | None, SPCView]


class UnsupportedViewError(ValueError):
    """Raised for view languages with no decision procedure (full RA)."""


#: Normalized-Sigma memo: deps tuple -> its :class:`SigmaState`
#: (normal-form CFDs, frozenset, scopes).
#: Batch callers re-send the same dependency list for every query of a
#: view, and FD→CFD conversion, normalization and the per-query
#: ``frozenset(sigma)`` hashing dominated the overhead of cold sweeps.
#: Keyed by the input tuple itself (FDs/CFDs are frozen dataclasses);
#: callers treat the returned state as immutable — reusing the *same*
#: frozenset object also means its hash is computed once per Sigma, not
#: once per query.  A plain list's scopes live in its entry, so clearing
#: this memo drops them too.
_SIGMA_MEMO: LRUCache = LRUCache(512)


def scoped_sigma(
    sigma_cfds: Iterable[CFD], touched: frozenset[str]
) -> list[CFD]:
    """*sigma_cfds* restricted to the touched relations (order kept)."""
    return [phi for phi in sigma_cfds if phi.relation in touched]


class SigmaState(tuple):
    """``(normal-form CFDs in order, their frozenset)`` plus ``scoped``,
    the restrictions :meth:`scope` has built, keyed by touched set."""

    def __new__(cls, cfds: list[CFD], key: frozenset | None):
        state = super().__new__(cls, (cfds, key))
        state.scoped = {}
        return state

    def scope(
        self, touched: frozenset[str], capacity: int | None = None
    ) -> tuple[list[CFD], frozenset]:
        """``(scoped_sigma(cfds, touched), its frozenset)``, built once per
        touched set: every caller gets the same objects.  Building one
        drops the oldest scopes past *capacity* (``None``: unbounded)."""
        entry = self.scoped.get(touched)
        if entry is None:
            cfds = scoped_sigma(self[0], touched)
            entry = (cfds, frozenset(cfds))
            scoped = self.scoped
            while capacity is not None and len(scoped) >= capacity:
                try:
                    del scoped[next(iter(scoped))]
                except (KeyError, RuntimeError, StopIteration):
                    break  # another thread changed the memo meanwhile
            scoped[touched] = entry
        return entry

    def inherit(self, old: "SigmaState", affected: set[str]) -> None:
        """Take *old*'s scopes whose touched set misses the *affected*
        relations: an edit on those leaves them unchanged, in order."""
        self.scoped.update(
            item for item in old.scoped.copy().items() if item[0].isdisjoint(affected)
        )


class PreparedSigma(list):
    """A dependency list carrying its normal forms, computed once.

    ``forms[i]`` is ``as_cfd(self[i]).normalize()``, ``keys[i]`` its
    frozenset, and ``state`` the list's :func:`_sigma_state`, merged
    from ``keys`` without rehashing a CFD.  Never mutate one in place.
    """

    __slots__ = ("forms", "keys", "state")

    def __init__(self, deps: Iterable[DependencyLike], forms: list, keys=None) -> None:
        super().__init__(deps)
        self.forms = forms
        self.keys = [frozenset(form) for form in forms] if keys is None else keys
        self.state = SigmaState(
            list(chain.from_iterable(forms)), frozenset().union(*self.keys)
        )


def _sigma_state(dependencies: Iterable[DependencyLike]) -> SigmaState:
    """``(normal-form CFDs in order, their frozenset)`` of *dependencies*:
    read off a :class:`PreparedSigma`, else memoized by the dependency
    tuple (skipped for an unhashable dependency)."""
    if isinstance(dependencies, PreparedSigma):
        return dependencies.state
    deps = tuple(dependencies)
    try:
        cached = _SIGMA_MEMO.get(deps, _MISSING)
    except TypeError:  # unhashable dependency object — skip the memo
        key = None
    else:
        if cached is not _MISSING:
            return cached
        key = deps
    out = normal_forms(deps)
    try:
        state = SigmaState(out, frozenset(out))
    except TypeError:
        state = SigmaState(out, None)
    if key is not None and state[1] is not None:
        _SIGMA_MEMO.put(key, state)
    return state


def _as_cfds(dependencies: Iterable[DependencyLike]) -> list[CFD]:
    return _sigma_state(dependencies)[0]


def _branches(view: ViewLike) -> list[SPCView]:
    if isinstance(view, SPCView):
        return [view]
    if isinstance(view, SPCUView):
        return list(view.branches)
    raise UnsupportedViewError(
        f"no decision procedure for views of type {type(view).__name__}; "
        "normalize to SPCView/SPCUView first (full relational algebra with "
        "difference is undecidable — Tables 1 and 2)"
    )


@dataclass
class Counterexample:
    """A witness of non-propagation.

    ``database`` satisfies the source dependencies while the view evaluated
    on it violates the view dependency; ``branch_pair`` records which
    disjuncts produced the violating tuples.
    """

    database: DatabaseInstance
    branch_pair: tuple[int, int]


class BranchPairCache:
    """Shared tableau skeletons for every propagation query on one view.

    Three layers of sharing across the queries of a batch, coarsest first:

    1. *Base pairs* — the symbolic instance holding two materialized copies
       of branches ``(i, j)`` (the ``rho1(T_V) U rho2(T_V)`` of the
       Theorem 3.1 proof).  Depends only on the view, so it is built once
       per ordered branch pair.
    2. *Coupled skeletons* — a base pair with the two summaries coupled
       through a view CFD's LHS.  The coupling reads nothing but the LHS
       pattern items, so every ``phi`` with an equal LHS shape shares one
       skeleton (cached per ``(i, j, lhs)``; ``None`` records that the
       coupling is undefined).
    3. *Chased results* — in the single-chase setting (no finite-domain
       attribute anywhere in the view, or ``assume_infinite``) the chase
       outcome depends only on the coupled skeleton and Sigma, not on the
       RHS under test, so the chased instance is shared across every RHS
       attribute (cached per ``(Sigma, i, j, lhs)``).

    Instances handed out are *skeletons*: callers must ``copy()`` before
    mutating (``chase``/``chase_with_instantiations`` already do).  With
    ``enabled=False`` nothing is stored and every layer recomputes — the
    ``--no-cache`` ablation baseline — but the counters still run.

    The counters live on *stats*: the engine hands in its own
    :class:`~repro.propagation.cache.EngineStats`, which every layer (and
    each :class:`~repro.kernel.chase.PackedPairRunner`) ticks in place;
    a standalone cache gets a private one.

    *capacity* bounds the **coupled** and **chased** layers with the
    same LRU policy as the engine's verdict/cover memo tiers
    (``cache_size``): those two grow with the diversity of LHS shapes
    (and Sigmas) queried through one view, which on a long-lived server
    is unbounded.  The base-pair layers stay unbounded on purpose —
    they can never exceed ``k²``/``k`` entries and the pair loop sweeps
    all of them every query, so an LRU bound below ``k²`` would evict
    each skeleton just before its next use (steady-state thrash, ~0%
    hit rate).  Each eviction ticks
    :attr:`~repro.propagation.cache.EngineStats.tableau_evictions`.
    An evicted skeleton is at worst rebuilt — correctness never depends
    on residency.
    """

    def __init__(
        self,
        view: ViewLike,
        enabled: bool = True,
        capacity: int | None = None,
        stats: EngineStats | None = None,
    ) -> None:
        self.view = view
        self.branches = _branches(view)
        self.enabled = enabled
        #: No finite-domain attribute can ever occur in a materialized
        #: branch, so `chase_with_instantiations` degenerates to a single
        #: chase and chased results are RHS-independent.
        self.single_chase = not any(
            branch.has_finite_domain_attribute() for branch in self.branches
        )
        self.stats = EngineStats() if stats is None else stats
        self._capacity = capacity
        evicted = partial(self.stats.tick, "tableau_evictions")
        self._base: LRUCache = LRUCache(None)  # <= k^2 entries, swept whole
        self._single: LRUCache = LRUCache(None)  # <= k entries
        self._coupled: LRUCache = LRUCache(capacity, on_evict=evicted)
        self._chased: LRUCache = LRUCache(capacity, on_evict=evicted)
        self._runners: LRUCache = LRUCache(capacity)  # sigma_key -> runner
        # sigma_key -> program
        self._programs: LRUCache = LRUCache(capacity, on_evict=evicted)

    def kernel_runner(self, sigma: list, sigma_key: frozenset):
        """The packed pair runner for *sigma* (built once per Sigma).

        The runner replaces layers 2-3 for the single-chase fast path: it
        owns the packed templates plus the per-premise-signature outcome
        cache, and ticks the same coupled/chased counters on
        :attr:`stats`.  Its outcome caches share the ``capacity`` bound
        of the layers it replaces.
        """
        runner = self._runners.get(sigma_key, _MISSING)
        if runner is _MISSING:
            from ..kernel.chase import PackedPairRunner

            runner = PackedPairRunner(sigma, self, capacity=self._capacity)
            self._runners.put(sigma_key, runner)
        return runner

    def implication_program(self, sigma: list, sigma_key: frozenset):
        """The compiled implication program of the view under *sigma*
        (built once per Sigma), or ``None`` when it does not apply.

        It applies to a view of one branch whose atoms read pairwise
        distinct relations, with no finite-domain attribute.  There the
        two-copy chase of :func:`find_counterexample` is the two-tuple
        implication chase of ``Sigma_V``: ``rho(Sigma)`` in view space
        plus one rule per selection atom and per ``Rc`` constant
        (``docs/kernel.md``).  A constant the program cannot key also
        gives ``None``; the caller then runs the pair loop.
        """
        program = self._programs.get(sigma_key, _MISSING)
        if program is _MISSING:
            program = None
            branch = self.branches[0]
            sources = [atom.source for atom in branch.atoms]
            if (
                len(self.branches) == 1
                and self.single_chase
                and len(set(sources)) == len(sources)
            ):
                from ..kernel.implication import ImplicationProgram

                program = ImplicationProgram.compile(_view_sigma(branch, sigma))
            self._programs.put(sigma_key, program)
        return program

    # ------------------------------------------------------------------
    # Layer 1: materialized branch pairs.
    # ------------------------------------------------------------------

    def base_pair(self, i: int, j: int):
        """Two materialized copies of branches ``(i, j)`` in one instance.

        Returns ``(instance, cells1, cells2)`` or ``None`` when either
        branch has an unsatisfiable selection.
        """
        key = (i, j)
        if self.enabled:
            prepared = self._base.get(key, _MISSING)
            if prepared is not _MISSING:
                return prepared
        instance = SymbolicInstance()
        factory = VarFactory()
        cells1 = materialize_branch(self.branches[i], instance, factory)
        cells2 = (
            materialize_branch(self.branches[j], instance, factory)
            if cells1 is not None
            else None
        )
        prepared = None if cells1 is None or cells2 is None else (instance, cells1, cells2)
        if self.enabled:
            self._base.put(key, prepared)
        return prepared

    def base_single(self, i: int):
        """One materialized copy of branch ``i`` (equality-form queries)."""
        if self.enabled:
            prepared = self._single.get(i, _MISSING)
            if prepared is not _MISSING:
                return prepared
        instance = SymbolicInstance()
        cells = materialize_branch(self.branches[i], instance, VarFactory())
        prepared = None if cells is None else (instance, cells)
        if self.enabled:
            self._single.put(i, prepared)
        return prepared

    # ------------------------------------------------------------------
    # Layer 2: coupled skeletons, shared across equal LHS shapes.
    # ------------------------------------------------------------------

    def coupled(self, i: int, j: int, phi: CFD):
        """The base pair coupled through ``phi``'s LHS; ``None`` if undefined."""
        key = (i, j, phi.lhs)
        if self.enabled:
            prepared = self._coupled.get(key, _MISSING)
            if prepared is not _MISSING:
                self.stats.coupled_hits += 1
                return prepared
        self.stats.coupled_misses += 1
        base = self.base_pair(i, j)
        if base is None:
            prepared = None
        else:
            instance, cells1, cells2 = base
            coupled = instance.copy()
            if _couple_premise(coupled, cells1, cells2, phi):
                prepared = (coupled, cells1, cells2)
            else:
                prepared = None
        if self.enabled:
            self._coupled.put(key, prepared)
        return prepared

    # ------------------------------------------------------------------
    # Layer 3: chased results, shared across RHS attributes.
    # ------------------------------------------------------------------

    def can_share_chase(self, assume_infinite: bool, max_instantiations) -> bool:
        return (self.single_chase or assume_infinite) and max_instantiations is None

    def chased(
        self,
        sigma: list[CFD],
        sigma_key: frozenset,
        i: int,
        j: int | None,
        phi: CFD,
        instance: SymbolicInstance,
    ):
        """The chase of a coupled skeleton under Sigma (single-chase setting).

        ``j=None`` keys the one-copy (equality-form) variant; otherwise the
        key is the pair plus ``phi``'s LHS shape, which the coupled
        skeleton is a function of.  ``sigma_key`` is ``frozenset(sigma)``,
        precomputed once per query.
        """
        key = (sigma_key, i, j, None if j is None else phi.lhs)
        if self.enabled:
            result = self._chased.get(key, _MISSING)
            if result is not _MISSING:
                self.stats.chased_hits += 1
                return result
        self.stats.chased_misses += 1
        self.stats.chase_invocations += 1
        result = chase(instance.copy(), sigma)
        if self.enabled:
            self._chased.put(key, result)
        return result


def _view_sigma(view: SPCView, sigma: list[CFD]) -> list[CFD]:
    """``Sigma_V``: *sigma* renamed into *view*'s space, plus the
    selection atoms and ``Rc`` constants as equality-form and constant
    view CFDs."""
    rules = view.rename_source_cfds(sigma)
    for sel in view.selection:
        if isinstance(sel, AttrEq):
            rules.append(CFD.equality(view.name, sel.left, sel.right))
        else:
            rules.append(CFD.constant(view.name, sel.attr, const(sel.value)))
    for attr, value in view.constants.items():
        rules.append(CFD.constant(view.name, attr, const(value)))
    return rules


def program_verdicts(
    cache: BranchPairCache, program, phis: Iterable[CFD]
) -> list[bool | None]:
    """``Sigma |=_V phi`` for every *phi* on *cache*'s compiled
    implication program, in one pass.

    Tests each phi's :func:`conjuncts` (trivial ones skipped, unprojected
    attributes a ``KeyError``) and ticks one chase per conjunct tested.
    A verdict is ``None`` when its phi carries a constant the program
    cannot key: the caller then runs the pair loop, and the conjuncts
    tested before it are not counted.
    """
    branch = cache.branches[0]
    projection = set(branch.projection)
    empty = branch.unsatisfiable  # every conjunct holds on an empty view
    implies = program.implies
    verdicts: list[bool | None] = []
    for phi in phis:
        holds: bool | None = True
        tested = 0
        for normal in conjuncts(phi, projection):
            if empty:
                continue
            try:
                holds = implies(normal.lhs, normal.rhs_attr, normal.rhs_entry)
            except ValueError:
                holds, tested = None, 0
                break
            tested += 1
            if not holds:
                break
        cache.stats.chase_invocations += tested
        verdicts.append(holds)
    return verdicts


def conjuncts(phi: CFD, projection: set[str]):
    """*phi*'s normal-form conjuncts to test, in order: trivial ones are
    skipped, and one naming an attribute outside *projection* raises
    ``KeyError`` when reached (a violation of an earlier one wins)."""
    for normal in phi.normalize():
        if normal.is_trivial():
            continue
        if not projection.issuperset(normal.attributes):
            missing = sorted(normal.attributes - projection)
            raise KeyError(
                f"view dependency references attributes {missing} "
                "that the view does not project"
            )
        yield normal


def propagates(
    sigma: Iterable[DependencyLike],
    view: ViewLike,
    phi: DependencyLike,
    max_instantiations: int | None = None,
    assume_infinite: bool = False,
    cache: BranchPairCache | None = None,
    pairs: Iterable[tuple[int, int]] | None = None,
    kernel: str | None = None,
) -> bool:
    """Decide ``Sigma |=_V phi``.

    ``max_instantiations`` caps the finite-domain enumeration; a capped run
    is sound for *non*-propagation but may report propagation optimistically
    (the paper's heuristic escape for the coNP cases).

    The verdict path: :func:`find_counterexample`'s search, building no
    witness database.
    """
    hit = _search(
        sigma, view, phi, max_instantiations, assume_infinite, cache, pairs, kernel,
        witness=False,
    )
    return hit is None


def find_counterexample(
    sigma: Iterable[DependencyLike],
    view: ViewLike,
    phi: DependencyLike,
    max_instantiations: int | None = None,
    assume_infinite: bool = False,
    cache: BranchPairCache | None = None,
    pairs: Iterable[tuple[int, int]] | None = None,
    kernel: str | None = None,
) -> Counterexample | None:
    """Search for a source instance witnessing ``Sigma |/=_V phi``.

    Returns ``None`` when *phi* is propagated.  The witness database is
    concrete and can be validated by evaluation — the integration tests
    do exactly that.  This is the witness path: :func:`search_violation`
    (all that :func:`propagates` and the engine's checks run), then the
    violating pair's chased instance instantiated into a database.

    *cache* shares materialized/coupled/chased tableaux across queries on
    the same view (see :class:`BranchPairCache`); it must have been built
    for *view*.

    *pairs* restricts the search to the given ordered branch pairs:
    equality-form conjuncts run on the branches of the diagonal pairs
    present.  ``None`` keeps the full ``k²`` iteration.  A
    pair-restricted ``None`` result means only "no violation *within
    these pairs*".

    *kernel* — ``"bitset"`` routes eligible pair sweeps through the
    packed runner of :mod:`repro.kernel.chase` (cached single-chase
    setting only; identical answers, differential-tested).  The baseline
    re-chases the pair the runner names, so the witness is the
    baseline's; the verdict path certifies the runner's state instead.
    The default ``None`` keeps the baseline everywhere, so library
    callers and the fuzz oracle are untouched by the engine's kernel
    selection.
    """
    hit = _search(
        sigma, view, phi, max_instantiations, assume_infinite, cache, pairs, kernel,
        witness=True,
    )
    if hit is None:
        return None
    pair, instance, branch = hit
    return Counterexample(_to_database(instance, branch), pair)


def _search(
    sigma, view, phi, max_instantiations, assume_infinite, cache, pairs, kernel,
    *, witness: bool,
) -> _Hit | None:
    """Normalize Sigma and phi, then :func:`search_violation`."""
    sigma_cfds, sigma_key = _sigma_state(sigma)
    phi = as_cfd(phi)
    if cache is not None and cache.view is not view:
        raise ValueError("cache was built for a different view")
    branches = _branches(view)
    return search_violation(
        sigma_cfds,
        sigma_key,
        branches,
        conjuncts(phi, set(branches[0].projection)),
        max_instantiations,
        assume_infinite,
        cache,
        None if pairs is None else list(pairs),
        kernel,
        witness,
    )


def search_violation(
    sigma: list[CFD],
    sigma_key: frozenset | None,
    branches: list[SPCView],
    normal_phis: Iterable[CFD],
    max_instantiations: int | None = None,
    assume_infinite: bool = False,
    cache: BranchPairCache | None = None,
    pairs: list[tuple[int, int]] | None = None,
    kernel: str | None = None,
    witness: bool = False,
) -> _Hit | None:
    """The first violation of *normal_phis* (:func:`conjuncts` output),
    in order: ``(branch pair, chased instance, branch)``, the branch
    supplying a witness database's schema.  ``None`` means propagated.

    *sigma* is normal-form CFDs and *sigma_key* their frozenset.  Nothing
    is instantiated: this is the verdict path, where a hit the packed
    runner certified has no chased instance, unless ``witness=True``.
    """
    settings = (max_instantiations, assume_infinite, cache, pairs)
    for phi in normal_phis:
        if phi.is_equality:
            hit = _equality_violation(sigma, sigma_key, branches, phi, *settings)
        else:
            hit = _pair_violation(
                sigma, sigma_key, branches, phi, *settings, kernel, witness
            )
        if hit is not None:
            return hit
    return None


def _chase_runs(
    instance: SymbolicInstance,
    sigma: list[CFD],
    max_instantiations: int | None,
    assume_infinite: bool,
    extra_values: tuple[Value, ...],
    cache: BranchPairCache | None,
):
    def count_chase() -> None:
        if cache is not None:
            cache.stats.chase_invocations += 1

    if assume_infinite:
        count_chase()
        yield chase(instance.copy(), sigma)
        return
    yield from chase_with_instantiations(
        instance,
        sigma,
        limit=max_instantiations,
        positions=premise_positions(sigma),
        extra_values=extra_values,
        on_chase=count_chase,
    )


def _pair_violation(
    sigma: list[CFD],
    sigma_key: frozenset | None,
    branches: list[SPCView],
    phi: CFD,
    max_instantiations: int | None,
    assume_infinite: bool,
    cache: BranchPairCache | None,
    pairs: list[tuple[int, int]] | None,
    kernel: str | None,
    witness: bool,
) -> _Hit | None:
    rhs_attr = phi.rhs_attr
    rhs_entry = phi.rhs_entry
    share_chase = cache is not None and cache.can_share_chase(
        assume_infinite, max_instantiations
    )
    if share_chase and sigma_key is None:
        sigma_key = frozenset(sigma)
    if pairs is None:
        pairs = [
            (i, j) for i in range(len(branches)) for j in range(len(branches))
        ]

    # The runner interns constants by value, so it would match a constant
    # not equal to itself (nan) where the baseline's compare never does.
    if (
        kernel == "bitset" and share_chase and cache.enabled
        and all(not is_const(e) or e.value == e.value for _, e in phi.lhs + phi.rhs)
    ):
        runner = cache.kernel_runner(sigma, sigma_key)
        if runner.usable:
            hit = runner.find_violation(phi, pairs)
            if runner.usable:
                if hit is None:
                    return None
                # A certified state is the verdict.  Else the baseline loop
                # confirms the pair (coupled skeleton, shared chase, RHS
                # compare) — the witness path's instance — and a refusal
                # (a kernel bug) falls through to the full sweep.
                if not witness and runner.certify(phi, hit):
                    return hit[0], None, branches[0]
                confirmed = _pair_violation(
                    sigma, sigma_key, branches, phi, max_instantiations,
                    assume_infinite, cache, [hit[0]], None, witness,
                )
                if confirmed is not None:
                    return confirmed

    for i, j in pairs:
        if cache is not None:
            prepared = cache.coupled(i, j, phi)
            if prepared is None:
                continue
            instance, cells1, cells2 = prepared
        else:
            instance = SymbolicInstance()
            factory = VarFactory()
            cells1 = materialize_branch(branches[i], instance, factory)
            if cells1 is None:
                continue
            cells2 = materialize_branch(branches[j], instance, factory)
            if cells2 is None:
                continue
            if not _couple_premise(instance, cells1, cells2, phi):
                continue
        y1 = cells1[rhs_attr]
        y2 = cells2[rhs_attr]
        if share_chase:
            runs = [cache.chased(sigma, sigma_key, i, j, phi, instance)]
        else:
            runs = _chase_runs(
                instance, sigma, max_instantiations, assume_infinite, (y1, y2), cache
            )
        for result in runs:
            if result.status is ChaseStatus.UNDEFINED:
                continue
            r1 = result.instance.resolve(y1)
            r2 = result.instance.resolve(y2)
            violated = r1 != r2
            if not violated and is_const(rhs_entry):
                violated = isinstance(r1, SymVar) or r1 != rhs_entry.value
            if violated:
                return (i, j), result.instance, branches[0]
    return None


def _couple_premise(
    instance: SymbolicInstance,
    cells1: dict[str, Value],
    cells2: dict[str, Value],
    phi: CFD,
) -> bool:
    """Bind the two summaries to the LHS pattern of *phi*.

    Returns ``False`` when the mapping is undefined — no pair of view
    tuples from these branches can match the premise.
    """
    for attr, entry in phi.lhs:
        if is_const(entry):
            if not instance.equate(cells1[attr], entry.value):
                return False
            if not instance.equate(cells2[attr], entry.value):
                return False
        else:
            if not instance.equate(cells1[attr], cells2[attr]):
                return False
    return True


def _equality_violation(
    sigma: list[CFD],
    sigma_key: frozenset | None,
    branches: list[SPCView],
    phi: CFD,
    max_instantiations: int | None,
    assume_infinite: bool,
    cache: BranchPairCache | None,
    pairs: list[tuple[int, int]] | None,
) -> _Hit | None:
    a = phi.lhs[0][0]
    b = phi.rhs[0][0]
    share_chase = cache is not None and cache.can_share_chase(
        assume_infinite, max_instantiations
    )
    if share_chase and sigma_key is None:
        sigma_key = frozenset(sigma)
    if pairs is None:
        indexes = list(range(len(branches)))
    else:
        # Equality-form conjuncts need one copy per branch; a pair subset
        # runs branch i iff it holds the diagonal pair (i, i), so subsets
        # that partition the k² pairs cover every branch exactly once.
        indexes = sorted({i for i, j in pairs if i == j})
    for i in indexes:
        branch = branches[i]
        if cache is not None:
            prepared = cache.base_single(i)
            if prepared is None:
                continue
            instance, cells = prepared
        else:
            instance = SymbolicInstance()
            factory = VarFactory()
            cells = materialize_branch(branch, instance, factory)
            if cells is None:
                continue
        if share_chase:
            runs = [cache.chased(sigma, sigma_key, i, None, phi, instance)]
        else:
            runs = _chase_runs(
                instance,
                sigma,
                max_instantiations,
                assume_infinite,
                (cells[a], cells[b]),
                cache,
            )
        for result in runs:
            if result.status is ChaseStatus.UNDEFINED:
                continue
            if result.instance.resolve(cells[a]) != result.instance.resolve(cells[b]):
                return (i, i), result.instance, branch
    return None


def _to_database(instance: SymbolicInstance, any_branch: SPCView) -> DatabaseInstance:
    """Instantiate a chased symbolic instance into a concrete database."""
    concrete = instance.instantiate().concrete()
    schema = any_branch.source_schema
    rows = {rel: concrete.get(rel, []) for rel in concrete}
    return DatabaseInstance(schema, rows)
