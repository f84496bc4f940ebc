"""The provenance/keyspace layer: per-relation fingerprints, composite keys.

Through PR 3 the engine keyed every cache line on a *whole-Sigma*
fingerprint: one sha256 over the entire normalized dependency set.
Correct, but maximally coarse — editing one CFD on one relation moved
every query of every view onto a cold key, discarding warm lines for
relations the edit never mentioned.  In production Sigma evolves
incrementally (a rule added here, one retired there), so the whole-Sigma
key made *every* deployment a cold start.

This module replaces it with **provenance-scoped composite keys**:

- :func:`touched_relations` — the set of source relations a query on a
  view can ever read.  This is exactly the relation set of the chase's
  symbolic instance: :func:`~repro.tableau.tableau.materialize_branch`
  creates one block of tuples per relation atom and nothing else, and a
  CFD on a relation with no tuples never fires, so the verdict (and the
  cover — ``MinCover`` and ``rename_source_cfds`` are per-relation) is a
  function of ``Sigma`` *restricted to these relations*.
- :func:`scoped_sigma` / the structural memory-tier key — Sigma filtered
  to the touched relations before it enters any key, so the in-memory
  LRU tiers survive edits to untouched relations within one process.
- :func:`relation_fingerprints` / :func:`provenance_fingerprint` — the
  persistent-tier analogue: one stable fingerprint *per relation's* CFD
  group, combined into a composite ``[(relation, fingerprint), ...]``
  document covering only the touched relations.  Editing CFDs on
  relation ``R`` changes only the keys whose provenance includes ``R``;
  warm sqlite rows for every other view stay servable across processes
  and restarts.

Key-schema change = store schema change: the composite keys are
:data:`~repro.store.sqlite.SCHEMA_VERSION` 2; stores written under
the PR 2/3 whole-Sigma keys (version 1) are dropped on open — the
migration-to-cold fallback, never a misread line.

:func:`structural_view_key` (the process-local view key) and
:class:`ViewTokens`, which interns it to the int every memory line is
keyed by, also live here so every key constructor is in one module.
See ``docs/incremental.md`` for the invalidation rules this keyspace
implies.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ...algebra.spcu import SPCUView
from ...core.cfd import CFD
from ...io import dependency_to_json
from ..cache import _canonical, query_persist_key, stable_digest
from ..check import ViewLike, _branches

__all__ = [
    "ViewTokens",
    "branch_touched_relations",
    "cover_key",
    "make_stale_predicate",
    "provenance_doc",
    "provenance_fingerprint",
    "relation_fingerprints",
    "scoped_sigma",
    "structural_view_key",
    "sweep_stale",
    "touched_relations",
    "verdict_key",
]

#: The per-relation fingerprint of "no CFDs on this relation".  Spelled
#: explicitly (rather than omitting the relation) so a composite key
#: document always lists every touched relation — adding the first CFD
#: on a relation and deleting the last one are both visible key moves.
EMPTY_RELATION_FP = "-"


# ----------------------------------------------------------------------
# Provenance: which relations can a query on this view read?
# ----------------------------------------------------------------------


def touched_relations(view: ViewLike) -> frozenset[str]:
    """The source relations a propagation query on *view* depends on.

    The union of the relation-atom sources across every branch: the
    chase's symbolic instance contains exactly one tuple block per atom,
    so CFDs on any other relation are vacuous for both verdicts and
    covers.
    """
    return frozenset(
        atom.source for branch in _branches(view) for atom in branch.atoms
    )


def scoped_sigma(
    sigma_cfds: Iterable[CFD], touched: frozenset[str]
) -> list[CFD]:
    """*sigma_cfds* restricted to the touched relations (order kept)."""
    return [phi for phi in sigma_cfds if phi.relation in touched]


def branch_touched_relations(view: ViewLike) -> tuple[frozenset[str], ...]:
    """Per-branch touched-relation sets, in branch order.

    The provenance of one branch *pair* ``(i, j)`` of the SPCU check
    loop is the union of entries ``i`` and ``j``: the coupled instance
    materializes exactly those two branches' atoms, so CFDs on any other
    relation are vacuous for that pair's chase.  The engine's delta path
    keys its per-pair verdict memo on Sigma scoped to this union — after
    a ``delta_sigma`` edit only the pairs whose provenance meets the
    edited relation re-chase.
    """
    return tuple(
        frozenset(atom.source for atom in branch.atoms)
        for branch in _branches(view)
    )


# ----------------------------------------------------------------------
# Stable per-relation fingerprints and the composite key documents.
# ----------------------------------------------------------------------


def relation_fingerprints(sigma_cfds: Iterable[CFD]) -> dict[str, str]:
    """One stable fingerprint per relation's normalized CFD group.

    *sigma_cfds* must be normal-form CFDs (``_as_cfds`` output).  Each
    group is deduplicated and sorted canonically before hashing, so the
    fingerprint is order- and multiplicity-insensitive exactly like the
    whole-Sigma fingerprint it refines — and the whole-Sigma document is
    recoverable as the sorted union of the groups.
    """
    groups: dict[str, set[str]] = {}
    for phi in sigma_cfds:
        groups.setdefault(phi.relation, set()).add(
            _canonical(dependency_to_json(phi))
        )
    return {
        relation: stable_digest(sorted(docs))
        for relation, docs in groups.items()
    }


def provenance_doc(
    sigma_cfds: Iterable[CFD], touched: frozenset[str]
) -> list[list[str]]:
    """The composite key document: ``[[relation, fingerprint], ...]``.

    Sorted by relation name; every touched relation appears, with
    :data:`EMPTY_RELATION_FP` standing in when Sigma has no CFDs on it.
    """
    fps = relation_fingerprints(sigma_cfds)
    return [
        [relation, fps.get(relation, EMPTY_RELATION_FP)]
        for relation in sorted(touched)
    ]


def provenance_fingerprint(
    sigma_cfds: Iterable[CFD], touched: frozenset[str]
) -> str:
    """The stable digest of :func:`provenance_doc` (the composite key)."""
    return stable_digest(provenance_doc(sigma_cfds, touched))


def verdict_key(
    provenance_fp: str,
    view_fp: str,
    phi: CFD,
    max_instantiations: int | None,
    assume_infinite: bool,
) -> str:
    """The persistent key of one ``Sigma |=_V phi`` verdict.

    The one shared derivation
    (:func:`repro.propagation.cache.query_persist_key`) with the Sigma
    slot holding the provenance composite instead of the PR 2
    whole-Sigma fingerprint, so the key survives Sigma edits outside
    the view's relations.
    """
    return query_persist_key(
        "verdict",
        "provenance",
        provenance_fp,
        view_fp,
        phi,
        max_instantiations,
        assume_infinite,
    )


def cover_key(
    provenance_fp: str,
    view_fp: str,
    max_instantiations: int | None,
    assume_infinite: bool,
) -> str:
    """The persistent key of one propagation cover (provenance-scoped)."""
    return query_persist_key(
        "cover",
        "provenance",
        provenance_fp,
        view_fp,
        None,
        max_instantiations,
        assume_infinite,
    )


# ----------------------------------------------------------------------
# The process-local structural view key.
# ----------------------------------------------------------------------


def structural_view_key(view: ViewLike) -> tuple:
    """A structural key for a view's normal form (process-local tier).

    Attribute *domains* are part of the key: verdicts depend on finite
    domains (the chase enumerates their values), so structurally equal
    views over schemas that differ only in domains must never share a
    cache line.
    """
    if isinstance(view, SPCUView):
        # The union's own name is part of the key: covers embed it in
        # every returned CFD, so same-branch unions with different names
        # must not share a line.
        return ("U", view.name) + tuple(
            structural_view_key(b) for b in view.branches
        )
    return (
        view.name,
        tuple(view.atoms),
        tuple(view.selection),
        tuple(view.projection),
        tuple(sorted(view.constants.items())),
        view.unsatisfiable,
        tuple(
            sorted(
                (attr, domain.name, domain.values)
                for attr, domain in view.extended_attributes().items()
            )
        ),
    )


class ViewTokens:
    """Structural view keys interned to small int tokens.

    Every memory line of an engine (and of the service's route and
    emptiness memos) is keyed by its view's token instead of the nested
    :func:`structural_view_key` tuple: the tuple's hash is not cached,
    so each lookup and each delta-sweep line would re-hash the whole
    view, where an int hashes for free.  :meth:`intern` pays that hash
    once per call.

    A token is allocated from a monotonic counter and never reused, so
    two structurally different views can never share a line; equal
    views (distinct objects included) get the same token.  Tokens are
    process-local and owned by one interner: they never enter a
    persistent key (those use :func:`~repro.propagation.cache.
    view_fingerprint`).
    """

    def __init__(self) -> None:
        self._tokens: dict[tuple, int] = {}
        self._touched: dict[int, frozenset[str]] = {}
        self._counter = itertools.count()

    def intern(self, view: ViewLike) -> int:
        """The token of *view*'s structural key (allocated on first sight)."""
        key = structural_view_key(view)
        token = self._tokens.get(key)
        if token is None:
            # Publish the touched set before the token: a concurrent
            # caller that loses setdefault keeps a dead, harmless entry.
            token = next(self._counter)
            self._touched[token] = touched_relations(view)
            token = self._tokens.setdefault(key, token)
        return token

    def lookup(self, view: ViewLike) -> int | None:
        """*view*'s token if it was ever interned; never allocates one."""
        return self._tokens.get(structural_view_key(view))

    def touched(self, token: int) -> frozenset[str] | None:
        """The touched-relation set of the view behind *token*."""
        return self._touched.get(token)


def make_stale_predicate(affected: frozenset, old_cfds: list[CFD] | None):
    """The one invalidation rule every delta sweep applies.

    Returns ``stale(sigma_component, touched)`` deciding whether a memo
    line — keyed on a provenance-scoped Sigma ``frozenset`` plus a view
    whose touched-relation set is *touched* — should be dropped after an
    edit to *old_cfds* (the pre-edit normalized set; ``None`` = unknown,
    sweep conservatively) on the *affected* relations.  A line survives
    iff its provenance misses the affected relations, or it was derived
    from some *other* Sigma (its key never moved, so it stays reachable
    and correct).  The engine's :meth:`~repro.propagation.engine.core.
    PropagationEngine.invalidate_relations` and the service's
    route/emptiness-memo sweep both apply it through
    :func:`sweep_stale`, so the two can never diverge.  The verdict is a
    function of its two arguments, so a sweep tests each provenance
    group once, not each line; scoped old-Sigma sets are memoized per
    touched set.
    """
    old_scoped: dict[frozenset, frozenset] = {}

    def stale(sigma_component, touched: frozenset | None) -> bool:
        if touched is not None and touched.isdisjoint(affected):
            return False
        if old_cfds is None or touched is None:
            return True
        scoped = old_scoped.get(touched)
        if scoped is None:
            scoped = frozenset(
                phi for phi in old_cfds if phi.relation in touched
            )
            old_scoped[touched] = scoped
        return sigma_component == scoped

    return stale


def sweep_stale(memo, stale, touched_of=None) -> tuple[int, int]:
    """Discard the lines of the LRU *memo* that *stale* condemns.

    Every swept key leads with ``(sigma component, provenance)``: the
    provenance is a touched-relation frozenset, or a view token that
    *touched_of* maps to one (:meth:`ViewTokens.touched`).  Lines that
    share both — every target of one view under one Sigma — form one
    provenance group, and *stale* runs once per group.  Returns
    ``(invalidated, retained)`` line counts.
    """
    decided: dict[tuple, bool] = {}
    invalidated = retained = 0
    for key in memo.keys():
        group = key[0], key[1]
        verdict = decided.get(group)
        if verdict is None:
            touched = key[1] if touched_of is None else touched_of(key[1])
            verdict = decided[group] = stale(key[0], touched)
        if verdict:
            memo.discard(key)
            invalidated += 1
        else:
            retained += 1
    return invalidated, retained
