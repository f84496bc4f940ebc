"""Propagation covers for SPCU views (Section 7 future work: union).

``PropCFD_SPC`` handles a single SPC block; the paper leaves union
support as future work.  This module implements a candidate-and-verify
algorithm for ``V = V1 U ... U Vk``:

1. Compute the per-branch minimal covers ``C_i = PropCFD_SPC(Sigma, V_i)``
   (branches are union-compatible, so projected attributes share names).
2. A CFD propagated via the union must be propagated via *every* branch
   and across every branch pair, so each ``phi`` in ``U C_i`` is checked
   with the exact SPCU decision procedure of Theorem 3.1/3.5.
3. Branch-only facts are rescued by *guarding*: when a branch pins
   constants on projected attributes (its ``Rc`` and selection keys —
   think the country-code tags of Example 1.1), a candidate that fails
   globally is retried with those constants added to its LHS.  This is
   precisely how ``f1: zip -> street`` on the UK source resurfaces as
   ``phi1: (CC='44', zip) -> street`` on the integrated view.
4. Constant guards of *other* branches are also combined with each
   branch's candidates, so cross-branch pattern CFDs are found when the
   guards separate the branches.
5. The survivors are minimized with ``MinCover``.

The result is **sound by construction** — every member passes the exact
decision procedure.  Completeness is relative to the candidate pool
(per-branch covers plus their guarded variants); this covers the
motivating examples and every workload in the tests, but a cover for an
adversarial union may in principle need view CFDs outside the pool —
which is why the paper calls union support "interesting".
"""

from __future__ import annotations

from typing import Iterable

from ..algebra.spc import SPCView
from ..algebra.spcu import SPCUView
from ..core.cfd import CFD
from ..core.mincover import min_cover
from ..core.values import is_const
from .check import DependencyLike, propagates
from .cover import prop_cfd_spc
from .eqclasses import BottomEQ, compute_eq


def branch_guards(branch: SPCView) -> dict[str, object]:
    """The constants a branch forces on its *projected* attributes.

    Computed from ``ComputeEQ`` over the branch alone (selection plus
    ``Rc``), restricted to the projection.  These are the attributes that
    distinguish branches in a tagged union.
    """
    eq = compute_eq(branch, [])
    if isinstance(eq, BottomEQ):
        return {}
    guards: dict[str, object] = {}
    for attr in branch.projection:
        if eq.has_key(attr):
            guards[attr] = eq.key(attr)
    return guards


def _guarded(phi: CFD, guards: dict[str, object], view_name: str) -> CFD | None:
    """*phi* with guard constants added to (or checked against) its LHS."""
    lhs = dict(phi.lhs)
    for attr, value in guards.items():
        if attr == phi.rhs_attr and attr not in lhs:
            continue  # guarding the conclusion adds nothing
        current = lhs.get(attr)
        if current is None:
            lhs[attr] = value
        elif is_const(current):
            if current.value != value:
                return None  # the candidate can never fire on this branch
        else:
            lhs[attr] = value
    candidate = CFD(view_name, lhs, dict(phi.rhs))
    return None if candidate.is_trivial() else candidate


def prop_cfd_spcu(
    sigma: Iterable[DependencyLike],
    view: SPCUView,
    partition_size: int | None = 40,
    max_instantiations: int | None = None,
    check=None,
    check_many=None,
    branch_cover=None,
    kernel: str | None = None,
) -> list[CFD]:
    """A propagation cover of *sigma* via the SPCU view *view*.

    Sound: every returned CFD satisfies ``Sigma |=_V phi`` (verified with
    the exact checker).  See the module docstring for the completeness
    caveat.

    *check* substitutes the candidate-verification predicate (signature of
    :func:`repro.propagation.check.propagates`).  *check_many* substitutes
    a batched verifier ``(sigma, view, phis) -> list[bool]`` and takes
    precedence over *check*: the batch engine injects
    :meth:`~repro.propagation.engine.PropagationEngine.check_many` here so
    all candidates of one union view are verified as a single batch —
    sharing the k^2 pair tableaux, Sigma normalization and fingerprints.

    *branch_cover* substitutes the per-branch pool generator (signature
    ``(sigma, branch, partition_size) -> list[CFD]``; default is the
    verbatim :func:`~repro.propagation.cover.prop_cfd_spc` call) — the
    engine's delta path injects a provenance-keyed memo here, so after a
    Sigma edit only the branches reading the edited relation recompute
    their covers.  The substitute must return exactly what the default
    would; the candidate pool is part of the answer.

    *kernel* selects the MinCover implication tests of the default
    per-branch covers and of the final cover.
    """
    if check is None:
        check = propagates
    branches = list(view.branches)
    per_branch_covers = [
        branch_cover(sigma, branch, partition_size)
        if branch_cover is not None
        else prop_cfd_spc(sigma, branch, partition_size=partition_size, kernel=kernel)
        for branch in branches
    ]
    guards = [branch_guards(branch) for branch in branches]

    candidates: list[CFD] = []
    seen: set[CFD] = set()

    def add(phi: CFD | None) -> None:
        if phi is None or phi in seen:
            return
        if not set(phi.attributes) <= set(view.projection):
            return
        seen.add(phi)
        candidates.append(phi)

    for i, cover in enumerate(per_branch_covers):
        for phi in cover:
            phi = phi.with_relation(view.name)
            add(phi)
            if not phi.is_equality:
                # The branch's own guard rescues branch-local facts;
                # other branches' guards build cross-branch patterns.
                for guard in guards:
                    add(_guarded(phi, guard, view.name))
                add(_guarded(phi, guards[i], view.name))

    if check_many is not None:
        verdicts = check_many(sigma, view, candidates)
    else:
        verdicts = [
            check(sigma, view, phi, max_instantiations=max_instantiations)
            for phi in candidates
        ]
    survivors = [phi for phi, verdict in zip(candidates, verdicts) if verdict]
    return min_cover(survivors, kernel=kernel)
