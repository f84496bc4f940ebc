"""``PropCFD_SPC``: minimal propagation covers via SPC views (Figure 2).

The paper's main algorithmic contribution: given source CFDs ``Sigma`` and
an SPC view ``V`` (infinite-domain setting), compute a *minimal cover* of
``CFDp(Sigma, V)`` — the set of all view CFDs propagated from ``Sigma``
via ``V``.  The pipeline, line by line against Figure 2:

1.  ``Sigma := MinCover(Sigma)`` — simplify the input (line 1).
2.  ``EQ := ComputeEQ(Es, Sigma)`` — selection handling (line 2); on ``⊥``
    return the conflicting CFD pair of Lemma 4.5: the view is always
    empty, so every view CFD is propagated and the pair is a cover
    (lines 3-4).
3.  ``Sigma_V := U rho_j(Sigma)`` — Cartesian-product handling: source
    CFDs renamed into view attribute space, one copy per relation atom
    (lines 5-6).
4.  Apply the domain constraints of ``EQ`` (lines 7-10): substitute a
    representative (preferring projected attributes) for every class
    member, and eliminate *keyed* attributes from CFDs — an attribute
    with a constant key is constant on every tuple of ``Es``, so
    compatible LHS occurrences drop out, incompatible ones kill the CFD,
    and CFDs concluding a keyed attribute are subsumed by the key.
5.  ``Sigma_c := RBR(Sigma_V, attr(Es) - Y)`` — projection handling
    (line 11).
6.  ``Sigma_d := EQ2CFD(EQ)`` — the domain constraints as view CFDs
    (line 12).
7.  Return ``MinCover(Sigma_c ∪ Sigma_d)`` (line 13).

A known incompleteness corner (shared with the paper's presentation): a
CFD whose conclusion conflicts with a key only on a *proper* sub-pattern
of the view asserts the emptiness of that sub-pattern; such denial
information is dropped rather than translated into conflicting view CFDs.
The global case — the whole view empty — is fully handled via ``⊥``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Union

from ..algebra.spc import SPCView
from ..core.cfd import CFD, normal_forms
from ..core.fd import FD
from ..core.mincover import min_cover
from ..core.values import is_const, is_wildcard
from .eqclasses import BottomEQ, EquivalenceClasses, compute_eq, eq2cfd
from .rbr import RBRStats, rbr

DependencyLike = Union[CFD, FD]


@dataclass
class CoverReport:
    """Diagnostics from a ``PropCFD_SPC`` run (used by the benchmarks).

    The ``seconds_*`` fields break the runtime into the Figure 2 phases:
    input MinCover (line 1), EQ computation and application (lines 2-10),
    RBR (line 11) and the final MinCover (line 13).  The benchmarks report
    ``seconds_rbr + seconds_final`` as the *view-dependent* cost — the
    input MinCover depends only on ``|Sigma|`` and would otherwise mask
    the |Y|-sensitivity the paper's Figure 6(a) shows.
    """

    cover: list[CFD]
    inconsistent: bool = False
    sigma_v_size: int = 0
    after_eq_size: int = 0
    after_rbr_size: int = 0
    dropped_attributes: int = 0
    seconds_input_mincover: float = 0.0
    seconds_eq: float = 0.0
    seconds_rbr: float = 0.0
    seconds_final_mincover: float = 0.0

    @property
    def seconds_view_dependent(self) -> float:
        return self.seconds_eq + self.seconds_rbr + self.seconds_final_mincover


def prop_cfd_spc(
    sigma: Iterable[DependencyLike],
    view: SPCView,
    partition_size: int | None = 40,
    final_min_cover: bool = True,
    minimize_input: bool = True,
    kernel: str | None = None,
) -> list[CFD]:
    """Compute a minimal propagation cover of *sigma* via *view*.

    *sigma* may mix FDs and CFDs (FDs are all-wildcard CFDs).  The result
    is a list of normal-form view CFDs on ``view.name``.  The three keyword
    arguments switch off individual optimizations for the ablation
    benchmarks; defaults follow the paper.
    """
    return prop_cfd_spc_report(
        sigma,
        view,
        partition_size=partition_size,
        final_min_cover=final_min_cover,
        minimize_input=minimize_input,
        kernel=kernel,
    ).cover


def prop_cfd_spc_report(
    sigma: Iterable[DependencyLike],
    view: SPCView,
    partition_size: int | None = 40,
    final_min_cover: bool = True,
    minimize_input: bool = True,
    rbr_stats: RBRStats | None = None,
    kernel: str | None = None,
) -> CoverReport:
    """As :func:`prop_cfd_spc`, returning intermediate-size diagnostics.

    ``minimize_input=False`` also serves callers (the batch engine) that
    pre-minimize Sigma once and share it across many views; *rbr_stats*
    accumulates RBR work counters across calls.  *kernel* selects the
    ``ComputeEQ`` union-find representation and the ``MinCover``
    implication tests (``"bitset"`` → the packed int-array variants;
    answers are identical either way).

    The cover is invariant under scoping Sigma to (a superset of) the
    view's atom sources: ``MinCover`` minimizes per relation and
    ``rename_source_cfds`` renames per atom, so CFDs on relations the
    view never reads contribute nothing.  The engine relies on this: it
    passes only the touched relations' memoized input MinCover.
    """
    timer = time.perf_counter

    sigma_cfds = normal_forms(sigma)

    start = timer()
    if minimize_input:
        sigma_cfds = min_cover(sigma_cfds, kernel=kernel)  # line 1
    t_input = timer() - start

    sigma_v = view.rename_source_cfds(sigma_cfds)  # lines 5-6

    start = timer()
    eq = compute_eq(view, sigma_v, kernel=kernel)  # line 2
    if isinstance(eq, BottomEQ):  # lines 3-4
        return CoverReport(
            cover=_inconsistent_pair(view),
            inconsistent=True,
            seconds_input_mincover=t_input,
        )

    report = CoverReport(
        cover=[],
        sigma_v_size=len(sigma_v),
        seconds_input_mincover=t_input,
    )

    sigma_v = _apply_domain_constraints(sigma_v, eq, view)  # lines 7-10
    report.after_eq_size = len(sigma_v)
    report.seconds_eq = timer() - start

    start = timer()
    dropped = view.dropped_attributes()
    report.dropped_attributes = len(dropped)
    sigma_c = rbr(
        sigma_v, dropped, partition_size=partition_size, stats=rbr_stats, kernel=kernel
    )  # line 11
    report.after_rbr_size = len(sigma_c)
    report.seconds_rbr = timer() - start

    sigma_d = eq2cfd(eq, view)  # line 12

    start = timer()
    combined = sigma_c + sigma_d
    if final_min_cover:
        report.cover = min_cover(combined, kernel=kernel)  # line 13
        report.seconds_final_mincover = timer() - start
    else:
        seen: set[CFD] = set()
        unique: list[CFD] = []
        for phi in combined:
            if phi not in seen and not phi.is_trivial():
                seen.add(phi)
                unique.append(phi)
        report.cover = unique
    return report


def _inconsistent_pair(view: SPCView) -> list[CFD]:
    """The Lemma 4.5 cover for an always-empty view.

    Two CFDs forcing distinct constants on one projected attribute: no
    tuple can satisfy both, which is exactly the statement that the view
    is empty, and every view CFD follows from the pair.
    """
    domains = view.extended_attributes()
    for attr in view.projection:
        domain = domains[attr]
        if domain.is_finite and domain.size < 2:
            continue
        if domain.is_finite:
            a, b = list(domain)[:2]
        else:
            a, b = "⊥0", "⊥1"
        return [
            CFD.constant(view.name, attr, a),
            CFD.constant(view.name, attr, b),
        ]
    raise ValueError(
        "view projects only single-valued finite domains; "
        "cannot express the empty view as conflicting CFDs"
    )


def _apply_domain_constraints(
    sigma_v: list[CFD], eq: EquivalenceClasses, view: SPCView
) -> list[CFD]:
    """Figure 2 lines 7-10: substitute representatives, use keys.

    Every class member is replaced by its representative (a projected
    member when the class meets ``Y``).  Keyed attributes — constant on
    all of ``Es`` — are then eliminated: a wildcard or matching-constant
    LHS occurrence is redundant, a conflicting-constant occurrence means
    the CFD never fires, and a CFD concluding a keyed attribute is
    subsumed by the key (its conclusion already holds on every tuple; a
    conflicting constant conclusion would deny a sub-pattern, which the
    cover drops — see the module docstring).
    """
    reps = eq.representatives(view.projection)
    substitution = {
        attr: reps[attr] for attr in view.extended_attributes() if reps[attr] != attr
    }

    result: list[CFD] = []
    seen: set[CFD] = set()
    for phi in sigma_v:
        candidate: CFD | None = phi
        for old, new in substitution.items():
            if candidate is None:
                break
            if old in candidate.lhs_attrs or old in candidate.rhs_attrs:
                candidate = candidate.substitute(old, new)
        if candidate is None:
            continue
        candidate = _eliminate_keyed(candidate, eq)
        if candidate is None:
            continue
        candidate = candidate.simplified()
        if candidate.is_trivial() or candidate in seen:
            continue
        seen.add(candidate)
        result.append(candidate)
    return result


def _eliminate_keyed(phi: CFD, eq: EquivalenceClasses) -> CFD | None:
    """Remove keyed attributes from *phi*; ``None`` kills the CFD."""
    for attr, entry in list(phi.lhs):
        if not eq.has_key(attr):
            continue
        key = eq.key(attr)
        if is_wildcard(entry) or (is_const(entry) and entry.value == key):
            phi = phi.drop_lhs_attribute(attr)
        else:
            return None  # the CFD can never fire on Es
    rhs_attr = phi.rhs_attr
    if eq.has_key(rhs_attr):
        # The conclusion is already forced by the key (or denies a
        # sub-pattern, which the cover does not track).
        return None
    return phi
