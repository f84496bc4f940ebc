"""Reduction By Resolution for CFDs (Figure 3, extending Gottlob PODS'87).

``RBR`` eliminates the non-projected attributes ``attr(Es) - Y`` one at a
time.  Dropping attribute ``A`` *shortcuts* every inference that passes
through ``A``: each pair

    phi1 = (W -> A, t1)     and     phi2 = (A Z -> B, t2)

with ``t1[A] <= t2[A]`` (the RHS pattern of *phi1* at least as specific as
*phi2*'s LHS pattern — constants block the transitivity otherwise) and
compatible patterns on ``W ∩ Z`` yields the *A-resolvent*

    (W Z -> B, (t1[W] (+) t2[Z] || t2[B]))

where ``(+)`` takes the more specific entry per shared attribute.  After
collecting all nontrivial A-resolvents, every CFD mentioning ``A`` is
discarded (``Drop``).  Proposition 4.4: ``Drop(Sigma, A)+ = Sigma+[U-{A}]``,
so iterating over all dropped attributes leaves a propagation cover of the
projection.

Faithfulness notes:

- Resolvents are formed only when they no longer mention ``A`` (``A`` not
  in ``W`` and ``B != A``); CFDs of the shape ``(X A -> A, (tx, _ || a))``
  are first rewritten to ``(X -> A, (tx || a))`` (see ``CFD.simplified``),
  which is the paper's point that such CFDs are meaningful and must not be
  thrown away as trivial.
- The intermediate ``MinCover`` call of Section 4.3 is implemented as the
  partitioned variant the authors describe (fixed-size blocks, so the
  worst-case complexity is unchanged); pass ``partition_size=None`` to
  disable it — the A2 ablation benchmark compares both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.cfd import CFD
from ..core.mincover import partitioned_min_cover
from ..core.values import leq, meet


@dataclass
class RBRStats:
    """Counters for RBR work, threaded in by the batch engine.

    ``resolvent_pairs`` counts producer x consumer combinations examined,
    ``resolvents_kept`` the nontrivial novel resolvents, ``drops`` the
    attributes eliminated and ``mincover_passes`` the intermediate
    partitioned-MinCover runs — the quantities the ablation benchmarks
    compare across engine configurations.
    """

    resolvent_pairs: int = 0
    resolvents_kept: int = 0
    drops: int = 0
    mincover_passes: int = 0


def a_resolvent(phi1: CFD, phi2: CFD, attribute: str) -> CFD | None:
    """The A-resolvent of *phi1* and *phi2*, or ``None`` when blocked.

    Requires *phi1* to derive *attribute* (RHS) and *phi2* to consume it
    (LHS).  ``None`` when the pattern order or a meet fails, or when the
    resolvent would still mention *attribute*.
    """
    if phi1.is_equality or phi2.is_equality:
        return None
    if phi1.rhs_attr != attribute or attribute in phi1.lhs_attrs:
        return None
    if attribute not in phi2.lhs_attrs or phi2.rhs_attr == attribute:
        return None
    if not leq(phi1.rhs_entry, phi2.lhs_entry(attribute)):
        return None

    merged = dict(phi1.lhs)
    for name, entry in phi2.lhs:
        if name == attribute:
            continue
        if name in merged:
            joined = meet(merged[name], entry)
            if joined is None:
                return None
            merged[name] = joined
        else:
            merged[name] = entry
    return CFD._from_items(
        phi2.relation, tuple(sorted(merged.items())), phi2.rhs, False
    ).simplified()


def resolvents(
    gamma: Sequence[CFD], attribute: str, stats: RBRStats | None = None
) -> list[CFD]:
    """``Res(Gamma, A)``: all nontrivial A-resolvents over *gamma*."""
    producers = [
        phi
        for phi in gamma
        if not phi.is_equality
        and phi.rhs_attr == attribute
        and attribute not in phi.lhs_attrs
    ]
    consumers = [
        phi
        for phi in gamma
        if not phi.is_equality and attribute in phi.lhs_attrs
    ]
    found: list[CFD] = []
    seen: set[CFD] = set()
    if stats is not None:
        stats.resolvent_pairs += len(producers) * len(consumers)
    for phi1 in producers:
        for phi2 in consumers:
            resolvent = a_resolvent(phi1, phi2, attribute)
            if resolvent is None or resolvent.is_trivial():
                continue
            if resolvent not in seen:
                seen.add(resolvent)
                found.append(resolvent)
    if stats is not None:
        stats.resolvents_kept += len(found)
    return found


def drop(
    gamma: Sequence[CFD], attribute: str, stats: RBRStats | None = None
) -> list[CFD]:
    """``Drop(Gamma, A) = Res(Gamma, A) ∪ Gamma[U - {A}]`` (one attribute)."""
    kept = [phi for phi in gamma if attribute not in phi.lhs_attrs + phi.rhs_attrs]
    if stats is not None:
        stats.drops += 1
    return kept + resolvents(gamma, attribute, stats=stats)


def rbr(
    sigma: Iterable[CFD],
    drop_attributes: Iterable[str],
    partition_size: int | None = 40,
    stats: RBRStats | None = None,
    kernel: str | None = None,
) -> list[CFD]:
    """``RBR(Sigma, U - Y)``: drop every attribute outside the projection.

    *partition_size* enables the intermediate partitioned MinCover pass
    after each drop (Section 4.3's optimization); ``None`` disables it.
    Attributes are dropped in sorted order for determinism.  *stats*
    accumulates work counters (used by the batch engine's ablations);
    *kernel* selects the MinCover implication tests.
    """
    gamma: list[CFD] = []
    seen: set[CFD] = set()
    for dep in sigma:
        for phi in dep.normalize():
            phi = phi.simplified()
            if not phi.is_trivial() and phi not in seen:
                seen.add(phi)
                gamma.append(phi)

    # The intermediate MinCover exists to curb *growth* from resolvents;
    # most drops shrink Gamma (every CFD touching the attribute leaves),
    # and re-minimizing an already shrinking set is pure overhead.  Run
    # it only when Gamma grew beyond the last minimized size.
    last_size = len(gamma)
    for attribute in sorted(set(drop_attributes)):
        gamma = drop(gamma, attribute, stats=stats)
        if (
            partition_size is not None
            and len(gamma) > partition_size
            and len(gamma) > 1.2 * last_size
        ):
            gamma = partitioned_min_cover(gamma, partition_size, kernel=kernel)
            if stats is not None:
                stats.mincover_passes += 1
            last_size = len(gamma)
        else:
            last_size = min(last_size, len(gamma))
    return gamma
