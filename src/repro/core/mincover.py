"""``MinCover``: minimal covers of CFD sets (Section 4.1).

A *minimal cover* of ``Sigma`` is an equivalent subset with neither
redundant CFDs nor redundant LHS attributes: for every
``phi = R(X -> A, tp)`` in the cover there is no proper ``Z`` of ``X``
such that replacing ``phi`` by ``phi' = R(Z -> A, (tp[Z] || tp[A]))``
still implies ``phi``.  Only nontrivial CFDs are kept.

The procedure follows [8] (cubic in ``|Sigma|`` given the quadratic
implication test): normalize, drop trivial CFDs, trim LHS attributes, then
drop redundant CFDs.  It is used three ways by ``PropCFD_SPC``:

- to simplify the input source CFDs (Figure 2, line 1),
- partition-wise during ``RBR`` to curb intermediate growth (the paper's
  Section 4.3 optimization), and
- on the final result (Figure 2, line 13).

With ``kernel="bitset"`` and no finite-domain attribute, both passes run
their implication tests on one compiled
:class:`~repro.kernel.implication.ImplicationProgram` per relation — a
chase on bitmasks rather than ``SymVar`` cells — instead of calling
:func:`~repro.core.implication.implies`.  LHS trimming tests each
candidate as a kept-items mask of its compiled rule against the full
Sigma; redundancy removal re-masks the trimmed rules on the same program
and tests each rule with itself retired from the alive-rule mask.  The
covers are identical; any other setting runs the baseline tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .cfd import CFD
from .implication import implies
from .schema import RelationSchema
from .values import is_const, is_wildcard

if TYPE_CHECKING:
    from ..kernel.implication import ImplicationProgram


def min_cover(
    sigma: Iterable[CFD],
    schema: RelationSchema | None = None,
    kernel: str | None = None,
) -> list[CFD]:
    """Compute a minimal cover of *sigma*.

    Deterministic: CFDs are processed in sorted (repr) order so the same
    input always yields the same cover.  The result consists of
    normal-form, nontrivial CFDs.  *kernel* ``"bitset"`` runs the
    implication tests on the compiled program (see the module docstring).
    """
    normalized: list[CFD] = []
    for dep in sigma:
        for phi in dep.normalize():
            phi = phi.simplified()
            if not phi.is_trivial():
                normalized.append(phi)

    # Implication never crosses relations, so minimize each relation's
    # CFDs independently (this also keeps the implication tests small).
    by_relation: dict[str, list[CFD]] = {}
    for phi in normalized:
        by_relation.setdefault(phi.relation, []).append(phi)

    packed = kernel == "bitset" and (
        schema is None or not schema.has_finite_domain_attribute()
    )
    result: list[CFD] = []
    for relation in sorted(by_relation):
        result.extend(_min_cover_relation(by_relation[relation], schema, packed))
    return result


def _min_cover_relation(
    sigma: list[CFD], schema: RelationSchema | None, packed: bool
) -> list[CFD]:
    current = list(set(sigma))
    keys = {id(phi): repr(phi) for phi in current}  # sort keys, built once
    current.sort(key=lambda phi: keys[id(phi)])
    if packed:
        cover = _min_cover_packed(current, keys)
        if cover is not None:
            return cover

    current = [_trim_lhs(phi, current, schema) for phi in current]
    current = sorted(set(current), key=repr)

    result = list(current)
    for phi in list(current):
        if phi not in result:
            continue
        rest = [other for other in result if other != phi]
        if implies(rest, phi, schema):
            result = rest
    return result


def _trim_lhs(
    phi: CFD, sigma: list[CFD], schema: RelationSchema | None
) -> CFD:
    """Remove redundant LHS attributes from *phi* w.r.t. *sigma*.

    Attribute ``B`` is redundant when the strengthened CFD with ``B``
    dropped is already implied by the full set; dropping it can only make
    ``phi`` stronger, so the set stays equivalent.
    """
    if phi.is_equality:
        return phi
    trimmed = phi
    for name, _ in list(trimmed.lhs):
        if len(trimmed.lhs) <= 1:
            break
        candidate = trimmed.drop_lhs_attribute(name)
        if candidate.is_trivial():
            continue
        if implies(sigma, candidate, schema):
            trimmed = candidate
    return trimmed


def _min_cover_packed(current: list[CFD], keys: dict[int, str]) -> list[CFD] | None:
    """Both MinCover passes on one compiled program (same cover as baseline).

    Trimming tests each candidate as a kept-items mask of its rule against
    the full Sigma; redundancy removal re-masks the trimmed rules, retires
    copies of earlier ones and tests each in ``repr`` order with itself
    retired from the alive mask, reusing *keys* (``repr`` by object id:
    ``Const(1) == Const(1.0)``, but their ``repr`` differs) for every rule
    trimming left as it was.  ``None`` when a constant cannot be keyed.
    """
    # Imported on use, like the other kernel seams below core.
    from ..kernel.implication import ImplicationProgram

    program = ImplicationProgram.compile(current)
    if program is None:
        return None
    trimmed = [_trim_lhs_packed(phi, rule, program) for rule, phi in enumerate(current)]
    first: dict[CFD, int] = {}
    for rule, phi in enumerate(trimmed):
        if phi is not current[rule]:
            program.replace(rule, phi)
        if first.setdefault(phi, rule) != rule:
            program.retire(rule)  # a duplicate of an earlier rule
    order = sorted(
        first.values(), key=lambda rule: keys.get(id(trimmed[rule])) or repr(trimmed[rule])
    )
    for rule in order:
        program.retire(rule)
        if not program.implies_rule(rule):
            program.revive(rule)
    return [trimmed[rule] for rule in order if program.alive[rule]]


def _trim_lhs_packed(phi: CFD, rule: int, program: "ImplicationProgram") -> CFD:
    """:func:`_trim_lhs` on *program*'s rule *rule* (which is *phi*).

    A candidate is never trivial here: it keeps *phi*'s entry for the RHS
    attribute, and *phi* is nontrivial.  A wildcard item of a
    constant-RHS rule constrains no single tuple, so the candidate without
    it is equivalent to *phi*, which is in the Sigma trimmed against: it
    is dropped without a test.
    """
    if phi.is_equality:
        return phi
    lhs = phi.lhs
    const_rhs = is_const(phi.rhs_entry)
    keep = (1 << len(lhs)) - 1
    kept = len(lhs)
    for position, (_, entry) in enumerate(lhs):
        if kept <= 1:
            break
        candidate = keep & ~(1 << position)
        if (const_rhs and is_wildcard(entry)) or program.implies_rule(rule, candidate):
            keep = candidate
            kept -= 1
    if kept == len(lhs):
        return phi
    items = tuple(item for position, item in enumerate(lhs) if keep >> position & 1)
    return CFD._from_items(phi.relation, items, phi.rhs, False)


def partitioned_min_cover(
    sigma: Iterable[CFD],
    partition_size: int,
    schema: RelationSchema | None = None,
    kernel: str | None = None,
) -> list[CFD]:
    """MinCover applied partition-wise (the paper's RBR optimization).

    Partitions *sigma* into blocks of ``partition_size`` and minimizes each
    independently: removes redundancy "to an extent, without increasing the
    worst-case complexity" (Section 4.3) — each block costs
    ``O(partition_size^2)`` implication tests.
    """
    sigma = list(sigma)
    if partition_size <= 0:
        raise ValueError("partition_size must be positive")
    result: list[CFD] = []
    for start in range(0, len(sigma), partition_size):
        block = sigma[start : start + partition_size]
        result.extend(min_cover(block, schema, kernel=kernel))
    return result
