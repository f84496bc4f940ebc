"""CFD implication: ``Sigma |= phi``.

Implication is the degenerate propagation problem where the view is the
identity mapping (Corollary 3.6).  In the infinite-domain setting it is
decidable in quadratic time [Fan et al., TODS]; with finite-domain
attributes it is coNP-complete.  Both procedures here are chase-based:

1. Build the *canonical 2-tuple instance* for ``phi = (X -> A, tp)``:
   two tuples over ``R`` that share a value on every ``X`` attribute
   (the pattern constant when ``tp[X]`` gives one, a shared variable
   otherwise) and carry fresh distinct variables elsewhere.
2. Chase with ``Sigma``.
3. ``Sigma |= phi`` iff the chase is undefined (no pair of tuples can
   match the premise in any instance satisfying ``Sigma`` — vacuous
   implication) or the chase forces the two RHS cells to be equal and,
   when ``tp[A]`` is a constant, equal to it.

The general setting wraps step 2-3 in an enumeration over instantiations
of finite-domain variables: ``Sigma |= phi`` iff *every* instantiation
passes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .cfd import CFD, as_cfd, normal_forms
from .chase import (
    ChaseStatus,
    SymbolicInstance,
    SymVar,
    Value,
    VarFactory,
    chase,
    chase_with_instantiations,
    premise_positions,
)
from .domains import Domain, STRING
from .schema import RelationSchema
from .values import Const, is_const, is_wildcard, leq


def _domain_of(schema: RelationSchema | None, attribute: str) -> Domain:
    if schema is None:
        return STRING
    return schema.domain_of(attribute)


def _attributes_for(
    phi: CFD, sigma: Iterable[CFD], schema: RelationSchema | None
) -> list[str]:
    """The attribute universe the canonical instance must cover."""
    if schema is not None:
        return list(schema.attribute_names)
    names: set[str] = set(phi.attributes)
    for dep in sigma:
        if dep.relation == phi.relation:
            names.update(dep.attributes)
    return sorted(names)


def canonical_pair_instance(
    phi: CFD,
    sigma: Iterable[CFD],
    schema: RelationSchema | None = None,
) -> tuple[SymbolicInstance, dict[str, Value], dict[str, Value]]:
    """The 2-tuple instance encoding a hypothetical violation of *phi*.

    Returns the instance together with the two rows (shared references, so
    chase results are observable through them).
    """
    factory = VarFactory()
    instance = SymbolicInstance()
    attributes = _attributes_for(phi, sigma, schema)
    lhs = dict(phi.lhs)

    row1: dict[str, Value] = {}
    row2: dict[str, Value] = {}
    for name in attributes:
        domain = _domain_of(schema, name)
        entry = lhs.get(name)
        if entry is not None and is_const(entry):
            row1[name] = entry.value
            row2[name] = entry.value
        elif entry is not None and is_wildcard(entry):
            shared = factory.fresh(domain)
            row1[name] = shared
            row2[name] = shared
        else:
            row1[name] = factory.fresh(domain)
            row2[name] = factory.fresh(domain)
    stored1 = instance.add_tuple(phi.relation, row1)
    stored2 = instance.add_tuple(phi.relation, row2)
    return instance, stored1, stored2


def _pair_conclusion_holds(
    instance: SymbolicInstance,
    row1: Mapping[str, Value],
    row2: Mapping[str, Value],
    phi: CFD,
) -> bool:
    """After a successful chase, does the conclusion of *phi* hold by force?"""
    attr = phi.rhs_attr
    entry = phi.rhs_entry
    left = instance.resolve(row1[attr])
    right = instance.resolve(row2[attr])
    if left != right:
        return False
    if is_const(entry):
        return left == entry.value
    return True


def _equality_conclusion_holds(
    instance: SymbolicInstance, row: Mapping[str, Value], phi: CFD
) -> bool:
    a = phi.lhs[0][0]
    b = phi.rhs[0][0]
    return instance.resolve(row[a]) == instance.resolve(row[b])


def implies(
    sigma: Iterable[CFD],
    phi: CFD,
    schema: RelationSchema | None = None,
    max_instantiations: int | None = None,
) -> bool:
    """Decide ``Sigma |= phi``.

    With *schema* given, finite-domain attributes are honoured and the
    general-setting (coNP) procedure runs — exhaustively unless
    ``max_instantiations`` caps the enumeration, in which case the result
    is *sound for non-implication* (a found counterexample is real) but a
    ``True`` answer may be optimistic.  Without finite-domain attributes
    the single chase is both sound and complete (PTIME).

    Plain FDs are accepted on either side (embedded as all-wildcard
    CFDs), mirroring ``propagates``.
    """
    phi = as_cfd(phi)
    sigma = normal_forms(dep for dep in sigma if dep.relation == phi.relation)
    fast_paths = schema is None or not schema.has_finite_domain_attribute()

    for normal_phi in phi.normalize():
        if normal_phi.is_trivial():
            continue
        if normal_phi.is_equality:
            implied = _implied_equality(
                sigma, normal_phi, schema, max_instantiations
            )
        else:
            relevant = sigma
            if fast_paths:
                quick, closure = _quick_verdict(sigma, normal_phi)
                if quick is not None:
                    if not quick:
                        return False
                    continue
                if closure is not None:
                    # Only rules that could ever fire in the canonical
                    # chase (see _fires_abstractly) can influence the
                    # outcome; drop the rest to keep the chase small.
                    relevant = [
                        dep
                        for dep in sigma
                        if _fires_abstractly(dep, closure)
                    ]
            implied = _implied_normal(
                relevant, normal_phi, schema, max_instantiations
            )
        if not implied:
            return False
    return True


def _quick_verdict(
    sigma: list[CFD], phi: CFD
) -> tuple[bool | None, frozenset[str] | None]:
    """Chase-free fast paths for the infinite-domain setting.

    Returns ``True``/``False`` only when the answer is certain; ``None``
    sends the query to the chase.  Two screens:

    *Subsumption* (fast True): some ``psi = (Z -> A, sp)`` with
    ``Z ⊆ X``, each ``tp[a] <= sp[a]`` on ``Z`` and ``sp[A] <= tp[A]``
    directly implies ``phi = (X -> A, tp)``.

    *Reachability* (fast False): the chase can only write to an attribute
    through a rule concluding it, and a rule only fires once all its LHS
    attributes are "active" (shared by the canonical pair or written).
    If ``A`` is unreachable from ``X`` at the attribute level and no pair
    of firable rules could force conflicting constants (which would make
    the premise unsatisfiable and the implication vacuous), the chase
    cannot identify the RHS cells, so ``phi`` is not implied.  Equality
    CFDs alias attributes and disable the screen.
    """
    lhs_attrs = set(phi.lhs_attrs)
    lhs = dict(phi.lhs)
    if any(dep.is_equality for dep in sigma):
        return None, None

    for dep in sigma:
        if dep.rhs_attr != phi.rhs_attr:
            continue
        if not set(dep.lhs_attrs) <= lhs_attrs:
            continue
        if not leq(dep.rhs_entry, phi.rhs_entry):
            continue
        if all(leq(lhs[a], e) for a, e in dep.lhs):
            return True, None

    closure = set(lhs_attrs)
    changed = True
    while changed:
        changed = False
        for dep in sigma:
            if dep.rhs_attr in closure:
                continue
            if _fires_abstractly(dep, closure):
                closure.add(dep.rhs_attr)
                changed = True
    frozen = frozenset(closure)
    if phi.rhs_attr in closure:
        return None, frozen

    constants: dict[str, set] = {}
    for attr, entry in phi.lhs:
        if is_const(entry):
            constants.setdefault(attr, set()).add(entry.value)
    for dep in sigma:
        if is_const(dep.rhs_entry) and _fires_abstractly(dep, closure):
            constants.setdefault(dep.rhs_attr, set()).add(dep.rhs_entry.value)
    if any(len(values) > 1 for values in constants.values()):
        return None, frozen  # a vacuous implication is possible; chase decides
    return False, frozen


def _fires_abstractly(dep: CFD, closure: set[str] | frozenset[str]) -> bool:
    """Attribute-level over-approximation of "this rule could fire".

    The single-tuple rule of a constant-RHS CFD places no requirement on
    wildcard LHS positions (any value matches), so only its constant LHS
    positions must be active.  The pair rule of a wildcard-RHS CFD needs
    forced equality on every LHS position, hence all of them active.
    """
    const_rhs = is_const(dep.rhs_entry)
    for attr, entry in dep.lhs:
        if const_rhs and is_wildcard(entry):
            continue
        if attr not in closure:
            return False
    return True


def _implied_normal(
    sigma: list[CFD],
    phi: CFD,
    schema: RelationSchema | None,
    max_instantiations: int | None,
) -> bool:
    instance, row1, row2 = canonical_pair_instance(phi, sigma, schema)
    rhs = phi.rhs_attr
    for result in chase_with_instantiations(
        instance,
        sigma,
        limit=max_instantiations,
        positions=premise_positions(sigma),
        extra_values=(row1[rhs], row2[rhs]),
    ):
        if result.status is ChaseStatus.UNDEFINED:
            continue
        # Re-check the premise: an instantiation may have broken the
        # forced equality of the X cells (e.g. a finite-domain variable
        # pair assigned different values cannot witness a violation) or
        # violated a constant in tp[X].
        if not _premise_survives(result.instance, phi):
            continue
        if not _pair_conclusion_holds(result.instance, row1, row2, phi):
            return False
    return True


def _premise_survives(instance: SymbolicInstance, phi: CFD) -> bool:
    rows = instance.rows(phi.relation)
    row1, row2 = rows[0], rows[1]
    for name, entry in phi.lhs:
        left = instance.resolve(row1[name])
        right = instance.resolve(row2[name])
        if left != right:
            return False
        if is_const(entry):
            assert isinstance(entry, Const)
            if not isinstance(left, SymVar) and left != entry.value:
                return False
    return True


def _implied_equality(
    sigma: list[CFD],
    phi: CFD,
    schema: RelationSchema | None,
    max_instantiations: int | None,
) -> bool:
    factory = VarFactory()
    instance = SymbolicInstance()
    attributes = _attributes_for(phi, sigma, schema)
    row = {
        name: factory.fresh(_domain_of(schema, name)) for name in attributes
    }
    stored = instance.add_tuple(phi.relation, row)
    a = phi.lhs[0][0]
    b = phi.rhs[0][0]
    for result in chase_with_instantiations(
        instance,
        sigma,
        limit=max_instantiations,
        positions=premise_positions(sigma),
        extra_values=(stored[a], stored[b]),
    ):
        if result.status is ChaseStatus.UNDEFINED:
            continue
        if not _equality_conclusion_holds(result.instance, stored, phi):
            return False
    return True


def equivalent(
    first: Iterable[CFD],
    second: Iterable[CFD],
    schema: RelationSchema | None = None,
) -> bool:
    """Whether two CFD sets imply each other."""
    first = list(first)
    second = list(second)
    return all(implies(second, phi, schema) for phi in first) and all(
        implies(first, phi, schema) for phi in second
    )
