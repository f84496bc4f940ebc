"""Random database instances satisfying a set of CFDs.

The paper's algorithm is schema-level (it never touches instances), but
the integration tests need concrete databases to *validate* propagation
empirically: generate ``D |= Sigma``, evaluate ``V(D)``, and check that
every CFD in the computed cover holds on the view.

Generation is repair-based: draw random rows, then run a fixpoint that
rewrites RHS values until every CFD is satisfied (pair violations copy the
first tuple's value, constant violations write the pattern constant).
The loop terminates because each pass strictly reduces the number of
violations on a finite instance or performs a full rewrite sweep; a
safety bound guards pathological inputs (an inconsistent ``Sigma`` can
make repair impossible — the generator then raises).
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

from ..algebra.instance import DatabaseInstance
from ..core.cfd import CFD, normal_forms
from ..core.domains import Domain
from ..core.fd import FD
from ..core.schema import DatabaseSchema
from ..core.values import is_const, value_matches
from .seeding import resolve_rng


def _random_value(rng: random.Random, domain: Domain, pool: int) -> Any:
    if domain.is_finite:
        return rng.choice(list(domain))
    return f"v{rng.randint(1, pool)}"


def random_satisfying_instance(
    rng: random.Random | None = None,
    schema: DatabaseSchema | None = None,
    sigma: Iterable[CFD | FD] = (),
    rows_per_relation: int = 20,
    value_pool: int = 8,
    max_repair_rounds: int = 200,
    *,
    seed: int | None = None,
) -> DatabaseInstance:
    """A random instance of *schema* satisfying every dependency in *sigma*.

    ``value_pool`` controls collision frequency: a small pool makes CFD
    premises fire often, which is what makes the resulting instances
    interesting test inputs.
    """
    rng = resolve_rng(rng, seed)
    if schema is None:
        raise TypeError("random_satisfying_instance needs a schema")
    normalized = normal_forms(sigma)

    rows_by_relation: dict[str, list[dict[str, Any]]] = {}
    for relation in schema:
        rows = []
        for _ in range(rows_per_relation):
            rows.append(
                {
                    a.name: _random_value(rng, a.domain, value_pool)
                    for a in relation.attributes
                }
            )
        rows_by_relation[relation.name] = rows

    for _ in range(max_repair_rounds):
        dirty = False
        for phi in normalized:
            rows = rows_by_relation.get(phi.relation, [])
            if _repair(phi, rows):
                dirty = True
        if not dirty:
            break
    else:
        raise ValueError(
            "repair did not converge; sigma is likely inconsistent"
        )

    return DatabaseInstance(schema, rows_by_relation)


def _repair(phi: CFD, rows: Sequence[dict[str, Any]]) -> bool:
    """One repair pass for a normal-form CFD; True when a row changed."""
    changed = False
    if phi.is_equality:
        a = phi.lhs[0][0]
        b = phi.rhs[0][0]
        for row in rows:
            if row[a] != row[b]:
                row[b] = row[a]
                changed = True
        return changed

    rhs_attr = phi.rhs_attr
    rhs_entry = phi.rhs_entry
    groups: dict[tuple[Any, ...], dict[str, Any]] = {}
    for row in rows:
        if not all(value_matches(row[n], e) for n, e in phi.lhs):
            continue
        if is_const(rhs_entry) and row[rhs_attr] != rhs_entry.value:
            row[rhs_attr] = rhs_entry.value
            changed = True
        key = tuple(row[n] for n, _ in phi.lhs)
        anchor = groups.get(key)
        if anchor is None:
            groups[key] = row
        elif row[rhs_attr] != anchor[rhs_attr]:
            row[rhs_attr] = anchor[rhs_attr]
            changed = True
    return changed
