"""Greedy CFD repair: make a dirty instance satisfy its rules.

A minimal-cost repair of CFD violations is NP-hard in general, so
production cleaners use heuristics.  This module implements a simple,
deterministic, greedy attribute-modification repair in the spirit of the
cost-based heuristics of the CFD cleaning literature:

- constant violations are repaired by writing the pattern constant,
- conflict violations by copying the RHS value of the group's anchor
  tuple (the first in insertion order — a stand-in for "most reliable"),
- equality violations by copying the left attribute onto the right.

The loop iterates to a fixpoint; repairing one rule can surface
violations of another.  A round bound guards pathological rule sets
(mutually unsatisfiable rules cannot be repaired by value modification
alone — the function then raises, mirroring the consistency analysis of
Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..algebra.instance import DatabaseInstance
from ..core.cfd import CFD, normal_forms
from ..core.fd import FD
from ..core.values import is_const, value_matches
from .violations import detect


@dataclass
class RepairEdit:
    """One cell rewrite performed by the repair."""

    relation: str
    tuple_before: Mapping[str, Any]
    attribute: str
    old_value: Any
    new_value: Any


class RepairFailed(ValueError):
    """The greedy repair did not converge (rules likely inconsistent)."""


def repair(
    rules: Iterable[CFD | FD],
    database: DatabaseInstance,
    max_rounds: int = 100,
) -> tuple[DatabaseInstance, list[RepairEdit]]:
    """A repaired copy of *database* plus the edit log.

    The input database is not modified.  The result satisfies every rule
    (verified before returning).
    """
    normalized = normal_forms(rules)
    rows_by_relation: dict[str, list[dict[str, Any]]] = {
        name: [dict(row) for row in rel.rows]
        for name, rel in database.relations.items()
    }
    edits: list[RepairEdit] = []

    for _ in range(max_rounds):
        changed = False
        for rule in normalized:
            rows = rows_by_relation.get(rule.relation, [])
            if _repair_rule(rule, rows, edits):
                changed = True
        if not changed:
            break
    else:
        raise RepairFailed(
            "greedy repair did not converge; the rules are likely "
            "mutually unsatisfiable by value modification"
        )

    repaired = DatabaseInstance(database.schema, rows_by_relation)
    leftovers = detect(normalized, repaired)
    if leftovers:  # pragma: no cover - the fixpoint guarantees this
        raise RepairFailed(f"repair left {len(leftovers)} violations")
    return repaired, edits


def _repair_rule(
    rule: CFD, rows: list[dict[str, Any]], edits: list[RepairEdit]
) -> bool:
    changed = False

    def rewrite(row: dict[str, Any], attribute: str, value: Any) -> None:
        nonlocal changed
        edits.append(
            RepairEdit(rule.relation, dict(row), attribute, row[attribute], value)
        )
        row[attribute] = value
        changed = True

    if rule.is_equality:
        a = rule.lhs[0][0]
        b = rule.rhs[0][0]
        for row in rows:
            if row[a] != row[b]:
                rewrite(row, b, row[a])
        return changed

    rhs_attr = rule.rhs_attr
    rhs_entry = rule.rhs_entry
    anchors: dict[tuple[Any, ...], dict[str, Any]] = {}
    for row in rows:
        if not all(value_matches(row[n], e) for n, e in rule.lhs):
            continue
        if is_const(rhs_entry) and row[rhs_attr] != rhs_entry.value:
            rewrite(row, rhs_attr, rhs_entry.value)
        key = tuple(row[n] for n, _ in rule.lhs)
        anchor = anchors.get(key)
        if anchor is None:
            anchors[key] = row
        elif row[rhs_attr] != anchor[rhs_attr]:
            rewrite(row, rhs_attr, anchor[rhs_attr])
    return changed
