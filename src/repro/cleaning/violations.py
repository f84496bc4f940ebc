"""CFD-based inconsistency detection (the paper's data-cleaning motivation).

CFDs were proposed for data cleaning [8]: a violation of a CFD pinpoints
dirty tuples.  This module turns the satisfaction semantics into a
reporting tool over concrete instances:

- :func:`detect` runs a set of rules against a database and returns
  structured :class:`Violation` records (rule, kind, offending tuples).
- :func:`summarize` aggregates violations per rule — the shape of output
  a cleaning dashboard consumes.

Combined with propagation analysis this implements the workflow of
Section 1's application (3): rules *propagated* from the sources need not
be validated on the view at all; the remaining rules run through
:func:`detect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..algebra.instance import DatabaseInstance, Relation
from ..core.cfd import CFD, normal_forms
from ..core.fd import FD


@dataclass(frozen=True)
class Violation:
    """One witnessed violation of a rule.

    ``kind`` is ``"constant"`` for single-tuple failures (the tuple does
    not carry the RHS pattern constant), ``"conflict"`` for pair failures
    (two tuples agree on the LHS but differ on the RHS) and ``"equality"``
    for failures of the ``(x || x)`` form.
    """

    rule: CFD
    kind: str
    tuples: tuple[Mapping[str, Any], ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Violation({self.kind}, rule={self.rule}, tuples={len(self.tuples)})"


def detect_in_rows(
    rules: Iterable[CFD | FD], rows: Sequence[Mapping[str, Any]]
) -> list[Violation]:
    """All violations of *rules* over a single collection of rows."""
    violations: list[Violation] = []
    for rule in normal_forms(rules):
        for witness in rule.violations(rows):
            if rule.is_equality:
                kind = "equality"
            elif len(witness) == 1:
                kind = "constant"
            else:
                kind = "conflict"
            violations.append(Violation(rule, kind, tuple(witness)))
    return violations


def detect(
    rules: Iterable[CFD | FD], database: DatabaseInstance | Relation
) -> list[Violation]:
    """All violations of *rules* over a database or a single relation.

    Rules are matched to relations by name; rules naming relations absent
    from the database raise ``KeyError`` (silently skipping rules hides
    configuration mistakes).
    """
    if isinstance(database, Relation):
        rows_by_relation = {database.schema.name: database.rows}
    else:
        rows_by_relation = {
            name: rel.rows for name, rel in database.relations.items()
        }
    violations: list[Violation] = []
    for rule in normal_forms(rules):
        if rule.relation not in rows_by_relation:
            raise KeyError(
                f"rule {rule} names relation {rule.relation!r}, which the "
                "database does not contain"
            )
        violations.extend(detect_in_rows([rule], rows_by_relation[rule.relation]))
    return violations


@dataclass
class RuleSummary:
    """Aggregate statistics for one rule."""

    rule: CFD
    constant_violations: int = 0
    conflict_violations: int = 0
    equality_violations: int = 0
    dirty_tuples: int = 0

    @property
    def total(self) -> int:
        return (
            self.constant_violations
            + self.conflict_violations
            + self.equality_violations
        )


def summarize(violations: Iterable[Violation]) -> list[RuleSummary]:
    """Per-rule aggregates, sorted by total violations (descending)."""
    by_rule: dict[CFD, RuleSummary] = {}
    dirty: dict[CFD, set] = {}
    for violation in violations:
        summary = by_rule.setdefault(violation.rule, RuleSummary(violation.rule))
        if violation.kind == "constant":
            summary.constant_violations += 1
        elif violation.kind == "conflict":
            summary.conflict_violations += 1
        else:
            summary.equality_violations += 1
        bucket = dirty.setdefault(violation.rule, set())
        for tup in violation.tuples:
            bucket.add(tuple(sorted(tup.items())))
    for rule, summary in by_rule.items():
        summary.dirty_tuples = len(dirty[rule])
    return sorted(by_rule.values(), key=lambda s: -s.total)
