"""The extended chase over symbolic instances.

Every decision procedure in the paper — CFD implication, consistency,
propagation via SPCU views (Theorems 3.1/3.5), emptiness (Theorems 3.7/3.8)
and their general-setting variants — reduces to running a *chase* over a
small symbolic instance whose cells are constants or ordered variables.

The chase rules are the two cases of the Theorem 3.7 proof:

- **Case 1** (RHS pattern ``'_'``): for tuples ``t, t'`` that agree on ``X``
  and (necessarily) match ``tp[X]``, equalize ``t[A]`` and ``t'[A]`` —
  merging two variables toward the smaller one, binding a variable to a
  constant, or failing on two distinct constants.
- **Case 2** (RHS pattern a constant ``a``): any tuple matching ``tp[X]``
  must have ``t[A] = a``; bind or fail.

A rule fires only when its premise is *forced*: a variable never matches a
constant pattern entry (it might take a different value), and two cells are
equal only when they resolve to the same variable or the same constant.
This is exactly what makes the final tableau instantiate to a satisfying
instance when the chase terminates without failure: assigning pairwise
distinct fresh constants to the surviving variables cannot trigger any CFD.

The chase terminates because every merge or binding strictly decreases the
number of distinct symbolic values; an undefined ("failed") chase means the
symbolic instance is unsatisfiable under the dependencies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .cfd import CFD
from .domains import Domain
from .values import Const, is_const, is_wildcard


@dataclass(frozen=True, slots=True, order=True)
class SymVar:
    """A chase variable with a total order (merge direction) and a domain."""

    id: int
    domain: Domain = field(compare=False, default=Domain("string"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"v{self.id}"


Value = Any  # SymVar or a plain constant


class VarFactory:
    """Hands out fresh, totally ordered chase variables."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self, domain: Domain) -> SymVar:
        var = SymVar(self._next, domain)
        self._next += 1
        return var


class ChaseStatus(Enum):
    """Outcome of a chase run."""

    SATISFIABLE = "satisfiable"
    UNDEFINED = "undefined"


class SymbolicInstance:
    """A multi-relation instance whose cells are constants or variables.

    Tuples are stored as attribute-name -> value dicts.  A substitution
    environment maps merged variables to their representatives; cells are
    read through :meth:`resolve`.
    """

    def __init__(self) -> None:
        self.relations: dict[str, list[dict[str, Value]]] = {}
        self._env: dict[SymVar, Value] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def add_tuple(self, relation: str, row: Mapping[str, Value]) -> dict[str, Value]:
        """Store a tuple.  The stored dict must never be mutated afterwards
        (all later refinement goes through the substitution environment);
        :meth:`copy` relies on this to share rows between forks."""
        stored = dict(row)
        self.relations.setdefault(relation, []).append(stored)
        return stored

    def copy(self) -> "SymbolicInstance":
        """A fork of this instance sharing the row storage.

        Row dicts are immutable after :meth:`add_tuple` — every chase step
        mutates only the substitution environment — so copies share them
        structurally (hash-consed tuples) and fork only ``_env`` and the
        per-relation row *lists*.  This turns the copy done before every
        chase from O(cells) into O(rows + env), which is what makes the
        batch engine's cached-skeleton reuse cheap.
        """
        clone = SymbolicInstance()
        clone.relations = {rel: list(rows) for rel, rows in self.relations.items()}
        clone._env = dict(self._env)
        return clone

    # ------------------------------------------------------------------
    # Substitution environment.
    # ------------------------------------------------------------------

    def resolve(self, value: Value) -> Value:
        """Follow the substitution chain to the current representative."""
        seen = []
        while isinstance(value, SymVar) and value in self._env:
            seen.append(value)
            value = self._env[value]
        for var in seen[:-1]:
            self._env[var] = value
        return value

    def bind(self, var: SymVar, value: Value) -> None:
        self._env[var] = value

    def equate(self, left: Value, right: Value) -> bool:
        """Equalize two cells; return False when they are distinct constants.

        Variable-variable merges are directed toward the ``<``-smaller
        variable, matching the appendix ("let t[A] = t'[A] if
        t'[A] <= t[A]").
        """
        left = self.resolve(left)
        right = self.resolve(right)
        if left == right:
            return True
        left_var = isinstance(left, SymVar)
        right_var = isinstance(right, SymVar)
        if left_var and right_var:
            if right < left:
                self.bind(left, right)
            else:
                self.bind(right, left)
            return True
        if left_var:
            self.bind(left, right)
            return True
        if right_var:
            self.bind(right, left)
            return True
        return False

    # ------------------------------------------------------------------
    # Views of the data.
    # ------------------------------------------------------------------

    def rows(self, relation: str) -> list[dict[str, Value]]:
        return self.relations.get(relation, [])

    def resolved_row(self, row: Mapping[str, Value]) -> dict[str, Value]:
        return {name: self.resolve(value) for name, value in row.items()}

    def variables(self) -> list[SymVar]:
        """All distinct live (representative) variables, in order."""
        found: set[SymVar] = set()
        for rows in self.relations.values():
            for row in rows:
                for value in row.values():
                    value = self.resolve(value)
                    if isinstance(value, SymVar):
                        found.add(value)
        return sorted(found)

    def finite_domain_variables(self) -> list[SymVar]:
        return [v for v in self.variables() if v.domain.is_finite]

    def instantiate(self, factory_prefix: str = "fresh") -> "SymbolicInstance":
        """Replace surviving variables by pairwise distinct fresh constants.

        Only valid after a successful chase; the result is a concrete
        instance (as a :class:`SymbolicInstance` whose cells are constants).
        Fresh constants are drawn per domain, avoiding constants already
        present anywhere in the instance.
        """
        taken: set[Any] = set()
        for rows in self.relations.values():
            for row in rows:
                for value in row.values():
                    value = self.resolve(value)
                    if not isinstance(value, SymVar):
                        taken.add(value)
        clone = self.copy()
        for var in clone.variables():
            if var.domain.is_finite:
                # Surviving finite-domain variables are unconstrained
                # (either the caller enumerated all premise positions, or
                # no dependency reads them): any domain value will do, and
                # distinctness is preferred but not required.
                remaining = [v for v in var.domain if v not in taken]
                fresh = remaining[0] if remaining else next(iter(var.domain))
            else:
                fresh = var.domain.fresh_constants(1, taken=list(taken))[0]
            taken.add(fresh)
            clone.bind(var, fresh)
        return clone

    def concrete(self) -> dict[str, list[dict[str, Any]]]:
        """Materialize fully resolved rows (must contain no variables)."""
        out: dict[str, list[dict[str, Any]]] = {}
        for rel, rows in self.relations.items():
            materialized = []
            for row in rows:
                resolved = self.resolved_row(row)
                if any(isinstance(v, SymVar) for v in resolved.values()):
                    raise ValueError("instance still contains variables")
                materialized.append(resolved)
            out[rel] = materialized
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for rel, rows in self.relations.items():
            rendered = ", ".join(str(self.resolved_row(r)) for r in rows)
            parts.append(f"{rel}: [{rendered}]")
        return "SymbolicInstance(" + "; ".join(parts) + ")"


def _premise_forced(
    instance: SymbolicInstance, row: Mapping[str, Value], cfd: CFD
) -> bool:
    """Whether *row* necessarily matches the LHS pattern of *cfd*.

    Constants must equal the pattern constant; variables match only the
    wildcard (they could take other values, so a rule must not fire).
    """
    for name, entry in cfd.lhs:
        if is_wildcard(entry):
            continue
        value = instance.resolve(row[name])
        if isinstance(value, SymVar):
            return False
        assert isinstance(entry, Const)
        if value != entry.value:
            return False
    return True


def _apply_cfd(instance: SymbolicInstance, cfd: CFD) -> tuple[bool, bool]:
    """Apply one normal-form CFD once; returns (changed, ok)."""
    changed = False

    if cfd.is_equality:
        a = cfd.lhs[0][0]
        b = cfd.rhs[0][0]
        for row in instance.rows(cfd.relation):
            left = instance.resolve(row[a])
            right = instance.resolve(row[b])
            if left != right:
                if not instance.equate(left, right):
                    return changed, False
                changed = True
        return changed, True

    rhs_attr = cfd.rhs_attr
    rhs_entry = cfd.rhs_entry
    matching: list[dict[str, Value]] = [
        row
        for row in instance.rows(cfd.relation)
        if _premise_forced(instance, row, cfd)
    ]

    if is_const(rhs_entry):
        # Case 2: single-tuple rule.
        target = rhs_entry.value
        for row in matching:
            value = instance.resolve(row[rhs_attr])
            if value == target:
                continue
            if isinstance(value, SymVar):
                instance.bind(value, target)
                changed = True
            else:
                return changed, False
        return changed, True

    # Case 1: pair rule.  Two rows agree on X only when their resolved X
    # cells are *identical* symbolic values (same variable or same
    # constant), so grouping by the resolved key captures exactly the
    # forced-equal pairs.
    groups: dict[tuple[Value, ...], dict[str, Value]] = {}
    for row in matching:
        key = tuple(instance.resolve(row[name]) for name, _ in cfd.lhs)
        anchor = groups.get(key)
        if anchor is None:
            groups[key] = row
            continue
        left = instance.resolve(anchor[rhs_attr])
        right = instance.resolve(row[rhs_attr])
        if left != right:
            if not instance.equate(left, right):
                return changed, False
            changed = True
    return changed, True


@dataclass
class ChaseResult:
    """Outcome of :func:`chase`: final instance plus status."""

    status: ChaseStatus
    instance: SymbolicInstance
    steps: int = 0

    @property
    def undefined(self) -> bool:
        return self.status is ChaseStatus.UNDEFINED


def chase(instance: SymbolicInstance, dependencies: Iterable[CFD]) -> ChaseResult:
    """Run the extended chase to fixpoint (mutates *instance*).

    *dependencies* may be general-form CFDs; they are normalized first.
    Returns :class:`ChaseResult`; status ``UNDEFINED`` means the symbolic
    instance cannot be realized under the dependencies.
    """
    normalized: list[CFD] = []
    for dep in dependencies:
        normalized.extend(dep.normalize())

    steps = 0
    changed = True
    while changed:
        changed = False
        for cfd in normalized:
            step_changed, ok = _apply_cfd(instance, cfd)
            steps += 1
            if not ok:
                return ChaseResult(ChaseStatus.UNDEFINED, instance, steps)
            if step_changed:
                changed = True
    return ChaseResult(ChaseStatus.SATISFIABLE, instance, steps)


def finite_domain_assignments(
    variables: Sequence[SymVar], limit: int | None = None
) -> Iterator[dict[SymVar, Any]]:
    """Enumerate all instantiations of finite-domain variables.

    This is the nondeterministic guess of the general-setting (coNP/NP)
    procedures, made deterministic by exhaustive enumeration.  ``limit``
    caps the number of assignments (the paper's heuristic escape hatch);
    ``None`` enumerates everything.
    """
    domains = [list(v.domain) for v in variables]
    count = 0
    for combo in itertools.product(*domains):
        if limit is not None and count >= limit:
            return
        count += 1
        yield dict(zip(variables, combo))


def premise_positions(dependencies: Iterable[CFD]) -> dict[str, set[str]]:
    """The (relation, attribute) positions read by some rule premise.

    Chase rules fire on LHS cells only (equality-form CFDs read both
    sides).  A finite-domain variable occurring exclusively outside these
    positions can never enable, disable, or fail a rule, so the
    general-setting enumeration need not branch on it.
    """
    positions: dict[str, set[str]] = {}
    for dep in dependencies:
        bucket = positions.setdefault(dep.relation, set())
        bucket.update(dep.lhs_attrs)
        if dep.is_equality:
            bucket.update(dep.rhs_attrs)
    return positions


def _branchable_variable(
    instance: SymbolicInstance,
    positions: dict[str, set[str]] | None,
    extra_values: Sequence[Value],
) -> SymVar | None:
    """The next finite-domain variable the enumeration must branch on."""
    if positions is None:
        finite_vars = instance.finite_domain_variables()
        return finite_vars[0] if finite_vars else None
    candidates: set[SymVar] = set()
    for rel, rows in instance.relations.items():
        watched = positions.get(rel)
        if not watched:
            continue
        for row in rows:
            for attr in watched:
                if attr not in row:
                    continue
                value = instance.resolve(row[attr])
                if isinstance(value, SymVar) and value.domain.is_finite:
                    candidates.add(value)
    for value in extra_values:
        value = instance.resolve(value)
        if isinstance(value, SymVar) and value.domain.is_finite:
            candidates.add(value)
    return min(candidates) if candidates else None


def chase_with_instantiations(
    instance: SymbolicInstance,
    dependencies: Iterable[CFD],
    limit: int | None = None,
    positions: dict[str, set[str]] | None = None,
    extra_values: Sequence[Value] = (),
    on_chase=None,
) -> Iterator[ChaseResult]:
    """Chase over every finite-domain instantiation, yielding survivors.

    Implements the general-setting guess-and-check procedures: conceptually
    one chase per total assignment of the finite-domain variables, with
    only the *satisfiable* outcomes yielded (undefined chases witness
    nothing, so every caller discards them).  When no finite-domain
    variables occur a single chase runs — the infinite-domain PTIME case.

    The enumeration backtracks instead of materializing the full
    cross-product: after each partial assignment the instance is chased,
    and a failed chase prunes every extension (chase derivations stay
    valid under specialization).  When *positions* is given (use
    :func:`premise_positions`), branching is further restricted to
    finite-domain variables occurring in rule-premise cells or among
    *extra_values* (the cells the caller's final check reads); variables
    outside those positions cannot influence any outcome and are left
    symbolic in the yielded results.  Worst-case behaviour is still
    exponential — the problems are coNP-complete — but the pruning makes
    the Theorem 3.2 reduction family tractable at test sizes.

    ``limit`` caps the number of yielded results (the paper's heuristic
    escape hatch); exhaustive enumeration needs ``limit=None``.
    ``on_chase`` (a zero-argument callable) is invoked once per internal
    chase run — instrumentation for callers that meter chase work.
    """
    dependencies = list(dependencies)
    budget = [limit]

    def search(current: SymbolicInstance) -> Iterator[ChaseResult]:
        if on_chase is not None:
            on_chase()
        result = chase(current, dependencies)
        if result.status is ChaseStatus.UNDEFINED:
            return
        var = _branchable_variable(result.instance, positions, extra_values)
        if var is None:
            if budget[0] is not None:
                if budget[0] <= 0:
                    return
                budget[0] -= 1
            yield result
            return
        for value in var.domain:
            if budget[0] is not None and budget[0] <= 0:
                return
            candidate = result.instance.copy()
            candidate.bind(var, value)
            yield from search(candidate)

    yield from search(instance.copy())
