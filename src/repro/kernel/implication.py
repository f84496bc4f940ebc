"""Compiled CFD implication for ``MinCover``: a chase on three bitmasks.

``core.implication.implies`` decides ``Sigma |= phi`` by re-normalising
Sigma, running its chase-free screens over every rule, building a
``SymbolicInstance`` of ``SymVar`` cells and chasing it with dict-based
rules — all of it from scratch for every test.  ``MinCover`` asks that
question once per candidate LHS attribute and once per rule, always
against the same (or one rule smaller) Sigma of a single relation.

:class:`ImplicationProgram` compiles that Sigma once and decides each
test on machine ints, in the style of ``kernel/closure.py``.  The state
is exact because of symmetry:

- the canonical two-tuple instance, phi's LHS coupling and every rule
  are unchanged when the two rows are swapped, and the chase is
  Church–Rosser, so the chased state is swap-symmetric (firing every
  single-tuple rule on both rows at once keeps each step symmetric);
- equality rules only ever equate two cells of one row, pair rules and
  the coupling only the two cells of one attribute.  Grouping attributes
  by the alive equality rules up front, every class is one attribute
  group, in one row or across both rows.

So a test's state is three bit fields of one int: ``agreed`` (groups
where the rows agree, by coupling or by carrying a constant), ``consts``
(groups that carry a constant) and ``facts`` (one bit per ``(group,
constant)`` literal Sigma mentions, and a test-local bit for a literal
only phi mentions).  Constants are keyed by value, so ``1``, ``1.0`` and
``True`` share a literal exactly as the baseline's ``==`` treats them.
Each rule compiles once to masks (:func:`_rule`); writing a constant to
a group that holds a different literal is the vacuous ``UNDEFINED``
outcome, so phi is implied.  An equality-form phi ``A = B`` is the
one-row question; pair rules never add a constant, so it reads the
groups' literals off the same state.

Sigma's chase of two fresh rows runs once per alive rule set; each test
adds phi's LHS coupling and rescans only the rules that had not fired
there.  The state only grows, so a test stops once phi's goal bit is set.

The program covers the infinite-domain setting only (no finite-domain
attribute).  Constants that are not equal to themselves (``nan``)
cannot be keyed faithfully; :meth:`ImplicationProgram.compile` returns
``None`` for such a Sigma and the caller runs the baseline.
``tests/test_implication_kernel.py`` compares every verdict with the
untouched ``core.implication.implies``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core.cfd import CFD
from ..core.values import Const, is_special

__all__ = ["ImplicationProgram"]


class _Uninternable(ValueError):
    """A constant the mask program cannot key (e.g. ``nan``)."""


class ImplicationProgram:
    """One relation's normal-form Sigma compiled for repeated ``|=`` tests.

    ``alive`` masks rules out of Sigma without recompiling: MinCover's
    redundancy pass tests each rule against the live rest with
    :meth:`retire` / :meth:`revive` instead of rebuilding the list.
    """

    __slots__ = (
        "index",
        "alive",
        "_sigma",
        "_groups",
        "_slots",
        "_literals",
        "_fires",
        "_couplings",
        "_goals",
        "_base",
    )

    def __init__(self, sigma: Sequence[CFD]) -> None:
        names = sorted({name for phi in sigma for name in phi.attributes})
        self.index: dict[str, int] = {name: i for i, name in enumerate(names)}
        self.alive = [True] * len(sigma)
        self._sigma = list(sigma)
        self._base: tuple | None = None
        self._compile(self._grouping())

    @classmethod
    def compile(cls, sigma: Sequence[CFD]) -> "ImplicationProgram | None":
        """The program for *sigma*, or ``None`` when a constant cannot be
        keyed (the caller then answers on the baseline)."""
        try:
            return cls(sigma)
        except _Uninternable:
            return None

    def _grouping(self) -> list[int]:
        """Each attribute's group: the least attribute index that the
        alive equality rules equate it with."""
        index = self.index
        groups = list(range(len(index)))
        for alive, phi in zip(self.alive, self._sigma):
            if alive and phi.is_equality:
                a = index[phi.lhs[0][0]]
                while groups[a] != a:
                    a = groups[a]
                b = index[phi.rhs_attr]
                while groups[b] != b:
                    b = groups[b]
                groups[max(a, b)] = min(a, b)
        for a in range(len(groups)):
            groups[a] = groups[groups[a]]  # roots come first: one hop suffices
        return groups

    def _compile(self, groups: list[int]) -> None:
        """Compile every rule for *groups* (see :func:`_rule`); an
        equality rule has no firing masks and its two groups as coupling."""
        self._groups = groups
        self._literals: dict[tuple[int, Any], int] = {}
        self._slots = slots = _slots(self.index, groups)
        literal = _literal_table(self._literals, len(groups))
        self._fires: list = []
        self._couplings: list = []
        self._goals: list = []
        for phi in self._sigma:
            if phi.is_equality:
                rule = None, (slots[phi.lhs[0][0]][0], slots[phi.rhs_attr][0]), 0
            else:
                rule = _rule(phi.lhs, phi.rhs_attr, phi.rhs_entry, slots, literal)
            self._fires.append(rule[0])
            self._couplings.append(rule[1])
            self._goals.append(rule[2])

    # ------------------------------------------------------------------
    # The alive mask.
    # ------------------------------------------------------------------

    def retire(self, rule: int) -> None:
        """Take rule *rule* out of Sigma for subsequent tests."""
        self.alive[rule] = False
        self._changed(rule)

    def revive(self, rule: int) -> None:
        """Put a retired rule back."""
        self.alive[rule] = True
        self._changed(rule)

    def replace(self, rule: int, phi: CFD) -> None:
        """Re-mask non-equality rule *rule* as *phi*, its LHS trimmed."""
        self._sigma[rule] = phi
        literal = _literal_table(self._literals, len(self._groups))
        self._fires[rule], self._couplings[rule], self._goals[rule] = _rule(
            phi.lhs, phi.rhs_attr, phi.rhs_entry, self._slots, literal
        )
        self._base = None

    def _changed(self, rule: int) -> None:
        """Drop what toggling *rule* invalidates.

        An equality rule that regroups attributes recompiles everything;
        the base depends on equality rules only through the grouping.
        Any other rule whose premise the chased base does not meet never
        fired there, so the base stays Sigma's least fixpoint with or
        without it; only the list of rules still to scan changes.
        """
        fire = self._fires[rule]
        if fire is None:
            groups = self._grouping()
            if groups != self._groups:
                self._base = None
                self._compile(groups)
            return
        if self._base is None:
            return
        state, pending = self._base
        if state is None or not fire[0] & ~state:
            self._base = None
        elif self.alive[rule]:
            pending.append(fire)
        else:
            pending.remove(fire)

    def _prepared(self) -> tuple:
        """``(state, pending)``: Sigma's chase of two fresh rows (``None``
        when it is undefined) and the alive rules it left unfired."""
        base = self._base
        if base is None:
            live = [f for f, alive in zip(self._fires, self.alive) if alive and f]
            state = _chase(0, live, 0)
            pending = [] if state is None else [f for f in live if f[0] & ~state]
            base = self._base = (state, pending)
        return base

    # ------------------------------------------------------------------
    # Tests.
    # ------------------------------------------------------------------

    def implies(self, lhs: Iterable[tuple[str, Any]], rhs_attr: str, rhs_entry) -> bool:
        """Whether the alive rules imply the normal-form CFD ``(lhs -> rhs)``.

        *lhs* is a CFD's ``(attribute, pattern entry)`` items; an
        equality-form CFD (``rhs_entry`` the special variable) is tested
        on one row.  The CFD itself is never built, so a caller can test
        candidates it may discard.  Raises ``ValueError`` for a constant
        the program cannot key (see :meth:`compile`).
        """
        slots = self._slots
        if is_special(rhs_entry):
            a = slots.get(next(iter(lhs))[0])
            b = slots.get(rhs_attr)
            # A cell no rule touches stays a fresh variable.
            a = -1 if a is None else a[0]
            b = -2 if b is None else b[0]
            return self._implies_equality(a, b)
        # Wildcard items only set ``agreed`` bits, which no clash check
        # reads, so they fold into one mask; constant items keep theirs.
        literals = self._literals
        wildcards = 0
        coupling = []
        try:
            for name, want in lhs:
                slot = slots.get(name)
                if slot is None:
                    continue  # a cell no rule touches couples nothing
                if isinstance(want, Const):
                    group, agreed, held = slot
                    coupling.append((agreed | held | literals[group, want.value], held))
                else:
                    wildcards |= slot[1]
            slot = slots.get(rhs_attr)
            if slot is None:
                goal = 0  # phi holds only vacuously
            elif isinstance(rhs_entry, Const):
                goal = literals[slot[0], rhs_entry.value]
            else:
                goal = slot[1]
        except KeyError:
            # phi carries a literal Sigma lacks: it gets a bit past every
            # Sigma literal, in a copy of the table (no rule reads or
            # writes it).  The coupling repeats any wildcards folded so far.
            literal = _literal_table(dict(literals), len(self._groups))
            _, coupling, goal = _rule(lhs, rhs_attr, rhs_entry, slots, literal)
        return self._implies(coupling, -1, goal, wildcards)

    def implies_rule(self, rule: int, keep: int = -1) -> bool:
        """Whether the alive rules imply rule *rule* with only the LHS
        items at the positions set in *keep* (all by default).

        MinCover's trimming candidates are such bitmasks, so neither a
        tuple nor a ``CFD`` is built per candidate.
        """
        if self._fires[rule] is None:
            return self._implies_equality(*self._couplings[rule])
        return self._implies(self._couplings[rule], keep, self._goals[rule])

    def _implies(self, coupling, keep: int, goal: int, wildcards: int = 0) -> bool:
        state, pending = self._base or self._prepared()
        if state is None:
            return True  # Sigma is unsatisfiable on any two tuples
        state |= wildcards
        for adds, held in coupling:
            if keep & 1 and adds & ~state:
                if state & held:
                    return True
                state |= adds
            keep >>= 1
        if state & goal:
            return True
        state = _chase(state, pending, goal)
        return state is None or state & goal != 0

    def _implies_equality(self, a: int, b: int) -> bool:
        state = self._prepared()[0]
        if state is None or a == b:
            return True
        literals = self._literals
        for (group, value), bit in literals.items():
            if group == a and state & bit:
                return state & literals.get((b, value), 0) != 0
        return False


def _slots(index: dict[str, int], groups: list[int]) -> dict[str, tuple[int, int, int]]:
    """Per attribute: its group, the group's ``agreed`` and ``consts`` bits."""
    n = len(groups)
    return {
        name: (groups[a], 1 << groups[a], 1 << (n + groups[a]))
        for name, a in index.items()
    }


def _literal_table(table: dict, n: int):
    """``literal(group, value)``: the literal's bit in *table*, adding a
    new bit past all others on a miss."""

    def literal(group: int, value: Any) -> int:
        bit = table.get((group, value))
        if bit is None:
            if value != value:
                raise _Uninternable(f"constant {value!r} is not equal to itself")
            bit = table[(group, value)] = 1 << (2 * n + len(table))
        return bit

    return literal


def _rule(lhs, rhs_attr: str, rhs_entry, slots: dict, literal) -> tuple:
    """A normal-form CFD's ``(fire, coupling, goal)``.

    *fire* is ``(need, adds, held)``: the rule fires once ``need`` (its
    constant LHS literals and, for a pair rule, the ``agreed`` bits of its
    wildcard LHS groups) is in the state, and sets ``adds`` (the RHS
    group's ``agreed`` bit; for a constant RHS also its ``consts`` bit and
    literal).  A constant write clashes when ``held``, the group's
    ``consts`` bit, is set but the literal is not.  *coupling* holds one
    ``(adds, held)`` per LHS item, which is how phi's LHS enters a test;
    *goal* is the bit that means phi holds.  Attributes without a slot
    are ones no rule reads or writes: their items couple nothing, and a
    phi whose RHS is one holds only vacuously (goal ``0``).
    """
    pair = not isinstance(rhs_entry, Const)
    need = 0
    coupling = []
    for name, want in lhs:
        slot = slots.get(name)
        if slot is None:
            continue
        group, agreed, held = slot
        if isinstance(want, Const):
            bit = literal(group, want.value)
            need |= bit
            coupling.append((agreed | held | bit, held))
        else:
            coupling.append((agreed, 0))
            if pair:
                need |= agreed  # a pair rule keys on wildcard items
    coupling = tuple(coupling)
    slot = slots.get(rhs_attr)
    if slot is None:
        return None, coupling, 0
    group, agreed, held = slot
    if pair:
        return (need, agreed, 0), coupling, agreed
    bit = literal(group, rhs_entry.value)
    return (need, agreed | held | bit, held), coupling, bit


def _chase(state: int, rules: list, goal: int) -> int | None:
    """Fire *rules* from *state* to fixpoint, or until a *goal* bit is set.

    Returns the state reached, or ``None`` when the chase is undefined.
    Every round rescans *rules*; one that already fired re-checks as a
    no-op.  A cold check spends more on building its target than here.
    """
    missing = ~state
    fired = True
    while fired:
        fired = False
        for need, adds, held in rules:
            if not need & missing and adds & missing:
                if state & held:
                    return None
                state |= adds
                if state & goal:
                    return state
                missing = ~state
                fired = True
    return state
