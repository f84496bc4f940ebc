"""Compiled CFD implication for ``MinCover``: a packed two-tuple chase.

``core.implication.implies`` decides ``Sigma |= phi`` by re-normalising
Sigma, running its chase-free screens over every rule, building a
``SymbolicInstance`` of ``SymVar`` cells and chasing it with dict-based
rules — all of it from scratch for every test.  ``MinCover`` asks that
question once per candidate LHS attribute and once per rule, always
against the same (or one rule smaller) Sigma of a single relation.

:class:`ImplicationProgram` builds the shared structure once per
relation and makes each test pay only for what differs:

- attributes are interned to indices ``0..n-1``; the canonical instance
  is ``2n`` integer cells (cell ``a`` in row 0, ``a + n`` in row 1);
- constants are interned to ids by value (a dict, so values that compare
  equal — ``1``, ``1.0``, ``True`` — share an id exactly as the
  baseline's ``==`` treats them);
- each rule compiles to a flat program: an *equality* rule to per-row
  cell pairs, a *constant-RHS* rule to per-row ``(checks, rhs cell,
  constant)`` triples, a *pair* rule to ``(checks, key cell pairs, rhs
  cells)`` across both rows;
- the chase is union-find over the cells with one constant slot per
  class root.  Equating two classes bound to distinct constants is the
  vacuous ``UNDEFINED`` outcome, so ``phi`` is implied.  ``phi`` holds
  when its two RHS cells share a class — or carry the same constant —
  and that constant is ``phi``'s RHS constant when it has one.

The phi-independent part of every test — the two fresh rows chased
under Sigma alone — is chased once (per *alive* rule set) and copied;
each test only adds phi's LHS coupling and continues the fixpoint from
there.  Chase confluence makes this exact: the extended chase only
equates, so its result is a least fixpoint and
``closure(base ∪ coupling) = closure(closure(base) ∪ coupling)``.
Because unions only ever grow, a test stops as soon as phi's conclusion
holds: the final state either keeps it or is undefined, and both mean
phi is implied.

The program covers the infinite-domain setting only (no finite-domain
attribute).  Constants that are not equal to themselves (``nan``)
cannot be interned faithfully; :meth:`ImplicationProgram.compile`
returns ``None`` for such a Sigma and the caller runs the baseline.
``tests/test_implication_kernel.py`` compares every verdict with the
untouched ``core.implication.implies``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core.cfd import CFD
from ..core.values import is_const, is_special

__all__ = ["ImplicationProgram"]


class _Uninternable(ValueError):
    """A constant the packed chase cannot represent (e.g. ``nan``)."""


class ImplicationProgram:
    """One relation's normal-form Sigma compiled for repeated ``|=`` tests.

    ``alive`` masks rules out of Sigma without recompiling: MinCover's
    redundancy pass tests each rule against the live rest with
    :meth:`retire` / :meth:`revive` instead of rebuilding the list.
    """

    __slots__ = (
        "n",
        "index",
        "const_ids",
        "alive",
        "_rules",
        "_bases",
    )

    def __init__(self, sigma: Sequence[CFD]) -> None:
        names = sorted({name for phi in sigma for name in phi.attributes})
        self.n = n = len(names)
        self.index: dict[str, int] = {name: i for i, name in enumerate(names)}
        self.const_ids: dict[Any, int] = {}
        self.alive = [True] * len(sigma)
        index = self.index
        # Per rule: (equalities, const rows, pair program); the first two
        # are tuples of per-row entries, row 0 first.
        rules = []
        for phi in sigma:
            if phi.is_equality:
                a = index[phi.lhs[0][0]]
                b = index[phi.rhs[0][0]]
                rules.append((((a, b), (a + n, b + n)), (), None))
                continue
            checks = [
                (index[name], self._intern(entry.value))
                for name, entry in phi.lhs
                if is_const(entry)
            ]
            checks0 = tuple(checks)
            checks1 = tuple((cell + n, want) for cell, want in checks)
            rhs = index[phi.rhs_attr]
            if is_const(phi.rhs_entry):
                target = self._intern(phi.rhs_entry.value)
                rows = ((checks0, rhs, target), (checks1, rhs + n, target))
                rules.append(((), rows, None))
            else:
                # Two rows agree on a constant LHS position once both
                # match the pattern, so only wildcard positions key.
                keys = tuple(
                    (index[name], index[name] + n)
                    for name, entry in phi.lhs
                    if not is_const(entry)
                )
                rules.append(((), (), (checks0 + checks1, keys, rhs, rhs + n)))
        self._rules = rules
        self._bases: dict[bool, Any] = {}

    @classmethod
    def compile(cls, sigma: Sequence[CFD]) -> "ImplicationProgram | None":
        """The program for *sigma*, or ``None`` when a constant cannot be
        interned (the caller then answers on the baseline)."""
        try:
            return cls(sigma)
        except _Uninternable:
            return None

    def _intern(self, value: Any, extra: dict | None = None) -> int:
        ids = self.const_ids
        node = ids.get(value)
        if node is not None:
            return node
        if value != value:
            raise _Uninternable(f"constant {value!r} is not equal to itself")
        if extra is None:
            node = ids[value] = len(ids)
            return node
        # A test-local constant Sigma never mentions: numbered past the
        # table so it compares unequal to every rule constant.
        node = extra.get(value)
        if node is None:
            node = extra[value] = len(ids) + len(extra)
        return node

    # ------------------------------------------------------------------
    # The alive mask.
    # ------------------------------------------------------------------

    def retire(self, rule: int) -> None:
        """Take rule *rule* out of Sigma for subsequent tests."""
        self.alive[rule] = False
        self._bases.clear()

    def revive(self, rule: int) -> None:
        """Put a retired rule back."""
        self.alive[rule] = True
        self._bases.clear()

    # ------------------------------------------------------------------
    # Tests.
    # ------------------------------------------------------------------

    def implies(self, lhs: Iterable[tuple[str, Any]], rhs_attr: str, rhs_entry) -> bool:
        """Whether the alive rules imply the normal-form CFD ``(lhs -> rhs)``.

        *lhs* is a CFD's ``(attribute, pattern entry)`` items; an
        equality-form CFD (``rhs_entry`` the special variable) is tested
        on the one-row instance.  The CFD itself is never built, so a
        caller can test candidates it may discard.  Raises ``ValueError``
        for a constant the program cannot intern (see :meth:`compile`).
        """
        if is_special(rhs_entry):
            return self._implies_equality(next(iter(lhs))[0], rhs_attr)
        return self._implies_pair(lhs, rhs_attr, rhs_entry)

    def _implies_pair(self, lhs, rhs_attr: str, rhs_entry) -> bool:
        base = self._base(True)
        if base is None:
            return True  # Sigma is unsatisfiable on any two tuples
        parent, cval, consts, pairs = base
        parent = parent[:]
        cval = cval[:]
        index = self.index
        n = self.n
        extra: dict = {}
        for name, entry in lhs:
            a = index.get(name)
            if a is None:
                continue  # no rule reads an attribute Sigma never mentions
            if is_const(entry):
                want = self._intern(entry.value, extra)
                for cell in (a, a + n):
                    while parent[cell] != cell:
                        cell = parent[cell]
                    have = cval[cell]
                    if have < 0:
                        cval[cell] = want
                    elif have != want:
                        return True
            elif _union(parent, cval, a, a + n) is None:
                return True
        a = index.get(rhs_attr)
        if a is None:
            # Sigma never writes the RHS: phi holds only vacuously.
            return _fixpoint(parent, cval, consts, pairs, -1, -1, -1) is not False
        want = self._intern(rhs_entry.value, extra) if is_const(rhs_entry) else -1
        return _fixpoint(parent, cval, consts, pairs, a, a + n, want) is not False

    def _implies_equality(self, a_name: str, b_name: str) -> bool:
        base = self._base(False)
        if base is None:
            return True
        parent, cval, consts, _ = base
        a = self.index.get(a_name, -1)
        b = self.index.get(b_name, -1)
        if a < 0 or b < 0:
            a = b = -1  # a cell no rule touches stays a fresh variable
        return _fixpoint(parent[:], cval[:], consts, (), a, b, -1) is not False

    def _base(self, two_rows: bool):
        """Sigma's chase of fresh rows (cached per alive set), or ``None``.

        Returns ``(parent, cval, const rules, pair rules)``: the chased
        state every test copies, and the alive rules' row programs.
        """
        if two_rows in self._bases:
            return self._bases[two_rows]
        size = 2 * self.n
        parent = list(range(size))
        cval = [-1] * size
        consts: list = []
        pairs: list = []
        base = (parent, cval, consts, pairs)
        for alive, (equalities, rows, pair) in zip(self.alive, self._rules):
            if not alive:
                continue
            if not two_rows:
                equalities = equalities[:1]
                rows = rows[:1]
                pair = None
            for a, b in equalities:
                if _union(parent, cval, a, b) is None:
                    base = None
            consts.extend(rows)
            if pair is not None:
                pairs.append(pair)
        if base is not None and _fixpoint(parent, cval, consts, pairs, -1, -1, -1) is None:
            base = None
        self._bases[two_rows] = base
        return base


def _union(parent: list[int], cval: list[int], a: int, b: int) -> bool | None:
    """Merge the classes of *a* and *b*; ``None`` on a constant clash.

    Two classes bound to the same constant already compare equal, so they
    are left unmerged (``False``, no change)."""
    while parent[a] != a:
        a = parent[a]
    while parent[b] != b:
        b = parent[b]
    if a == b:
        return False
    ca = cval[a]
    cb = cval[b]
    if ca >= 0 and cb >= 0:
        return False if ca == cb else None
    parent[b] = a
    if ca < 0:
        cval[a] = cb
    return True


def _fixpoint(parent, cval, consts, pairs, g0, g1, want) -> bool | None:
    """Chase to fixpoint or until the goal holds.

    Returns ``None`` when the chase is undefined (two distinct constants
    equated), ``True`` once cells *g0* and *g1* are equal (and carry
    constant *want* when it is ``>= 0``), ``False`` at a fixpoint where
    they are not (``g0 < 0`` means no goal).  A test's verdict is thus
    ``is not False``.

    Every round rescans all rules; one that already fired re-checks as a
    no-op.  find/union are inlined: this loop is the whole cost of a test.
    """
    while True:
        if g0 >= 0:
            x = g0
            while parent[x] != x:
                x = parent[x]
            y = g1
            while parent[y] != y:
                y = parent[y]
            cx = cval[x]
            if (x == y or (cx >= 0 and cx == cval[y])) and (want < 0 or cx == want):
                return True
        fired = False
        for checks, cell, target in consts:
            for check, wanted in checks:
                while parent[check] != check:
                    check = parent[check]
                if cval[check] != wanted:
                    break
            else:
                while parent[cell] != cell:
                    cell = parent[cell]
                have = cval[cell]
                if have < 0:
                    cval[cell] = target
                    fired = True
                elif have != target:
                    return None
        for checks, keys, r0, r1 in pairs:
            for check, wanted in checks:
                while parent[check] != check:
                    check = parent[check]
                if cval[check] != wanted:
                    break
            else:
                for k0, k1 in keys:
                    while parent[k0] != k0:
                        k0 = parent[k0]
                    while parent[k1] != k1:
                        k1 = parent[k1]
                    if k0 != k1:
                        c = cval[k0]
                        if c < 0 or c != cval[k1]:
                            break
                else:
                    while parent[r0] != r0:
                        r0 = parent[r0]
                    while parent[r1] != r1:
                        r1 = parent[r1]
                    if r0 != r1:
                        c0 = cval[r0]
                        c1 = cval[r1]
                        if c0 >= 0 and c1 >= 0:
                            if c0 != c1:
                                return None
                        else:
                            parent[r1] = r0
                            if c0 < 0:
                                cval[r0] = c1
                            fired = True
        if not fired:
            return False
