"""``ComputeEQ`` and ``EQ2CFD`` (Figure 2 line 2 / Figure 4).

The selection condition ``F`` of an SPC view and the domain-constraint
CFDs of the source set jointly partition the view attributes into
equivalence classes ``EQ``: ``A, B`` share a class iff ``A = B`` is forced
on every tuple of ``Es``, and a class carries a constant *key* when some
``A = 'a'`` is forced.  Two distinct keys in one class mean the view is
always empty — the ``⊥`` outcome that triggers Lemma 4.5.

``ComputeEQ`` here runs a fixpoint:

1. union the classes of every ``A = B`` selection atom,
2. seed keys from ``A = 'a'`` selection atoms and constant attributes of
   ``Rc``,
3. repeatedly apply view-space CFDs that *fire globally* — every LHS
   pattern entry is the wildcard or equals the key of its attribute's
   class — whose RHS entry is a constant (they pin their RHS attribute,
   Example 3.1) or which are equality CFDs (they merge classes).

``EQ2CFD`` converts the result back into CFDs on the view schema: keyed
classes yield ``(A -> A, (_ || key))`` per member, unkeyed multi-member
classes yield ``(A -> B, (x || x))`` per attribute pair.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..algebra.ops import AttrEq
from ..algebra.spc import SPCView
from ..core.cfd import CFD
from ..core.values import is_const, is_wildcard


class BottomEQ:
    """The ``⊥`` outcome: the selection and CFDs force two distinct
    constants onto one attribute class, so the view is always empty."""

    def __init__(self, attribute: str, values: tuple[Any, Any]) -> None:
        self.attribute = attribute
        self.values = values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"⊥({self.attribute} = {self.values[0]!r} and {self.values[1]!r})"


class EquivalenceClasses:
    """A union-find over view attributes with per-class constant keys."""

    def __init__(self, attributes: Iterable[str]) -> None:
        self._parent: dict[str, str] = {a: a for a in attributes}
        self._key: dict[str, Any] = {}
        self._has_key: set[str] = set()

    # -- union-find ----------------------------------------------------

    def find(self, attribute: str) -> str:
        root = attribute
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[attribute] != root:
            self._parent[attribute], attribute = root, self._parent[attribute]
        return root

    def union(self, a: str, b: str) -> BottomEQ | None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        ka = ra in self._has_key
        kb = rb in self._has_key
        if ka and kb and self._key[ra] != self._key[rb]:
            return BottomEQ(a, (self._key[ra], self._key[rb]))
        self._parent[rb] = ra
        if kb and not ka:
            self._key[ra] = self._key[rb]
            self._has_key.add(ra)
        return None

    def set_key(self, attribute: str, value: Any) -> BottomEQ | None:
        root = self.find(attribute)
        if root in self._has_key:
            if self._key[root] != value:
                return BottomEQ(attribute, (self._key[root], value))
            return None
        self._key[root] = value
        self._has_key.add(root)
        return None

    def key(self, attribute: str) -> Any | None:
        """The class key (constant forced on the class) or ``None``."""
        root = self.find(attribute)
        return self._key.get(root)

    def has_key(self, attribute: str) -> bool:
        return self.find(attribute) in self._has_key

    def same(self, a: str, b: str) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> list[list[str]]:
        buckets: dict[str, list[str]] = {}
        for attribute in self._parent:
            buckets.setdefault(self.find(attribute), []).append(attribute)
        return [sorted(members) for _, members in sorted(buckets.items())]

    def representatives(self, prefer: Iterable[str]) -> dict[str, str]:
        """Each attribute's class representative (Figure 2 line 8): the
        least member in *prefer* (the projection list), else the least."""
        return _representatives(self.classes(), prefer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for members in self.classes():
            key = self.key(members[0])
            suffix = f"={key!r}" if self.has_key(members[0]) else ""
            parts.append("{" + ",".join(members) + "}" + suffix)
        return "EQ(" + " ".join(parts) + ")"


def _representatives(classes: list[list[str]], prefer: Iterable[str]) -> dict[str, str]:
    preferred = set(prefer)
    out: dict[str, str] = {}
    for members in classes:
        rep = next((m for m in members if m in preferred), members[0])
        out.update(dict.fromkeys(members, rep))
    return out


def compute_eq(
    view: SPCView, sigma_v: Iterable[CFD], kernel: str | None = None
) -> EquivalenceClasses | BottomEQ:
    """``ComputeEQ``: classes and keys for the view, or ``⊥``.

    *sigma_v* must already live in view attribute space (the output of
    ``view.rename_source_cfds``).  *kernel* selects the union-find
    representation: ``"bitset"`` runs on the int-array
    :class:`~repro.kernel.eqpack.PackedEquivalenceClasses` (identical
    observable behavior, differential-tested), anything else on the
    dict-based baseline.
    """
    if kernel == "bitset":
        from ..kernel.eqpack import PackedEquivalenceClasses

        eq = PackedEquivalenceClasses(view.extended_attributes())
    else:
        eq = EquivalenceClasses(view.extended_attributes())

    if view.unsatisfiable:
        some_attr = next(iter(view.extended_attributes()), "A")
        return BottomEQ(some_attr, ("⊥0", "⊥1"))

    for atom in view.selection:
        outcome = (
            eq.union(atom.left, atom.right)
            if isinstance(atom, AttrEq)
            else eq.set_key(atom.attr, atom.value)
        )
        if outcome is not None:
            return outcome
    for attr, value in view.constants.items():
        outcome = eq.set_key(attr, value)
        if outcome is not None:
            return outcome

    normalized: list[CFD] = []
    for dep in sigma_v:
        normalized.extend(phi.simplified() for phi in dep.normalize())

    changed = True
    while changed:
        changed = False
        for phi in normalized:
            if phi.is_equality:
                a = phi.lhs[0][0]
                b = phi.rhs[0][0]
                if not eq.same(a, b):
                    outcome = eq.union(a, b)
                    if outcome is not None:
                        return outcome
                    changed = True
                continue
            if not _fires_globally(phi, eq):
                continue
            entry = phi.rhs_entry
            if is_const(entry):
                attr = phi.rhs_attr
                if eq.key(attr) != entry.value or not eq.has_key(attr):
                    outcome = eq.set_key(attr, entry.value)
                    if outcome is not None:
                        return outcome
                    changed = True
    return eq


def _fires_globally(phi: CFD, eq: EquivalenceClasses) -> bool:
    """Whether *phi*'s premise is matched by every tuple of ``Es``.

    True when each LHS entry is the wildcard, or a constant equal to the
    key already forced on its attribute's class.
    """
    for attr, entry in phi.lhs:
        if is_wildcard(entry):
            continue
        if not eq.has_key(attr):
            return False
        assert is_const(entry)
        if eq.key(attr) != entry.value:
            return False
    return True


def eq2cfd(
    eq: EquivalenceClasses, view: SPCView
) -> list[CFD]:
    """``EQ2CFD`` (Figure 4): domain constraints of ``EQ`` as view CFDs.

    Classes are first restricted to the projection list ``Y`` (Figure 2
    line 10): attributes the view does not expose contribute no view CFDs.
    """
    projected = set(view.projection)
    out: list[CFD] = []
    for members in eq.classes():
        visible = [m for m in members if m in projected]
        if not visible:
            continue
        key = eq.key(members[0])
        if eq.has_key(members[0]):
            for attr in visible:
                out.append(CFD.constant(view.name, attr, key))
        else:
            for i, a in enumerate(visible):
                for b in visible[i + 1 :]:
                    out.append(CFD.equality(view.name, a, b))
    return out
