"""Conditional functional dependencies (Definition 2.1).

A CFD ``R(X -> Y, tp)`` is an embedded FD ``X -> Y`` plus a pattern tuple
``tp`` over ``X`` and ``Y`` whose entries are constants or the unnamed
variable ``'_'``.  View CFDs may additionally take the special equality form
``R(A -> B, (x || x))``, which asserts ``t[A] = t[B]`` for every tuple and
encodes the selection conditions of SPC views in the same framework.

Semantics (Section 2.1): an instance ``D`` satisfies ``phi`` iff for every
pair of tuples ``t1, t2`` (the pair ``t1 = t2`` included), whenever
``t1[X] = t2[X]`` and both match ``tp[X]``, then ``t1[Y] = t2[Y]`` and both
match ``tp[Y]``.  Including the identical pair is what gives constant-RHS
CFDs their single-tuple force: a lone tuple matching ``tp[X]`` must already
carry the constants of ``tp[Y]``.

Construction convenience: pattern entries may be given as raw values (which
are wrapped as constants), as the string ``"_"`` (wildcard), or as the
``PatternValue`` objects of :mod:`repro.core.values`.  To express a genuine
constant underscore use ``Const("_")`` explicitly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable

from .fd import FD
from .values import (
    Const,
    PatternValue,
    SPECIAL,
    WILDCARD,
    const,
    is_const,
    is_special,
    is_wildcard,
    meet,
    value_matches,
)

PatternItems = tuple[tuple[str, PatternValue], ...]


def _coerce(entry: Any) -> PatternValue:
    if isinstance(entry, (Const,)) or is_wildcard(entry) or is_special(entry):
        return entry
    if entry == "_":
        return WILDCARD
    return const(entry)


def _as_items(pattern: Mapping[str, Any] | Iterable[tuple[str, Any]]) -> PatternItems:
    if type(pattern) is dict or isinstance(pattern, Mapping):
        pairs = pattern.items()
    else:
        pairs = pattern
    items = [(name, _coerce(entry)) for name, entry in pairs]
    if len({name for name, _ in items}) != len(items):
        raise ValueError(f"duplicate attributes in pattern: {sorted(n for n, _ in items)}")
    # By name only: the names are distinct, and entries need not be ordered.
    return tuple(sorted(items, key=itemgetter(0)))


@dataclass(frozen=True, slots=True)
class CFD:
    """A conditional functional dependency in general or normal form.

    Attributes
    ----------
    relation:
        Name of the relation (or view) schema the CFD is defined on.
    lhs:
        Sorted ``(attribute, pattern entry)`` pairs for ``X``.
    rhs:
        Sorted ``(attribute, pattern entry)`` pairs for ``Y``; normal form
        has exactly one pair.

    The other fields are derived once, at construction (reasoning code
    reads them millions of times), and take no part in equality.
    """

    relation: str
    lhs: PatternItems
    rhs: PatternItems
    lhs_attrs: tuple[str, ...] = field(init=False, compare=False, repr=False)
    rhs_attrs: tuple[str, ...] = field(init=False, compare=False, repr=False)
    #: Whether this is the special ``(x || x)`` equality form.
    is_equality: bool = field(init=False, compare=False, repr=False)
    _rhs_attr: str | None = field(init=False, compare=False, repr=False)
    _rhs_entry: PatternValue | None = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(
        self,
        relation: str,
        lhs: Mapping[str, Any] | Iterable[tuple[str, Any]],
        rhs: Mapping[str, Any] | Iterable[tuple[str, Any]],
    ) -> None:
        lhs = _as_items(lhs)
        rhs = _as_items(rhs)
        if not rhs:
            raise ValueError("a CFD needs a nonempty right-hand side")
        special_l = [v for _, v in lhs if is_special(v)]
        special_r = [v for _, v in rhs if is_special(v)]
        if special_l or special_r:
            if not (len(lhs) == 1 and len(rhs) == 1 and special_l and special_r):
                raise ValueError(
                    "the special variable x may only appear in the "
                    "equality form R(A -> B, (x || x))"
                )
        self._init(relation, lhs, rhs, bool(special_r))

    def _init(
        self, relation: str, lhs: PatternItems, rhs: PatternItems, equality: bool,
        lhs_attrs: tuple[str, ...] = (), rhs_attrs: tuple[str, ...] = (),
    ) -> None:
        """Set every field from validated, sorted items; *lhs_attrs* and
        *rhs_attrs* are the items' names when the caller has them."""
        lhs_attrs = lhs_attrs or tuple([n for n, _ in lhs])
        rhs_attrs = rhs_attrs or tuple([n for n, _ in rhs])
        setattr_ = object.__setattr__
        setattr_(self, "relation", relation)
        setattr_(self, "lhs", lhs)
        setattr_(self, "rhs", rhs)
        setattr_(self, "lhs_attrs", lhs_attrs)
        setattr_(self, "rhs_attrs", rhs_attrs)
        setattr_(self, "is_equality", equality)
        single = len(rhs) == 1
        setattr_(self, "_rhs_attr", rhs[0][0] if single else None)
        setattr_(self, "_rhs_entry", rhs[0][1] if single else None)
        setattr_(self, "_hash", hash((relation, lhs, rhs)))

    def __hash__(self) -> int:
        # Matches the frozen-dataclass derivation over the compared
        # fields, but precomputed: CFDs live inside frozenset cache keys
        # that the engine hashes millions of times.
        return self._hash

    def __reduce__(self):
        # Rebuilt, not restored: the hash of a string is per process.
        return CFD._from_items, (self.relation, self.lhs, self.rhs, self.is_equality)

    # ------------------------------------------------------------------
    # Constructors for the common shapes.
    # ------------------------------------------------------------------

    @classmethod
    def equality(cls, relation: str, a: str, b: str) -> "CFD":
        """The view CFD ``R(A -> B, (x || x))`` asserting ``A = B``."""
        return cls(relation, {a: SPECIAL}, {b: SPECIAL})

    @classmethod
    def constant(cls, relation: str, attribute: str, value: Any) -> "CFD":
        """The CFD ``R(A -> A, (_ || a))`` asserting ``A = 'a'`` everywhere."""
        return cls(relation, {attribute: WILDCARD}, {attribute: value})

    @classmethod
    def _from_items(
        cls, relation: str, lhs: PatternItems, rhs: PatternItems, equality: bool
    ) -> "CFD":
        """A CFD from valid items sorted by name: ``__init__`` minus its checks."""
        cfd = cls.__new__(cls)
        cfd._init(relation, lhs, rhs, equality)
        return cfd

    @classmethod
    def from_fd(cls, fd: FD) -> "CFD":
        """Embed a traditional FD as a CFD with an all-wildcard pattern.

        The FD's attribute tuples are already sorted and duplicate-free.
        """
        cfd = cls.__new__(cls)
        cfd._init(
            fd.relation,
            tuple(zip(fd.lhs, repeat(WILDCARD))),
            tuple(zip(fd.rhs, repeat(WILDCARD))),
            False,
            fd.lhs,
            fd.rhs,
        )
        return cfd

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> frozenset[str]:
        """``X ∪ Y``, built per call: stored, these sets took a quarter of
        a Fig. 5 cover's peak memory.  Hot loops test the name tuples."""
        return frozenset(self.lhs_attrs).union(self.rhs_attrs)

    def lhs_entry(self, attribute: str) -> PatternValue:
        for name, entry in self.lhs:
            if name == attribute:
                return entry
        raise KeyError(attribute)

    @property
    def rhs_attr(self) -> str:
        """The single RHS attribute; requires normal form."""
        attr = self._rhs_attr
        if attr is None:
            raise ValueError(f"CFD {self} is not in normal form")
        return attr

    @property
    def rhs_entry(self) -> PatternValue:
        """The single RHS pattern entry; requires normal form."""
        entry = self._rhs_entry
        if entry is None:
            raise ValueError(f"CFD {self} is not in normal form")
        return entry

    @property
    def is_normal_form(self) -> bool:
        return len(self.rhs) == 1

    def embedded_fd(self) -> FD:
        """The standard FD embedded in this CFD."""
        return FD(self.relation, self.lhs_attrs, self.rhs_attrs)

    def is_constant_cfd(self) -> bool:
        """Whether the CFD forces a constant on every tuple it applies to.

        True for normal-form CFDs whose RHS entry is a constant and whose
        LHS entries are all wildcards — e.g. ``(A -> A, (_ || a))`` — which
        act as global domain constraints (Section 3.3, Example 3.1).
        """
        if not self.is_normal_form or not is_const(self.rhs_entry):
            return False
        return all(is_wildcard(v) for _, v in self.lhs)

    # ------------------------------------------------------------------
    # Structural properties.
    # ------------------------------------------------------------------

    def normalize(self) -> list["CFD"]:
        """Equivalent set of normal-form (single-RHS-attribute) CFDs."""
        if self.is_normal_form:
            return [self]
        return [CFD(self.relation, dict(self.lhs), {name: entry}) for name, entry in self.rhs]

    def is_trivial(self) -> bool:
        """Triviality per Section 4.1.

        A normal-form CFD ``(X -> A, tp)`` is trivial iff ``A`` occurs in
        ``X`` and either the two pattern entries for ``A`` are equal, or
        the LHS entry is a constant while the RHS entry is ``'_'``.
        Note ``(A -> A, (_ || a))`` is *not* trivial: it forces a constant.
        The equality form is trivial only when both sides name the same
        attribute.
        """
        if self.is_equality:
            return self.lhs[0][0] == self.rhs[0][0]
        if not self.is_normal_form:
            return all(
                CFD(self.relation, dict(self.lhs), {n: e}).is_trivial()
                for n, e in self.rhs
            )
        a = self.rhs_attr
        if a not in self.lhs_attrs:
            return False
        eta1 = self.lhs_entry(a)
        eta2 = self.rhs_entry
        if eta1 == eta2:
            return True
        return is_const(eta1) and is_wildcard(eta2)

    def simplified(self) -> "CFD":
        """Canonical rewrite of self-referential constant CFDs.

        ``(X A -> A, (tx, _ || a))`` is equivalent to ``(X -> A, (tx || a))``:
        any tuple matching ``tx`` pairs with itself, so the constant is
        forced without consulting ``A`` on the left.  Normal-form CFDs not
        of this shape are returned unchanged.  The rewrite keeps procedure
        RBR's resolvents in a form whose LHS never mentions the attribute
        being dropped (Section 4.2's point (b) about ``AX -> A`` CFDs).
        """
        if not self.is_normal_form or self.is_equality:
            return self
        a = self.rhs_attr
        if a not in self.lhs_attrs:
            return self
        if is_wildcard(self.lhs_entry(a)) and is_const(self.rhs_entry):
            return self.drop_lhs_attribute(a)
        return self

    # ------------------------------------------------------------------
    # Satisfaction.
    # ------------------------------------------------------------------

    def holds_on(self, tuples: Iterable[Mapping[str, Any]]) -> bool:
        """Whether every tuple collection satisfies this CFD.

        *tuples* is any iterable of attribute-name -> value mappings.
        """
        return not any(True for _ in self.violations(tuples))

    def violations(
        self, tuples: Iterable[Mapping[str, Any]]
    ) -> Iterable[tuple[Mapping[str, Any], ...]]:
        """Yield witnesses of violation.

        For the equality form and for single-tuple (constant RHS) failures
        the witness is a 1-tuple; for embedded-FD failures it is a pair.
        """
        tuples = list(tuples)
        if self.is_equality:
            a = self.lhs[0][0]
            b = self.rhs[0][0]
            for t in tuples:
                if t[a] != t[b]:
                    yield (t,)
            return

        lhs = self.lhs
        rhs = self.rhs
        # Single-tuple check: a matching tuple must carry the RHS constants.
        groups: dict[tuple[Any, ...], list[Mapping[str, Any]]] = {}
        for t in tuples:
            if all(value_matches(t[name], entry) for name, entry in lhs):
                if not all(value_matches(t[name], entry) for name, entry in rhs):
                    yield (t,)
                    continue
                key = tuple(t[name] for name, _ in lhs)
                groups.setdefault(key, []).append(t)
        # Pair check: within a matching group all RHS values agree.
        for group in groups.values():
            first = group[0]
            for other in group[1:]:
                if any(first[name] != other[name] for name, _ in rhs):
                    yield (first, other)

    # ------------------------------------------------------------------
    # Attribute surgery (used by PropCFD_SPC).
    # ------------------------------------------------------------------

    def rename(self, mapping: Mapping[str, str], relation: str | None = None) -> "CFD":
        """Rename attributes via *mapping* (identity for absent names)."""
        new_lhs = {mapping.get(n, n): e for n, e in self.lhs}
        new_rhs = {mapping.get(n, n): e for n, e in self.rhs}
        if len(new_lhs) != len(self.lhs) or len(new_rhs) != len(self.rhs):
            raise ValueError(f"renaming {mapping} collapses attributes of {self}")
        lhs, rhs = tuple(sorted(new_lhs.items())), tuple(sorted(new_rhs.items()))
        return CFD._from_items(relation or self.relation, lhs, rhs, self.is_equality)

    def substitute(self, old: str, new: str) -> "CFD | None":
        """Replace attribute *old* by *new* (Lemma 4.3 substitution).

        If *new* already occurs on the same side, the two pattern entries
        are merged with ``meet``; when the meet is undefined the CFD can
        never fire on the constrained view and ``None`` is returned.
        """
        if old == new:
            return self

        def merge(items: PatternItems) -> dict[str, PatternValue] | None:
            out: dict[str, PatternValue] = {}
            for name, entry in items:
                name = new if name == old else name
                if name in out:
                    merged = meet(out[name], entry)
                    if merged is None:
                        return None
                    out[name] = merged
                else:
                    out[name] = entry
            return out

        lhs = merge(self.lhs)
        rhs = merge(self.rhs)
        if lhs is None or rhs is None:
            return None
        lhs_items, rhs_items = tuple(sorted(lhs.items())), tuple(sorted(rhs.items()))
        return CFD._from_items(self.relation, lhs_items, rhs_items, self.is_equality)

    def drop_lhs_attribute(self, attribute: str) -> "CFD":
        """The CFD with *attribute* removed from the LHS (pattern included)."""
        remaining = tuple(item for item in self.lhs if item[0] != attribute)
        if self.is_equality:  # the public checks reject a lone special RHS
            return CFD(self.relation, remaining, self.rhs)
        return CFD._from_items(self.relation, remaining, self.rhs, False)

    def with_relation(self, relation: str) -> "CFD":
        return CFD._from_items(relation, self.lhs, self.rhs, self.is_equality)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lhs_names = ",".join(n for n, _ in self.lhs) or "()"
        rhs_names = ",".join(n for n, _ in self.rhs)
        lhs_pat = ",".join(repr(e) for _, e in self.lhs) or "()"
        rhs_pat = ",".join(repr(e) for _, e in self.rhs)
        return f"{self.relation}([{lhs_names}] -> [{rhs_names}], ({lhs_pat} || {rhs_pat}))"


def as_cfd(dep: CFD | FD) -> CFD:
    """*dep* as a CFD: a plain FD embeds with an all-wildcard pattern."""
    return CFD.from_fd(dep) if isinstance(dep, FD) else dep


def normal_forms(deps: Iterable[CFD | FD]) -> list[CFD]:
    """The normal-form CFDs of *deps*, in order."""
    return [normal for dep in deps for normal in as_cfd(dep).normalize()]
