"""Pattern-value algebra for conditional functional dependencies.

A CFD pattern tuple assigns each attribute one of three kinds of entries
(Definition 2.1 of the paper):

- a *constant* ``'a'`` drawn from the attribute's domain,
- the *unnamed variable* ``'_'`` (wildcard), which stands for any domain
  value, or
- the *special variable* ``x`` used only in view CFDs of the shape
  ``R(A -> B, (x || x))``, which encode the selection condition ``A = B``.

This module makes the three operators the paper uses on pattern entries
first-class functions:

``matches``
    The match relation (written with an asymp symbol in the paper):
    two entries match if they are equal constants or either is ``'_'``.

``leq``
    The partial order of Section 4.2: ``a <= b`` iff ``a`` and ``b`` are the
    same constant, or ``b`` is ``'_'``.  It gates A-resolution.

``meet``
    The ``min``/``(+)`` operation used when building resolvents: the more
    specific of two comparable entries; ``None`` when the entries are
    distinct constants (the resolvent is then undefined — this is how
    constants "block transitivity" in procedure RBR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union


@dataclass(frozen=True, slots=True)
class Const:
    """A constant pattern entry, wrapping a domain value."""

    value: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


class Wildcard:
    """The unnamed variable ``'_'``.  A singleton (``Wildcard() is
    WILDCARD``): hash and equality are the C-level identity defaults, and
    pickle and ``deepcopy`` return the module global."""

    __slots__ = ()

    def __new__(cls) -> "Wildcard":
        return WILDCARD

    def __reduce__(self) -> str:
        return "WILDCARD"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "_"


class SpecialVar:
    """The special variable ``x`` of view CFDs ``(A -> B, (x || x))``: a
    singleton like :class:`Wildcard`, ``SpecialVar() is SPECIAL``."""

    __slots__ = ()

    def __new__(cls) -> "SpecialVar":
        return SPECIAL

    def __reduce__(self) -> str:
        return "SPECIAL"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "x"


#: The two singletons; entries compare by identity (``entry is WILDCARD``).
WILDCARD: Wildcard = object.__new__(Wildcard)
SPECIAL: SpecialVar = object.__new__(SpecialVar)

PatternValue = Union[Const, Wildcard, SpecialVar]

#: Interning table for constant pattern entries (hash-consing).  Keys pair
#: the value with its concrete type so entries for values that merely
#: *compare* equal (``1``, ``1.0``, ``True``) never share an object —
#: identity must be at least as fine as equality for soundness.  The table
#: is capped: once full, new constants are simply allocated uncached.
_CONST_INTERN: dict[tuple[type, Any], Const] = {}
_CONST_INTERN_CAP = 1 << 16


def const(value: Any) -> Const:
    """Wrap a raw domain value as a constant pattern entry (interned).

    Equal values of the same type share one :class:`Const` object, making
    pattern-entry comparison an identity check on the hot paths.  Unhashable
    values fall back to a fresh allocation.
    """
    try:
        key = (type(value), value)
        entry = _CONST_INTERN.get(key)
    except TypeError:
        return Const(value)
    if entry is None:
        entry = Const(value)
        if len(_CONST_INTERN) < _CONST_INTERN_CAP:
            _CONST_INTERN[key] = entry
    return entry


def is_const(entry: PatternValue) -> bool:
    """True iff *entry* is a constant pattern entry."""
    return isinstance(entry, Const)


def is_wildcard(entry: PatternValue) -> bool:
    """True iff *entry* is the unnamed variable ``'_'``."""
    return entry is WILDCARD


def is_special(entry: PatternValue) -> bool:
    """True iff *entry* is the special variable ``x``."""
    return entry is SPECIAL


def matches(a: PatternValue, b: PatternValue) -> bool:
    """The match relation on pattern entries.

    ``matches(a, b)`` holds iff ``a == b`` or one of the two entries is the
    wildcard.  The special variable only matches itself and the wildcard
    (it is never compared against constants by any paper procedure).
    """
    if is_wildcard(a) or is_wildcard(b):
        return True
    return a == b


def leq(a: PatternValue, b: PatternValue) -> bool:
    """The partial order on pattern entries: ``a <= b``.

    Holds iff ``a`` and ``b`` are the same constant, or ``b`` is ``'_'``.
    Note the order is *not* symmetric: a constant is strictly below the
    wildcard.
    """
    if is_wildcard(b):
        return True
    return a == b


def meet(a: PatternValue, b: PatternValue) -> PatternValue | None:
    """The more specific of two comparable entries; ``None`` if incomparable.

    Implements the ``min(tp[C], t'p[C])`` of the resolvent construction:
    returns the constant when one side is a constant and the other the
    wildcard, either side when they are equal, and ``None`` for two
    distinct constants (the resolvent is undefined).
    """
    if is_wildcard(a):
        return b
    if is_wildcard(b):
        return a
    if a == b:
        return a
    return None


def value_matches(value: Any, entry: PatternValue) -> bool:
    """Whether a concrete *value* from a tuple matches a pattern *entry*.

    A value matches the wildcard unconditionally and a constant entry iff it
    equals the wrapped constant.  The special variable matches any value
    (the equality it encodes is between two attributes of the same tuple
    and is enforced separately by the satisfaction check).
    """
    if is_wildcard(entry) or is_special(entry):
        return True
    assert isinstance(entry, Const)
    return value == entry.value
