"""Relational schemas.

A relation schema is a named, ordered list of attributes, each with a
domain (Section 2 of the paper).  A database schema is a collection of
relation schemas; views are defined over database schemas.

Attribute identity is by *name within a schema*.  The renaming operator of
SPC views produces fresh attribute names (the paper requires the attributes
of distinct relation atoms in a product to be disjoint), which we implement
with ``RelationSchema.renamed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .domains import Domain, STRING


@dataclass(frozen=True, slots=True)
class Attribute:
    """An attribute: a name paired with its domain."""

    name: str
    domain: Domain = STRING

    def renamed(self, new_name: str) -> "Attribute":
        return Attribute(new_name, self.domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}:{self.domain.name}"


class RelationSchema:
    """A relation schema ``R(A1, ..., Ak)`` with per-attribute domains."""

    __slots__ = ("name", "attributes", "_by_name")

    def __init__(self, name: str, attributes: Iterable[Attribute | str]) -> None:
        attrs = tuple(
            a if isinstance(a, Attribute) else Attribute(a) for a in attributes
        )
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema {name!r}: {names}")
        self.name = name
        self.attributes: tuple[Attribute, ...] = attrs
        self._by_name: dict[str, Attribute] = {a.name: a for a in attrs}

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __contains__(self, attribute_name: str) -> bool:
        return attribute_name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"schema {self.name!r} has no attribute {name!r}; "
                f"attributes are {self.attribute_names}"
            ) from None

    def domain_of(self, name: str) -> Domain:
        return self.attribute(name).domain

    def index_of(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise KeyError(f"schema {self.name!r} has no attribute {name!r}")

    def has_finite_domain_attribute(self) -> bool:
        """Whether any attribute draws from a finite domain.

        This is the schema property that separates the paper's
        infinite-domain setting from the general setting.
        """
        return any(a.domain.is_finite for a in self.attributes)

    def renamed(self, new_name: str, prefix: str) -> tuple["RelationSchema", dict[str, str]]:
        """Renaming operator: fresh schema with ``prefix``-qualified names.

        Returns the renamed schema and the old-name -> new-name mapping.
        """
        mapping = {a.name: f"{prefix}{a.name}" for a in self.attributes}
        renamed_attrs = [a.renamed(mapping[a.name]) for a in self.attributes]
        return RelationSchema(new_name, renamed_attrs), mapping

    def project(self, names: Iterable[str], new_name: str | None = None) -> "RelationSchema":
        """Schema of a projection onto *names* (order follows *names*)."""
        attrs = [self.attribute(n) for n in names]
        return RelationSchema(new_name or self.name, attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(a) for a in self.attributes)
        return f"{self.name}({inner})"


class DatabaseSchema:
    """A collection of relation schemas, addressable by name."""

    __slots__ = ("relations",)

    def __init__(self, relations: Iterable[RelationSchema]) -> None:
        rels = list(relations)
        names = [r.name for r in rels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names: {names}")
        self.relations: dict[str, RelationSchema] = {r.name: r for r in rels}

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(
                f"database schema has no relation {name!r}; "
                f"relations are {sorted(self.relations)}"
            ) from None

    def has_finite_domain_attribute(self) -> bool:
        return any(r.has_finite_domain_attribute() for r in self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DatabaseSchema({list(self.relations.values())!r})"
