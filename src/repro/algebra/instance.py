"""Concrete relation and database instances.

Rows are attribute-name -> value mappings (stored as plain dicts, exposed
as tuples of sorted items where hashability is needed).  Instances exist to
*validate* the symbolic machinery: the integration tests generate instances
satisfying the source dependencies, evaluate views on them, and check that
every propagated CFD indeed holds on the view — the defining property of
``Sigma |=_V phi``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from ..core.cfd import CFD, as_cfd
from ..core.fd import FD
from ..core.schema import DatabaseSchema, RelationSchema


class Relation:
    """An instance of a relation schema: a set of rows.

    Duplicate rows are collapsed (set semantics, as in the paper's
    relational model).
    """

    def __init__(
        self, schema: RelationSchema, rows: Iterable[Mapping[str, Any]] = ()
    ) -> None:
        self.schema = schema
        self._rows: dict[tuple[tuple[str, Any], ...], dict[str, Any]] = {}
        for row in rows:
            self.add(row)

    def add(self, row: Mapping[str, Any]) -> None:
        expected = set(self.schema.attribute_names)
        if set(row) != expected:
            raise ValueError(
                f"row attributes {sorted(row)} do not match schema "
                f"{sorted(expected)} of {self.schema.name!r}"
            )
        for attr in self.schema.attributes:
            if row[attr.name] not in attr.domain:
                raise ValueError(
                    f"value {row[attr.name]!r} outside domain "
                    f"{attr.domain.name!r} of {self.schema.name}.{attr.name}"
                )
        frozen = tuple(sorted(row.items()))
        self._rows[frozen] = dict(row)

    @property
    def rows(self) -> list[dict[str, Any]]:
        return list(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._rows.values())

    def __contains__(self, row: Mapping[str, Any]) -> bool:
        return tuple(sorted(row.items())) in self._rows

    def satisfies(self, dependency: CFD | FD) -> bool:
        """Whether this relation satisfies a CFD or FD."""
        dependency = as_cfd(dependency)
        if dependency.relation != self.schema.name:
            raise ValueError(
                f"dependency on {dependency.relation!r} checked against "
                f"relation {self.schema.name!r}"
            )
        return dependency.holds_on(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.schema.name}, {len(self)} rows)"


class DatabaseInstance:
    """An instance of a database schema."""

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[Mapping[str, Any]]] | None = None,
    ) -> None:
        self.schema = schema
        self.relations: dict[str, Relation] = {
            rel.name: Relation(rel) for rel in schema
        }
        if relations:
            for name, rows in relations.items():
                for row in rows:
                    self.relations[name].add(row)

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(f"instance has no relation {name!r}") from None

    def add(self, relation: str, row: Mapping[str, Any]) -> None:
        self.relation(relation).add(row)

    def satisfies(self, dependency: CFD | FD) -> bool:
        return self.relation(dependency.relation).satisfies(dependency)

    def satisfies_all(self, dependencies: Iterable[CFD | FD]) -> bool:
        return all(self.satisfies(dep) for dep in dependencies)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{n}:{len(r)}" for n, r in self.relations.items())
        return f"DatabaseInstance({inner})"
