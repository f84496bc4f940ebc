"""Named schemas, dependency sets and views, registered once.

A :class:`Workspace` is the service's resolution context: callers (CLI,
server clients, tests) register each schema / Sigma / view under a name
once, and every subsequent request references it by name — no re-loading
or re-validation per query, which is the point of a warm service.

Registration accepts either parsed objects or the JSON documents of the
:mod:`repro.io` wire format (views need a schema to parse against, named
or given directly).  ``"default"`` is the conventional name the CLI's
``--schema/--sigma/--view`` files land under; requests with
``sigma=None`` resolve to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence, Union

from .. import io as repro_io
from ..algebra.spc import SPCView
from ..algebra.spcu import SPCUView
from ..core.cfd import CFD, as_cfd
from ..core.fd import FD
from ..core.schema import DatabaseSchema
from ..propagation.check import DependencyLike, PreparedSigma, ViewLike, _as_cfds
from .errors import ApiError, api_errors

__all__ = ["DEFAULT_NAME", "Workspace"]

DEFAULT_NAME = "default"


class Workspace:
    """A registry of named schemas, Sigmas and views."""

    def __init__(self) -> None:
        self._schemas: dict[str, DatabaseSchema] = {}
        self._sigmas: dict[str, PreparedSigma] = {}
        self._views: dict[str, ViewLike] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add_schema(
        self, name: str, schema: Union[DatabaseSchema, Mapping[str, Any]]
    ) -> DatabaseSchema:
        """Register a schema object or its JSON document under *name*."""
        with api_errors():
            if not isinstance(schema, DatabaseSchema):
                schema = repro_io.schema_from_json(schema)
        self._schemas[name] = schema
        return schema

    def add_sigma(
        self, name: str, sigma: Sequence[Union[DependencyLike, Mapping[str, Any]]]
    ) -> PreparedSigma:
        """Register a dependency list (objects or JSON documents).

        Each dependency is normalized here, once, into the registered
        :class:`~repro.propagation.check.PreparedSigma`.  It is a copy:
        mutating *sigma* afterwards does not change it.  Never mutate the
        list :meth:`sigma` returns: it is the registration itself.
        """
        with api_errors():
            deps = [
                dep
                if isinstance(dep, (CFD, FD))
                else repro_io.dependency_from_json(dep)
                for dep in sigma
            ]
            prepared = PreparedSigma(deps, [as_cfd(dep).normalize() for dep in deps])
        self._sigmas[name] = prepared
        return prepared

    def edit_sigma(
        self,
        name: str,
        add: Sequence[DependencyLike] = (),
        remove: Sequence[DependencyLike] = (),
    ) -> tuple[PreparedSigma, PreparedSigma, set[str]]:
        """Apply a diff to the Sigma registered as *name*:
        ``(before, after, affected relations)``.

        A dependency whose normal forms *remove* covers drops out; *add*
        appends what is not already present, so a re-applied diff (a wire
        retry) is a no-op.  Only *add* and *remove* are normalized: the
        kept dependencies' stored forms and keys are reused, in order.
        """
        before = self.sigma(name)
        remove_cfds = set(_as_cfds(remove))
        deps, forms, keys, affected = [], [], [], set()
        for dep, form, key in zip(before, before.forms, before.keys):
            if key and remove_cfds and key <= remove_cfds:
                affected.update(phi.relation for phi in form)
            else:
                deps.append(dep)
                forms.append(form)
                keys.append(key)
        present = set(keys)
        for dep in add:
            form = as_cfd(dep).normalize()
            key = frozenset(form)
            if key not in present:
                present.add(key)
                deps.append(dep)
                forms.append(form)
                keys.append(key)
                affected.update(phi.relation for phi in form)
        after = self._sigmas[name] = PreparedSigma(deps, forms, keys)
        return before, after, affected

    def add_view(
        self,
        name: str,
        view: Union[ViewLike, Mapping[str, Any]],
        schema: Union[str, DatabaseSchema] = DEFAULT_NAME,
    ) -> ViewLike:
        """Register a view object or its JSON document under *name*.

        A document parses against *schema* — a registered schema name or
        a schema object.
        """
        with api_errors():
            if not isinstance(view, (SPCView, SPCUView)):
                if isinstance(schema, str):
                    schema = self.schema(schema)
                view = repro_io.view_from_json(view, schema)
        self._views[name] = view
        return view

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------

    def schema(self, name: str) -> DatabaseSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise ApiError(
                "not-found", f"no schema registered under {name!r}"
            ) from None

    def sigma(self, ref: Union[str, Sequence[DependencyLike], None]) -> list[DependencyLike]:
        """Resolve a Sigma reference (``None`` = the default registration)."""
        if ref is None:
            ref = DEFAULT_NAME
        if isinstance(ref, str):
            try:
                return self._sigmas[ref]
            except KeyError:
                raise ApiError(
                    "not-found", f"no dependency set registered under {ref!r}"
                ) from None
        return list(ref)

    def view(self, ref: Union[str, ViewLike]) -> ViewLike:
        """Resolve a view reference (a registered name or the object)."""
        if isinstance(ref, str):
            try:
                return self._views[ref]
            except KeyError:
                raise ApiError(
                    "not-found", f"no view registered under {ref!r}"
                ) from None
        return ref

    def names(self) -> dict[str, list[str]]:
        """The registered names, for the server's ``stats`` op."""
        return {
            "schemas": sorted(self._schemas),
            "sigmas": sorted(self._sigmas),
            "views": sorted(self._views),
        }

    # ------------------------------------------------------------------
    # Loading.
    # ------------------------------------------------------------------

    @classmethod
    def from_files(
        cls,
        schema: str | Path | None = None,
        sigma: str | Path | None = None,
        view: str | Path | None = None,
    ) -> "Workspace":
        """The CLI's workspace: each given file registered as ``"default"``.

        The view is additionally registered under its own name, so server
        clients can address it either way.
        """
        workspace = cls()
        with api_errors():
            if schema is not None:
                workspace.add_schema(DEFAULT_NAME, repro_io.load_json(schema))
            if sigma is not None:
                workspace.add_sigma(DEFAULT_NAME, repro_io.load_json(sigma))
            if view is not None:
                parsed = workspace.add_view(DEFAULT_NAME, repro_io.load_json(view))
                workspace._views.setdefault(parsed.name, parsed)
        return workspace
