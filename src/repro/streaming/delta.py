"""Delta-vs-cold differential helpers for the streaming workload.

The delta-aware recomputation (the per-pair verdict memo and the
provenance-keyed branch-cover memo — see
:mod:`repro.propagation.engine.core`) is required to be
**byte-identical** to a cold recompute.  This module holds the oracle
side of that contract:

- :class:`ColdReference` mirrors a trace's Sigma state edit by edit
  (applying exactly the diff semantics of
  :meth:`~repro.api.service.PropagationService.delta_sigma`) and answers
  every check/cover op with a *fresh* service — no warm state, no memos
  carried across ops.  The differential suite, the streaming
  session's ``verify`` mode and the fuzz matrix's ``delta`` entry all
  compare the warm delta path against it.
- :func:`canonical_verdicts` / :func:`canonical_cover` — the canonical
  answer strings the comparisons happen on (stable across transports
  and engine settings).
- :func:`warmth_fraction` — the retained-warmth fraction of one
  ``delta_sigma`` response, the per-edit metric the benchmarks track.
"""

from __future__ import annotations

import json

from ..api import CheckRequest, CoverRequest, PropagationService, SigmaUpdate
from ..io import dependencies_from_json, dependencies_to_json
from ..propagation.check import _as_cfds
from .trace import parse_trace

__all__ = [
    "ColdReference",
    "canonical_cover",
    "canonical_verdicts",
    "warmth_fraction",
]


def canonical_verdicts(verdicts) -> str:
    """A stable string for one check answer (``"110..."``)."""
    return "".join("1" if v else "0" for v in verdicts)


def canonical_cover(cover) -> str:
    """A stable string for one cover answer (sorted wire documents)."""
    return json.dumps(
        sorted(
            json.dumps(doc, sort_keys=True)
            for doc in dependencies_to_json(cover)
        )
    )


def warmth_fraction(update: SigmaUpdate) -> float:
    """Retained warm lines / pre-edit warm lines for one edit.

    An edit that found nothing warm (cold service, first edit) retains
    everything vacuously — reported as ``1.0`` so trace-level means are
    not skewed by the warm-up edits.
    """
    total = update.invalidated + update.retained
    return 1.0 if total == 0 else update.retained / total


class ColdReference:
    """The cold oracle: trace state mirrored, every answer from scratch.

    ``apply_edit`` replays a trace edit op against a private Sigma list
    with the exact ``delta_sigma`` diff semantics (normalized-subset
    removal, adds deduplicated against the survivors), so the mirrored
    set always equals the service's registered set.  ``check``/``cover``
    build a **fresh** :class:`~repro.api.PropagationService` per call:
    caches warm only within the one answer, exactly what "cold
    recompute" means.
    """

    def __init__(self, trace: dict, **service_options) -> None:
        self._schema, self._sigma, self._views, _ = parse_trace(trace)
        self._sigma = list(self._sigma)
        self._options = service_options

    @property
    def sigma(self) -> list:
        """The mirrored live Sigma (shared-nothing copy)."""
        return list(self._sigma)

    def apply_edit(self, op: dict) -> None:
        remove_cfds = set(_as_cfds(dependencies_from_json(op.get("remove", []))))
        kept = [
            dep
            for dep in self._sigma
            if not (
                remove_cfds
                and set(_as_cfds([dep]))
                and set(_as_cfds([dep])) <= remove_cfds
            )
        ]
        present = {frozenset(_as_cfds([dep])) for dep in kept}
        for dep in dependencies_from_json(op.get("add", [])):
            normalized = frozenset(_as_cfds([dep]))
            if normalized in present:
                continue
            present.add(normalized)
            kept.append(dep)
        self._sigma = kept

    def _service(self) -> PropagationService:
        service = PropagationService(**self._options)
        service.workspace.add_schema("default", self._schema)
        service.workspace.add_sigma("default", list(self._sigma))
        for name, view in self._views.items():
            service.workspace.add_view(name, view)
        return service

    def check(self, view_name: str, targets) -> list[bool]:
        return self._service().check(
            CheckRequest(view=view_name, targets=list(targets))
        ).propagated

    def cover(self, view_name: str):
        return self._service().cover(CoverRequest(view=view_name)).cover

    def answer(self, op: dict) -> str:
        """The canonical cold answer for one trace query op."""
        if op["op"] == "check":
            return canonical_verdicts(
                self.check(op["view"], dependencies_from_json(op["targets"]))
            )
        if op["op"] == "cover":
            return canonical_cover(self.cover(op["view"]))
        raise ValueError(f"not a query op: {op['op']!r}")
