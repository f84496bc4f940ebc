"""The seeded, replayable edit-trace format (``repro-trace/1``).

A *trace* is one continuous-edit workload as a plain JSON document:
a schema, an initial Sigma, named views, and an ``ops`` list that
interleaves Sigma edits with check/cover traffic — everything in the
:mod:`repro.io` wire format, so a trace file replays byte-for-byte with
no reference to generator code or seeds (the same contract as the fuzz
corpus).  :func:`generate_trace` derives one deterministically from a
seed via :mod:`repro.generators`; :class:`~repro.streaming.session.
StreamingSession` applies one to a live service or endpoint.

Ops
---

- ``{"op": "edit", "kind": "add" | "drop" | "tighten", "relation": R,
  "add": [dep...], "remove": [dep...]}`` — one Sigma diff, applied via
  ``delta_sigma`` / ``update-sigma``.  ``tighten`` retires a dependency
  and re-adds it with one wildcard LHS position bound to a constant
  (a strictly narrower pattern), spelled as a remove+add pair so the
  replay path is just the ordinary diff.
- ``{"op": "check", "view": name, "targets": [dep...]}`` — a batched
  ``Sigma |=_V phi`` query.
- ``{"op": "cover", "view": name}`` — a propagation-cover query.

The generator tracks the live Sigma while emitting edits, so drops and
tightens always name currently-registered dependencies and adds never
duplicate one — every edit moves Sigma, which is what makes the
retained-warmth fraction per edit meaningful.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from .. import io as repro_io
from ..core.cfd import CFD
from ..core.values import WILDCARD, is_wildcard
from ..generators import (
    random_cfd,
    random_cfds,
    random_schema,
    random_spcu_view,
    resolve_rng,
)

__all__ = [
    "TRACE_FORMAT",
    "generate_trace",
    "load_trace",
    "parse_trace",
    "save_trace",
]

TRACE_FORMAT = "repro-trace/1"

#: Constants for generated check targets: a small pool so targets
#: collide with Sigma/selection constants often enough to matter.
_TARGET_POOL = ("1", "2", "3", "7")


def _targets(rng: random.Random, view, count: int) -> list[dict]:
    """Random check targets over the view's projection (wire format)."""
    projection = list(view.projection)
    if len(projection) < 2:
        return []
    out = []
    for _ in range(count):
        width = rng.randint(1, min(2, len(projection) - 1))
        chosen = rng.sample(projection, width + 1)
        lhs = {
            a: (WILDCARD if rng.random() < 0.6 else rng.choice(_TARGET_POOL))
            for a in chosen[:-1]
        }
        rhs = WILDCARD if rng.random() < 0.6 else rng.choice(_TARGET_POOL)
        out.append(
            repro_io.dependency_to_json(CFD(view.name, lhs, {chosen[-1]: rhs}))
        )
    return out


def _tightened(rng: random.Random, phi: CFD) -> CFD | None:
    """*phi* with one wildcard LHS position bound to a fresh constant."""
    wildcards = [attr for attr, entry in phi.lhs if is_wildcard(entry)]
    if not wildcards:
        return None
    lhs = dict(phi.lhs)
    lhs[rng.choice(sorted(wildcards))] = rng.randint(1, 100000)
    return CFD(phi.relation, lhs, dict(phi.rhs))


def generate_trace(
    seed: int,
    edits: int,
    ops_per_edit: int = 2,
    num_relations: int = 4,
    num_branches: int = 3,
    cfds_per_relation: int = 2,
) -> dict:
    """A deterministic continuous-edit trace for *seed*.

    ``edits`` Sigma edits (adds, drops and tightens over the live set),
    each followed by ``ops_per_edit`` check/cover ops on an SPCU union
    view of ``num_branches`` branches — the workload where the delta
    path's pair and branch-cover memos have something to retain.
    """
    rng = resolve_rng(None, seed)
    schema = random_schema(
        rng, num_relations=num_relations, min_attributes=3, max_attributes=5
    )
    sigma = random_cfds(
        rng,
        schema,
        count=cfds_per_relation * num_relations,
        max_lhs=2,
        min_lhs=1,
        var_pct=0.5,
    )
    # Single-atom branches keep per-branch provenance to one relation
    # each (an edit elsewhere leaves that branch's pool and pairs warm),
    # and this projection/selection shape yields non-empty union covers
    # often enough that the cover ops exercise the branch-cover memo.
    view = random_spcu_view(
        rng,
        schema,
        num_branches=num_branches,
        num_projected=4,
        num_selections=2,
        num_atoms=1,
        name="U",
    )

    live: list[CFD] = list(sigma)
    relations = sorted(schema.relations)
    ops: list[dict[str, Any]] = []
    for _ in range(edits):
        kind = rng.choice(("add", "add", "drop", "tighten"))
        op: dict[str, Any] | None = None
        if kind == "drop" and len(live) <= num_relations:
            kind = "add"  # keep Sigma from draining empty
        if kind == "tighten":
            candidates = sorted(
                (
                    phi
                    for phi in live
                    if any(is_wildcard(entry) for _, entry in phi.lhs)
                ),
                key=repr,
            )
            if not candidates:
                kind = "add"
            else:
                old = rng.choice(candidates)
                new = _tightened(rng, old)
                live.remove(old)
                live.append(new)
                op = {
                    "op": "edit",
                    "kind": "tighten",
                    "relation": old.relation,
                    "add": [repro_io.dependency_to_json(new)],
                    "remove": [repro_io.dependency_to_json(old)],
                }
        if kind == "drop":
            old = rng.choice(sorted(live, key=repr))
            live.remove(old)
            op = {
                "op": "edit",
                "kind": "drop",
                "relation": old.relation,
                "add": [],
                "remove": [repro_io.dependency_to_json(old)],
            }
        if op is None:  # "add", or a fallback from above
            relation = schema.relation(rng.choice(relations))
            new = None
            for _attempt in range(8):
                candidate = random_cfd(
                    rng, relation, max_lhs=2, min_lhs=1, var_pct=0.5
                )
                if candidate not in live:
                    new = candidate
                    break
            if new is None:  # pathologically saturated; emit a no-op edit
                op = {
                    "op": "edit",
                    "kind": "add",
                    "relation": relation.name,
                    "add": [],
                    "remove": [],
                }
            else:
                live.append(new)
                op = {
                    "op": "edit",
                    "kind": "add",
                    "relation": relation.name,
                    "add": [repro_io.dependency_to_json(new)],
                    "remove": [],
                }
        ops.append(op)
        for step in range(ops_per_edit):
            if step % 2 == 0:
                ops.append(
                    {
                        "op": "check",
                        "view": view.name,
                        "targets": _targets(rng, view, 2),
                    }
                )
            else:
                ops.append({"op": "cover", "view": view.name})

    return {
        "format": TRACE_FORMAT,
        "seed": seed,
        "edits": edits,
        "ops_per_edit": ops_per_edit,
        "schema": repro_io.schema_to_json(schema),
        "sigma": repro_io.dependencies_to_json(sigma),
        "views": {view.name: repro_io.view_to_json(view)},
        "ops": ops,
    }


def parse_trace(doc: dict) -> tuple:
    """``(schema, sigma, views, ops)`` from a trace document."""
    if doc.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"not a {TRACE_FORMAT} document: format={doc.get('format')!r}"
        )
    schema = repro_io.schema_from_json(doc["schema"])
    sigma = repro_io.dependencies_from_json(doc["sigma"])
    views = {
        name: repro_io.view_from_json(view_doc, schema)
        for name, view_doc in doc["views"].items()
    }
    return schema, sigma, views, list(doc["ops"])


def load_trace(path: str | Path) -> dict:
    """Read and format-check a trace file."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"{path}: not a {TRACE_FORMAT} document "
            f"(format={doc.get('format')!r})"
        )
    return doc


def save_trace(doc: dict, path: str | Path) -> None:
    """Write a trace document (stable formatting, replayable bytes)."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
