"""Seeded case generation for the differential fuzzer.

A *case* is a plain JSON document — schema, Sigma, view and check
targets in the :mod:`repro.io` wire format plus the profile tag that
generated it — so every case is replayable byte-for-byte from its file
alone, with no reference to generator code or seeds.  Case identity is
the SHA-256 fingerprint of the canonical serialization; a fuzz run's
identity is the digest of its fingerprint sequence, which is how
``repro fuzz`` proves that re-running a seed reproduces the same cases.

Generation is profile-driven: ``PROFILES[index % len(PROFILES)]`` picks
the corner family and :func:`repro.generators.case_rng` derives one
private random stream per ``(run seed, case index)`` pair, so neither
the profile rotation nor any case's content depends on global
:mod:`random` state or on how many cases ran before it.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Iterable

from .. import io as repro_io
from ..core.cfd import CFD
from ..core.fd import FD
from ..core.values import WILDCARD
from ..generators import (
    case_rng,
    random_cfds,
    random_schema,
    random_spc_view,
    random_spcu_view,
)

__all__ = [
    "PROFILES",
    "case_fingerprint",
    "generate_case",
    "parse_case",
    "run_digest",
]

#: Constants for view-level target patterns: a small pool so targets
#: collide with the selection/Sigma constants often enough to matter.
_TARGET_POOL = ("1", "2", "3", "7")


def _small_schema(rng: random.Random, num_relations: int = 3):
    return random_schema(
        rng, num_relations=num_relations, min_attributes=3, max_attributes=5
    )


def _random_fds(rng: random.Random, relation) -> list[FD]:
    """FD-only Sigma in the shape of the closure-baseline fragment."""
    names = list(relation.attribute_names)
    fds = []
    for _ in range(len(names)):
        lhs = rng.sample(names, rng.randint(1, 2))
        rhs = rng.choice([a for a in names if a not in lhs])
        fds.append(FD(relation.name, lhs, (rhs,)))
    return fds


def _random_targets(
    rng: random.Random, view, count: int, fd_only: bool = False
) -> list[FD | CFD]:
    """Check targets over the view's projected attributes."""
    projection = list(view.projection)
    if len(projection) < 2:
        return []
    targets: list[FD | CFD] = []
    for _ in range(count):
        width = rng.randint(1, min(2, len(projection) - 1))
        chosen = rng.sample(projection, width + 1)
        lhs_attrs, rhs_attr = chosen[:-1], chosen[-1]
        if fd_only or rng.random() < 0.5:
            targets.append(FD(view.name, tuple(lhs_attrs), (rhs_attr,)))
            continue
        lhs = {
            a: (WILDCARD if rng.random() < 0.6 else rng.choice(_TARGET_POOL))
            for a in lhs_attrs
        }
        rhs = WILDCARD if rng.random() < 0.6 else rng.choice(_TARGET_POOL)
        targets.append(CFD(view.name, lhs, {rhs_attr: rhs}))
    return targets


# ----------------------------------------------------------------------
# Profiles: one builder per corner family, rotated round-robin.
# ----------------------------------------------------------------------


def _spc_mixed(rng: random.Random) -> tuple:
    schema = _small_schema(rng)
    sigma = random_cfds(rng, schema, 5, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spc_view(
        rng, schema, num_projected=4, num_selections=2, num_atoms=2
    )
    return schema, sigma, view, _random_targets(rng, view, 2)


def _fd_projection(rng: random.Random) -> tuple:
    """The closure-baseline fragment: FD sources, projection-only view."""
    schema = random_schema(
        rng, num_relations=1, min_attributes=5, max_attributes=7
    )
    relation = next(iter(schema))
    sigma = _random_fds(rng, relation)
    view = random_spc_view(
        rng,
        schema,
        num_projected=len(relation.attributes) - 2,
        num_selections=0,
        num_atoms=1,
    )
    return schema, sigma, view, _random_targets(rng, view, 3, fd_only=True)


def _empty_projection(rng: random.Random) -> tuple:
    schema = _small_schema(rng)
    sigma = random_cfds(rng, schema, 4, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spc_view(
        rng, schema, num_projected=0, num_selections=2, num_atoms=2
    )
    return schema, sigma, view, []


def _union_single(rng: random.Random) -> tuple:
    schema = _small_schema(rng)
    sigma = random_cfds(rng, schema, 4, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spcu_view(
        rng, schema, num_branches=1, num_projected=3, num_selections=1,
        num_atoms=2,
    )
    return schema, sigma, view, _random_targets(rng, view, 2)


def _union_identical(rng: random.Random) -> tuple:
    schema = _small_schema(rng)
    sigma = random_cfds(rng, schema, 4, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spcu_view(
        rng, schema, num_branches=3, num_projected=3, num_selections=1,
        num_atoms=1, identical_branches=True,
    )
    return schema, sigma, view, _random_targets(rng, view, 2)


def _union_mixed(rng: random.Random) -> tuple:
    schema = _small_schema(rng)
    sigma = random_cfds(rng, schema, 5, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spcu_view(
        rng, schema, num_branches=2, num_projected=3, num_selections=1,
        num_atoms=1,
    )
    return schema, sigma, view, _random_targets(rng, view, 2)


def _constant_lhs(rng: random.Random) -> tuple:
    schema = _small_schema(rng)
    sigma = random_cfds(
        rng, schema, 4, max_lhs=2, min_lhs=1, var_pct=0.4, constant_lhs=True
    )
    view = random_spc_view(
        rng, schema, num_projected=4, num_selections=1, num_atoms=2
    )
    return schema, sigma, view, _random_targets(rng, view, 2)


def _wide_lhs(rng: random.Random) -> tuple:
    """LHS width clamps to arity-1: the widest CFDs the schema admits."""
    schema = _small_schema(rng)
    sigma = random_cfds(rng, schema, 4, max_lhs=9, min_lhs=3, var_pct=0.5)
    view = random_spc_view(
        rng, schema, num_projected=5, num_selections=1, num_atoms=2
    )
    return schema, sigma, view, _random_targets(rng, view, 2)


#: Ordered profile table; ``index % len(PROFILES)`` picks the builder.
PROFILES: dict[str, Any] = {
    "spc-mixed": _spc_mixed,
    "fd-projection": _fd_projection,
    "empty-projection": _empty_projection,
    "union-single": _union_single,
    "union-identical": _union_identical,
    "union-mixed": _union_mixed,
    "constant-lhs": _constant_lhs,
    "wide-lhs": _wide_lhs,
}


# ----------------------------------------------------------------------
# Case documents.
# ----------------------------------------------------------------------


def generate_case(seed: int, index: int) -> dict:
    """Case *index* of the run seeded *seed*, as a replayable document."""
    names = list(PROFILES)
    profile = names[index % len(names)]
    rng = case_rng(seed, index)
    schema, sigma, view, targets = PROFILES[profile](rng)
    return {
        "profile": profile,
        "schema": repro_io.schema_to_json(schema),
        "sigma": repro_io.dependencies_to_json(sigma),
        "view": repro_io.view_to_json(view),
        "targets": repro_io.dependencies_to_json(targets),
    }


def parse_case(case: dict) -> tuple:
    """``(schema, sigma, view, targets)`` objects of a case document.

    Raises (:class:`repro.io.FormatError` or a validation error from the
    algebra layer) on malformed documents — the shrinker uses that as
    its candidate-validity check.
    """
    schema = repro_io.schema_from_json(case["schema"])
    sigma = repro_io.dependencies_from_json(case["sigma"])
    view = repro_io.view_from_json(case["view"], schema)
    targets = repro_io.dependencies_from_json(case["targets"])
    return schema, sigma, view, targets


def case_fingerprint(case: dict) -> str:
    """SHA-256 of the canonical serialization (case identity)."""
    canonical = json.dumps(case, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_digest(fingerprints: Iterable[str]) -> str:
    """One digest over a whole run's fingerprint sequence, in order."""
    joined = "\n".join(fingerprints)
    return hashlib.sha256(joined.encode()).hexdigest()


def is_fd_projection_case(case: dict) -> bool:
    """Whether the independent closure-baseline oracle decides this case.

    Structural, not profile-tag-based, so shrunk corpus files keep their
    oracle even after edits: FD-only Sigma and FD-only targets over a
    single-atom, selection-free, constant-free SPC view.
    """
    view = case["view"]
    if "branches" in view:
        return False
    if view.get("selection") or view.get("constants"):
        return False
    if len(view.get("atoms", ())) != 1:
        return False
    deps = list(case["sigma"]) + list(case["targets"])
    return all(dep.get("kind") == "fd" for dep in deps)
