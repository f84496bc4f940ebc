"""The textbook closure-based propagation-cover method (the baseline).

Section 4.1: the method covered by database texts computes the closure
``F+`` of the source FDs — *always* exponential time — and projects it
onto the view attributes.  Gottlob's RBR (and ``PropCFD_SPC`` here) exists
precisely to avoid that cost on the common inputs whose covers are small.

This module implements the baseline for FD sources and projection views so
the A1 ablation benchmark can measure the blow-up, plus the Example 4.1
family on which *every* cover is necessarily exponential — the case where
the baseline and RBR are both doomed and the paper's polynomial-time
heuristic (truncate at a bound) is the only escape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.fd import FD, fd_closure, minimal_cover, project_fds
from ..core.schema import DatabaseSchema, RelationSchema


def closure_projection_cover(
    fds: Iterable[FD],
    relation: str,
    attributes: Sequence[str],
    projection: Sequence[str],
    minimize: bool = True,
) -> list[FD]:
    """Cover of the FDs propagated via ``pi_projection(relation)``.

    Computes the full closure over *attributes* and keeps the FDs whose
    attributes survive the projection.  Exponential in ``len(attributes)``
    by construction — this is the point of the baseline.
    """
    closure = fd_closure(relation, attributes, fds)
    projected = project_fds(closure, set(projection), relation=relation)
    if minimize:
        return minimal_cover(projected)
    return projected


def exponential_family(n: int) -> tuple[RelationSchema, list[FD], list[str]]:
    """The Example 4.1 family: covers are necessarily exponential.

    Schema ``R(A1..An, B1..Bn, C1..Cn, D)`` with FDs ``Ai -> Ci``,
    ``Bi -> Ci`` and ``C1...Cn -> D``; the view projects away the ``Ci``.
    Every cover of the propagated FDs contains all ``2^n`` dependencies
    ``eta_1 ... eta_n -> D`` with ``eta_i`` one of ``Ai``/``Bi``.

    Returns the schema, the source FDs and the projection list.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a = [f"A{i}" for i in range(1, n + 1)]
    b = [f"B{i}" for i in range(1, n + 1)]
    c = [f"C{i}" for i in range(1, n + 1)]
    schema = RelationSchema("R", a + b + c + ["D"])
    fds: list[FD] = []
    for i in range(n):
        fds.append(FD("R", (a[i],), (c[i],)))
        fds.append(FD("R", (b[i],), (c[i],)))
    fds.append(FD("R", tuple(c), ("D",)))
    projection = a + b + ["D"]
    return schema, fds, projection


def exponential_family_schema(n: int) -> DatabaseSchema:
    """The Example 4.1 schema wrapped as a one-relation database schema."""
    schema, _, _ = exponential_family(n)
    return DatabaseSchema([schema])


def example_41_workload(n: int, defeat_fast_path: bool = False):
    """The Example 4.1 *batch* workload the acceptance experiments share.

    The :func:`exponential_family` sources wrapped as a projection view
    ``V`` plus the ``2^n`` eta-combination queries ``eta_1...eta_n -> D``
    (one per ``Ai``/``Bi`` mask) — the workload the server smoke tests
    and the cache/server benchmarks all replay, defined once so they
    provably replay the *same* batch.

    ``defeat_fast_path=True`` spikes Sigma with a CFD so the engine's
    closure fast path does not trivialize chase-count assertions (the
    cold leg must actually chase for "warm = zero chases" to mean
    anything).

    Returns ``(view, sigma, queries)``; callers needing the wire format
    serialize with :mod:`repro.io`.
    """
    from ..algebra.spc import RelationAtom, SPCView
    from ..core.cfd import CFD

    schema, fds, projection = exponential_family(n)
    view = SPCView(
        "V",
        DatabaseSchema([schema]),
        [RelationAtom("R", {attr: attr for attr in schema.attribute_names})],
        projection=projection,
    )
    sigma: list = list(fds)
    if defeat_fast_path:
        sigma.append(CFD("R", {"A1": "1"}, {"D": "9"}))
    queries = []
    for mask in range(2**n):
        lhs = tuple(
            (f"A{i + 1}" if mask & (1 << i) else f"B{i + 1}") for i in range(n)
        )
        queries.append(FD("V", lhs, ("D",)))
    return view, sigma, queries


def union_shard_workload():
    """The 3-branch union workload the fleet experiments share.

    A union view ``U`` over relations ``R1``/``R2``/``R3`` (one tagged
    branch each) whose ``k² = 9`` branch-pair space gives the pair chase
    real work, with Sigma spiked per relation so nothing trivializes
    into the closure fast path.  Defined once so the transport tests,
    the replica failover smoke and perfbench replay the *same*
    workload.

    Returns ``(schema, sigma, view, phis)`` objects; callers needing the
    wire format serialize with :mod:`repro.io`.
    """
    from ..algebra.spc import RelationAtom, SPCView
    from ..algebra.spcu import SPCUView
    from ..core.cfd import CFD

    attrs = ["A", "B", "C", "D"]
    relations = ("R1", "R2", "R3")
    schema = DatabaseSchema([RelationSchema(rel, attrs) for rel in relations])
    branches = [
        SPCView(
            "U",
            schema,
            [RelationAtom(rel, {a: a for a in attrs})],
            projection=["A", "B", "CC"],
            constants={"CC": tag},
        )
        for rel, tag in zip(relations, ("1", "2", "3"))
    ]
    sigma: list = []
    for rel in relations:
        sigma += [
            FD(rel, ("A",), ("B",)),
            FD(rel, ("B",), ("C",)),
            CFD(rel, {"A": "1"}, {"D": "9"}),
        ]
    phis = [
        CFD("U", {"A": "_"}, {"B": "_"}),
        CFD("U", {"CC": "1", "A": "_"}, {"B": "_"}),
        CFD("U", {"CC": "2", "A": "_"}, {"B": "_"}),
        CFD("U", {"A": "_", "B": "_"}, {"CC": "_"}),
        CFD("U", {"CC": "1"}, {"CC": "1"}),
    ]
    return schema, sigma, SPCUView("U", branches), phis
