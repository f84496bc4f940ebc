"""Shared benchmark infrastructure.

Every benchmark regenerates one figure or table of the paper's evaluation
(Section 5).  Workloads come from the Section 5 generators with fixed
seeds, so runs are reproducible.

Grid selection
--------------
The paper sweeps e.g. ``|Sigma|`` over 200..2000 in steps of 200.  A full
sweep of every figure takes tens of minutes in pure Python, so three grid
sizes are provided, chosen via environment variables:

- ``REPRO_FAST=1``  — a tiny smoke grid (seconds).
- default           — endpoints plus midpoints of every paper sweep; the
                      headline configurations (|Sigma| = 2000, |Y| = 50,
                      ...) are all included.
- ``REPRO_FULL=1``  — the paper's exact grids.

Each benchmark records the quantity the paper's companion panel reports
(cover cardinality, number of propagated CFDs) in ``extra_info``, and a
session-end hook prints per-figure series tables mirroring the paper's
plots.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict

import pytest

from repro.generators import random_cfds, random_schema, random_spc_view
from repro.propagation.engine import PropagationEngine

SEED = 20080824

#: ``REPRO_NO_CACHE=1`` routes the engine-backed benchmarks (the ones
#: taking the ``propagation_engine`` fixture) through the uncached
#: baseline — the ablation escape hatch mirroring the CLI's
#: ``--no-cache`` flag.
NO_CACHE = os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")

#: Engine knobs mirroring the CLI's --cache-dir / --cache-size: point
#: the fixture engines at a shared persistent store or bound their
#: in-memory memo tiers.  (``REPRO_NO_CACHE=1`` beats both — the
#: baseline must stay cold.)
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None
CACHE_SIZE = int(os.environ.get("REPRO_CACHE_SIZE", "0") or "0") or None

#: Paper defaults (Section 5): |Y| = 25, |F| = 10, |Ec| = 4, LHS in 3..9.
PAPER_Y = 25
PAPER_F = 10
PAPER_EC = 4
PAPER_SIGMA = 2000
VAR_PCTS = (0.4, 0.5)


def grid(full: list[int], default: list[int], fast: list[int]) -> list[int]:
    if os.environ.get("REPRO_FULL"):
        return full
    if os.environ.get("REPRO_FAST"):
        return fast
    return default


SIGMA_GRID = grid(
    full=list(range(200, 2001, 200)),
    default=[200, 1000, 2000],
    fast=[100, 200],
)
Y_GRID = grid(
    full=list(range(5, 51, 5)),
    default=[5, 25, 50],
    fast=[5, 10],
)
F_GRID = grid(
    full=list(range(1, 11)),
    default=[1, 5, 10],
    fast=[1, 4],
)
EC_GRID = grid(
    full=list(range(2, 12)),
    default=[2, 6, 11],
    fast=[2, 3],
)
SIGMA_FIXED = (
    100 if os.environ.get("REPRO_FAST") else PAPER_SIGMA
)


@pytest.fixture
def propagation_engine():
    """A fresh batch engine per benchmark.

    Honors ``REPRO_NO_CACHE=1`` (uncached baseline) plus the cache-tier
    knobs ``REPRO_CACHE_DIR`` and ``REPRO_CACHE_SIZE``.
    """
    engine = PropagationEngine(
        use_cache=not NO_CACHE,
        cache_dir=CACHE_DIR,
        cache_size=CACHE_SIZE,
    )
    yield engine
    engine.close()


@pytest.fixture(scope="session")
def source_schema():
    """One source schema shared by every benchmark (>= 10 relations)."""
    return random_schema(random.Random(SEED), num_relations=10)


@pytest.fixture(scope="session")
def sigma_cache(source_schema):
    """Memoized source-CFD sets keyed by (size, var_pct)."""
    cache = {}

    def get(size: int, var_pct: float):
        key = (size, var_pct)
        if key not in cache:
            rng = random.Random(SEED + size + int(var_pct * 100))
            cache[key] = random_cfds(
                rng, source_schema, size, max_lhs=9, min_lhs=3, var_pct=var_pct
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def view_cache(source_schema):
    """Memoized SPC views keyed by (|Y|, |F|, |Ec|, projection mode).

    Figures 5-7 use block projection (required to reproduce the paper's
    cover magnitudes); Figure 8 uses uniform projection (required to
    reproduce the survival collapse as |Ec| grows).  The paper does not
    say how ``Y`` is drawn, and neither mode reproduces all four
    figures.  Block projection keeps whole relations visible, so source
    CFDs survive into covers of the sizes Figures 5(b)-7(b) report;
    under a uniform ``Y`` almost no CFD keeps all its attributes
    projected and those covers collapse to a handful (see
    ``random_spc_view``).  Figure 8's decline needs the uniform mode:
    with ``|Y|`` fixed and the product growing, a uniform ``Y`` drops
    more of each relation's attributes, so fewer CFDs survive into RBR
    (see ``bench_fig8.py``).
    """
    cache = {}

    def get(
        num_projected: int,
        num_selections: int,
        num_atoms: int,
        block_projection: bool = True,
    ):
        key = (num_projected, num_selections, num_atoms, block_projection)
        if key not in cache:
            rng = random.Random(
                SEED + 7919 * num_projected + 31 * num_selections + num_atoms
            )
            cache[key] = random_spc_view(
                rng,
                source_schema,
                num_projected=num_projected,
                num_selections=num_selections,
                num_atoms=num_atoms,
                block_projection=block_projection,
            )
        return cache[key]

    return get


# ----------------------------------------------------------------------
# Figure-series reporting.
# ----------------------------------------------------------------------

_SERIES: dict[str, list[tuple]] = defaultdict(list)


def record_point(figure: str, x, series: str, runtime: float, extra: dict) -> None:
    _SERIES[figure].append((series, x, runtime, extra))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _SERIES:
        return
    tr = terminalreporter
    tr.section("paper figure series (regenerated)")
    for figure in sorted(_SERIES):
        tr.write_line("")
        tr.write_line(f"== {figure} ==")
        points = sorted(_SERIES[figure], key=lambda p: (p[0], p[1]))
        for series, x, runtime, extra in points:
            extras = "  ".join(f"{k}={v}" for k, v in extra.items())
            tr.write_line(
                f"  {series:<12} x={x:<8} runtime={runtime:8.3f}s  {extras}"
            )
