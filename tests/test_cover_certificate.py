"""Covers under both kernels, and a certificate for the compiled MinCover.

Two kinds of evidence that ``kernel="bitset"`` covers are right:

- **Byte identity across kernels.**  Every committed fuzz-corpus case
  and the Example 4.1 covers at n = 5, 6, 7 give the same canonical
  cover on a ``bitset`` engine, a ``baseline`` engine and the uncached
  oracle engine.
- **An independent certificate.**  On the Fig. 5 smoke pool (8 Sigma,
  |Sigma| = 60, the paper's generator) and on Example 4.1 at n = 5, the
  compiled ``min_cover`` is checked with the untouched baseline
  ``core.implication.implies`` alone: the cover is equivalent to its
  input, no member is implied by the rest, and no LHS attribute of a
  member can be dropped.  A constant-dense pool (constants from 2-3
  values, so literals meet and clash) gets the same certificate.  The
  certificate shares no code with the packed chase.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import CFD
from repro.core.implication import equivalent, implies
from repro.core.mincover import min_cover
from repro.core.values import is_const
from repro.fuzz.cases import parse_case
from repro.generators import random_cfds, random_schema, random_spc_view
from repro.propagation.closure_baseline import example_41_workload
from repro.propagation.cover import prop_cfd_spc_report
from repro.propagation.engine import PropagationEngine
from repro.streaming import canonical_cover

CORPUS_FILES = sorted((Path(__file__).parent / "fuzz_corpus").glob("*.json"))

#: The Section 5 generator seed of the figure benchmarks.
PAPER_SEED = 20080824


def _covers_by_kernel(sigma, view) -> dict[str, list[str]]:
    engines = {
        "bitset": PropagationEngine(kernel="bitset"),
        "baseline": PropagationEngine(kernel="baseline"),
        "uncached": PropagationEngine(use_cache=False),
    }
    out = {}
    for name, engine in engines.items():
        with engine:
            cover = engine.cover(sigma, view)
        out[name] = [repr(phi) for phi in cover] + [canonical_cover(cover)]
    return out


def _assert_identical(covers: dict[str, list[str]]) -> None:
    expected = covers["uncached"]
    assert all(got == expected for got in covers.values()), covers


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_covers_identical_across_kernels(path):
    _, sigma, view, _ = parse_case(json.loads(path.read_text())["case"])
    _assert_identical(_covers_by_kernel(sigma, view))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_example_41_covers_identical_across_kernels(n):
    view, sigma, _ = example_41_workload(n)
    covers = _covers_by_kernel(sigma, view)
    _assert_identical(covers)
    assert len(covers["bitset"]) - 1 >= 2**n


# ----------------------------------------------------------------------
# The certificate.
# ----------------------------------------------------------------------


def certify_min_cover(pool: list[CFD], cover: list[CFD]) -> None:
    """Check *cover* is a minimal cover of *pool* with baseline ``implies``."""
    assert equivalent(cover, pool)
    for i, phi in enumerate(cover):
        rest = cover[:i] + cover[i + 1 :]
        assert not implies(rest, phi), f"{phi} is redundant"
        if phi.is_equality or len(phi.lhs) <= 1:
            continue
        for name in phi.lhs_attrs:
            candidate = phi.drop_lhs_attribute(name)
            if not candidate.is_trivial():
                assert not implies(cover, candidate), f"{name} droppable from {phi}"


def _fig5_smoke_input(index: int):
    """Sigma *index* of the Fig. 5 smoke pool, with the Fig. 5 view."""
    schema = random_schema(random.Random(PAPER_SEED), num_relations=10)
    view = random_spc_view(
        random.Random(PAPER_SEED + 7919 * 25 + 31 * 10 + 4),
        schema,
        num_projected=25,
        num_selections=10,
        num_atoms=4,
        block_projection=True,
    )
    size = 60
    rng = random.Random(PAPER_SEED + 1000 * size + index)
    var_pct = (0.4, 0.5)[index % 2]
    return random_cfds(rng, schema, size, max_lhs=9, min_lhs=3, var_pct=var_pct), view


@pytest.mark.parametrize("index", range(8))
def test_fig5_smoke_pool_min_cover_certified(index):
    sigma, view = _fig5_smoke_input(index)
    certify_min_cover(sigma, min_cover(sigma, kernel="bitset"))
    # The final MinCover of Figure 2 (line 13), over the view's CFDs.
    pool = prop_cfd_spc_report(sigma, view, final_min_cover=False).cover
    certify_min_cover(pool, min_cover(pool, kernel="bitset"))


DENSE_ATTRS = ["A", "B", "C", "D", "E", "F", "G"]


def _constant_dense_sigma(seed: int, count: int = 24) -> list[CFD]:
    """One relation's CFDs with constants from a pool of 2-3 values.

    The Fig. 5 generator draws constants from [1, 100000], so its rules
    almost never share a literal; here one rule's RHS constant is often
    another's LHS check, and constant clashes happen.  A constant-RHS
    rule gets a constant LHS check, so Sigma alone does not already clash
    on two fresh rows (which would make every candidate implied).
    """
    rng = random.Random(PAPER_SEED + seed)
    pool = [1, 2, "a"][: 2 + seed % 2]

    def entry():
        return rng.choice(pool) if rng.random() < 0.5 else "_"

    sigma = []
    for _ in range(count):
        names = rng.sample(DENSE_ATTRS, rng.randint(2, 4))
        rhs_name = names.pop()
        lhs = {name: entry() for name in names}
        rhs = entry()
        if rhs != "_" and set(lhs.values()) == {"_"}:
            lhs[names[0]] = rng.choice(pool)
        sigma.append(CFD("R", lhs, {rhs_name: rhs}))
    return sigma


@pytest.mark.parametrize("seed", range(6))
def test_constant_dense_min_cover_certified(seed):
    sigma = _constant_dense_sigma(seed)
    checks = {item for phi in sigma for item in phi.lhs if is_const(item[1])}
    writes = {phi.rhs[0] for phi in sigma if is_const(phi.rhs[0][1])}
    assert checks & writes, "no rule's RHS literal is another rule's LHS check"
    certify_min_cover(sigma, min_cover(sigma, kernel="bitset"))


def test_example_41_min_cover_certified():
    view, sigma, _ = example_41_workload(5)
    sigma = [CFD.from_fd(fd) for fd in sigma]
    certify_min_cover(sigma, min_cover(sigma, kernel="bitset"))
    pool = prop_cfd_spc_report(sigma, view, final_min_cover=False).cover
    cover = min_cover(pool, kernel="bitset")
    assert len(cover) >= 2**5
    certify_min_cover(pool, cover)
