"""Differential tests for the bit-packed kernel (``repro.kernel``).

Every kernel component is tested against the baseline it replaces, on
seeded random streams so failures reproduce:

- ``bitset_closure`` against the textbook ``_closure_fixpoint``,
- ``PackedEquivalenceClasses`` against ``EquivalenceClasses`` on random
  operation streams (including the ``BottomEQ`` witnesses),
- a ``kernel="bitset"`` engine against a ``kernel="baseline"`` engine on
  generator workloads — verdicts, covers and *byte-identical*
  counterexamples,
- the automatic fallback: a construct the packed runner cannot intern
  (an unhashable view constant) flips it unusable and the query is
  re-answered by the baseline.
"""

from __future__ import annotations

import random

import pytest

from repro import CFD
from repro.core.fd import FD, _closure_fixpoint
from repro.core.values import WILDCARD, is_wildcard
from repro.generators import random_cfds, random_schema, random_spcu_view
from repro.kernel import (
    DEFAULT_KERNEL,
    KERNELS,
    PackedEquivalenceClasses,
    bitset_closure,
    resolve_kernel,
    validate_kernel,
)
from repro.propagation.eqclasses import BottomEQ, EquivalenceClasses
from repro.propagation.engine import PropagationEngine

SEEDS = [0, 1, 2, 3]

ATTRS = [f"A{i}" for i in range(8)]


# ----------------------------------------------------------------------
# Attribute closure.
# ----------------------------------------------------------------------


def _random_fds(rng: random.Random, count: int) -> list[FD]:
    out = []
    for _ in range(count):
        lhs = tuple(rng.sample(ATTRS, rng.randint(1, 3)))
        rhs = tuple(rng.sample(ATTRS, rng.randint(1, 2)))
        out.append(FD("R", lhs, rhs))
    return out


class TestBitsetClosure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_fixpoint_on_random_streams(self, seed):
        rng = random.Random(4100 + seed)
        for _ in range(50):
            fds = frozenset(_random_fds(rng, rng.randint(0, 8)))
            attrs = frozenset(rng.sample(ATTRS, rng.randint(0, len(ATTRS))))
            assert bitset_closure(attrs, fds) == _closure_fixpoint(attrs, fds)

    def test_attrs_outside_every_fd(self):
        fds = frozenset([FD("R", ("A0",), ("A1",))])
        got = bitset_closure(frozenset({"Z", "A0"}), fds)
        assert got == frozenset({"Z", "A0", "A1"})

    def test_empty_inputs(self):
        assert bitset_closure(frozenset(), frozenset()) == frozenset()


# ----------------------------------------------------------------------
# Packed equivalence classes.
# ----------------------------------------------------------------------


def _bottom_equal(a, b) -> bool:
    if isinstance(a, BottomEQ) != isinstance(b, BottomEQ):
        return False
    if not isinstance(a, BottomEQ):
        return a is None and b is None
    return a.attribute == b.attribute and a.values == b.values


class TestPackedEquivalenceClasses:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_baseline_on_random_op_streams(self, seed):
        rng = random.Random(4200 + seed)
        attrs = ATTRS[: rng.randint(3, len(ATTRS))]
        base = EquivalenceClasses(attrs)
        packed = PackedEquivalenceClasses(attrs)
        for _ in range(120):
            op = rng.random()
            a, b = rng.choice(attrs), rng.choice(attrs)
            if op < 0.45:
                assert _bottom_equal(packed.union(a, b), base.union(a, b))
            elif op < 0.7:
                value = str(rng.randint(1, 3))
                assert _bottom_equal(
                    packed.set_key(a, value), base.set_key(a, value)
                )
            else:
                assert packed.find(a) == base.find(a)
                assert packed.same(a, b) == base.same(a, b)
                assert packed.key(a) == base.key(a)
                assert packed.has_key(a) == base.has_key(a)
        assert packed.classes() == base.classes()
        prefer = rng.sample(attrs, rng.randint(1, len(attrs)))
        reps = packed.representatives(prefer)
        assert reps == base.representatives(prefer)
        for attr in attrs:
            members = [m for m in attrs if base.same(m, attr)]
            assert reps[attr] == min([m for m in members if m in prefer] or members)

    def test_merge_direction_names_the_root(self):
        packed = PackedEquivalenceClasses(["X", "Y"])
        base = EquivalenceClasses(["X", "Y"])
        packed.union("Y", "X")
        base.union("Y", "X")
        assert packed.find("X") == base.find("X") == "Y"


# ----------------------------------------------------------------------
# Kernel selection.
# ----------------------------------------------------------------------


class TestConfig:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel() == DEFAULT_KERNEL == "bitset"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "baseline")
        assert resolve_kernel() == "baseline"
        # An explicit value wins over the environment.
        assert resolve_kernel("bitset") == "bitset"

    def test_rejects_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown kernel"):
            validate_kernel("turbo")
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel()

    def test_engine_resolves_and_validates(self):
        assert PropagationEngine(kernel="baseline").kernel == "baseline"
        with pytest.raises(ValueError, match="unknown kernel"):
            PropagationEngine(kernel="turbo")

    def test_kernel_is_not_a_memo_setting(self, tmp_path):
        # Answer-identical kernels share warm lines: the kernel must not
        # enter the key material, so a line persisted under one kernel
        # is a hit under the other.
        from repro.propagation.closure_baseline import example_41_workload

        view, sigma, queries = example_41_workload(3, defeat_fast_path=True)
        with PropagationEngine(kernel="bitset", cache_dir=str(tmp_path)) as warm:
            expected = warm.check_many(sigma, view, queries)
        with PropagationEngine(kernel="baseline", cache_dir=str(tmp_path)) as other:
            assert other.check_many(sigma, view, queries) == expected
            assert other.stats.persistent_hits > 0
            assert other.stats.chase_invocations == 0


# ----------------------------------------------------------------------
# Engine-level differential: packed chase vs the baseline.
# ----------------------------------------------------------------------


def _view_cfds(rng: random.Random, view, sigma, count: int):
    """Candidate view CFDs biased toward constants that interact."""
    pool = [str(v) for v in range(1, 5)]
    for phi in sigma:
        for _, entry in phi.lhs + phi.rhs:
            if not is_wildcard(entry):
                pool.append(entry.value)
    projection = list(view.branches[0].projection)
    out = []
    for _ in range(count):
        lhs_size = rng.randint(1, min(2, len(projection) - 1))
        chosen = rng.sample(projection, lhs_size + 1)

        def entry():
            return WILDCARD if rng.random() < 0.6 else rng.choice(pool)

        out.append(
            CFD(
                view.name,
                {a: entry() for a in chosen[:-1]},
                {chosen[-1]: entry()},
            )
        )
    return out


def _workload(seed: int):
    rng = random.Random(4300 + seed)
    schema = random_schema(rng, num_relations=3, min_attributes=4, max_attributes=6)
    sigma = random_cfds(rng, schema, 8, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spcu_view(
        rng,
        schema,
        num_branches=rng.randint(2, 3),
        num_projected=5,
        num_selections=2,
        num_atoms=2,
    )
    phis = _view_cfds(rng, view, sigma, 10)
    return sigma, view, phis


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_agree_on_verdicts_and_witnesses(seed):
    import json

    from repro import io as repro_io

    sigma, view, phis = _workload(seed)
    bitset = PropagationEngine(kernel="bitset")
    baseline = PropagationEngine(kernel="baseline")
    got = bitset.check_many(sigma, view, phis)
    want = baseline.check_many(sigma, view, phis)
    assert got == want
    for phi, verdict in zip(phis, want):
        if verdict:
            continue
        packed = bitset.find_counterexample(sigma, view, phi)
        plain = baseline.find_counterexample(sigma, view, phi)
        # Byte-identical on the wire: the same violating pair and the
        # same serialized database (fresh placeholder *objects* per
        # instantiation never compare equal in memory).
        assert packed.branch_pair == plain.branch_pair
        assert json.dumps(
            repro_io.instance_to_json(packed.database), sort_keys=True
        ) == json.dumps(
            repro_io.instance_to_json(plain.database), sort_keys=True
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_agree_on_covers(seed):
    sigma, view, _ = _workload(seed)
    bitset = PropagationEngine(kernel="bitset")
    baseline = PropagationEngine(kernel="baseline")
    assert bitset.cover(sigma, view) == baseline.cover(sigma, view)


def test_kernel_engine_still_counts_chases():
    """The packed path mirrors the tableau counters the stats surface."""
    sigma, view, phis = _workload(0)
    engine = PropagationEngine(kernel="bitset")
    engine.check_many(sigma, view, phis)
    stats = engine.stats
    assert stats.chase_invocations >= 0
    assert stats.coupled_misses >= stats.coupled_hits * 0  # counters exist
    # Closure-memo counters (PR 9 satellite) are surfaced too.
    assert stats.closure_hits >= 0 and stats.closure_misses >= 0
    assert "closure_hits=" in repr(stats)


def test_runner_does_not_keep_its_cache_alive():
    """A dropped view cache is freed at once, runners and tableaux included.

    The cache owns its runners; were the runner's back-reference strong,
    the pair would be a reference cycle holding every tableau until the
    next full garbage collection.
    """
    import gc
    import weakref

    from repro.propagation.check import BranchPairCache, _sigma_state, find_counterexample

    sigma, view, phis = _workload(0)
    cache = BranchPairCache(view, enabled=True)
    find_counterexample(sigma, view, phis[0], cache=cache, kernel="bitset")
    cache.kernel_runner(*_sigma_state(sigma))
    alive = weakref.ref(cache)
    gc.disable()
    try:
        del cache
        assert alive() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Automatic fallback.
# ----------------------------------------------------------------------


def test_unhashable_constant_falls_back_to_baseline():
    """A view constant the runner cannot intern must not change answers.

    The engine layer rejects unhashable view constants outright (its
    fingerprints hash them), so the fallback seam lives one level down:
    ``find_counterexample(..., kernel="bitset")`` meets the interning
    ``TypeError``, flips the runner unusable and re-answers through the
    baseline pair loop.
    """
    from repro import (
        ConstantRelation,
        DatabaseSchema,
        Product,
        RelationRef,
        RelationSchema,
        SPCUView,
        Union,
    )
    from repro.propagation.check import (
        BranchPairCache,
        _sigma_state,
        find_counterexample,
    )

    schema = DatabaseSchema(
        [RelationSchema(f"R{i}", ["A", "B"]) for i in (1, 2)]
    )

    class Weird:
        """Equality-only value: hashing it raises, `==` works."""

        __hash__ = None

        def __eq__(self, other):
            return isinstance(other, Weird)

    expr = Union(
        Product(ConstantRelation({"C": Weird()}), RelationRef("R1")),
        Product(ConstantRelation({"C": Weird()}), RelationRef("R2")),
    )
    view = SPCUView.from_expr(expr, schema, name="V")
    sigma = [FD("R1", ("A",), ("B",)), FD("R2", ("A",), ("B",))]
    holds = CFD("V", {"A": WILDCARD}, {"B": WILDCARD})
    fails = CFD("V", {"B": WILDCARD}, {"A": WILDCARD})
    for phi in (holds, fails):
        answers = []
        for kernel in KERNELS:
            cache = BranchPairCache(view, enabled=True)
            witness = find_counterexample(
                sigma, view, phi, cache=cache, kernel=kernel
            )
            answers.append(witness is None)
            if kernel == "bitset":
                cfds, sigma_key = _sigma_state(sigma)
                runner = cache.kernel_runner(cfds, sigma_key)
                assert runner.usable is False
        assert answers[0] == answers[1]
