"""The packed pair runner's certificate (``PackedPairRunner.certify``).

On the verdict path a violating pair named by the packed runner is
answered from the runner's own chased state: that state, instantiated
(a class holding a constant carries it, every other class a fresh
value), is a source instance D with D |= Sigma and V(D) |/= phi, which
``certify`` checks from the CFD and view objects alone.  Obligations:

1. every violation the runner names certifies — on the shared union
   workload and on seeded random unions with selections and ``Rc``
   constants — and verdicts and witnesses equal the baseline's;
2. a certified verdict re-chases nothing on the baseline, while the
   witness path still runs its one baseline chase;
3. a corrupted state (a union undone, a template rule dropped) fails
   the certificate, and the answer still comes from the baseline;
4. a constant not equal to itself (``nan``) in Sigma or phi sends the
   query to the baseline: interned by value, ``nan`` matched itself in
   the runner, which then answered "propagated" where the baseline
   finds a violation (the seeded probe met 21 such cases in 3,000).
"""

from __future__ import annotations

import json
import random

import pytest

from repro import CFD
from repro import io as repro_io
from repro.algebra.ops import AttrEq, ConstEq
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.kernel.chase import PackedPairRunner
from repro.propagation.check import (
    BranchPairCache,
    _pair_violation,
    _sigma_state,
    conjuncts,
    find_counterexample,
    propagates,
)
from repro.propagation.closure_baseline import union_shard_workload
from repro.propagation.engine import PropagationEngine

ATTRS = ["A", "B", "C"]
POOL = ["1", "2", "_"]


def _schema(relations=("R1", "R2", "R3")) -> DatabaseSchema:
    return DatabaseSchema([RelationSchema(rel, ATTRS) for rel in relations])


def _random_cfd(rng: random.Random, relation: str, attrs, pool=POOL) -> CFD:
    lhs = rng.sample(attrs, rng.randint(1, 2))
    rhs = rng.choice([a for a in attrs if a not in lhs])
    return CFD(relation, {a: rng.choice(pool) for a in lhs}, {rhs: rng.choice(pool)})


def _random_branch(rng: random.Random, schema: DatabaseSchema) -> SPCView:
    """One or two atoms, up to two selection atoms, one ``Rc`` tag."""
    atoms = []
    names: list[str] = []
    for k in range(rng.randint(1, 2)):
        mapping = {a: a if k == 0 else f"{a}{k}" for a in ATTRS}
        atoms.append(RelationAtom(rng.choice(["R1", "R2", "R3"]), mapping))
        names += mapping.values()
    selection = []
    for _ in range(rng.randint(0, 2)):
        left, right = rng.sample(names, 2)
        if rng.random() < 0.5:
            selection.append(AttrEq(left, right))
        else:
            selection.append(ConstEq(left, rng.choice(POOL[:2])))
    return SPCView(
        "U",
        schema,
        atoms,
        selection=selection,
        projection=ATTRS + ["CC"],
        constants={"CC": rng.choice(POOL[:2])},
    )


def _random_case(seed: int):
    rng = random.Random(9100 + seed)
    schema = _schema()
    view = SPCUView("U", [_random_branch(rng, schema) for _ in range(rng.randint(2, 3))])
    sigma = [
        _random_cfd(rng, rng.choice(["R1", "R2", "R3"]), ATTRS)
        for _ in range(rng.randint(2, 6))
    ]
    phis = [_random_cfd(rng, "U", ATTRS + ["CC"]) for _ in range(6)]
    return sigma, view, phis


def _cases():
    _, sigma, view, phis = union_shard_workload()
    yield sigma, view, phis
    for seed in range(24):
        yield _random_case(seed)


def _wire(database) -> str:
    return json.dumps(repro_io.instance_to_json(database), sort_keys=True)


# ----------------------------------------------------------------------
# 1. Every runner-named violation certifies; answers are the baseline's.
# ----------------------------------------------------------------------


def test_every_named_violation_certifies():
    named = 0
    for sigma, view, phis in _cases():
        sigma_cfds, sigma_key = _sigma_state(sigma)
        cache = BranchPairCache(view)
        runner = cache.kernel_runner(sigma_cfds, sigma_key)
        branches = cache.branches
        pairs = [(i, j) for i in range(len(branches)) for j in range(len(branches))]
        for phi in phis:
            for normal in conjuncts(phi, set(view.projection)):
                if normal.is_equality:
                    continue
                for pair in pairs:
                    hit = runner.find_violation(normal, [pair])
                    assert runner.usable
                    plain = _pair_violation(
                        sigma_cfds, sigma_key, branches, normal, None, False,
                        BranchPairCache(view), [pair], None, True,
                    )
                    assert (hit is None) == (plain is None)
                    if hit is not None:
                        named += 1
                        assert hit[0] == pair
                        assert runner.certify(normal, hit)
    assert named > 50  # the cases do name violations


def test_verdicts_and_witnesses_match_the_baseline():
    for sigma, view, phis in _cases():
        bitset = PropagationEngine(kernel="bitset")
        want = PropagationEngine(kernel="baseline").check_many(sigma, view, phis)
        assert bitset.check_many(sigma, view, phis) == want
        assert PropagationEngine(use_cache=False).check_many(sigma, view, phis) == want
        baseline = PropagationEngine(kernel="baseline")
        for phi, verdict in zip(phis, want):
            if verdict:
                continue
            got = bitset.find_counterexample(sigma, view, phi)
            plain = baseline.find_counterexample(sigma, view, phi)
            assert got.branch_pair == plain.branch_pair
            assert _wire(got.database) == _wire(plain.database)
            cache = BranchPairCache(view)
            direct = find_counterexample(sigma, view, phi, cache=cache, kernel="bitset")
            assert _wire(direct.database) == _wire(plain.database)


# ----------------------------------------------------------------------
# 2. Certified verdicts skip the baseline chase; witnesses do not.
# ----------------------------------------------------------------------


@pytest.fixture
def chased_calls(monkeypatch):
    calls = []
    chased = BranchPairCache.chased

    def spy(self, *args):
        calls.append(args[2:4])
        return chased(self, *args)

    monkeypatch.setattr(BranchPairCache, "chased", spy)
    return calls


def test_a_certified_verdict_runs_no_baseline_chase(chased_calls):
    _, sigma, view, phis = union_shard_workload()
    phi = phis[0]  # violated first on the pair (0, 1)
    verdict_cache = BranchPairCache(view)
    assert not propagates(sigma, view, phi, cache=verdict_cache, kernel="bitset")
    assert chased_calls == []
    witness_cache = BranchPairCache(view)
    witness = find_counterexample(sigma, view, phi, cache=witness_cache, kernel="bitset")
    assert witness.branch_pair == (0, 1)
    assert chased_calls == [(0, 1)]
    verdict, witnessed = verdict_cache.stats, witness_cache.stats
    assert witnessed.chased_misses == verdict.chased_misses + 1
    assert witnessed.chase_invocations == verdict.chase_invocations + 1
    assert witnessed.coupled_misses == verdict.coupled_misses + 1


def test_engine_check_is_certified_and_its_witness_is_not(chased_calls):
    _, sigma, view, phis = union_shard_workload()
    want = PropagationEngine(kernel="baseline").check_many(sigma, view, phis)
    chased_calls.clear()
    engine = PropagationEngine(kernel="bitset")
    assert engine.check_many(sigma, view, phis) == want
    # Only equality-form conjuncts (one branch, j=None) chase on the baseline.
    assert [call for call in chased_calls if call[1] is not None] == []
    engine.find_counterexample(sigma, view, phis[0])
    assert [call for call in chased_calls if call[1] is not None] == [(0, 1)]


# ----------------------------------------------------------------------
# 3. Mutation: a corrupted state fails the certificate.
# ----------------------------------------------------------------------


def _identity_view():
    schema = _schema(("R",))
    return SPCView("V", schema, [RelationAtom("R", {a: a for a in ATTRS})])


def test_undoing_any_union_fails_the_certificate():
    """Sigma = {A -> B}, phi = A -> C: the coupling unites the A cells and
    Sigma the B cells; each union is needed, so undoing either one
    leaves a state that is no counterexample."""
    view = _identity_view()
    sigma = [CFD("R", {"A": "_"}, {"B": "_"})]
    phi = CFD("V", {"A": "_"}, {"C": "_"})
    cache = BranchPairCache(view)  # the runner holds it weakly
    runner = cache.kernel_runner(*_sigma_state(sigma))
    hit = runner.find_violation(phi, [(0, 0)])
    assert runner.certify(phi, hit)
    pair, template, (parent, cnode) = hit
    undone = 0
    for node in range(len(parent)):
        if parent[node] == node:
            continue
        corrupt = list(parent)
        corrupt[node] = node
        assert not runner.certify(phi, (pair, template, (corrupt, cnode)))
        undone += 1
    assert undone >= 2


def test_a_dropped_template_rule_fails_the_certificate(monkeypatch, chased_calls):
    """Without the A -> B program the runner names a false violation of
    phi = A -> B; the certificate refuses it, the baseline overrules it
    and the query is still propagated."""
    view = _identity_view()
    sigma = [CFD("R", {"A": "_"}, {"B": "_"})]
    phi = CFD("V", {"A": "_"}, {"B": "_"})
    cache = BranchPairCache(view)
    runner = cache.kernel_runner(*_sigma_state(sigma))
    template = runner._pack(0, 0)
    assert template.pair_rules
    template.pair_rules.clear()
    refused = []
    certify = PackedPairRunner.certify

    def spy(self, phi, hit):
        ok = certify(self, phi, hit)
        refused.append(not ok)
        return ok

    monkeypatch.setattr(PackedPairRunner, "certify", spy)
    assert propagates(sigma, view, phi, cache=cache, kernel="bitset")
    assert refused == [True]
    # The baseline confirmation of (0, 0), then the full sweep over it.
    assert chased_calls == [(0, 0), (0, 0)]


# ----------------------------------------------------------------------
# 4. Constants not equal to themselves go to the baseline.
# ----------------------------------------------------------------------

NAN = float("nan")


def _nan_union() -> SPCUView:
    schema = _schema(("R1", "R2"))
    return SPCUView(
        "U",
        [
            SPCView("U", schema, [RelationAtom(rel, {a: a for a in ATTRS})])
            for rel in ("R1", "R2")
        ],
    )


def _answers(sigma, view, phi) -> list[bool]:
    return [
        PropagationEngine(**options).check_many(sigma, view, [phi])[0]
        for options in ({"kernel": "bitset"}, {"kernel": "baseline"}, {"use_cache": False})
    ]


def test_nan_in_sigma_and_phi_is_answered_by_the_baseline():
    sigma = [
        CFD("R1", {"C": NAN}, {"B": "1"}),
        CFD("R2", {"A": "_"}, {"C": "_"}),
        CFD("R2", {"B": "_"}, {"C": NAN}),
    ]
    phi = CFD("U", {"C": NAN}, {"B": "1"})
    assert _answers(sigma, _nan_union(), phi) == [False, False, False]


def test_nan_in_phi_alone_is_answered_by_the_baseline(monkeypatch):
    view = _nan_union()
    sigma = [CFD("R1", {"A": "_"}, {"B": "_"}), CFD("R2", {"A": "_"}, {"B": "_"})]
    phi = CFD("U", {"B": NAN}, {"C": "_"})

    def refuse(self, phi, pairs):
        raise AssertionError("the packed runner ran on a nan phi")

    monkeypatch.setattr(PackedPairRunner, "find_violation", refuse)
    assert _answers(sigma, view, phi) == [False, False, False]
    got = find_counterexample(sigma, view, phi, cache=BranchPairCache(view), kernel="bitset")
    assert _wire(got.database) == _wire(find_counterexample(sigma, view, phi).database)


def test_seeded_nan_probe_has_no_disagreements():
    rng = random.Random(0)
    view = _nan_union()
    pool = [NAN, "1", "_"]
    disagreements = []
    for _ in range(3000):
        sigma = [
            _random_cfd(rng, rng.choice(["R1", "R2"]), ATTRS, pool) for _ in range(3)
        ]
        phi = _random_cfd(rng, "U", ATTRS, pool)
        answers = _answers(sigma, view, phi)
        if len(set(answers)) > 1:
            disagreements.append((sigma, phi, answers))
    assert disagreements == []
