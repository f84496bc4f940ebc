"""Differential tests for the compiled implication program.

``repro.kernel.implication`` decides ``Sigma |= phi`` on a packed
two-tuple chase over a Sigma compiled once per relation, and
``min_cover(..., kernel="bitset")`` runs both MinCover passes on it.
Everything here is checked against the untouched baseline
``repro.core.implication.implies`` on seeded streams, so failures
reproduce:

- verdict by verdict, on hand-built corners (equality-form CFDs in Sigma
  and as phi, conflicting constants, multi-RHS phi, phi attributes
  absent from Sigma, constant-LHS self-pairing, constants that compare
  equal across types) and on random and generator-drawn streams;
- the alive mask against rebuilding ``rest`` without the tested rule;
- the mask representation's corners: clashes and checks through an
  attribute group, regrouping when an equality rule is retired, the
  one-row equality test, a Sigma that clashes on two fresh rows, and
  constant-RHS wildcards trimmed without a test;
- ``min_cover`` output byte for byte under both kernels;
- the fallbacks: a finite-domain schema, ``kernel="baseline"``,
  ``REPRO_KERNEL=baseline``, an uncached engine and an uninternable
  constant all run the baseline tests;
- ``implies``' folded wildcard path on FD-shaped targets, and the
  engine's one-pass ``program_verdicts`` against the uncached engine.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import CFD
from repro import io as repro_io
from repro.core import mincover
from repro.core.fd import FD
from repro.core.implication import implies
from repro.core.mincover import min_cover
from repro.core.domains import BOOL
from repro.core.values import Const
from repro.core.schema import Attribute, RelationSchema
from repro.generators import random_cfds, random_schema
from repro.kernel.implication import ImplicationProgram, _literal_table, _rule
from repro.propagation.engine import core as engine_core
from repro.propagation.closure_baseline import example_41_workload
from repro.propagation.engine import PropagationEngine

SEEDS = [0, 1, 2, 3, 4, 5]

ATTRS = ["A", "B", "C", "D", "E"]
#: 1, 1.0 and True compare equal; the program must treat them as the
#: baseline's ``==`` does.
CONSTANTS = [1, 1.0, True, 0, 2, "a", "b"]


def _random_cfd(rng: random.Random, attrs=ATTRS, relation="R") -> CFD:
    if rng.random() < 0.1:
        a, b = rng.sample(attrs, 2)
        return CFD.equality(relation, a, b)
    lhs = {
        name: rng.choice(CONSTANTS) if rng.random() < 0.4 else "_"
        for name in rng.sample(attrs, rng.randint(0, 3))
    }
    rhs_names = rng.sample(attrs, 1 if rng.random() < 0.8 else 2)
    rhs = {
        name: rng.choice(CONSTANTS) if rng.random() < 0.35 else "_"
        for name in rhs_names
    }
    return CFD(relation, lhs, rhs)


def _random_sigma(rng: random.Random, count: int) -> list[CFD]:
    out = []
    while len(out) < count:
        cfd = _random_cfd(rng)
        if not cfd.is_trivial():
            out.append(cfd)
    return out


def packed_implies(sigma, phi) -> bool:
    """``Sigma |= phi`` on a freshly compiled program.

    Mirrors the baseline's input handling: FDs are embedded as CFDs, only
    rules on phi's relation count, and a general-form phi holds when each
    of its nontrivial normal forms does.
    """
    if isinstance(phi, FD):
        phi = CFD.from_fd(phi)
    rules = sorted(
        {
            normal
            for dep in sigma
            if dep.relation == phi.relation
            for normal in (CFD.from_fd(dep) if isinstance(dep, FD) else dep).normalize()
        },
        key=repr,
    )
    program = ImplicationProgram(rules)
    return all(
        program.implies(normal.lhs, normal.rhs_attr, normal.rhs_entry)
        for normal in phi.normalize()
        if not normal.is_trivial()
    )


def _canonical(cover: list[CFD]) -> str:
    """Byte identity: repr order plus the wire documents (types kept)."""
    return json.dumps(
        [repr(phi) for phi in cover] + repro_io.dependencies_to_json(cover),
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Verdicts.
# ----------------------------------------------------------------------


R = "R"

CORNERS = [
    # Equality-form CFDs in Sigma, and as phi.
    ([CFD.equality(R, "A", "B"), CFD(R, {"B": "_"}, {"C": "_"})], CFD(R, {"A": "_"}, {"C": "_"})),
    ([CFD.equality(R, "A", "B"), CFD.equality(R, "B", "C")], CFD.equality(R, "A", "C")),
    ([CFD.equality(R, "A", "B")], CFD.equality(R, "A", "C")),
    ([CFD(R, {}, {"A": 1}), CFD(R, {}, {"B": 1})], CFD.equality(R, "A", "B")),
    ([CFD(R, {"A": "_"}, {"B": "_"})], CFD.equality(R, "A", "B")),
    ([CFD.equality(R, "A", "B"), CFD(R, {}, {"A": "a"})], CFD(R, {"C": "_"}, {"B": "a"})),
    # Conflicting constants: the premise is unsatisfiable, phi is implied.
    ([CFD(R, {"A": 1}, {"B": "a"}), CFD(R, {"A": 1}, {"B": "b"})], CFD(R, {"A": 1}, {"C": "_"})),
    ([CFD(R, {}, {"B": "a"}), CFD(R, {}, {"B": "b"})], CFD(R, {"D": "_"}, {"C": 2})),
    ([CFD(R, {"A": "_"}, {"B": "_"}), CFD(R, {}, {"B": "a"})], CFD(R, {"B": "b"}, {"C": "_"})),
    ([CFD.equality(R, "A", "B")], CFD(R, {"A": 1, "B": 2}, {"C": "_"})),
    # Multi-RHS phi: every normal form must hold.
    ([CFD(R, {"A": "_"}, {"B": "_", "C": 1})], CFD(R, {"A": "_", "D": "_"}, {"B": "_", "C": 1})),
    ([CFD(R, {"A": "_"}, {"B": "_"})], CFD(R, {"A": "_"}, {"B": "_", "C": "_"})),
    # phi attributes Sigma never mentions.
    ([CFD(R, {"A": "_"}, {"B": "_"})], CFD(R, {"A": "_", "Z": "z"}, {"B": "_"})),
    ([CFD(R, {"A": "_"}, {"B": "_"})], CFD(R, {"A": "_"}, {"Z": "_"})),
    ([CFD(R, {"A": "_"}, {"B": "_"})], CFD(R, {"Z": 1}, {"Z": 2})),
    ([CFD(R, {}, {"A": "a"}), CFD(R, {}, {"A": "b"})], CFD(R, {"Y": "_"}, {"Z": "_"})),
    ([CFD(R, {"A": "_"}, {"B": "_"})], CFD.equality(R, "A", "Z")),
    # Constant-LHS self-pairing: (A1, A2=c -> A=a) fires on one tuple.
    ([CFD(R, {"A1": "_", "A2": "c"}, {"A": "a"})], CFD(R, {"A2": "c"}, {"A": "a"})),
    ([CFD(R, {"A1": "_", "A2": "c"}, {"A": "a"})], CFD(R, {"A2": "c", "B": "_"}, {"A": "_"})),
    ([CFD(R, {"A1": "_", "A2": "c"}, {"A": "a"})], CFD(R, {"A1": "_"}, {"A": "a"})),
    ([CFD(R, {"A": "_"}, {"A": "a"})], CFD(R, {"B": "_"}, {"A": "a"})),
    ([CFD(R, {"A": 1}, {"A": 2})], CFD(R, {"A": 1}, {"B": "_"})),
    # Constants equal across types behave as the baseline's ``==``.
    ([CFD(R, {"A": 1}, {"B": True})], CFD(R, {"A": True}, {"B": 1.0})),
    ([CFD(R, {"A": 1.0}, {"B": "_"})], CFD(R, {"A": True, "C": "_"}, {"B": "_"})),
    ([CFD(R, {}, {"B": 1}), CFD(R, {}, {"B": True})], CFD(R, {"A": "_"}, {"C": "_"})),
    ([CFD(R, {}, {"B": 1}), CFD(R, {"B": 1.0}, {"C": 0})], CFD(R, {"A": "_"}, {"C": False})),
    # Plain FDs on either side.
    ([FD(R, ("A",), ("B",)), FD(R, ("B",), ("C",))], FD(R, ("A",), ("C",))),
    # Rules on other relations are ignored.
    ([CFD("S", {"A": "_"}, {"B": "_"})], CFD(R, {"A": "_"}, {"B": "_"})),
]


@pytest.mark.parametrize("sigma,phi", CORNERS, ids=[repr(p) for _, p in CORNERS])
def test_corner_verdicts_match_baseline(sigma, phi):
    assert packed_implies(sigma, phi) == implies(sigma, phi)


def test_corners_exercise_both_verdicts():
    verdicts = {implies(sigma, phi) for sigma, phi in CORNERS}
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_verdicts_match_baseline(seed):
    rng = random.Random(7100 + seed)
    seen = set()
    for _ in range(150):
        sigma = _random_sigma(rng, rng.randint(0, 8))
        phi = _random_cfd(rng)
        expected = implies(sigma, phi)
        assert packed_implies(sigma, phi) == expected, (sigma, phi)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_generator_verdicts_match_baseline(seed):
    """Generator-drawn Sigma and phi (wide LHS, constant-LHS patterns)."""
    rng = random.Random(7200 + seed)
    schema = random_schema(rng, num_relations=2, min_attributes=5, max_attributes=7)
    for constant_lhs in (False, True):
        sigma = random_cfds(
            rng, schema, 24, max_lhs=4, min_lhs=1, var_pct=0.5, constant_lhs=constant_lhs
        )
        # Candidate phis: Sigma's own rules, trimmed and untrimmed.
        for rule in sigma:
            for phi in [rule] + [rule.drop_lhs_attribute(a) for a in rule.lhs_attrs]:
                assert packed_implies(sigma, phi) == implies(sigma, phi), phi


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_alive_mask_matches_rebuilt_rest(seed):
    rng = random.Random(7300 + seed)
    for _ in range(30):
        sigma = sorted(
            {n for cfd in _random_sigma(rng, 8) for n in cfd.normalize()}, key=repr
        )
        program = ImplicationProgram(sigma)
        alive = list(sigma)
        for rule, phi in enumerate(sigma):
            program.retire(rule)
            rest = [other for other in alive if other != phi]
            expected = implies(rest, phi)
            assert program.implies(phi.lhs, phi.rhs_attr, phi.rhs_entry) == expected
            if expected:
                alive = rest
            else:
                program.revive(rule)
        assert [p for p, a in zip(sigma, program.alive) if a] == alive


# ----------------------------------------------------------------------
# Corners of the mask representation: attribute groups, literals, the
# one-row state and the shared base.
# ----------------------------------------------------------------------


def test_group_clash_between_phi_constants_is_vacuous():
    # A = B groups the two attributes, so phi writes 1 and 2 to one group.
    sigma = [CFD.equality(R, "A", "B")]
    phi = CFD(R, {"A": 1, "B": 2}, {"C": "_"})
    assert implies(sigma, phi) is True
    assert packed_implies(sigma, phi) is True


def test_constant_check_satisfied_through_the_group():
    # phi's B = 1 meets the check A = 1 because A and B share a group.
    sigma = [CFD.equality(R, "A", "B"), CFD(R, {"A": 1, "D": "_"}, {"C": "c"})]
    phi = CFD(R, {"B": 1}, {"C": "c"})
    assert implies(sigma, phi) is True
    assert packed_implies(sigma, phi) is True
    other = CFD(R, {"B": 2}, {"C": "c"})
    assert packed_implies(sigma, other) == implies(sigma, other) is False


def test_retiring_and_reviving_an_equality_rule_regroups():
    sigma = [
        CFD.equality(R, "A", "B"),
        CFD(R, {"A": "_"}, {"C": "_"}),
        CFD(R, {"B": 1}, {"D": 2}),
    ]
    program = ImplicationProgram(sigma)
    phis = [
        CFD(R, {"B": "_"}, {"C": "_"}),
        CFD(R, {"A": 1}, {"D": 2}),
        CFD.equality(R, "A", "B"),
    ]

    def verdicts() -> list[bool]:
        rest = [rule for rule, alive in zip(sigma, program.alive) if alive]
        expected = [implies(rest, phi) for phi in phis]
        assert [program.implies(p.lhs, p.rhs_attr, p.rhs_entry) for p in phis] == expected
        return expected

    assert verdicts() == [True, True, True]
    program.retire(0)
    assert verdicts() == [False, False, False]
    assert program.implies_rule(0) is False
    program.revive(0)
    assert verdicts() == [True, True, True]


@pytest.mark.parametrize(
    "sigma,expected",
    [
        ([CFD(R, {}, {"A": 1}), CFD(R, {}, {"B": True})], True),
        ([CFD(R, {}, {"A": 1}), CFD(R, {}, {"B": 2})], False),
        ([CFD(R, {}, {"A": 1}), CFD(R, {"A": 1}, {"B": 1.0})], True),
        # A pair rule never fires on one row.
        ([CFD(R, {"C": "_"}, {"A": "_"}), CFD(R, {"C": "_"}, {"B": "_"})], False),
        ([CFD.equality(R, "A", "C"), CFD.equality(R, "C", "B")], True),
        # The row is undefined: A carries 1 and 2.
        ([CFD(R, {}, {"A": 1}), CFD(R, {"D": "_"}, {"A": 2})], True),
    ],
)
def test_equality_phi_answered_on_one_row(sigma, expected):
    phi = CFD.equality(R, "A", "B")
    assert implies(sigma, phi) is expected
    assert packed_implies(sigma, phi) is expected


def test_fresh_rows_that_already_clash_imply_every_candidate():
    sigma = sorted(
        [
            CFD(R, {"B": "_"}, {"A": 1}),
            CFD(R, {"C": "_"}, {"A": 2}),
            CFD(R, {"C": "_", "D": "_", "E": 3}, {"F": "_"}),
            CFD(R, {"B": 1, "D": "_"}, {"E": "_"}),
        ],
        key=repr,
    )
    program = ImplicationProgram(sigma)
    for rule, phi in enumerate(sigma):
        assert program.implies_rule(rule) is implies(sigma, phi) is True
        for position, name in enumerate(phi.lhs_attrs):
            candidate = phi.drop_lhs_attribute(name)
            keep = ~(1 << position)
            assert program.implies_rule(rule, keep) is implies(sigma, candidate) is True
    _assert_same_cover(sigma)


@pytest.mark.parametrize(
    "rule,trimmed",
    [
        # Every wildcard item goes, in LHS order, until one item is left.
        (CFD(R, {"A": "_", "B": "_", "C": "_"}, {"D": 1}), CFD(R, {"C": "_"}, {"D": 1})),
        # A constant item stays (nothing else implies the candidate) and
        # the wildcards around it go.
        (CFD(R, {"A": "_", "B": 1, "C": "_"}, {"D": 1}), CFD(R, {"B": 1}, {"D": 1})),
        (CFD(R, {"A": 1, "B": "_", "C": "_"}, {"D": 1}), CFD(R, {"A": 1}, {"D": 1})),
        # Wildcard RHS: the pair rule keys on its wildcards, none drop.
        (CFD(R, {"A": "_", "B": 1}, {"D": "_"}), CFD(R, {"A": "_", "B": 1}, {"D": "_"})),
    ],
)
def test_constant_rhs_wildcards_trimmed_in_lhs_order(rule, trimmed):
    assert min_cover([rule]) == [trimmed]
    _assert_same_cover([rule])


def test_uninternable_constant_is_not_compiled():
    nan = CFD(R, {"A": float("nan")}, {"B": "_"})
    assert ImplicationProgram.compile([nan]) is None
    program = ImplicationProgram([CFD(R, {"A": "_"}, {"B": "_"})])
    with pytest.raises(ValueError):
        program.implies(nan.lhs, nan.rhs_attr, nan.rhs_entry)
    # MinCover answers such a relation on the baseline.
    assert min_cover([nan], kernel="bitset") == min_cover([nan]) == [nan]


def test_phi_only_literal_leaves_sigma_table_alone():
    program = ImplicationProgram([CFD(R, {"A": "a"}, {"B": "b"})])
    table = dict(program._literals)
    fresh = CFD(R, {"A": "z"}, {"B": "y"})
    assert not program.implies(fresh.lhs, fresh.rhs_attr, fresh.rhs_entry)
    known = CFD(R, {"A": "a", "C": "_"}, {"B": "b"})
    assert program.implies(known.lhs, known.rhs_attr, known.rhs_entry)
    assert program._literals == table


# ----------------------------------------------------------------------
# The folded wildcard path of ``implies``.
# ----------------------------------------------------------------------

#: Attributes no Sigma rule mentions (no slot), and a constant Sigma lacks.
UNTOUCHED = ["X", "Y"]
FOREIGN = "zz"


def _fd_shaped_target(rng: random.Random) -> CFD:
    """A normal-form target shaped like a check batch's FDs: a mostly
    wildcard LHS over Sigma's and untouched attributes, some constants
    (Sigma's or a foreign one), and an RHS that may have no slot."""
    names = rng.sample(ATTRS + UNTOUCHED, rng.randint(1, 5))
    pool = CONSTANTS + [FOREIGN]
    lhs = {n: rng.choice(pool) if rng.random() < 0.3 else "_" for n in names}
    rhs_name = rng.choice(ATTRS + UNTOUCHED)
    return CFD(R, lhs, {rhs_name: rng.choice(pool) if rng.random() < 0.25 else "_"})


def _unfolded(program: ImplicationProgram, phi: CFD) -> bool:
    """The per-item coupling of ``_rule``: what ``implies`` folds."""
    literal = _literal_table(dict(program._literals), len(program._groups))
    _, coupling, goal = _rule(
        phi.lhs, phi.rhs_attr, phi.rhs_entry, program._slots, literal
    )
    return program._implies(coupling, -1, goal)


@pytest.mark.parametrize("seed", SEEDS)
def test_folded_wildcards_match_baseline(seed):
    rng = random.Random(7400 + seed)
    shapes, verdicts = set(), set()
    for _ in range(40):
        sigma = _random_sigma(rng, rng.randint(1, 8))
        program = ImplicationProgram([n for dep in sigma for n in dep.normalize()])
        slots = program._slots
        for _ in range(8):
            phi = _fd_shaped_target(rng)
            if phi.is_trivial():
                continue
            expected = implies(sigma, phi)
            got = program.implies(phi.lhs, phi.rhs_attr, phi.rhs_entry)
            assert got == expected == _unfolded(program, phi), (sigma, phi)
            verdicts.add(expected)
            kinds = {isinstance(e, Const) for n, e in phi.lhs if n in slots}
            shapes.update(
                name
                for name, hit in [
                    ("untouched-lhs", any(n not in slots for n in phi.lhs_attrs)),
                    ("vacuous-rhs", phi.rhs_attr not in slots),
                    ("mixed-lhs", kinds == {True, False}),
                    ("foreign-literal", any(
                        isinstance(e, Const) and e.value == FOREIGN
                        for _, e in phi.lhs + phi.rhs
                    )),
                ]
                if hit
            )
    assert verdicts == {True, False}
    assert shapes == {"untouched-lhs", "vacuous-rhs", "mixed-lhs", "foreign-literal"}


# ----------------------------------------------------------------------
# The engine's one-pass program verdicts.
# ----------------------------------------------------------------------


def _spy_pair_loop(monkeypatch) -> list:
    """Record each phi the engine hands to the pair loop."""
    calls = []
    original = engine_core.search_violation

    def spy(sigma, sigma_key, branches, normal_phis, *args, **kwargs):
        normal_phis = list(normal_phis)
        calls.append(normal_phis)
        return original(sigma, sigma_key, branches, normal_phis, *args, **kwargs)

    monkeypatch.setattr(engine_core, "search_violation", spy)
    return calls


def test_unprojected_attribute_raises_the_pair_loops_key_error(monkeypatch):
    view, sigma, queries = example_41_workload(3, defeat_fast_path=True)
    bad = FD("V", ("A1",), ("C1",))  # C1 is projected away
    with pytest.raises(KeyError) as uncached:
        PropagationEngine(use_cache=False).check_many(sigma, view, [bad])
    calls = _spy_pair_loop(monkeypatch)
    with pytest.raises(KeyError) as compiled:
        PropagationEngine(kernel="bitset").check_many(sigma, view, queries[:2] + [bad])
    assert str(compiled.value) == str(uncached.value)
    assert "C1" in str(compiled.value) and calls == []


def test_nan_constant_falls_back_to_the_pair_loop(monkeypatch):
    view, sigma, queries = example_41_workload(3, defeat_fast_path=True)
    nan_phi = CFD("V", {"A1": float("nan"), "A2": "_"}, {"D": "_"})
    phis = [queries[0], nan_phi, queries[1]]
    expected = PropagationEngine(use_cache=False).check_many(sigma, view, phis)
    alone = PropagationEngine(kernel="bitset")
    assert alone.check_many(sigma, view, [nan_phi]) == expected[1:2]
    calls = _spy_pair_loop(monkeypatch)
    engine = PropagationEngine(kernel="bitset")
    assert engine.check_many(sigma, view, phis) == expected
    # Only the nan target reaches the pair loop; the other two are one
    # program test each, and the fallback counts only its own chases.
    assert [[phi.lhs for phi in call] for call in calls] == [[nan_phi.lhs]]
    assert engine.stats.chase_invocations == 2 + alone.stats.chase_invocations


@pytest.mark.parametrize("n", [2, 4, 6])
def test_example_41_batch_matches_uncached_and_per_target_counts(n, monkeypatch):
    view, sigma, queries = example_41_workload(n, defeat_fast_path=True)
    phis = queries + [FD("V", ("A1",), ("A1",))]  # a trivial target: no test
    expected = PropagationEngine(use_cache=False).check_many(sigma, view, phis)
    single = PropagationEngine(kernel="bitset")
    one_by_one = [single.check_many(sigma, view, [phi])[0] for phi in phis]
    calls = _spy_pair_loop(monkeypatch)
    engine = PropagationEngine(kernel="bitset")
    assert engine.check_many(sigma, view, phis) == expected == one_by_one
    assert calls == []
    assert engine.stats.chase_invocations == single.stats.chase_invocations == 2**n


# ----------------------------------------------------------------------
# min_cover byte identity.
# ----------------------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("baseline implies called on the compiled path")


def _assert_same_cover(sigma: list) -> None:
    expected = _canonical(min_cover(sigma))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mincover, "implies", _refuse)
        got = _canonical(min_cover(sigma, kernel="bitset"))
    assert got == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_min_cover_byte_identical_on_random_sigma(seed):
    rng = random.Random(7400 + seed)
    for _ in range(25):
        _assert_same_cover(_random_sigma(rng, rng.randint(1, 12)))


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_min_cover_byte_identical_on_generator_sigma(seed):
    rng = random.Random(7500 + seed)
    schema = random_schema(rng, num_relations=3, min_attributes=6, max_attributes=9)
    for var_pct in (0.4, 0.5):
        _assert_same_cover(
            random_cfds(rng, schema, 40, max_lhs=5, min_lhs=1, var_pct=var_pct)
        )


def test_min_cover_byte_identical_with_equality_rules():
    _assert_same_cover([
        CFD.equality(R, "A", "B"),
        CFD.equality(R, "B", "C"),
        CFD.equality(R, "A", "C"),
        CFD(R, {"A": "_"}, {"D": "_"}),
        CFD(R, {"B": "_", "E": "_"}, {"D": "_"}),
        CFD(R, {"C": 1}, {"E": True}),
        CFD(R, {"B": 1.0}, {"E": 1}),
    ])


def test_min_cover_sort_keys_follow_identity_not_equality():
    """The packed pass reuses each input rule's ``repr`` key only for a
    rule trimming left as the same object: ``Const(1) == Const(1.0)``,
    but the two print (and so sort) differently."""
    sigma = [
        CFD(R, {"A": 1.0, "B": "_"}, {"C": "_"}),
        CFD(R, {"A": 1}, {"B": "_"}),
        CFD(R, {"A": True, "E": "_"}, {"C": "_"}),
        CFD(R, {"D": 1}, {"E": 2.0}),
        CFD(R, {"D": 1.0, "A": "_"}, {"E": 2}),
    ]
    _assert_same_cover(sigma)
    assert [repr(phi) for phi in min_cover(sigma, kernel="bitset")] == [
        "R([A] -> [B], (1 || _))",
        "R([A] -> [C], (1.0 || _))",
        "R([D] -> [E], (1.0 || 2))",
    ]


@pytest.mark.parametrize("index", range(8))
def test_min_cover_byte_identical_on_the_fig5_smoke_pool(index):
    """The Fig. 5 schema with the benchmark's smoke pool of Sigmas
    (|Sigma| = 60, LHS 3..9, var% 40/50 alternating)."""
    paper_seed = 20080824
    schema = random_schema(random.Random(paper_seed), num_relations=10)
    sigma = random_cfds(
        random.Random(paper_seed + 1000 * 60 + index),
        schema,
        60,
        max_lhs=9,
        min_lhs=3,
        var_pct=(0.4, 0.5)[index % 2],
    )
    _assert_same_cover(sigma)


# ----------------------------------------------------------------------
# One program per MinCover: the redundancy pass re-masks the trimmed
# rules on the trimming program instead of compiling them again.
# ----------------------------------------------------------------------

SINGLE_PROGRAM_CORNERS = {
    # Both rules trim to (C -> D, (_ || 1)); the second copy is retired.
    "trim-to-duplicate": [
        CFD(R, {"A": "_", "C": "_"}, {"D": 1}),
        CFD(R, {"B": "_", "C": "_"}, {"D": 1}),
        CFD(R, {"D": "_"}, {"E": "_"}),
    ],
    # A = B is implied by the two constants, so it is retired and A, B
    # fall into separate groups: the regroup recompiles the trimmed rule.
    "equality-retired-regroups": [
        CFD.equality(R, "A", "B"),
        CFD(R, {"C": "_"}, {"A": 1}),
        CFD(R, {"C": "_"}, {"B": True}),
        CFD(R, {"B": "_", "C": "_", "E": "_"}, {"D": 2}),
    ],
    # (A, B=5, E -> C) trims to (A -> C): B, E and the literal B = 5
    # leave Sigma, and the trimmed rule is then redundant.
    "trim-loses-attribute-and-literal": [
        CFD(R, {"A": "_", "B": 5, "E": "_"}, {"C": "_"}),
        CFD(R, {"A": "_"}, {"D": "_"}),
        CFD(R, {"D": "_"}, {"C": "_"}),
    ],
}


def _single_program_effects(sigma: list[CFD]) -> set[str]:
    """Which of the corners above baseline MinCover meets on *sigma*."""
    current = sorted(
        {
            simple
            for dep in sigma
            for phi in dep.normalize()
            if not (simple := phi.simplified()).is_trivial()
        },
        key=repr,
    )
    trimmed = [mincover._trim_lhs(phi, current, None) for phi in current]

    def mentions(rules):
        return {
            item if isinstance(item[1], Const) else item[0]
            for phi in rules
            for item in phi.lhs + phi.rhs
        }

    effects = set()
    if len(set(trimmed)) < len(trimmed):
        effects.add("trim-to-duplicate")
    if mentions(trimmed) < mentions(current):
        effects.add("trim-loses-attribute-and-literal")
    cover = min_cover(sigma)
    groups = {name: name for phi in current for name in phi.attributes}

    def find(name):
        while groups[name] != name:
            name = groups[name]
        return name

    for phi in cover:
        if phi.is_equality:
            groups[find(phi.lhs_attrs[0])] = find(phi.rhs_attr)
    if any(
        phi.is_equality and phi not in cover and find(phi.lhs_attrs[0]) != find(phi.rhs_attr)
        for phi in current
    ):
        effects.add("equality-retired-regroups")
    return effects


def _assert_one_program_same_list(sigma: list[CFD], monkeypatch) -> None:
    """``kernel="bitset"`` returns baseline's list, in order, from one
    compiled program and no baseline test."""
    expected = min_cover(sigma, kernel="baseline")
    programs = []
    init = ImplicationProgram.__init__

    def counting_init(self, rules):
        programs.append(len(rules))
        init(self, rules)

    with monkeypatch.context() as patch:
        patch.setattr(ImplicationProgram, "__init__", counting_init)
        patch.setattr(mincover, "implies", _refuse)
        got = min_cover(sigma, kernel="bitset")
    assert got == expected
    assert [repr(phi) for phi in got] == [repr(phi) for phi in expected]
    assert len(programs) == len({phi.relation for phi in sigma})


@pytest.mark.parametrize("name", sorted(SINGLE_PROGRAM_CORNERS))
def test_single_program_corner(name, monkeypatch):
    sigma = SINGLE_PROGRAM_CORNERS[name]
    assert name in _single_program_effects(sigma)
    _assert_one_program_same_list(sigma, monkeypatch)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_single_program_min_cover_on_seeded_corners(seed, monkeypatch):
    rng = random.Random(7600 + seed)
    seen: set[str] = set()
    for _ in range(120):
        sigma = _random_sigma(rng, rng.randint(2, 10))
        seen |= _single_program_effects(sigma)
        _assert_one_program_same_list(sigma, monkeypatch)
    assert seen == set(SINGLE_PROGRAM_CORNERS)


# ----------------------------------------------------------------------
# Fallbacks: these settings must run the baseline tests.
# ----------------------------------------------------------------------


@pytest.fixture
def no_program(monkeypatch):
    """Fail loudly if anything compiles an implication program."""

    def refuse(cls, sigma):
        raise AssertionError("compiled program used on a baseline path")

    monkeypatch.setattr(ImplicationProgram, "compile", classmethod(refuse))


def test_finite_domain_schema_falls_back(no_program):
    schema = RelationSchema(R, [Attribute("A"), Attribute("B"), Attribute("C", BOOL)])
    sigma = [CFD(R, {"A": "_"}, {"B": "_"}), CFD(R, {"C": True}, {"B": "b"})]
    assert min_cover(sigma, schema, kernel="bitset") == min_cover(sigma, schema)


def test_baseline_kernel_falls_back(no_program):
    sigma = [CFD(R, {"A": "_"}, {"B": "_"}), CFD(R, {"A": "_", "C": 1}, {"B": "_"})]
    assert min_cover(sigma, kernel="baseline") == [sigma[0]]


@pytest.mark.parametrize(
    "engine_options,env",
    [
        ({"kernel": "baseline"}, None),
        ({}, "baseline"),
        ({"use_cache": False, "kernel": "bitset"}, None),
    ],
    ids=["kernel-baseline", "env-baseline", "uncached"],
)
def test_engine_settings_fall_back(engine_options, env, monkeypatch):
    view, sigma, _ = example_41_workload(3)
    expected = PropagationEngine(kernel="bitset").cover(sigma, view)
    if env is not None:
        monkeypatch.setenv("REPRO_KERNEL", env)
    monkeypatch.setattr(
        ImplicationProgram,
        "compile",
        classmethod(lambda cls, s: pytest.fail("compiled program on a baseline path")),
    )
    assert PropagationEngine(**engine_options).cover(sigma, view) == expected
