"""Single-branch checks decided on the compiled implication program.

For an SPC view of one branch whose atoms read pairwise distinct
relations (no finite-domain attribute), ``Sigma |=_V phi`` is the
two-tuple implication ``Sigma_V |= phi``, with ``Sigma_V`` the renamed
source CFDs plus one rule per selection atom and per ``Rc`` constant.
A cached engine on the ``bitset`` kernel decides its misses there
(``BranchPairCache.implication_program``).  Everything here is checked
against the pair loop on seeded streams, so failures reproduce:

- verdict by verdict against the ``baseline`` kernel and the uncached
  engine, on 1-3 atoms with ``AttrEq``/``ConstEq`` selections, ``Rc``
  constants, equality-form phi, FD inputs and Sigma-derived phi (so true
  verdicts are common);
- the contract of ``find_counterexample``: unprojected attributes raise
  the same ``KeyError``, an unsatisfiable view propagates everything;
- the routing: an uninternable constant, a self-join, a union, the
  ``baseline`` kernel (explicit or ``REPRO_KERNEL``), an uncached
  engine, a finite-domain view, a capped ``max_instantiations`` and
  ``engine.find_counterexample`` all stay on the pair loop.
"""

from __future__ import annotations

import random

import pytest

from repro import CFD
from repro.algebra.ops import AttrEq, ConstEq
from repro.algebra.spc import RelationAtom, SPCView
from repro.algebra.spcu import SPCUView
from repro.core.domains import BOOL
from repro.core.fd import FD
from repro.core.schema import Attribute, DatabaseSchema, RelationSchema
from repro.propagation.check import BranchPairCache, find_counterexample
from repro.propagation.engine import PropagationEngine

SEEDS = list(range(8))
VIEWS_PER_SEED = 12

RELATIONS = {"R": ["A", "B", "C", "D"], "S": ["A", "B", "C"], "T": ["A", "B", "E"]}
SCHEMA = DatabaseSchema(
    [RelationSchema(name, attrs) for name, attrs in RELATIONS.items()]
)
#: 1, 1.0 and True compare equal; both paths must treat them alike.
CONSTANTS = ["a", "b", 1, 1.0, True]


def _entry(rng: random.Random):
    return rng.choice(CONSTANTS) if rng.random() < 0.35 else "_"


def _random_sigma(rng: random.Random, relations) -> list:
    sigma: list = []
    for rel in relations:
        attrs = RELATIONS[rel]
        for _ in range(rng.randint(1, 4)):
            lhs = rng.sample(attrs, rng.randint(0, 2))
            rhs = rng.choice(attrs)
            if rng.random() < 0.3:
                sigma.append(FD(rel, lhs or attrs[:1], [rhs]))
            else:
                sigma.append(
                    CFD(rel, {a: _entry(rng) for a in lhs}, {rhs: _entry(rng)})
                )
    return sigma


def _random_view(rng: random.Random) -> SPCView:
    relations = rng.sample(sorted(RELATIONS), rng.randint(1, 3))
    atoms = [
        RelationAtom(rel, {a: f"{rel}.{a}" for a in RELATIONS[rel]})
        for rel in relations
    ]
    es = [v for atom in atoms for v in atom.view_attributes]
    selection = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            left, right = rng.sample(es, 2)
            selection.append(AttrEq(left, right))
        else:
            selection.append(ConstEq(rng.choice(es), rng.choice(CONSTANTS)))
    constants = {"CC": rng.choice(CONSTANTS)} if rng.random() < 0.4 else {}
    projection = sorted(rng.sample(es, max(2, len(es) - rng.randint(0, 3))))
    return SPCView(
        "V", SCHEMA, atoms, selection, projection + sorted(constants), constants
    )


def _derived_phis(rng: random.Random, view: SPCView, sigma: list) -> list:
    """Source dependencies renamed into the view, where projected."""
    projected = set(view.projection)
    out = []
    for atom in view.atoms:
        mapping = atom.mapping_dict
        for dep in sigma:
            if dep.relation != atom.source:
                continue
            cfd = CFD.from_fd(dep) if isinstance(dep, FD) else dep
            renamed = cfd.rename(mapping, relation="V")
            if renamed.attributes <= projected:
                out.append(renamed)
                if renamed.lhs and rng.random() < 0.5:
                    out.append(renamed.drop_lhs_attribute(renamed.lhs[0][0]))
    return out


def _random_phis(rng: random.Random, view: SPCView, sigma: list) -> list:
    attrs = list(view.projection)
    phis: list = _derived_phis(rng, view, sigma)
    for _ in range(10):
        roll = rng.random()
        if roll < 0.15:
            a, b = rng.sample(attrs, 2)
            phis.append(CFD.equality("V", a, b))
        elif roll < 0.35:
            lhs = rng.sample(attrs, rng.randint(0, 2))
            phis.append(FD("V", lhs, rng.sample(attrs, rng.randint(1, 2))))
        else:
            lhs = {a: _entry(rng) for a in rng.sample(attrs, rng.randint(0, 2))}
            rhs = {a: _entry(rng) for a in rng.sample(attrs, rng.randint(1, 2))}
            phis.append(CFD("V", lhs, rhs))
    return phis


def _cases(seed: int):
    rng = random.Random(seed)
    for _ in range(VIEWS_PER_SEED):
        view = _random_view(rng)
        sigma = _random_sigma(rng, sorted(RELATIONS))
        yield sigma, view, _random_phis(rng, view, sigma)


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_match_baseline_kernel_and_uncached(seed):
    true = 0
    for sigma, view, phis in _cases(seed):
        compiled = PropagationEngine(kernel="bitset")
        verdicts = compiled.check_many(sigma, view, phis)
        assert compiled.stats.coupled_misses == 0  # never left the program
        assert verdicts == PropagationEngine(kernel="baseline").check_many(
            sigma, view, phis
        )
        assert verdicts == PropagationEngine(use_cache=False).check_many(
            sigma, view, phis
        )
        true += sum(verdicts)
    assert 0 < true


def test_streams_cover_the_corners():
    """The generator reaches the shapes this file claims to test."""
    atoms, selections, seen = set(), set(), set()
    for seed in SEEDS:
        for sigma, view, phis in _cases(seed):
            atoms.add(len(view.atoms))
            selections.update(type(sel).__name__ for sel in view.selection)
            seen.add("rc" if view.constants else "no-rc")
            seen.update(
                "fd" if isinstance(phi, FD) else
                "equality" if phi.is_equality else "cfd"
                for phi in phis
            )
            engine = PropagationEngine(kernel="bitset")
            verdicts = engine.check_many(sigma, view, phis)
            seen.update("true" if v else "false" for v in verdicts)
    assert atoms == {1, 2, 3}
    assert selections == {"AttrEq", "ConstEq"}
    assert seen == {"rc", "no-rc", "fd", "equality", "cfd", "true", "false"}


# ----------------------------------------------------------------------
# The contract of find_counterexample.
# ----------------------------------------------------------------------


def _view(*relations, selection=(), constants=None, unsatisfiable=False):
    atoms = [
        RelationAtom(rel, {a: f"{rel}.{a}" for a in RELATIONS[rel]})
        for rel in relations
    ]
    es = sorted(v for atom in atoms for v in atom.view_attributes)
    constants = dict(constants or {})
    return SPCView(
        "V",
        SCHEMA,
        atoms,
        selection,
        es + sorted(constants),
        constants,
        unsatisfiable=unsatisfiable,
    )


def _key_error(engine, sigma, view, phi) -> str:
    with pytest.raises(KeyError) as caught:
        engine.check_many(sigma, view, [phi])
    return str(caught.value)


@pytest.mark.parametrize("unsatisfiable", [False, True])
def test_unprojected_attribute_raises_the_pair_loop_key_error(unsatisfiable):
    view = _view("R", "S", unsatisfiable=unsatisfiable)
    sigma = [FD("R", ["A"], ["B"])]
    phi = CFD("V", {"R.A": "_"}, {"R.B": "_", "nope": "_"})
    compiled = _key_error(PropagationEngine(kernel="bitset"), sigma, view, phi)
    assert compiled == _key_error(
        PropagationEngine(kernel="baseline"), sigma, view, phi
    )
    assert "['nope']" in compiled
    # A trivial conjunct never reaches the projection check.
    trivial = CFD("V", {"nope": "_"}, {"nope": "_"})
    assert PropagationEngine(kernel="bitset").check(sigma, view, trivial)


def test_unsatisfiable_view_propagates_everything():
    view = _view("R", unsatisfiable=True)
    phis = [FD("V", [], ["R.A"]), CFD("V", {"R.A": "_"}, {"R.B": "b"})]
    engine = PropagationEngine(kernel="bitset")
    assert engine.check_many([], view, phis) == [True, True]
    assert engine.stats.chase_invocations == 0
    assert PropagationEngine(use_cache=False).check_many([], view, phis) == [
        True,
        True,
    ]


def test_clashing_selection_constants_propagate_everything():
    view = _view("R", selection=[ConstEq("R.A", "a"), ConstEq("R.A", "b")])
    phi = CFD("V", {}, {"R.B": "b"})
    assert PropagationEngine(kernel="bitset").check([], view, phi)
    assert PropagationEngine(use_cache=False).check([], view, phi)


def test_selection_and_rc_constants_enter_sigma_v():
    view = _view(
        "R",
        "S",
        selection=[AttrEq("R.A", "S.A"), ConstEq("S.B", "_")],
        constants={"CC": "44"},
    )
    sigma = [FD("R", ["A"], ["C"]), CFD("S", {"B": "_"}, {"C": "c"})]
    cases = {
        CFD("V", {"S.A": "_"}, {"R.C": "_"}): True,  # through R.A = S.A
        CFD("V", {}, {"S.B": "_"}): True,  # the literal "_" constant
        CFD("V", {"S.B": "_"}, {"S.C": "c"}): True,
        CFD("V", {}, {"CC": "44"}): True,  # Rc
        CFD("V", {"CC": "01"}, {"R.D": "d"}): True,  # Rc clash: vacuous
        CFD("V", {}, {"CC": "01"}): False,
        CFD.equality("V", "R.A", "S.A"): True,
        CFD.equality("V", "R.A", "R.B"): False,
        FD("V", ["R.B"], ["R.C"]): False,
    }
    compiled = PropagationEngine(kernel="bitset")
    assert compiled.check_many(sigma, view, list(cases)) == list(cases.values())
    assert compiled.stats.coupled_misses == 0
    assert PropagationEngine(use_cache=False).check_many(
        sigma, view, list(cases)
    ) == list(cases.values())


def test_one_chase_per_tested_conjunct_and_none_warm():
    view = _view("R")
    sigma = [CFD("R", {"A": "a"}, {"D": "d"}), FD("R", ["A"], ["B"])]
    phis = [
        CFD("V", {"R.A": "_"}, {"R.B": "_", "R.C": "_"}),  # two conjuncts
        CFD("V", {"R.A": "_"}, {"R.A": "_"}),  # trivial
    ]
    engine = PropagationEngine(kernel="bitset")
    assert engine.check_many(sigma, view, phis) == [False, True]
    # The first conjunct holds, the second fails: two tests, one skipped.
    assert engine.stats.chase_invocations == 2
    engine.check_many(sigma, view, phis)
    assert engine.stats.chase_invocations == 2


# ----------------------------------------------------------------------
# Routing: what stays on the pair loop.
# ----------------------------------------------------------------------


def _pair_loop_ran(engine: PropagationEngine) -> bool:
    return engine.stats.coupled_misses > 0


def _decide(engine, sigma, view, phis) -> list[bool]:
    verdicts = engine.check_many(sigma, view, phis)
    assert verdicts == PropagationEngine(use_cache=False).check_many(
        sigma, view, phis
    )
    return verdicts


SIGMA = [FD("R", ["A"], ["B"]), CFD("R", {"A": "a"}, {"C": "c"})]
PHIS = [FD("V", ["R.A"], ["R.B"]), CFD("V", {"R.A": "a"}, {"R.C": "c"}), FD("V", ["R.B"], ["R.C"])]


def test_eligible_view_takes_the_program():
    engine = PropagationEngine(kernel="bitset")
    assert _decide(engine, SIGMA, _view("R"), PHIS) == [True, True, False]
    assert engine.stats.chase_invocations == 3
    assert not _pair_loop_ran(engine)


def test_nan_in_sigma_falls_back():
    sigma = SIGMA + [CFD("R", {"B": float("nan")}, {"C": "_"})]
    engine = PropagationEngine(kernel="bitset")
    _decide(engine, sigma, _view("R"), PHIS)
    assert _pair_loop_ran(engine)


def test_nan_in_phi_falls_back_for_that_query():
    nan_phi = CFD("V", {"R.A": float("nan")}, {"R.C": "c"})
    engine = PropagationEngine(kernel="bitset")
    _decide(engine, SIGMA, _view("R"), PHIS)
    assert not _pair_loop_ran(engine)
    _decide(engine, SIGMA, _view("R"), [nan_phi])
    assert _pair_loop_ran(engine)


def test_nan_after_a_tested_conjunct_counts_only_the_pair_loop():
    # R.B is tested on the program before R.C's nan sends the whole phi
    # to the pair loop; only the pair loop's chases may be counted.
    phi = CFD("V", {"R.A": "_"}, {"R.B": "_", "R.C": float("nan")})
    engine = PropagationEngine(kernel="bitset")
    assert _decide(engine, SIGMA, _view("R"), [phi]) == [False]
    assert _pair_loop_ran(engine)
    view = _view("R")
    cache = BranchPairCache(view)
    assert find_counterexample(SIGMA, view, phi, cache=cache, kernel="bitset")
    assert engine.stats.chase_invocations == cache.stats.chase_invocations > 0


def test_self_join_stays_on_the_pair_loop():
    view = SPCView(
        "V",
        SCHEMA,
        [
            RelationAtom("R", {a: f"x.{a}" for a in RELATIONS["R"]}),
            RelationAtom("R", {a: f"y.{a}" for a in RELATIONS["R"]}),
        ],
        [AttrEq("x.A", "y.A")],
        ["x.A", "x.B", "y.B"],
    )
    engine = PropagationEngine(kernel="bitset")
    assert _decide(engine, SIGMA, view, [FD("V", ["x.A"], ["y.B"])]) == [True]
    assert _pair_loop_ran(engine)


def test_union_stays_on_the_pair_loop():
    branches = [
        SPCView(
            "U",
            SCHEMA,
            [RelationAtom(rel, {a: a for a in RELATIONS[rel]})],
            [],
            ["A", "B", "CC"],
            {"CC": tag},
        )
        for rel, tag in (("R", "1"), ("S", "2"))
    ]
    sigma = [FD("R", ["A"], ["B"]), FD("S", ["A"], ["B"])]
    phis = [CFD("U", {"CC": "1", "A": "_"}, {"B": "_"}), FD("U", ["A"], ["B"])]
    engine = PropagationEngine(kernel="bitset")
    assert _decide(engine, sigma, SPCUView("U", branches), phis) == [True, False]
    assert _pair_loop_ran(engine)


@pytest.mark.parametrize(
    "options, env",
    [
        ({"kernel": "baseline"}, None),
        ({}, "baseline"),
        ({"use_cache": False}, None),
        ({"max_instantiations": 8}, None),
    ],
)
def test_settings_stay_on_the_pair_loop(options, env, monkeypatch):
    if env is None:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL", env)
    with PropagationEngine(**options) as engine:
        assert _decide(engine, SIGMA, _view("R"), PHIS) == [True, True, False]
        assert _pair_loop_ran(engine)


def test_finite_domain_view_stays_on_the_pair_loop():
    schema = DatabaseSchema(
        [RelationSchema("R", ["A", "B", Attribute("F", BOOL)])]
    )
    view = SPCView(
        "V", schema, [RelationAtom("R", {a: a for a in ("A", "B", "F")})]
    )
    sigma = [CFD("R", {"F": True}, {"B": "b"}), CFD("R", {"F": False}, {"B": "b"})]
    engine = PropagationEngine(kernel="bitset")
    assert _decide(engine, sigma, view, [CFD("V", {}, {"B": "b"})]) == [True]
    assert _pair_loop_ran(engine)


def test_find_counterexample_keeps_its_witness():
    engine = PropagationEngine(kernel="bitset")
    witness = engine.find_counterexample(SIGMA, _view("R"), PHIS[2])
    assert witness is not None and witness.branch_pair == (0, 0)
    assert _pair_loop_ran(engine)
