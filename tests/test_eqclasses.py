"""ComputeEQ and EQ2CFD (Figure 2 line 2 / Figure 4)."""

import pytest

from repro import CFD, DatabaseSchema, RelationSchema, SPCView
from repro.algebra.ops import AttrEq, ConstEq
from repro.algebra.spc import RelationAtom
from repro.propagation.eqclasses import (
    BottomEQ,
    EquivalenceClasses,
    compute_eq,
    eq2cfd,
)


@pytest.fixture
def db():
    return DatabaseSchema([RelationSchema("R", ["A", "B", "C", "D"])])


def _view(db, selection=(), projection=None, constants=None):
    atoms = [RelationAtom("R", {a: a for a in "ABCD"})]
    return SPCView(
        "V", db, atoms, selection, projection, constants=constants or {}
    )


class TestUnionFind:
    def test_union_and_same(self):
        eq = EquivalenceClasses(["A", "B", "C"])
        assert eq.union("A", "B") is None
        assert eq.same("A", "B")
        assert not eq.same("A", "C")

    def test_keys_propagate_through_unions(self):
        eq = EquivalenceClasses(["A", "B"])
        eq.set_key("A", 1)
        eq.union("A", "B")
        assert eq.key("B") == 1

    def test_conflicting_keys_on_union(self):
        eq = EquivalenceClasses(["A", "B"])
        eq.set_key("A", 1)
        eq.set_key("B", 2)
        assert isinstance(eq.union("A", "B"), BottomEQ)

    def test_conflicting_key_assignment(self):
        eq = EquivalenceClasses(["A"])
        eq.set_key("A", 1)
        assert isinstance(eq.set_key("A", 2), BottomEQ)
        assert eq.set_key("A", 1) is None  # same value is fine

    def test_classes_listing(self):
        eq = EquivalenceClasses(["A", "B", "C"])
        eq.union("A", "B")
        classes = eq.classes()
        assert ["A", "B"] in classes and ["C"] in classes

    def test_representative_prefers_projection(self):
        eq = EquivalenceClasses(["A", "B", "C", "D"])
        eq.union("C", "A")
        eq.union("A", "B")
        # The least projected member wins, not the root (C) or the least (A).
        assert eq.find("B") == "C"
        assert eq.representatives(prefer=["D", "C", "B"]) == {
            "A": "B", "B": "B", "C": "B", "D": "D"
        }
        assert eq.representatives(prefer=[]) == {
            "A": "A", "B": "A", "C": "A", "D": "D"
        }


class TestComputeEQ:
    def test_selection_atoms_build_classes(self, db):
        view = _view(db, [AttrEq("A", "B"), ConstEq("C", 5)])
        eq = compute_eq(view, [])
        assert eq.same("A", "B")
        assert eq.key("C") == 5

    def test_constant_relation_seeds_keys(self, db):
        atoms = [RelationAtom("R", {a: a for a in "ABCD"})]
        view = SPCView(
            "V", db, atoms, projection=["A", "CC"], constants={"CC": "44"}
        )
        eq = compute_eq(view, [])
        assert eq.key("CC") == "44"

    def test_conflicting_selection_is_bottom(self, db):
        view = _view(db, [ConstEq("A", 1), ConstEq("A", 2)])
        assert isinstance(compute_eq(view, []), BottomEQ)

    def test_conflict_through_equality_chain(self, db):
        view = _view(db, [ConstEq("A", 1), AttrEq("A", "B"), ConstEq("B", 2)])
        assert isinstance(compute_eq(view, []), BottomEQ)

    def test_globally_firing_cfd_sets_key(self, db):
        # Example 3.1: source CFD pins B = b1 on every tuple.
        view = _view(db, [ConstEq("B", "b2")])
        sigma_v = [CFD("V", {"A": "_"}, {"B": "b1"})]
        assert isinstance(compute_eq(view, sigma_v), BottomEQ)

    def test_globally_firing_cfd_consistent_key(self, db):
        view = _view(db, [ConstEq("B", "b1")])
        sigma_v = [CFD("V", {"A": "_"}, {"B": "b1"})]
        eq = compute_eq(view, sigma_v)
        assert not isinstance(eq, BottomEQ)
        assert eq.key("B") == "b1"

    def test_fixpoint_chains_keys(self, db):
        # A=1 via selection; CFD (A=1 -> B=2); CFD (B=2 -> C=3).
        view = _view(db, [ConstEq("A", 1)])
        sigma_v = [
            CFD("V", {"A": 1}, {"B": 2}),
            CFD("V", {"B": 2}, {"C": 3}),
        ]
        eq = compute_eq(view, sigma_v)
        assert eq.key("B") == 2
        assert eq.key("C") == 3

    def test_non_matching_pattern_does_not_fire(self, db):
        view = _view(db, [ConstEq("A", 1)])
        sigma_v = [CFD("V", {"A": 9}, {"B": 2})]
        eq = compute_eq(view, sigma_v)
        assert not eq.has_key("B")

    def test_unsatisfiable_view_is_bottom(self, db):
        atoms = [RelationAtom("R", {a: a for a in "ABCD"})]
        view = SPCView("V", db, atoms, unsatisfiable=True)
        assert isinstance(compute_eq(view, []), BottomEQ)


class TestEQ2CFD:
    def test_keyed_class_yields_constant_cfds(self, db):
        view = _view(db, [ConstEq("A", 1), AttrEq("A", "B")])
        eq = compute_eq(view, [])
        cfds = eq2cfd(eq, view)
        assert CFD.constant("V", "A", 1) in cfds
        assert CFD.constant("V", "B", 1) in cfds

    def test_unkeyed_class_yields_equality_cfds(self, db):
        view = _view(db, [AttrEq("A", "B")])
        cfds = eq2cfd(compute_eq(view, []), view)
        assert CFD.equality("V", "A", "B") in cfds

    def test_singleton_classes_yield_nothing(self, db):
        view = _view(db)
        assert eq2cfd(compute_eq(view, []), view) == []

    def test_projection_restriction(self, db):
        # B is not projected: the A=B constraint produces no view CFD.
        view = _view(db, [AttrEq("A", "B")], projection=["A", "C", "D"])
        cfds = eq2cfd(compute_eq(view, []), view)
        assert cfds == []

    def test_keyed_class_partially_projected(self, db):
        view = _view(db, [ConstEq("A", 1), AttrEq("A", "B")], projection=["B"])
        cfds = eq2cfd(compute_eq(view, []), view)
        assert cfds == [CFD.constant("V", "B", 1)]

    def test_three_member_class_pairs(self, db):
        view = _view(db, [AttrEq("A", "B"), AttrEq("B", "C")])
        cfds = eq2cfd(compute_eq(view, []), view)
        assert len(cfds) == 3  # (A,B), (A,C), (B,C)
