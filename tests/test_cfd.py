"""CFDs: construction, semantics, triviality, attribute surgery."""

import random

import pytest

from repro.core.cfd import CFD
from repro.core.fd import FD
from repro.core.mincover import min_cover
from repro.core.values import Const, SPECIAL, WILDCARD
from repro.generators import random_cfds, random_schema
from repro.propagation.rbr import a_resolvent


class TestConstruction:
    def test_raw_values_coerced_to_constants(self):
        phi = CFD("R", {"A": "44"}, {"B": "ldn"})
        assert phi.lhs == (("A", Const("44")),)
        assert phi.rhs == (("B", Const("ldn")),)

    def test_underscore_string_is_wildcard(self):
        phi = CFD("R", {"A": "_"}, {"B": "_"})
        assert phi.lhs[0][1] == WILDCARD

    def test_explicit_const_underscore_possible(self):
        phi = CFD("R", {"A": Const("_")}, {"B": "_"})
        assert phi.lhs[0][1] == Const("_")

    def test_attributes_sorted(self):
        phi = CFD("R", {"B": "_", "A": "_"}, {"C": "_"})
        assert phi.lhs_attrs == ("A", "B")

    def test_empty_rhs_rejected(self):
        with pytest.raises(ValueError):
            CFD("R", {"A": "_"}, {})

    def test_empty_lhs_allowed(self):
        phi = CFD("R", {}, {"A": "a"})
        assert phi.lhs == ()

    def test_special_var_only_in_equality_form(self):
        with pytest.raises(ValueError):
            CFD("R", {"A": SPECIAL, "B": "_"}, {"C": SPECIAL})
        with pytest.raises(ValueError):
            CFD("R", {"A": "_"}, {"C": SPECIAL})

    @pytest.mark.parametrize(
        "lhs",
        [[("A", 1), ("A", 2)], [("A", 1), ("A", "_")], [("A", "_"), ("A", "_")]],
    )
    def test_duplicate_attributes_rejected(self, lhs):
        # Entries of one attribute are never compared: Const has no order.
        with pytest.raises(ValueError, match="duplicate attributes"):
            CFD("R", lhs, {"B": "_"})
        with pytest.raises(ValueError, match="duplicate attributes"):
            CFD("R", {"B": "_"}, lhs)

    def test_items_sorted_by_name_only(self):
        phi = CFD("R", [("B", 1), ("A", "a"), ("C", "_")], [("D", 2)])
        assert phi.lhs_attrs == ("A", "B", "C")

    def test_from_fd(self):
        phi = CFD.from_fd(FD("R", ("A",), ("B", "C")))
        assert phi.lhs == (("A", WILDCARD),)
        assert dict(phi.rhs) == {"B": WILDCARD, "C": WILDCARD}

    @pytest.mark.parametrize(
        "fd",
        [FD("R", ("C", "A", "A"), ("B",)), FD("R", (), ("B", "A")), FD("R", ("A",), "A")],
    )
    def test_from_fd_matches_the_general_constructor(self, fd):
        fast = CFD.from_fd(fd)
        slow = CFD(fd.relation, {a: "_" for a in fd.lhs}, {b: "_" for b in fd.rhs})
        assert fast == slow and hash(fast) == hash(slow)
        for name in ("lhs_attrs", "rhs_attrs", "attributes", "is_equality"):
            assert getattr(fast, name) == getattr(slow, name)
        assert fast.is_trivial() == slow.is_trivial()
        assert fast.normalize() == slow.normalize()

    def test_equality_constructor(self):
        phi = CFD.equality("R", "A", "B")
        assert phi.is_equality
        assert phi.lhs_attrs == ("A",)
        assert phi.rhs_attrs == ("B",)

    def test_constant_constructor(self):
        phi = CFD.constant("R", "A", "a")
        assert phi.is_constant_cfd()
        assert phi.rhs_entry == Const("a")


class TestAccessors:
    def test_rhs_attr_requires_normal_form(self):
        general = CFD("R", {"A": "_"}, {"B": "_", "C": "_"})
        with pytest.raises(ValueError):
            general.rhs_attr

    def test_embedded_fd(self):
        phi = CFD("R", {"A": "1", "B": "_"}, {"C": "c"})
        assert phi.embedded_fd() == FD("R", ("A", "B"), ("C",))

    def test_lhs_entry(self):
        phi = CFD("R", {"A": "1"}, {"B": "_"})
        assert phi.lhs_entry("A") == Const("1")
        with pytest.raises(KeyError):
            phi.lhs_entry("Z")


class TestNormalization:
    def test_normalize_splits_rhs(self):
        general = CFD("R", {"A": "1"}, {"B": "b", "C": "_"})
        parts = general.normalize()
        assert len(parts) == 2
        assert {p.rhs_attr for p in parts} == {"B", "C"}
        assert all(p.lhs == general.lhs for p in parts)

    def test_normal_form_unchanged(self):
        phi = CFD("R", {"A": "_"}, {"B": "_"})
        assert phi.normalize() == [phi]


class TestTriviality:
    def test_rhs_not_in_lhs_is_nontrivial(self):
        assert not CFD("R", {"A": "_"}, {"B": "_"}).is_trivial()

    def test_plain_self_dependency_trivial(self):
        # (A -> A, (_ || _)): eta1 == eta2.
        assert CFD("R", {"A": "_"}, {"A": "_"}).is_trivial()

    def test_const_to_same_const_trivial(self):
        assert CFD("R", {"A": "a"}, {"A": "a"}).is_trivial()

    def test_const_lhs_wildcard_rhs_trivial(self):
        # (A -> A, (a || _)).
        assert CFD("R", {"A": "a"}, {"A": "_"}).is_trivial()

    def test_wildcard_lhs_const_rhs_not_trivial(self):
        # (A -> A, (_ || a)) forces a constant — the paper's point (b).
        assert not CFD("R", {"A": "_"}, {"A": "a"}).is_trivial()

    def test_const_premise_other_const_conclusion_not_trivial(self):
        # (A -> A, (a || b)) denies the pattern A = a.
        assert not CFD("R", {"A": "a"}, {"A": "b"}).is_trivial()

    def test_equality_trivial_only_when_same_attribute(self):
        assert CFD.equality("R", "A", "A").is_trivial()
        assert not CFD.equality("R", "A", "B").is_trivial()


class TestSimplified:
    def test_self_lhs_wildcard_const_rhs_drops_lhs_occurrence(self):
        phi = CFD("R", {"A": "_", "X": "x1"}, {"A": "a"})
        simplified = phi.simplified()
        assert simplified.lhs_attrs == ("X",)
        assert simplified.rhs_entry == Const("a")

    def test_denial_form_kept(self):
        phi = CFD("R", {"A": "c", "X": "_"}, {"A": "a"})
        assert phi.simplified() == phi

    def test_plain_cfd_unchanged(self):
        phi = CFD("R", {"X": "_"}, {"A": "a"})
        assert phi.simplified() == phi


class TestSatisfaction:
    def test_fd_semantics_pair_violation(self):
        phi = CFD("R", {"A": "_"}, {"B": "_"})
        rows = [{"A": 1, "B": 1}, {"A": 1, "B": 2}]
        assert not phi.holds_on(rows)
        assert phi.holds_on(rows[:1])

    def test_pattern_restricts_scope(self):
        phi = CFD("R", {"A": "1", "B": "_"}, {"C": "_"})
        rows = [
            {"A": "2", "B": "x", "C": "u"},
            {"A": "2", "B": "x", "C": "v"},  # outside the pattern: ignored
        ]
        assert phi.holds_on(rows)

    def test_constant_rhs_single_tuple_semantics(self):
        phi = CFD("R", {"A": "1"}, {"B": "b"})
        assert not phi.holds_on([{"A": "1", "B": "c"}])
        assert phi.holds_on([{"A": "2", "B": "c"}])

    def test_equality_form_semantics(self):
        phi = CFD.equality("R", "A", "B")
        assert phi.holds_on([{"A": 1, "B": 1}])
        assert not phi.holds_on([{"A": 1, "B": 2}])

    def test_violations_yield_witnesses(self):
        phi = CFD("R", {"A": "_"}, {"B": "_"})
        rows = [{"A": 1, "B": 1}, {"A": 1, "B": 2}]
        witnesses = list(phi.violations(rows))
        assert len(witnesses) == 1
        assert len(witnesses[0]) == 2

    def test_single_tuple_violation_witness(self):
        phi = CFD("R", {"A": "1"}, {"B": "b"})
        witnesses = list(phi.violations([{"A": "1", "B": "c"}]))
        assert witnesses == [({"A": "1", "B": "c"},)]

    def test_example_2_2_modified_phi4_violated(self, customer_instance, customer_view):
        """Removing CC from phi4 breaks it on the Figure 1 view.

        (The paper writes the city as "LDN" in Figure 1 but "ldn" in the
        CFDs; we follow the Figure 1 casing for instance-level checks.)
        """
        view_rows = customer_view.evaluate(customer_instance).rows
        modified = CFD("R", {"AC": "20"}, {"city": "LDN"})
        assert not modified.holds_on(view_rows)
        phi4 = CFD("R", {"CC": "44", "AC": "20"}, {"city": "LDN"})
        assert phi4.holds_on(view_rows)


class TestSurgery:
    def test_rename(self):
        phi = CFD("R", {"A": "1"}, {"B": "_"})
        renamed = phi.rename({"A": "t0.A", "B": "t0.B"}, relation="V")
        assert renamed.relation == "V"
        assert renamed.lhs_attrs == ("t0.A",)

    def test_rename_collision_rejected(self):
        phi = CFD("R", {"A": "1", "B": "_"}, {"C": "_"})
        with pytest.raises(ValueError):
            phi.rename({"A": "B"})

    def test_substitute_simple(self):
        phi = CFD("R", {"A": "1"}, {"B": "_"})
        assert phi.substitute("A", "Z").lhs_attrs == ("Z",)

    def test_substitute_merges_with_meet(self):
        phi = CFD("R", {"A": "1", "B": "_"}, {"C": "_"})
        merged = phi.substitute("B", "A")
        assert merged.lhs == (("A", Const("1")),)

    def test_substitute_conflicting_constants_kills_cfd(self):
        phi = CFD("R", {"A": "1", "B": "2"}, {"C": "_"})
        assert phi.substitute("B", "A") is None

    def test_drop_lhs_attribute(self):
        phi = CFD("R", {"A": "1", "B": "_"}, {"C": "_"})
        assert phi.drop_lhs_attribute("A").lhs_attrs == ("B",)

    def test_with_relation(self):
        phi = CFD("R", {"A": "_"}, {"B": "_"})
        assert phi.with_relation("V").relation == "V"


# ----------------------------------------------------------------------
# The internal rewrites build CFDs from validated items, skipping the
# public checks; each must equal the public rebuild of what it returns.
# ----------------------------------------------------------------------

#: The Section 5 generator seed of the figure benchmarks.
PAPER_SEED = 20080824


def _surgery_inputs() -> list[CFD]:
    """Fig. 5 generator CFDs (wide and constant-LHS), multi-RHS CFDs and
    equality forms over the Fig. 5 schema."""
    schema = random_schema(random.Random(PAPER_SEED), num_relations=10)
    rng = random.Random(PAPER_SEED + 1)
    cfds = random_cfds(rng, schema, 60, max_lhs=9, min_lhs=3, var_pct=0.4)
    cfds += random_cfds(
        rng, schema, 30, max_lhs=3, min_lhs=0, var_pct=0.5, constant_lhs=True
    )
    for relation in list(schema)[:4]:
        a, b, c, d = rng.sample(relation.attribute_names, 4)
        cfds.append(CFD.equality(relation.name, a, b))
        cfds.append(CFD(relation.name, {a: "_", b: rng.randint(1, 3)}, {c: "_", d: 7}))
    return cfds


def _assert_public_rebuild(phi: CFD) -> None:
    rebuilt = CFD(phi.relation, dict(phi.lhs), dict(phi.rhs))
    assert phi == rebuilt and hash(phi) == hash(rebuilt)
    assert repr(phi) == repr(rebuilt)
    assert phi.attributes == rebuilt.attributes
    assert phi.is_equality == rebuilt.is_equality
    if phi.is_normal_form:
        assert phi.rhs_attr == rebuilt.rhs_attr
    else:
        with pytest.raises(ValueError):
            rebuilt.rhs_attr
        with pytest.raises(ValueError):
            phi.rhs_attr


def test_internal_rewrites_equal_the_public_rebuild():
    rng = random.Random(PAPER_SEED + 2)
    cfds = _surgery_inputs()
    assert any(phi.is_equality for phi in cfds)
    assert any(not phi.is_normal_form for phi in cfds)
    built = []
    for phi in cfds:
        names = sorted(phi.attributes)
        mapping = {n: f"t{rng.randint(0, 2)}.{n}" for n in rng.sample(names, len(names) // 2)}
        built.append(phi.rename(mapping, relation="V"))
        built.append(phi.with_relation("V"))
        for old in names:
            new = rng.choice(names + ["Z"])
            substituted = phi.substitute(old, new)
            if substituted is not None:
                built.append(substituted)
        if not phi.is_equality:
            built.extend(phi.drop_lhs_attribute(name) for name in phi.lhs_attrs)
    for attribute in sorted({name for phi in cfds for name in phi.attributes}):
        normal = [n for phi in cfds if not phi.is_equality for n in phi.normalize()]
        for phi1 in normal:
            for phi2 in normal:
                resolvent = a_resolvent(phi1, phi2, attribute)
                if resolvent is not None:
                    built.append(resolvent)
    built.extend(min_cover(cfds, kernel="bitset"))
    assert len(built) > 1000
    for phi in built:
        _assert_public_rebuild(phi)


def test_rewrites_that_break_a_cfd_still_raise():
    phi = CFD("R", {"A": 1, "B": "_"}, {"C": "_"})
    with pytest.raises(ValueError, match="collapses"):
        phi.rename({"A": "B"})
    equality = CFD.equality("R", "A", "B")
    with pytest.raises(ValueError):
        equality.drop_lhs_attribute("A")
    assert equality.drop_lhs_attribute("Z") == equality
