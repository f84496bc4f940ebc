"""Pattern-value algebra and the value objects built on it.

The algebra: the match relation, the order, the meet.  The objects:
``Wildcard``/``SpecialVar`` are identity singletons that survive pickle
and ``deepcopy``, and ``CFD`` is a frozen, slotted dataclass whose hash
is the tuple hash of its compared fields.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.algebra.ops import AttrEq, ConstEq
from repro.algebra.spc import RelationAtom, SPCView
from repro.core.cfd import CFD
from repro.core.fd import FD
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.core.values import (
    Const,
    SPECIAL,
    SpecialVar,
    WILDCARD,
    Wildcard,
    const,
    is_const,
    is_special,
    is_wildcard,
    leq,
    matches,
    meet,
    value_matches,
)

entries = st.one_of(
    st.just(WILDCARD),
    st.integers(min_value=0, max_value=5).map(const),
)


class TestPredicates:
    def test_const_wraps_value(self):
        assert const("a") == Const("a")
        assert is_const(const("a"))

    def test_wildcard_singleton_equality(self):
        assert WILDCARD == Wildcard()
        assert is_wildcard(WILDCARD)

    def test_special_is_not_wildcard(self):
        assert is_special(SPECIAL)
        assert not is_wildcard(SPECIAL)
        assert not is_const(SPECIAL)

    def test_consts_with_distinct_values_differ(self):
        assert const(1) != const(2)
        assert const(1) != const("1")


class TestMatches:
    def test_equal_constants_match(self):
        assert matches(const("a"), const("a"))

    def test_distinct_constants_do_not_match(self):
        assert not matches(const("a"), const("b"))

    def test_wildcard_matches_everything(self):
        assert matches(WILDCARD, const("a"))
        assert matches(const("a"), WILDCARD)
        assert matches(WILDCARD, WILDCARD)
        assert matches(WILDCARD, SPECIAL)

    def test_paper_example(self):
        # (Portland, ldn) matches (_, ldn) but not (_, nyc).
        assert matches(const("Portland"), WILDCARD) and matches(
            const("ldn"), const("ldn")
        )
        assert not matches(const("ldn"), const("nyc"))

    @given(entries, entries)
    def test_matches_is_symmetric(self, a, b):
        assert matches(a, b) == matches(b, a)


class TestLeq:
    def test_constant_below_wildcard(self):
        assert leq(const("a"), WILDCARD)
        assert not leq(WILDCARD, const("a"))

    def test_constant_below_itself_only(self):
        assert leq(const("a"), const("a"))
        assert not leq(const("a"), const("b"))

    @given(entries)
    def test_reflexive(self, a):
        assert leq(a, a)

    @given(entries, entries)
    def test_antisymmetric(self, a, b):
        if leq(a, b) and leq(b, a):
            assert a == b

    @given(entries, entries, entries)
    def test_transitive(self, a, b, c):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


class TestMeet:
    def test_meet_with_wildcard_is_other(self):
        assert meet(WILDCARD, const("a")) == const("a")
        assert meet(const("a"), WILDCARD) == const("a")
        assert meet(WILDCARD, WILDCARD) == WILDCARD

    def test_meet_of_distinct_constants_undefined(self):
        assert meet(const("a"), const("b")) is None

    def test_meet_of_equal_constants(self):
        assert meet(const("a"), const("a")) == const("a")

    @given(entries, entries)
    def test_commutative(self, a, b):
        assert meet(a, b) == meet(b, a)

    @given(entries)
    def test_idempotent(self, a):
        assert meet(a, a) == a

    @given(entries, entries)
    def test_meet_is_lower_bound(self, a, b):
        m = meet(a, b)
        if m is not None:
            assert leq(m, a) and leq(m, b)

    @given(entries, entries, entries)
    def test_meet_is_greatest_lower_bound(self, a, b, c):
        m = meet(a, b)
        if leq(c, a) and leq(c, b):
            assert m is not None
            assert leq(c, m)


class TestValueMatches:
    def test_wildcard_matches_any_value(self):
        assert value_matches("anything", WILDCARD)

    def test_constant_requires_equality(self):
        assert value_matches("a", const("a"))
        assert not value_matches("b", const("a"))

    def test_special_matches_any_value(self):
        assert value_matches("x", SPECIAL)


ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _entries(cfd: CFD) -> list:
    return [entry for _, entry in cfd.lhs + cfd.rhs]


def _same_entries(twin: CFD, cfd: CFD) -> bool:
    """Equal entries, and the very same object wherever one is a variable."""
    pairs = list(zip(_entries(twin), _entries(cfd)))
    return all(a == b and (a is b or is_const(b)) for a, b in pairs)


class TestSingletons:
    def test_constructors_return_the_module_globals(self):
        assert Wildcard() is WILDCARD
        assert SpecialVar() is SPECIAL
        assert WILDCARD is not SPECIAL and WILDCARD != SPECIAL

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_round_trips_keep_identity(self, round_trip):
        assert round_trip(WILDCARD) is WILDCARD
        assert round_trip(SPECIAL) is SPECIAL
        assert round_trip([WILDCARD, SPECIAL]) == [WILDCARD, SPECIAL]

    def test_hash_and_equality_are_the_identity_defaults(self):
        assert type(WILDCARD).__hash__ is object.__hash__
        assert type(WILDCARD).__eq__ is object.__eq__
        assert type(SPECIAL).__hash__ is object.__hash__


def _view() -> SPCView:
    schema = DatabaseSchema([RelationSchema("R", ["A", "B", "C"])])
    return SPCView(
        "V",
        schema,
        [RelationAtom("R", {"A": "A", "B": "B", "C": "C"})],
        [ConstEq("A", "a"), AttrEq("B", "C")],
        ["A", "B", "C", "CC"],
        {"CC": "44"},
    )


class TestCFDObject:
    CFDS = [
        CFD("R", {"A": "_", "B": 1}, {"C": "_"}),
        CFD("R", {}, {"C": "c"}),
        CFD.equality("R", "A", "B"),
        CFD("R", {"A": "_"}, {"B": "_", "C": 2}),
        CFD.from_fd(FD("R", ["A", "B"], ["C"])),
    ]

    @pytest.mark.parametrize("cfd", CFDS, ids=repr)
    def test_hash_is_the_tuple_hash_of_the_compared_fields(self, cfd):
        assert hash(cfd) == hash((cfd.relation, cfd.lhs, cfd.rhs))

    def test_from_fd_equals_the_wildcard_pattern(self):
        embedded = CFD.from_fd(FD("R", ["A"], ["B"]))
        spelled = CFD("R", {"A": "_"}, {"B": "_"})
        assert embedded == spelled
        assert hash(embedded) == hash(spelled)
        assert all(entry is WILDCARD for entry in _entries(embedded))
        assert embedded.lhs_attrs == spelled.lhs_attrs == ("A",)
        assert embedded.attributes == spelled.attributes == {"A", "B"}

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("cfd", CFDS, ids=repr)
    def test_round_trips_keep_singletons_and_hash(self, cfd, round_trip):
        twin = round_trip(cfd)
        assert twin == cfd and hash(twin) == hash(cfd)
        assert _same_entries(twin, cfd)
        assert twin.is_equality == cfd.is_equality
        assert twin.attributes == cfd.attributes

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_view_round_trip_keeps_view_rules(self, round_trip):
        from repro.propagation.check import _view_sigma
        from repro.propagation.engine.keys import structural_view_key

        view = _view()
        twin = round_trip(view)
        assert twin.selection == view.selection
        assert structural_view_key(twin) == structural_view_key(view)
        sigma = [CFD("R", {"A": "a"}, {"B": "b"})]
        rules, twin_rules = _view_sigma(view, sigma), _view_sigma(twin, sigma)
        assert twin_rules == rules
        assert [hash(r) for r in twin_rules] == [hash(r) for r in rules]
        assert all(map(_same_entries, twin_rules, rules))
        assert any(entry is SPECIAL for rule in twin_rules for entry in _entries(rule))

    def test_fields_are_frozen(self):
        cfd = CFD("R", {"A": "_"}, {"B": "_"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfd.lhs = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfd.lhs_attrs = ()

    def test_instances_have_no_dict(self):
        # Slots keep a CFD small: an instance dict per CFD cost ~10% of
        # the peak RSS of a Fig. 5 cover.
        cfd = CFD.from_fd(FD("R", ["A"], ["B"]))
        assert not hasattr(cfd, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(cfd, "extra", 1)
