"""The unified service API: routing, workspace, errors, deprecation shims.

The contract under test is *differential*: for every procedure family the
service routes to (SPC, SPCU, general/coNP, PTIME-chase, closure fast
path, emptiness), :class:`repro.api.PropagationService` must return
exactly what the direct procedure call returns — routing is an
implementation detail of *where* the answer comes from, never *what* it
is.  On top of that: the route labels themselves, the error taxonomy,
workspace name resolution, batch semantics, and the legacy free-function
shims.
"""

from __future__ import annotations

import pytest

from repro import CFD, FD
from repro.algebra.ops import ConstEq
from repro.algebra.spc import RelationAtom, SPCView
from repro.api import (
    ApiError,
    BatchRequest,
    BatchResult,
    CheckRequest,
    CoverRequest,
    EmptinessRequest,
    PropagationService,
    Workspace,
)
from repro.core.domains import BOOL
from repro.core.schema import Attribute, DatabaseSchema, RelationSchema
from repro.propagation.check import propagates as raw_propagates
from repro.propagation.closure_baseline import (
    example_41_workload,
    union_shard_workload,
)
from repro.propagation.cover import prop_cfd_spc as raw_prop_cfd_spc
from repro.propagation.emptiness import view_is_empty
from repro.propagation.engine import PropagationEngine
from repro.propagation.general import propagates_general, propagates_ptime_chase
from repro.propagation.spcu_cover import prop_cfd_spcu as raw_prop_cfd_spcu


@pytest.fixture
def service():
    with PropagationService() as svc:
        yield svc


def _projection_workload(n=3, defeat_fast_path=False):
    """The Example 4.1 projection view with a small mixed-verdict batch."""
    view, sigma, _ = example_41_workload(n, defeat_fast_path=defeat_fast_path)
    phis = [
        FD("V", ("A1", "B2", "B3"), ("D",)),
        FD("V", ("B1",), ("D",)),
        FD("V", ("A1", "A2", "A3"), ("D",)),
    ]
    return sigma, view, phis


# ----------------------------------------------------------------------
# Routing differentials: service verdicts == direct procedure calls.
# ----------------------------------------------------------------------


class TestCheckRouting:
    def test_spcu_route_matches_propagates(
        self, service, customer_sigma, customer_view
    ):
        phis = [
            CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"}),
            CFD("R", {"zip": "_"}, {"street": "_"}),
            CFD("R", {"CC": "44", "AC": "20"}, {"city": "ldn"}),
            FD("R", ("zip",), ("street",)),
        ]
        result = service.check(
            CheckRequest(view=customer_view, targets=phis, sigma=customer_sigma)
        )
        assert result.route == "spcu"
        assert result.propagated == [
            raw_propagates(customer_sigma, customer_view, phi) for phi in phis
        ]
        assert result.stats.queries == len(phis)

    def test_spc_route_matches_propagates(self, service):
        sigma, view, phis = _projection_workload(defeat_fast_path=True)
        result = service.check(CheckRequest(view=view, targets=phis, sigma=sigma))
        assert result.route == "spc"
        assert result.propagated == [
            raw_propagates(sigma, view, phi) for phi in phis
        ]
        assert result.stats.chases > 0

    def test_closure_route_runs_no_chase(self, service):
        sigma, view, phis = _projection_workload()
        result = service.check(CheckRequest(view=view, targets=phis, sigma=sigma))
        assert result.route == "closure"
        assert result.propagated == [
            raw_propagates(sigma, view, phi) for phi in phis
        ]
        assert result.stats.chases == 0
        assert result.stats.closure_fast_path == len(phis)

    def test_general_route_matches_enumeration(self, service):
        db = DatabaseSchema(
            [RelationSchema("R", [Attribute("A", BOOL), Attribute("B"), Attribute("C")])]
        )
        view = SPCView(
            "V", db, [RelationAtom("R", {a: a for a in ("A", "B", "C")})]
        )
        sigma = [
            CFD("R", {"A": False}, {"B": "b"}),
            CFD("R", {"A": True}, {"B": "b"}),
        ]
        phi = CFD.constant("V", "B", "b")
        result = service.check(CheckRequest(view=view, targets=[phi], sigma=sigma))
        assert result.route == "general"
        assert result.propagated == [propagates_general(sigma, view, phi)]
        assert result.propagated == [True]

    def test_ptime_chase_route_is_deliberately_incomplete(self, service):
        db = DatabaseSchema(
            [RelationSchema("R", [Attribute("A", BOOL), Attribute("B"), Attribute("C")])]
        )
        view = SPCView(
            "V", db, [RelationAtom("R", {a: a for a in ("A", "B", "C")})]
        )
        sigma = [
            CFD("R", {"A": False}, {"B": "b"}),
            CFD("R", {"A": True}, {"B": "b"}),
        ]
        phi = CFD.constant("V", "B", "b")
        result = service.check(
            CheckRequest(view=view, targets=[phi], sigma=sigma, assume_infinite=True)
        )
        assert result.route == "ptime-chase"
        assert result.propagated == [propagates_ptime_chase(sigma, view, phi)]
        assert result.propagated == [False]  # the PTIME/coNP gap, observed

    def test_settings_isolate_engines(self, service):
        """The general and ptime answers coexist warm without collisions."""
        db = DatabaseSchema(
            [RelationSchema("R", [Attribute("A", BOOL), Attribute("B"), Attribute("C")])]
        )
        view = SPCView(
            "V", db, [RelationAtom("R", {a: a for a in ("A", "B", "C")})]
        )
        sigma = [
            CFD("R", {"A": False}, {"B": "b"}),
            CFD("R", {"A": True}, {"B": "b"}),
        ]
        phi = CFD.constant("V", "B", "b")
        for _ in range(2):  # second round must hit warm engines
            general = service.check(
                CheckRequest(view=view, targets=[phi], sigma=sigma)
            )
            ptime = service.check(
                CheckRequest(
                    view=view, targets=[phi], sigma=sigma, assume_infinite=True
                )
            )
            assert (general.propagated, ptime.propagated) == ([True], [False])
        assert general.stats.memo_hits == 1  # warm round answered from memo
        assert ptime.stats.memo_hits == 1

    def test_witness_databases_align_with_targets(
        self, service, customer_sigma, customer_view
    ):
        phis = [
            CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"}),
            CFD("R", {"zip": "_"}, {"street": "_"}),
        ]
        result = service.check(
            CheckRequest(
                view=customer_view, targets=phis, sigma=customer_sigma, witness=True
            )
        )
        assert result.propagated == [True, False]
        assert result.witnesses[0] is None
        witness = result.witnesses[1]
        assert witness is not None
        evaluated = customer_view.evaluate(witness)
        assert len(evaluated.rows) >= 2  # a genuine violating pair


class TestCoverRouting:
    def test_spc_cover_matches_prop_cfd_spc(self, service):
        sigma, view, _ = _projection_workload(defeat_fast_path=True)
        result = service.cover(CoverRequest(view=view, sigma=sigma))
        assert result.route == "spc"
        assert result.cover == raw_prop_cfd_spc(sigma, view)

    def test_spcu_cover_matches_prop_cfd_spcu(
        self, service, customer_sigma, customer_view
    ):
        result = service.cover(
            CoverRequest(view=customer_view, sigma=customer_sigma)
        )
        assert result.route == "spcu"
        assert result.cover == raw_prop_cfd_spcu(customer_sigma, customer_view)

    def test_cover_memoized_across_requests(
        self, service, customer_sigma, customer_view
    ):
        first = service.cover(CoverRequest(view=customer_view, sigma=customer_sigma))
        second = service.cover(CoverRequest(view=customer_view, sigma=customer_sigma))
        assert second.cover == first.cover
        assert second.stats.memo_hits == 1
        assert second.stats.chases == 0

    def test_union_cover_counts_one_query_cold_and_warm(self, service):
        """``queries`` counts the request's view, not the cover's internal
        candidate checks."""
        _, sigma, view, _ = union_shard_workload()
        cold = service.cover(CoverRequest(view=view, sigma=sigma))
        warm = service.cover(CoverRequest(view=view, sigma=sigma))
        assert cold.route == "spcu" and cold.stats.chases > 0
        assert warm.stats.chases == 0
        assert cold.stats.queries == warm.stats.queries == 1


class TestEmptinessRouting:
    @pytest.fixture
    def empty_view_workload(self):
        # Example 3.1: the source pins B=b1 while the view selects B=b2.
        db = DatabaseSchema([RelationSchema("R", ["A", "B", "C"])])
        view = SPCView(
            "V",
            db,
            [RelationAtom("R", {a: a for a in ("A", "B", "C")})],
            selection=[ConstEq("B", "b2")],
        )
        sigma = [CFD("R", {"A": "_"}, {"B": "b1"})]
        return sigma, view

    def test_matches_view_is_empty(self, service, empty_view_workload):
        sigma, view = empty_view_workload
        result = service.emptiness(EmptinessRequest(view=view, sigma=sigma))
        assert result.route == "emptiness"
        assert result.empty is view_is_empty(sigma, view)
        assert result.empty

    def test_nonempty_with_witness(self, service, customer_sigma, customer_view):
        result = service.emptiness(
            EmptinessRequest(view=customer_view, sigma=customer_sigma, witness=True)
        )
        assert not result.empty
        assert result.witness is not None
        assert len(customer_view.evaluate(result.witness).rows) >= 1

    def test_verdict_memoized(self, service, empty_view_workload):
        sigma, view = empty_view_workload
        first = service.emptiness(EmptinessRequest(view=view, sigma=sigma))
        # Same inputs as a fresh, structurally equal view object: served
        # from the service-side memo (observable as identical output and
        # no engine involvement either way; we assert the memo is keyed
        # structurally by rebuilding the view).
        db = DatabaseSchema([RelationSchema("R", ["A", "B", "C"])])
        rebuilt = SPCView(
            "V",
            db,
            [RelationAtom("R", {a: a for a in ("A", "B", "C")})],
            selection=[ConstEq("B", "b2")],
        )
        second = service.emptiness(EmptinessRequest(view=rebuilt, sigma=sigma))
        assert second.empty is first.empty
        assert len(service._empty_memo) == 1


# ----------------------------------------------------------------------
# Batches, workspace, uncached parity.
# ----------------------------------------------------------------------


class TestBatchRequests:
    def test_mixed_batch_matches_individual_answers(
        self, service, customer_sigma, customer_view
    ):
        phis = [
            CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"}),
            CFD("R", {"zip": "_"}, {"street": "_"}),
        ]
        batch = service.submit(
            BatchRequest(
                [
                    CheckRequest(
                        view=customer_view, targets=phis, sigma=customer_sigma
                    ),
                    CoverRequest(view=customer_view, sigma=customer_sigma),
                    EmptinessRequest(view=customer_view, sigma=customer_sigma),
                ]
            )
        )
        assert isinstance(batch, BatchResult)
        check, cover, empty = batch.results
        assert check.propagated == [
            raw_propagates(customer_sigma, customer_view, phi) for phi in phis
        ]
        assert cover.cover == raw_prop_cfd_spcu(customer_sigma, customer_view)
        assert empty.empty is False
        assert batch.stats.queries == check.stats.queries + cover.stats.queries + 1

    def test_warm_batch_runs_zero_chases(
        self, service, customer_sigma, customer_view
    ):
        phis = [
            CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"}),
            CFD("R", {"zip": "_"}, {"street": "_"}),
        ]
        request = BatchRequest(
            [CheckRequest(view=customer_view, targets=phis, sigma=customer_sigma)]
        )
        cold = service.submit(request)
        warm = service.submit(request)
        assert warm.results[0].propagated == cold.results[0].propagated
        assert cold.stats.chases > 0
        assert warm.stats.chases == 0
        assert warm.stats.memo_hits == len(phis)


class TestWorkspace:
    def test_requests_resolve_registered_names(self, customer_schema):
        workspace = Workspace()
        workspace.add_schema("customers", customer_schema)
        workspace.add_sigma(
            "default",
            [
                {"kind": "fd", "relation": "R1", "lhs": ["zip"], "rhs": ["street"]},
            ],
        )
        workspace.add_view(
            "V",
            {
                "name": "R",
                "branches": [
                    {
                        "atoms": [{"source": "R1", "prefix": ""}],
                        "projection": ["AC", "phn", "name", "street", "city", "zip", "CC"],
                        "constants": {"CC": "44"},
                    }
                ],
            },
            schema="customers",
        )
        with PropagationService(workspace) as service:
            result = service.check(
                CheckRequest(
                    view="V",
                    targets=[CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"})],
                )
            )
            assert result.propagated == [True]

    def test_unknown_names_raise_not_found(self, service):
        with pytest.raises(ApiError) as err:
            service.check(CheckRequest(view="nope", targets=[]))
        assert err.value.kind == "not-found"
        assert err.value.exit_code == 2

        service.workspace.add_schema("s", {"relations": []})
        with pytest.raises(ApiError) as err:
            service.workspace.sigma("missing")
        assert err.value.kind == "not-found"

    @pytest.mark.parametrize(
        "setting", [{"kernel": "turbo"}, {"use_cache": "no"}, {"max_instantiations": -3}]
    )
    def test_mistyped_settings_raise_bad_request_in_process(self, service, setting):
        sigma, view, phis = _projection_workload()
        service.workspace.add_view("V", view)
        service.workspace.add_sigma("default", sigma)
        for request in (
            CheckRequest(view="V", targets=phis, **setting),
            CoverRequest(view="V", **setting),
            EmptinessRequest(view="V", **setting),
        ):
            with pytest.raises(ApiError) as err:
                service.submit(request)
            assert err.value.kind == "bad-request"
        # Rejected before any route was classified or engine pooled.
        assert len(service._route_memo) == 0 and service._engines == {}

    def test_malformed_documents_raise_format(self):
        workspace = Workspace()
        with pytest.raises(ApiError) as err:
            workspace.add_sigma("default", [{"kind": "who-knows"}])
        assert err.value.kind == "format"

    def test_from_files_missing_file_raises_not_found(self, tmp_path):
        with pytest.raises(ApiError) as err:
            Workspace.from_files(schema=tmp_path / "nope.json")
        assert err.value.kind == "not-found"


class TestErrorTaxonomy:
    def test_unsupported_view_kind_and_exit_code(self, service):
        with pytest.raises(ApiError) as err:
            service.check(CheckRequest(view=object(), targets=[], sigma=[]))
        assert err.value.kind == "unsupported-view"
        assert err.value.exit_code == 3

    def test_unprojected_attribute_is_bad_request(self, service):
        db = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        view = SPCView(
            "V", db, [RelationAtom("R", {"A": "A", "B": "B"})], projection=["A"]
        )
        with pytest.raises(ApiError) as err:
            service.check(
                CheckRequest(
                    view=view, targets=[CFD("V", {"A": "_"}, {"Z": "_"})], sigma=[]
                )
            )
        assert err.value.kind == "bad-request"
        assert err.value.exit_code == 2

    def test_unknown_request_type_is_bad_request(self, service):
        with pytest.raises(ApiError) as err:
            service.submit("not a request")
        assert err.value.kind == "bad-request"


class TestUncachedParity:
    def test_use_cache_false_matches_cached(
        self, service, customer_sigma, customer_view
    ):
        phis = [
            CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"}),
            CFD("R", {"zip": "_"}, {"street": "_"}),
        ]
        cached = service.check(
            CheckRequest(view=customer_view, targets=phis, sigma=customer_sigma)
        )
        uncached = service.check(
            CheckRequest(
                view=customer_view,
                targets=phis,
                sigma=customer_sigma,
                use_cache=False,
            )
        )
        assert cached.propagated == uncached.propagated
        assert uncached.stats.memo_hits == 0


class TestPeek:
    """Memory-only answers: the server's event-loop path."""

    def test_engine_peek_is_memory_only_and_leaves_no_trace(self):
        sigma, view, phis = _projection_workload(defeat_fast_path=True)
        engine = PropagationEngine(store_url="memory://")

        def trace():
            return (
                vars(engine.stats).copy(),
                engine._views.lookup(view),
                len(engine._fast_contexts),
                len(engine._pair_caches),
                len(engine._prov_fps),
                len(engine._view_fps),
            )

        untouched = trace()
        assert untouched[1] is None  # never seen
        assert engine.peek(sigma, view, phis) is None
        assert engine.peek(sigma, view) is None
        assert trace() == untouched  # not even a view token

        verdicts = engine.check_many(sigma, view, phis[:2])
        cover = engine.cover(sigma, view)

        def no_store(*args):
            raise AssertionError("peek reached the persistent store")

        for name in ("get", "put", "acquire_lease", "release_lease"):
            setattr(engine._store, name, no_store)
        warm = trace()
        assert engine.peek(sigma, view, phis) is None  # phis[2] is cold
        assert trace() == warm
        assert engine.peek(sigma, view, phis[:2]) == verdicts
        assert engine.peek(sigma, view) == cover
        moved = {
            name: value - warm[0][name]
            for name, value in vars(engine.stats).items()
            if isinstance(value, int) and value != warm[0][name]
        }
        assert moved == {
            "check_queries": 2,
            "verdict_hits": 2,
            "cover_queries": 1,
            "cover_hits": 1,
        }
        assert engine.peek(sigma, view, []) == []
        engine.close()
        uncached = PropagationEngine(use_cache=False)
        uncached.check_many(sigma, view, phis)
        assert uncached.peek(sigma, view, phis) is None

    def test_engine_peek_misses_on_a_line_evicted_after_its_residency_check(self):
        """A pool thread may evict a line between peek's residency check
        and its read: that is a miss, never a ``None`` verdict or cover."""
        from collections import OrderedDict

        class Vanishing(OrderedDict):
            def __contains__(self, key):
                return True  # resident at the check, gone by the read

        sigma, view, phis = _projection_workload(defeat_fast_path=True)
        engine = PropagationEngine()
        engine.check_many(sigma, view, phis)
        engine.cover(sigma, view)
        engine._verdict_tier.memory._data = Vanishing()
        engine._cover_tier.memory._data = Vanishing()
        before = vars(engine.stats).copy()
        assert engine.peek(sigma, view, phis) is None
        assert engine.peek(sigma, view) is None
        assert vars(engine.stats) == before

    def test_service_peek_equals_the_full_path_on_hits_only(self, service):
        schema, sigma, view, phis = union_shard_workload()
        service.workspace.add_schema("default", schema)
        service.workspace.add_sigma("default", sigma)
        service.workspace.add_view("U", view)
        check = CheckRequest(view="U", targets=phis)
        cover = CoverRequest(view="U")
        for request in (check, cover):
            assert service.peek(request) is None  # no engine yet
        assert service._engines == {}
        for request in (check, cover):
            service.submit(request)
            before = vars(service.stats).copy()
            full = service.submit(request)
            between = vars(service.stats).copy()
            peeked = service.peek(request)
            assert peeked is not None
            full.stats.elapsed_ms = peeked.stats.elapsed_ms = 0.0
            assert peeked == full
            assert _ticks(between, vars(service.stats)) == _ticks(before, between)
        witness = CheckRequest(view="U", targets=phis, witness=True)
        assert service.peek(witness) is None
        assert service.peek(EmptinessRequest(view="U")) is None
        other_pool = CheckRequest(view="U", targets=phis, kernel="baseline")
        assert service.peek(other_pool) is None
        assert len(service._engines) == 1


def _ticks(before: dict, after: dict) -> dict:
    return {k: after[k] - v for k, v in before.items() if isinstance(v, int)}


# ----------------------------------------------------------------------
# The public free functions.
# ----------------------------------------------------------------------


class TestDeprecationShims:
    """The public free functions raise the procedures' own exceptions,
    not the service's ApiError."""

    def test_shims_preserve_the_legacy_exception_surface(self):
        from repro.propagation import UnsupportedViewError, propagates

        db = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        view = SPCView(
            "V", db, [RelationAtom("R", {"A": "A", "B": "B"})], projection=["A"]
        )
        with pytest.raises(KeyError):
            propagates([], view, CFD("V", {"A": "_"}, {"Z": "_"}))
        with pytest.raises(UnsupportedViewError, match="undecidable"):
            propagates([], object(), CFD("V", {"A": "_"}, {"B": "_"}))
