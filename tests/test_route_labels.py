"""Route labels and the one keyspace a request builds.

The service routes on capabilities the engine returns with its verdicts
(``docs/api.md``, "Routing"), so two things are pinned here:

1. *Labels* — every check route (``ptime-chase``, ``general``,
   ``closure``, ``spcu``, ``spc``), both cover routes and ``emptiness``
   carry the same label on a miss, on a repeat hit, through
   :meth:`PropagationService.peek` and under ``use_cache=False``.
2. *One keyspace per request, built at registration* — a named check
   (miss or hit), a loop-side peek hit, a cover and an emptiness request
   build no structural view key (the registered view carries it) and
   scope Sigma at most once per Sigma state; an inline view builds its
   key exactly once per request.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CFD, FD
from repro.algebra.spc import RelationAtom, SPCView
from repro.api import (
    CheckRequest,
    CoverRequest,
    EmptinessRequest,
    PropagationService,
    UpdateSigmaRequest,
)
from repro.core.domains import BOOL
from repro.core.schema import Attribute, DatabaseSchema, RelationSchema
from repro.propagation.closure_baseline import example_41_workload
from repro.propagation import check as check_module
from repro.propagation.engine import keys


def _projection(defeat_fast_path: bool):
    view, sigma, _ = example_41_workload(3, defeat_fast_path=defeat_fast_path)
    phis = [FD("V", ("A1", "B2", "B3"), ("D",)), FD("V", ("B1",), ("D",))]
    return sigma, view, phis


def _boolean():
    db = DatabaseSchema(
        [RelationSchema("R", [Attribute("A", BOOL), Attribute("B"), Attribute("C")])]
    )
    view = SPCView("V", db, [RelationAtom("R", {a: a for a in ("A", "B", "C")})])
    sigma = [CFD("R", {"A": False}, {"B": "b"}), CFD("R", {"A": True}, {"B": "b"})]
    return sigma, view, [CFD.constant("V", "B", "b")]


def _union(customer_sigma, customer_view):
    phis = [
        CFD("R", {"CC": "44", "zip": "_"}, {"street": "_"}),
        FD("R", ("zip",), ("street",)),
    ]
    return customer_sigma, customer_view, phis


#: case -> (request kind, workload, settings, labels): the labels of a
#: miss, a repeat hit, a peek (``None``: peek does not answer it) and an
#: uncached request, as the service gave them when it still kept its own
#: route memo.
CASES = {
    "check-spc": ("check", "spc", {}, ("spc",) * 4),
    "check-closure": ("check", "closure", {}, ("closure",) * 3 + ("spc",)),
    "check-general": ("check", "general", {}, ("general",) * 4),
    "check-ptime-chase": (
        "check",
        "general",
        {"assume_infinite": True},
        ("ptime-chase",) * 4,
    ),
    "check-spcu": ("check", "union", {}, ("spcu",) * 4),
    "cover-spc": ("cover", "spc", {}, ("spc",) * 4),
    "cover-spcu": ("cover", "union", {}, ("spcu",) * 4),
    "emptiness": (
        "empty",
        "union",
        {},
        ("emptiness", "emptiness", None, "emptiness"),
    ),
}
REQUESTS = {"check": CheckRequest, "cover": CoverRequest, "empty": EmptinessRequest}


@pytest.mark.parametrize("case", list(CASES))
def test_route_labels_are_pinned(case, customer_sigma, customer_view):
    kind, workload, settings, expected = CASES[case]
    sigma, view, phis = {
        "spc": lambda: _projection(defeat_fast_path=True),
        "closure": lambda: _projection(defeat_fast_path=False),
        "general": _boolean,
        "union": lambda: _union(customer_sigma, customer_view),
    }[workload]()
    if kind == "check":
        settings = {**settings, "targets": phis}
    request = REQUESTS[kind](view=view, sigma=sigma, **settings)
    uncached_request = dataclasses.replace(request, use_cache=False)
    with PropagationService() as service:
        miss = service.submit(request)
        hit = service.submit(request)
        peeked = service.peek(request)
        uncached = service.submit(uncached_request)
        assert service.peek(uncached_request) is None
    if kind != "empty":
        assert hit.stats.memo_hits == hit.stats.queries
    labels = (
        miss.route,
        hit.route,
        None if peeked is None else peeked.route,
        uncached.route,
    )
    assert labels == expected


def test_a_request_builds_one_keyspace(monkeypatch):
    """A registered view brings its key, and a Sigma state its scopes.

    After registration no named request builds a structural view key;
    an inline view builds exactly one.  Sigma is scoped once per state
    and touched set: a cover after a check under the same Sigma scopes
    nothing, and neither does the first check after an edit to a
    relation the view does not read (the edit carries the scope over).
    """
    view_keys, scopes = [], []
    build_key, scope = keys.structural_view_key, check_module.scoped_sigma

    def counted_key(view):
        view_keys.append(view)
        return build_key(view)

    def counted_scope(sigma_cfds, touched):
        scopes.append(touched)
        return scope(sigma_cfds, touched)

    monkeypatch.setattr(keys, "structural_view_key", counted_key)
    monkeypatch.setattr(check_module, "scoped_sigma", counted_scope)
    sigma, view, phis = _projection(defeat_fast_path=True)
    with PropagationService() as service:
        service.workspace.add_sigma("default", sigma)
        service.workspace.add_view("V", view)
        check = CheckRequest(view="V", targets=phis)
        elsewhere = UpdateSigmaRequest(add=[FD("S", ("A",), ("B",))])
        for label, call, scoped in (
            ("miss", lambda: service.check(check), 1),
            ("hit", lambda: service.check(check), 0),
            ("peek hit", lambda: service.peek(check), 0),
            ("cover", lambda: service.cover(CoverRequest(view="V")), 0),
            ("emptiness", lambda: service.emptiness(EmptinessRequest(view="V")), 0),
            ("edit elsewhere", lambda: service.delta_sigma(elsewhere), 0),
            ("check after it", lambda: service.check(check), 0),
        ):
            view_keys.clear()
            scopes.clear()
            assert call() is not None
            assert view_keys == [], label
            assert len(scopes) == scoped, label
        view_keys.clear()
        service.check(CheckRequest(view=view, targets=phis))
        assert len(view_keys) == 1
