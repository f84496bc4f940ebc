"""``EngineStats`` is the one counter registry.

Every producer (tiered caches, per-view tableau caches, packed runners,
LRU evictions) ticks the engine's ``EngineStats`` in place, so a counter
never runs backwards when a cache is evicted, and the wire surfaces —
the ``stats`` op's ``counters`` and each response's ``RequestStats`` —
derive from that one declaration.
"""

from __future__ import annotations

import dataclasses

from repro import CFD
from repro.api.requests import ENGINE_SUMS, CheckRequest, CoverRequest, RequestStats
from repro.api.service import PropagationService
from repro.api.wire import handle_request
from repro.propagation.closure_baseline import union_shard_workload
from repro.propagation.engine import EngineStats, PropagationEngine


def _flat(stats: EngineStats) -> dict[str, int]:
    out = dataclasses.asdict(stats)
    rbr = out.pop("rbr")
    out.update({f"rbr.{name}": value for name, value in rbr.items()})
    return out


def test_counters_never_run_backwards_under_eviction():
    """``cache_size=1`` evicts each Sigma's packed runner on the next
    Sigma; its outcome-cache evictions must stay counted."""
    _, sigma, view, phis = union_shard_workload()
    engine = PropagationEngine(cache_size=1)
    previous = _flat(engine.stats)
    for s in range(6):
        edited = sigma + [CFD("R1", {"A": str(10 + s)}, {"D": "9"})]
        for phi in (phis * 2)[:10]:
            engine.check_many(edited, view, [phi])
            now = _flat(engine.stats)
            assert {name for name in now if now[name] < previous[name]} == set()
            previous = now
    assert previous["tableau_evictions"] > 0


def test_wire_counters_are_the_engine_fields():
    _, sigma, view, phis = union_shard_workload()
    service = PropagationService()
    service.check(CheckRequest(view=view, targets=phis, sigma=sigma))
    doc = handle_request({"op": "stats"}, service)
    stats = service.stats
    scalar = {
        f.name
        for f in dataclasses.fields(EngineStats)
        if not dataclasses.is_dataclass(getattr(stats, f.name))
    }
    assert set(doc["result"]["counters"]) == scalar
    assert doc["result"]["counters"]["chase_invocations"] == stats.chase_invocations
    assert doc["result"]["engine"] == repr(stats)


def test_request_stats_are_the_declared_engine_deltas():
    assert set(ENGINE_SUMS) | {"elapsed_ms", "queries"} == {
        f.name for f in dataclasses.fields(RequestStats)
    }
    assert ENGINE_SUMS["memo_hits"] == ("verdict_hits", "cover_hits")
    assert ENGINE_SUMS["chases"] == ("chase_invocations",)
    assert ENGINE_SUMS["pair_chases"] == ("pair_chases",)

    _, sigma, view, phis = union_shard_workload()
    service = PropagationService()
    requests = [
        CheckRequest(view=view, targets=phis, sigma=sigma),
        CheckRequest(view=view, targets=phis, sigma=sigma),  # warm
        CoverRequest(view=view, sigma=sigma),
        CoverRequest(view=view, sigma=sigma),  # warm
    ]
    seen_pair_chases = 0
    for request in requests:
        before = _flat(service.stats)
        response = service.submit(request)
        after = _flat(service.stats)
        expected = {
            name: sum(after[f] - before[f] for f in engine_fields)
            for name, engine_fields in ENGINE_SUMS.items()
        }
        got = dataclasses.asdict(response.stats)
        assert {name: got[name] for name in ENGINE_SUMS} == expected
        seen_pair_chases += response.stats.pair_chases
    assert seen_pair_chases > 0
