"""The verdict search and the witness path over it (``propagation.check``).

Deciding ``Sigma |=_V phi`` only asks whether a violating pair exists:
``search_violation`` returns the violating unit and its chased instance,
and only ``find_counterexample`` (the witness path) instantiates that
instance into a database.  Three obligations:

1. *The cross-check still guards* — a kernel that names a pair which
   does not violate is overruled by the baseline confirmation and the
   full baseline sweep.
2. *Verdict paths build no witness* — with the database builder broken,
   every engine and library verdict path still answers, negatives
   included, with the pinned verdicts.
3. *Witnesses are unchanged* — the engine and service witness paths
   still return the pinned databases, byte for byte on the wire.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import io as repro_io
from repro.api import CheckRequest, PropagationService
from repro.kernel.chase import PackedPairRunner
from repro.propagation import check
from repro.propagation.check import BranchPairCache, find_counterexample, propagates
from repro.propagation.closure_baseline import union_shard_workload
from repro.propagation.engine import PropagationEngine
from repro.streaming.trace import generate_trace, parse_trace

KERNELS = ["bitset", "baseline"]


def _shard():
    _, sigma, view, phis = union_shard_workload()
    return sigma, view, phis


def _trace():
    _, sigma, views, ops = parse_trace(generate_trace(seed=2, edits=4, ops_per_edit=2))
    targets = [
        repro_io.dependency_from_json(target)
        for op in ops
        if op["op"] == "check"
        for target in op["targets"]
    ]
    return sigma, views["U"], targets


#: Workload -> (verdicts, sha256 of the witnesses' JSON), pinned from
#: the library ``find_counterexample`` before the search/witness split.
PINNED = {
    _shard: (
        [False, True, True, False, True],
        "64b203dcaaf928aaa4b4816cc50cacfabdcfd627714067b6ae58e39a2244d27f",
    ),
    _trace: (
        [False, False, False, False, False, True, True, False],
        "acfbe9d1ee6f44898c337ffdfe75d34531721515f734585c63fc0bda2b964dd5",
    ),
}
WORKLOADS = list(PINNED)


def _digest(databases) -> str:
    docs = [None if db is None else repro_io.instance_to_json(db) for db in databases]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# 1. The kernel-hit confirmation.
# ----------------------------------------------------------------------


def _named(runner, pair):
    """A runner hit naming *pair* with its real, uncoupled chased state:
    a model of Sigma on which *phi* need not be violated, so the
    certificate must refuse it."""
    template = runner._pack(*pair)
    return pair, template, runner._base_state(template)


def test_cross_check_overrules_a_kernel_pair_that_does_not_violate(monkeypatch):
    sigma, view, phis = _shard()
    phi = phis[1]  # a pattern conjunct the baseline propagates
    assert PropagationEngine(kernel="baseline").check(sigma, view, phi) is True
    named = []

    def lying(self, phi, pairs):
        pair = list(pairs)[0]
        named.append(pair)
        return _named(self, pair)

    monkeypatch.setattr(PackedPairRunner, "find_violation", lying)
    assert PropagationEngine(kernel="bitset").check(sigma, view, phi) is True
    assert len(named) == len(view.branches) ** 2  # every pair unit was lied about
    cache = BranchPairCache(view)
    assert find_counterexample(sigma, view, phi, cache=cache, kernel="bitset") is None
    assert PropagationEngine(kernel="bitset").find_counterexample(sigma, view, phi) is None


def test_cross_check_falls_back_to_the_full_baseline_sweep(monkeypatch):
    sigma, view, phis = _shard()
    phi = phis[0]  # violated on every off-diagonal pair, never on (2, 2)
    want = find_counterexample(sigma, view, phi)
    monkeypatch.setattr(
        PackedPairRunner, "find_violation", lambda self, phi, pairs: _named(self, (2, 2))
    )
    got = find_counterexample(
        sigma, view, phi, cache=BranchPairCache(view), kernel="bitset"
    )
    assert got.branch_pair == want.branch_pair == (0, 1)
    assert _digest([got.database]) == _digest([want.database])
    assert not propagates(sigma, view, phi, cache=BranchPairCache(view), kernel="bitset")
    assert PropagationEngine(kernel="bitset").check(sigma, view, phi) is False


# ----------------------------------------------------------------------
# 2. Verdict paths build no witness.
# ----------------------------------------------------------------------


@pytest.fixture
def no_witnesses(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a verdict path built a witness database")

    monkeypatch.setattr(check, "_to_database", refuse)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
@pytest.mark.parametrize("kernel", KERNELS)
def test_cached_engine_verdicts_build_no_witness(workload, kernel, no_witnesses):
    sigma, view, phis = workload()
    want = PINNED[workload][0]
    assert False in want
    engine = PropagationEngine(kernel=kernel)
    assert engine.check_many(sigma, view, phis) == want
    assert engine.stats.pair_chases > 0


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_uncached_engine_and_propagates_build_no_witness(workload, no_witnesses):
    sigma, view, phis = workload()
    want = PINNED[workload][0]
    assert PropagationEngine(use_cache=False).check_many(sigma, view, phis) == want
    assert [propagates(sigma, view, phi) for phi in phis] == want


def test_witness_path_still_builds_databases(no_witnesses):
    sigma, view, phis = _shard()
    with pytest.raises(AssertionError, match="built a witness"):
        find_counterexample(sigma, view, phis[0])


# ----------------------------------------------------------------------
# 3. Witnesses are unchanged.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
@pytest.mark.parametrize("kernel", KERNELS)
def test_engine_witnesses_match_the_pinned_databases(workload, kernel):
    sigma, view, phis = workload()
    want, digest = PINNED[workload]
    engine = PropagationEngine(kernel=kernel)
    witnesses = [engine.find_counterexample(sigma, view, phi) for phi in phis]
    assert [w is None for w in witnesses] == want
    assert _digest([w and w.database for w in witnesses]) == digest


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
@pytest.mark.parametrize("kernel", KERNELS)
def test_service_witnesses_match_the_pinned_databases(workload, kernel):
    sigma, view, phis = workload()
    want, digest = PINNED[workload]
    with PropagationService() as service:
        result = service.check(
            CheckRequest(
                view=view, targets=phis, sigma=sigma, witness=True, kernel=kernel
            )
        )
    assert result.propagated == want
    assert _digest(result.witnesses) == digest
