"""The fuzzing subsystem itself: cases, shrinker, matrix, replay.

The shrinker contract (ISSUE 7 satellite): deterministic, monotone
(never grows a case), and failure-preserving — asserted against a
*synthetic injected-bug checker*, a predicate that plays the role of
"this case makes config X disagree with the baseline" without needing a
real engine bug.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.fuzz import (
    MatrixHarness,
    case_fingerprint,
    case_size,
    closure_oracle_disagreements,
    generate_case,
    parse_case,
    run_digest,
    run_fuzz,
    shrink_case,
)
from repro.fuzz.cases import PROFILES, is_fd_projection_case
from repro.fuzz.runner import harvest_corpus, replay_corpus
from repro.fuzz.shrink import _candidates

LOCAL_MATRIX = ["baseline", "cache"]


# ----------------------------------------------------------------------
# Case generation: reproducibility and profile coverage.
# ----------------------------------------------------------------------


def test_case_generation_is_reproducible():
    for index in range(len(PROFILES)):
        first = generate_case(7, index)
        second = generate_case(7, index)
        assert first == second
        assert case_fingerprint(first) == case_fingerprint(second)


def test_case_streams_differ_by_seed_and_index():
    fingerprints = {
        case_fingerprint(generate_case(seed, index))
        for seed in (0, 1)
        for index in range(8)
    }
    assert len(fingerprints) == 16


def test_profiles_rotate_round_robin():
    names = list(PROFILES)
    for index in range(2 * len(names)):
        assert generate_case(0, index)["profile"] == names[index % len(names)]


def test_every_case_parses():
    for index in range(2 * len(PROFILES)):
        schema, sigma, view, targets = parse_case(generate_case(11, index))
        for target in targets:
            assert target.relation == view.name


def test_run_digest_orders_fingerprints():
    prints = [case_fingerprint(generate_case(0, i)) for i in range(4)]
    assert run_digest(prints) != run_digest(list(reversed(prints)))


def test_degenerate_profiles_have_their_shape():
    empty = generate_case(0, list(PROFILES).index("empty-projection"))
    assert all(not b["projection"] for b in [empty["view"]])
    single = generate_case(0, list(PROFILES).index("union-single"))
    assert len(single["view"]["branches"]) == 1
    identical = generate_case(0, list(PROFILES).index("union-identical"))
    branches = identical["view"]["branches"]
    assert len(branches) == 3
    assert all(branch == branches[0] for branch in branches)
    constant = generate_case(0, list(PROFILES).index("constant-lhs"))
    for dep in constant["sigma"]:
        assert all(entry != "_" for entry in dep["lhs"].values())


def test_fd_projection_detector_is_structural():
    case = generate_case(0, list(PROFILES).index("fd-projection"))
    assert is_fd_projection_case(case)
    tampered = copy.deepcopy(case)
    tampered["view"]["selection"] = [{"attr": "t0.A1", "value": "1"}]
    assert not is_fd_projection_case(tampered)


# ----------------------------------------------------------------------
# The shrinker, against a synthetic injected-bug checker.
# ----------------------------------------------------------------------


def _injected_bug(case: dict) -> bool:
    """A fake differential failure: 'the engines disagree' whenever
    Sigma still contains a dependency on the first schema relation whose
    LHS mentions attribute A1."""
    first = case["schema"]["relations"][0]["name"]
    for dep in case["sigma"]:
        if dep.get("relation") != first:
            continue
        lhs = dep.get("lhs", ())
        attrs = list(lhs) if isinstance(lhs, (list, dict)) else []
        if "A1" in attrs:
            return True
    return False


def _bug_case() -> dict:
    for index in range(64):
        case = generate_case(5, index)
        if _injected_bug(case):
            return case
    raise AssertionError("no generated case triggers the injected bug")


def test_shrinker_preserves_the_failure():
    case = _bug_case()
    shrunk = shrink_case(case, _injected_bug)
    assert _injected_bug(shrunk)
    schema, sigma, view, targets = parse_case(shrunk)  # still parses


def test_shrinker_is_deterministic():
    case = _bug_case()
    first = shrink_case(case, _injected_bug)
    second = shrink_case(case, _injected_bug)
    assert first == second
    assert shrink_case(copy.deepcopy(case), _injected_bug) == first


def test_shrinker_is_monotone():
    """Every candidate ever offered to the predicate — and the result —
    is no larger than the case it was derived from."""
    case = _bug_case()
    sizes: list[int] = []

    def watching(candidate: dict) -> bool:
        sizes.append(case_size(candidate))
        return _injected_bug(candidate)

    shrunk = shrink_case(case, watching)
    assert case_size(shrunk) < case_size(case)
    # Every candidate the predicate ever saw was a strict reduction of
    # the (monotonically shrinking) current case.
    assert all(size < case_size(case) for size in sizes)
    # The strong form: the accepted chain strictly decreases, which the
    # fixpoint guarantees — the result admits no smaller failing child.
    for child in _candidates(shrunk):
        if case_size(child) < case_size(shrunk):
            try:
                parse_case(child)
            except Exception:
                continue
            assert not _injected_bug(child), "shrink stopped early"


def test_shrinker_reaches_a_small_core():
    """The injected bug depends on one Sigma dependency; shrinking must
    drop (at least) every other dependency and every target."""
    case = _bug_case()
    shrunk = shrink_case(case, _injected_bug)
    assert len(shrunk["sigma"]) == 1
    assert _injected_bug(shrunk)
    assert shrunk["targets"] == []


def test_shrinker_never_accepts_invalid_documents():
    case = _bug_case()
    shrunk = shrink_case(case, lambda candidate: True)
    parse_case(shrunk)  # the always-failing predicate still ends valid


def test_shrink_union_preserves_union_compatibility():
    case = generate_case(0, list(PROFILES).index("union-mixed"))

    def failing(candidate: dict) -> bool:
        return len(candidate["view"].get("branches", [])) >= 2

    shrunk = shrink_case(case, failing)
    _, _, view, _ = parse_case(shrunk)
    projections = {tuple(b["projection"]) for b in shrunk["view"]["branches"]}
    assert len(projections) == 1


# ----------------------------------------------------------------------
# The matrix harness and the runner.
# ----------------------------------------------------------------------


def test_matrix_rejects_unknown_entries():
    with pytest.raises(ValueError, match="unknown matrix entries"):
        MatrixHarness(["baseline", "carrier-pigeon"])


def test_matrix_always_includes_the_baseline():
    with MatrixHarness(["cache"]) as harness:
        assert harness.names[0] == "baseline"


def test_local_matrix_agrees_on_every_profile():
    with MatrixHarness(LOCAL_MATRIX) as harness:
        for index in range(len(PROFILES)):
            case = generate_case(2, index)
            results, disagreements = harness.run_case(case)
            assert disagreements == []
            assert set(results) == set(LOCAL_MATRIX)
            for name in LOCAL_MATRIX:
                assert set(results[name]) == {"check", "cover", "empty"}
            assert closure_oracle_disagreements(case) == []


def test_run_fuzz_report_is_reproducible(tmp_path):
    first = run_fuzz(len(PROFILES), 1, matrix=LOCAL_MATRIX)
    second = run_fuzz(len(PROFILES), 1, matrix=LOCAL_MATRIX)
    assert first.ok and second.ok
    assert first.digest == second.digest
    assert first.corner_hits == {name: 1 for name in PROFILES}
    assert json.loads(json.dumps(first.to_json()))["failures"] == 0


def test_replay_detects_expected_drift(tmp_path):
    """Tampering with a corpus file's pinned answers must fail replay."""
    written = harvest_corpus(
        len(PROFILES), 0, tmp_path, matrix=LOCAL_MATRIX, per_profile=1
    )
    assert written, "harvest produced no anchors"
    path = written[0]
    doc = json.loads(open(path).read())
    doc["expected"]["empty"] = '{"empty":true}'
    with open(path, "w") as handle:
        json.dump(doc, handle)
    problems = replay_corpus([path], matrix=LOCAL_MATRIX)
    assert any("drifted" in problem for problem in problems)


def test_closure_oracle_flags_a_wrong_verdict(monkeypatch):
    """The independent oracle catches an injected engine lie."""
    case = generate_case(0, list(PROFILES).index("fd-projection"))
    assert closure_oracle_disagreements(case) == []
    from repro.api.service import PropagationService

    real_check = PropagationService.check

    def lying_check(self, request):
        verdict = real_check(self, request)
        verdict.propagated = [not value for value in verdict.propagated]
        return verdict

    monkeypatch.setattr(PropagationService, "check", lying_check)
    flagged = closure_oracle_disagreements(case)
    assert any(d.op == "check" for d in flagged)
