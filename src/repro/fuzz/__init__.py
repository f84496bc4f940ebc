"""Seeded property-based differential fuzzing (``repro fuzz``).

The correctness-tooling subsystem ROADMAP item 5(b) called for: random
(schema, Sigma, view, targets) workloads from the Section-5 generators
are answered by every execution path the system has grown — engine
settings (cache on/off, kernel, store, Sigma deltas) and service
endpoints (``local://``, ``tcp://``, ``http://``, a
:class:`~repro.api.orchestrator.ReplicaSet`) — and every answer must be
byte-identical to the uncached local baseline.  Failing cases shrink to
minimal replayable JSON repro files under ``tests/fuzz_corpus/``, which
``tests/test_fuzz_corpus.py`` replays as tier-1 regression tests.

Layering::

    cases    seeded case generation over corner profiles; fingerprints
    oracle   the configuration matrix + canonical result comparison
    shrink   deterministic, monotone case minimization
    runner   run orchestration, corpus persistence, corpus replay

See ``docs/fuzzing.md`` for the workflow.
"""

from .cases import PROFILES, case_fingerprint, generate_case, parse_case, run_digest
from .oracle import (
    BASELINE,
    DEFAULT_MATRIX,
    Disagreement,
    MatrixHarness,
    closure_oracle_disagreements,
)
from .runner import CaseFailure, FuzzReport, replay_corpus, run_fuzz
from .shrink import case_size, shrink_case

__all__ = [
    "BASELINE",
    "CaseFailure",
    "DEFAULT_MATRIX",
    "Disagreement",
    "FuzzReport",
    "MatrixHarness",
    "PROFILES",
    "case_fingerprint",
    "case_size",
    "closure_oracle_disagreements",
    "generate_case",
    "parse_case",
    "replay_corpus",
    "run_digest",
    "run_fuzz",
    "shrink_case",
]
