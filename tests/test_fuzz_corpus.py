"""Replay every committed fuzz-corpus file as a tier-1 regression test.

Each ``tests/fuzz_corpus/*.json`` file is a shrunk, self-contained case
the fuzzer once flagged or anchored (see ``docs/fuzzing.md``).  Replay
asserts three things per file, against one warm full matrix shared by
the module:

- every matrix entry (engine settings, transports,
  replicas) answers byte-identically to the uncached local baseline;
- the independent closure-baseline oracle agrees on the
  FD-over-projection fragment;
- the baseline's canonical answers still equal the file's committed
  ``expected`` block — the absolute answers are pinned, not just
  cross-config agreement.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz import MatrixHarness
from repro.fuzz.runner import replay_corpus

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_populated():
    """The acceptance floor: at least 5 committed repro files."""
    assert len(CORPUS_FILES) >= 5


@pytest.fixture(scope="module")
def harness():
    with MatrixHarness() as matrix:
        yield matrix


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_file_replays_green(path, harness):
    problems = replay_corpus([path], harness=harness)
    assert problems == [], "\n".join(problems)
