"""Every command's output on the golden corpus is byte for byte what it was."""

from __future__ import annotations

import json

import pytest

from golden_cli import CORPUS_PATH, corpus_fixtures, run_call
from ocrank import regular

with open(CORPUS_PATH, encoding="utf-8") as fh:
    CORPUS = json.load(fh)


def test_the_corpus_covers_the_generated_fixtures():
    fixtures = {name: text for name, (text, _) in corpus_fixtures().items()}
    assert CORPUS["fixtures"] == fixtures
    assert len(CORPUS["calls"]) == 6 * len(fixtures)


@pytest.mark.parametrize(
    "call", CORPUS["calls"], ids=[f"{c['fixture']}-{c['argv'][0]}" for c in CORPUS["calls"]]
)
def test_output_matches_the_corpus(call, tmp_path):
    got = run_call(CORPUS["fixtures"][call["fixture"]], call["argv"], str(tmp_path))
    want = {key: call[key] for key in ("code", "stdout", "stderr", "json")}
    assert got == want


def test_no_call_alters_a_shared_automaton(tmp_path):
    """Compiled outputs are shared by every machine in the process, so a
    command that mutated one would change what later calls print: replay
    the corpus backwards in one process, then rebuild each table entry."""
    for call in reversed(CORPUS["calls"]):
        got = run_call(CORPUS["fixtures"][call["fixture"]], call["argv"], str(tmp_path))
        assert got == {key: call[key] for key in ("code", "stdout", "stderr", "json")}, call
    assert regular._compiled
    for (r, letters), a in regular._compiled.items():
        assert a.alphabet.letters == letters
        assert a == regular.trim(regular.determinize(regular.nfa_of_regex(r, a.alphabet))), r
