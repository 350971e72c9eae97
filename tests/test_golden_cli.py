"""Every command's output on the golden corpus is byte for byte what it was."""

from __future__ import annotations

import json

import pytest

from golden_cli import CORPUS_PATH, corpus_fixtures, run_call

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
