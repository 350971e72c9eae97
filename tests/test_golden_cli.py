"""Every command's output on the golden corpus is byte for byte what it was."""

from __future__ import annotations

import json
import random

import pytest

from conftest import random_machine
from golden_cli import (
    CORPUS_PATH,
    RANDOM_CAPS,
    corpus_calls,
    corpus_fixtures,
    corpus_texts,
    run_call,
)
from ocrank import cli, regular

with open(CORPUS_PATH, encoding="utf-8") as fh:
    CORPUS = json.load(fh)


def test_the_corpus_covers_the_generated_fixtures():
    assert CORPUS["fixtures"] == corpus_texts()
    assert [(c["fixture"], c["argv"]) for c in CORPUS["calls"]] == corpus_calls()


@pytest.mark.parametrize(
    "call", CORPUS["calls"], ids=[f"{c['fixture']}-{c['argv'][0]}" for c in CORPUS["calls"]]
)
def test_output_matches_the_corpus(call, tmp_path):
    texts = CORPUS["fixtures"]
    got = run_call(texts[call["fixture"]], call["argv"], str(tmp_path), texts)
    want = {key: call[key] for key in ("code", "stdout", "stderr", "json")}
    assert got == want


def test_no_call_alters_a_shared_automaton(tmp_path):
    """Compiled outputs are shared by every machine in the process, so a
    command that mutated one would change what later calls print: replay
    the corpus backwards in one process, then rebuild each table entry."""
    for call in reversed(CORPUS["calls"]):
        got = run_call(
            CORPUS["fixtures"][call["fixture"]], call["argv"], str(tmp_path), CORPUS["fixtures"]
        )
        assert got == {key: call[key] for key in ("code", "stdout", "stderr", "json")}, call
    assert regular._compiled
    for (r, letters), a in regular._compiled.items():
        assert a.alphabet.letters == letters
        assert a == regular.trim(regular.determinize(regular.nfa_of_regex(r, a.alphabet))), r


def is_trimmed(a: regular.Automaton) -> bool:
    """Every state lies on an accepting path, or ``a`` is the empty
    automaton, one state with no finals and no moves."""
    if not a.finals:
        return a.n == 1 and not any(a.edges[0].values())
    forward, backward = [0] * a.n, [0] * a.n
    for q, row in enumerate(a.edges):
        for targets in row.values():
            for t in range(a.n):
                if targets >> t & 1:
                    forward[q] |= 1 << t
                    backward[t] |= 1 << q

    def reach(states: int, table: list[int]) -> set[int]:
        todo = [q for q in range(a.n) if states >> q & 1]
        seen = set(todo)
        while todo:
            q = todo.pop()
            for t in range(a.n):
                if table[q] >> t & 1 and t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    every = set(range(a.n))
    return reach(a.initials, forward) == every and reach(a.finals, backward) == every


def test_truncation_checks_get_trimmed_automata(tmp_path, monkeypatch):
    """``has_word_longer_than`` skips the co-reachability search, which is
    sound only on trimmed automata: the bounded outputs of ``check`` and
    ``enumerate``, with or without the ε automaton, must be trimmed."""
    checked = []
    original = regular.has_word_longer_than

    def recording(a, length):
        assert is_trimmed(a)
        checked.append(a.n)
        return original(a, length)

    monkeypatch.setattr(regular, "has_word_longer_than", recording)
    fixtures = corpus_fixtures()
    for seed in range(1000, 1150):
        machine = random_machine(random.Random(seed))
        fixtures[f"random{seed}"] = (cli.render_fixture(cli.Fixture(machine)), list(RANDOM_CAPS))
    for text, flags in fixtures.values():
        for command in ("check", "enumerate"):
            run_call(text, [command, *flags], str(tmp_path), {})
    assert len(checked) >= 2 * len(fixtures), len(checked)
