"""Fixture text, mutated and transformed, against a reference parser and
through the command line.

``mutate`` applies seeded line edits to well-formed fixtures: drop,
duplicate or swap a line, a bad input bit, an unknown state, a bad regex,
a copy of a ``trans`` line whose output is written another way (``ab`` and
``(a)b``), comments, stray tokens, tabs and CRLF line ends, and, to reach
the analysis, a transition moved to another declared state or given
another output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import Counter

import pytest

from conftest import OUTPUT_POOL, random_machine
from golden_cli import corpus_fixtures
from ocrank import cli
from ocrank.cli import Fixture, FixtureError, parse_fixture, render_fixture
from ocrank.regular import compile_regex, parse_regex
from oracles import parse_machine_text
from test_components import ladder
from test_counterset import complete_machine
from test_regular import AB, random_regex

BAD_BITS = ("2", "x", "01", "-1", "")
BAD_REGEXES = ("a**", "(a", "a)", "+", "a+", "()", "z", "ab)(", "(" * 60 + "a" + ")" * 60)


def _trans_lines(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.split()[:1] == ["trans"]]


def _edit_trans(lines: list[str], rng: random.Random, field: int, value: str) -> None:
    """Set field ``field`` (1 source, 2 bit, 3 target, 4 output) of a
    random ``trans`` line to ``value``."""
    picks = _trans_lines(lines)
    if picks:
        i = rng.choice(picks)
        parts = lines[i].split()
        if len(parts) > field:
            parts[field] = value
            lines[i] = " ".join(p for p in parts if p)


def _rewritten(regex: str, rng: random.Random) -> str:
    """``regex`` written another way with the same syntax tree."""
    if rng.random() < 0.5 and regex[0].isalpha() and not regex.startswith("eps"):
        return f"({regex[0]}){regex[1:]}"
    return f"({regex})"


def _mutate_once(lines: list[str], rng: random.Random) -> None:
    op = rng.randrange(12)
    i = rng.randrange(len(lines)) if lines else 0
    if op == 0 and lines:
        del lines[i]
    elif op == 1 and lines:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif op == 2 and lines:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        _edit_trans(lines, rng, 2, rng.choice(BAD_BITS))
    elif op == 4:
        _edit_trans(lines, rng, rng.choice((1, 3)), "zz")
    elif op == 5:
        _edit_trans(lines, rng, 4, rng.choice(BAD_REGEXES))
    elif op == 6:
        picks = _trans_lines(lines)
        if picks:
            parts = lines[rng.choice(picks)].split()
            if len(parts) == 5:
                parts[4] = _rewritten(parts[4], rng)
                lines.insert(rng.randrange(len(lines) + 1), " ".join(parts))
    elif op == 7 and lines:
        lines[i] += rng.choice(("  # a note", "#", " #trans q 0 q a"))
    elif op == 8:
        lines.insert(i, rng.choice(("# comment", "", "   ", "\t#")))
    elif op == 9 and lines:
        lines[i] = lines[i].replace(" ", rng.choice(("\t", "  ", " \t ")))
    elif op == 10 and lines:
        lines[i] += rng.choice((" extra", " 0", " s0"))
    elif op == 11:  # still well formed: a declared state, an output of the pool
        states = [line.split()[1:] for line in lines if line.startswith("states ")]
        if states and states[0]:
            _edit_trans(lines, rng, rng.choice((1, 3)), rng.choice(states[0]))
        _edit_trans(lines, rng, 4, rng.choice(OUTPUT_POOL))


def mutate(text: str, rng: random.Random) -> str:
    """One to three seeded edits of ``text``, and CRLF line ends one time in eight."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        _mutate_once(lines, rng)
    return ("\r\n" if rng.random() < 0.125 else "\n").join(lines)


def outcome(parse, text: str):
    try:
        return parse(text)
    except FixtureError as exc:
        return str(exc)


def new_parse(text: str):
    return parse_fixture(text, name="m.oct").value


def reference_parse(text: str):
    return parse_machine_text(text, name="m.oct")


def machine_text(machine) -> str:
    return render_fixture(Fixture(machine))


def well_formed_texts() -> list[str]:
    texts = [text for text, _ in corpus_fixtures().values()]
    texts += [machine_text(complete_machine(n)) for n in range(1, 9)]
    texts += [machine_text(ladder(k, j)) for k in range(1, 7) for j in range(1, 7)]
    return texts


# --- the one-pass parser against the reference ---------------------------------------


def test_well_formed_fixtures_parse_as_the_reference_parses_them():
    rng = random.Random(20261019)
    texts = well_formed_texts()
    texts += [machine_text(random_machine(rng)) for _ in range(600)]
    for text in texts:
        machine = new_parse(text)
        assert machine == reference_parse(text), text
        assert machine.transitions == reference_parse(text).transitions


def test_mutated_fixtures_parse_or_fail_as_the_reference_does():
    rng = random.Random(19)
    texts = well_formed_texts()
    kinds = {"machine": 0, "error": 0}
    for _ in range(2400):
        text = mutate(rng.choice(texts), rng)
        got = outcome(new_parse, text)
        assert got == outcome(reference_parse, text), text
        kinds["error" if isinstance(got, str) else "machine"] += 1
    assert min(kinds.values()) >= 400, kinds


def test_an_output_written_two_ways_is_one_transition():
    text = (
        "alphabet a b\nstates q\ninitial q\nfinal q\n"
        "trans q 0 q ab\ntrans q 0 q (a)b\ntrans q 1 q ((ab))\ntrans q 1 q b\n"
    )
    machine = new_parse(text)
    assert machine == reference_parse(text)
    assert [str(t.output) for t in machine.transitions] == ["ab", "ab", "b"]
    assert machine.transitions[0].output is machine.transitions[1].output


HEAD = "alphabet a b\nstates s q\ninitial s\nfinal s\n"


@pytest.mark.parametrize(
    "text, outputs",
    [
        (HEAD + "trans s 0 s a#b\ntrans s 1 s b\n", ["a", "b"]),  # '#' glued to a token
        (HEAD + "# a note\fwith a form feed\ntrans s 0 s a # and\f more\ntrans s 1 s b\n",
         ["a", "b"]),
        ("trans s 0 q a\ntrans q 1 s b\nfinal s\nalphabet a b\ninitial s\nstates s q\n",
         ["a", "b"]),  # headers after the 'trans' lines
        ("alphabet a\nstates expr s\ninitial expr\nfinal expr\n"
         "trans expr 0 s a\ntrans s 1 expr a\n", ["a", "a"]),  # a state named expr
    ],
)
def test_edge_case_fixtures_parse_as_the_reference_parses_them(text, outputs):
    machine = new_parse(text)
    assert machine == reference_parse(text)
    assert [str(t.output) for t in machine.transitions] == outputs


NOT_ALONE = "an expression fixture must contain exactly one 'expr' line and nothing else"


@pytest.mark.parametrize(
    "text, message",
    [
        # an 'expr' line wins over a malformed 'trans' line before it
        ("trans s 2 s a\nexpr atom fig1\n", f"m.oct:2: {NOT_ALONE}"),
        (HEAD + "trans s 0 s\n\nexpr plus fig1\n", f"m.oct:7: {NOT_ALONE}"),
        # of an unknown state and a bad regex, the first 'trans' line's error
        (HEAD + "trans s 0 zz a\ntrans s 1 s (a\n", "m.oct:5: unknown state 'zz'"),
        (HEAD + "trans s 1 s (a\ntrans s 0 zz a\n",
         "m.oct:5: bad regex '(a': unclosed '(' (at position 0)"),
        ("trans s 0 zz (a\n" + HEAD, "m.oct:1: unknown state 'zz'"),
        ("", "m.oct: missing 'alphabet' line"),
    ],
)
def test_edge_case_errors_keep_their_line_and_precedence(text, message):
    assert outcome(new_parse, text) == message
    if "expr" not in text:  # the reference reads machine fixtures only
        assert outcome(reference_parse, text) == message


def test_no_regex_of_the_dialect_denotes_the_empty_language():
    # so the parser leaves out check_structure's test for empty outputs
    rng = random.Random(5)
    for _ in range(500):
        text = str(random_regex(rng, 4))
        assert compile_regex(parse_regex(text, AB), AB).finals, text


# --- mutated fixtures through the command line --------------------------------------


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ``check`` stays at input cap 4: it lists every accepting run up to the
# cap, which grows exponentially with it.
COMMANDS = (
    ["rank"],
    ["nsets"],
    ["mprime"],
    ["dot"],
    ["check", "--input-cap", "4", "--output-cap", "10"],
    ["enumerate", "--input-cap", "4", "--output-cap", "10"],
)


def test_mutated_fixtures_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(7)
    texts = [text for text, _ in corpus_fixtures().values()]
    path = str(tmp_path / "m.oct")
    codes: Counter[int] = Counter()
    deadline = time.monotonic() + 8.0
    for calls in range(1, 3001):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(mutate(rng.choice(texts), rng))
        command, *flags = rng.choice(COMMANDS)
        code, out, err = _run([command, path, *flags])
        assert code in (0, 1, 2, 3, 4), (command, code, err)
        if code == 1 or (code == 4 and command != "check"):
            assert any(line.startswith("ocrank: ") for line in err.splitlines()), err
        elif code == 4:  # check reports the failed check on stdout
            assert any(line.startswith("FAIL ") for line in out.splitlines()), out
        codes[code] += 1
        if time.monotonic() > deadline:
            break
    assert calls >= 100, calls
    assert codes[0] and codes[1], codes


# --- metamorphic relations through the command line --------------------------------------


def renamed_and_shuffled(text: str, rng: random.Random) -> str:
    """``text`` with fresh state names and its ``trans`` lines shuffled."""
    lines = [line.split() for line in text.splitlines()]
    states = next(parts[1:] for parts in lines if parts[0] == "states")
    fresh = rng.sample(range(10 * len(states) + 10), len(states))
    names = {q: f"r{k}" for q, k in zip(states, fresh)}
    head, trans = [], []
    for parts in lines:
        if parts[0] == "trans":
            trans.append(f"trans {names[parts[1]]} {parts[2]} {names[parts[3]]} {parts[4]}")
        elif parts[0] == "alphabet":
            head.append(" ".join(parts))
        else:
            head.append(" ".join([parts[0], *(names[q] for q in parts[1:])]))
    rng.shuffle(trans)
    return "\n".join(head + trans) + "\n"


def _rank_json(tmp_path, text: str) -> tuple[int, str | None, str | None]:
    path, json_path = tmp_path / "m.oct", tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    code, _, _ = _run(["rank", str(path), "--json", str(json_path)])
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    return code, payload["bound"], payload["status"]


def test_renaming_and_shuffling_keep_the_cli_verdict(tmp_path):
    rng = random.Random(2026)
    statuses = set()
    for _ in range(200):
        text = machine_text(random_machine(rng))
        verdict = _rank_json(tmp_path, text)
        assert _rank_json(tmp_path, renamed_and_shuffled(text, rng)) == verdict, text
        statuses.add(verdict[2])
    assert len(statuses) >= 2, statuses


@pytest.mark.parametrize("seed", range(5))
def test_a_duplicated_trans_line_exits_one(tmp_path, seed):
    rng = random.Random(seed)
    lines = machine_text(random_machine(rng)).splitlines()
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith("trans ")])
    lines.insert(rng.randrange(i + 1, len(lines) + 1), lines[i])
    path = tmp_path / "m.oct"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = _run(["rank", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("ocrank: m.oct:") and "duplicate transition" in err
