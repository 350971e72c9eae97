"""Fixture parsing, commands, exit codes, JSON payloads, and DOT output."""

from __future__ import annotations

import ast
import collections
import json
import os
import platform
import random
import re
import subprocess
import sys

import jsonschema
import pytest

import argparse_record
from conftest import FIXTURE_DIR, M138, M365, fixture_path
import oracles
import ocrank
from ocrank import cli, counterset, harness
from ocrank.cli import (
    Fixture,
    FixtureError,
    load_fixture_file,
    machine_dot,
    main,
    parse_fixture,
    render_fixture,
)
from ocrank.rank import RocAtom, RocConcat, RocPlus
from ocrank.transducer import Transducer, build_mprime

SCHEMA_PATH = os.path.join(FIXTURE_DIR, "..", "schema.json")

with open(argparse_record.RECORD_PATH, encoding="utf-8") as fh:
    ARGPARSE_RECORD = json.load(fh)

DEEP_CHAIN = """
alphabet a b
states s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10
initial s0
final s10
trans s0 0 s1 a+b
trans s1 0 s2 a
trans s2 0 s3 a
trans s3 0 s4 a
trans s4 0 s5 a
trans s5 1 s6 a
trans s6 1 s7 a
trans s7 1 s8 a
trans s8 1 s9 a
trans s9 1 s10 a
"""

# Accepts no input word: its only transition closes at counter 0.
VACUOUS = """
alphabet a
states s0 s1
initial s0
final s1
trans s0 1 s1 a
"""


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- fixture parsing -----------------------------------------------------------------


def test_fixture_round_trip():
    for name in ("fig1.oct", "fig2.oct"):
        fixture = load_fixture_file(fixture_path(name))
        assert fixture.is_machine
        again = parse_fixture(render_fixture(fixture))
        assert again.value == fixture.value


def test_expr_fixture_resolution(tmp_path):
    # references resolve relative to the expression file, with an implied
    # .oct extension when the bare name does not exist
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    bare = fig1[: -len(".oct")]
    path = tmp_path / "pair.oct"
    path.write_text(f"expr concat {bare} {fig1}\n")
    fixture = load_fixture_file(str(path))
    assert not fixture.is_machine
    expr = fixture.value
    assert isinstance(expr, RocConcat)
    assert isinstance(expr.left, RocAtom) and isinstance(expr.right, RocAtom)
    assert isinstance(expr.left.machine, Transducer)
    assert fixture.directive == f"expr concat {bare} {fig1}"


def test_expr_fixture_nests(tmp_path):
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    (tmp_path / "inner.oct").write_text(f"expr plus {fig1}\n")
    (tmp_path / "outer.oct").write_text("expr concat inner.oct inner\n")
    expr = load_fixture_file(str(tmp_path / "outer.oct")).value
    assert isinstance(expr, RocConcat)
    assert isinstance(expr.left, RocPlus) and isinstance(expr.right, RocPlus)


def test_expr_atom_rejects_expression_reference(tmp_path):
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    (tmp_path / "inner.oct").write_text(f"expr plus {fig1}\n")
    (tmp_path / "bad.oct").write_text("expr atom inner.oct\n")
    with pytest.raises(FixtureError, match="needs a machine fixture"):
        load_fixture_file(str(tmp_path / "bad.oct"))


def test_expr_fixture_depth_limit(tmp_path):
    (tmp_path / "loop.oct").write_text("expr plus loop.oct\n")
    with pytest.raises(FixtureError, match="nested deeper"):
        load_fixture_file(str(tmp_path / "loop.oct"))


def test_expr_fixture_must_stand_alone():
    text = "alphabet a\nexpr plus fig1\n"
    with pytest.raises(FixtureError, match="exactly one 'expr' line"):
        parse_fixture(text, base_dir=FIXTURE_DIR)


@pytest.mark.parametrize(
    "text,message",
    [
        ("alphabet a\nstates q\ninitial q\n", "missing 'final' line"),
        ("states q\ninitial q\nfinal q\n", "missing 'alphabet' line"),
        ("alphabet a\nstates q\nfinal q\n", "missing 'initial' line"),
        ("alphabet a\nbogus q\n", ":2: unknown directive 'bogus'"),
        ("alphabet a\nalphabet b\n", ":2: duplicate 'alphabet' line"),
        ("alphabet a\nstates q q\n", ":2: duplicate state names"),
        (
            "alphabet a\nstates q\ninitial q\nfinal q\ntrans q 2 q a\n",
            ":5: input bit must be 0 or 1",
        ),
        (
            "alphabet a\nstates q\ninitial q\nfinal q\ntrans q 0 z a\n",
            ":5: unknown state 'z'",
        ),
        (
            "alphabet a\nstates q\ninitial q\nfinal q\ntrans q 0 q a**\n",
            ":5: bad regex 'a**'",
        ),
        (
            "alphabet a\nstates q\ninitial q\nfinal q\n"
            "trans q 0 q a\ntrans q 0 q a\n",
            ":6: duplicate transition q -0-> q",
        ),
        (
            "alphabet a\nstates q\ninitial z\nfinal q\ntrans q 0 q a\n",
            "initial state 'z' not declared",
        ),
        (
            "alphabet a\nstates q\ninitial q\nfinal z\ntrans q 0 q a\n",
            "final state 'z' not declared",
        ),
        ("alphabet a\nstates q\ninitial q q\nfinal q\n", "exactly one state"),
    ],
)
def test_fixture_errors_carry_position(text, message):
    with pytest.raises(FixtureError) as excinfo:
        parse_fixture(text, name="bad.oct")
    assert message in str(excinfo.value)
    assert str(excinfo.value).startswith("bad.oct")


def test_comments_and_blank_lines_are_ignored():
    text = "# heading\n\nalphabet a b   # trailing\nstates q\ninitial q\nfinal q\ntrans q 0 q a\n"
    machine = parse_fixture(text).value
    assert isinstance(machine, Transducer)
    assert machine.alphabet.letters == ("a", "b")


def _fig1_with_first_line(tmp_path, first_line: str, final_newline: bool) -> str:
    with open(fixture_path("fig1.oct"), encoding="utf-8") as fh:
        body = [line for line in fh.read().splitlines() if not line.startswith("#")]
    text = "\n".join([first_line, *body]) + ("\n" if final_newline else "")
    path = tmp_path / "paged.oct"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_a_form_feed_inside_a_comment_does_not_split_the_line(capsys, tmp_path):
    # str.splitlines() breaks at "\f", which turned " page two" into a
    # directive of its own on a made-up line 2
    path = _fig1_with_first_line(tmp_path, "# fig1\f page two", final_newline=True)
    expected = run_cli(capsys, ["rank", fixture_path("fig1.oct")])
    assert run_cli(capsys, ["rank", path]) == expected
    assert expected[0] == 0


def test_a_form_feed_does_not_drop_the_last_line(capsys, tmp_path):
    # with one line too many from splitlines() and no final newline, the
    # last 'trans' line used to be dropped: bound 1 over 2 transitions
    path = _fig1_with_first_line(tmp_path, "# fig1\f# page two", final_newline=False)
    code, out, err = run_cli(capsys, ["rank", path])
    assert (code, err) == (0, "")
    assert out.startswith("bound: w+3\nstatus: ConditionalOnScattered\n")
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == 0
    assert "ok   structure: 2 states, 3 transitions\n" in out


# --- exit codes ------------------------------------------------------------------------


def test_nsets_runs_clean(capsys):
    code, out, err = run_cli(capsys, ["nsets", fixture_path("fig2.oct")])
    assert code == 0
    assert "P = 6" in out
    assert sum(1 for line in out.splitlines() if "| N = " in line) == 9
    assert "tau(q8) = {0}" in out


def test_rank_machine_exit_zero(capsys):
    code, out, _ = run_cli(capsys, ["rank", fixture_path("fig2.oct")])
    assert code == 0
    assert out.startswith("bound: 18\nstatus: Certified\n")


def test_rank_runs_without_networkx(capsys):
    # networkx is a test-only dependency; an import of it fails here
    script = (
        "import sys; sys.modules['networkx'] = None; "
        "from ocrank.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["rank", fixture_path("fig1.oct")]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_cli(capsys, argv)[1]
    assert done.stdout.startswith("bound: w+3\n")


def test_every_export_resolves():
    # A fresh interpreter, so that the command-line names load on first use.
    script = (
        "import sys, ocrank; assert 'ocrank.cli' not in sys.modules; "
        "names = {}; exec('from ocrank import *', names); "
        "print(sorted(set(ocrank.__all__) - set(names)), len(set(ocrank.__all__)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"[] {len(ocrank.__all__)}\n"  # no name missing, none twice
    assert all(getattr(ocrank, name) is not None for name in ocrank.__all__)


@pytest.mark.parametrize("module", ["ocrank", "ocrank.cli"])
def test_python_dash_m_runs_without_warnings(capsys, module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["rank", fixture_path("fig1.oct")]
    done = subprocess.run(
        [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_cli(capsys, argv)[1]


def _one_output_machine(output: str) -> str:
    return (
        "alphabet a b\nstates p q r\ninitial p\nfinal r\n"
        f"trans p 0 q {output}\ntrans q 1 r b\n"
    )


@pytest.mark.parametrize("command", ["rank", "check"])
def test_long_regex_literal_is_analysed(capsys, tmp_path, command):
    path = tmp_path / "long.oct"
    path.write_text(_one_output_machine("a" * 600))
    code, out, err = run_cli(capsys, [command, str(path)])
    assert (code, err) == (0, "")
    assert out.startswith("bound: 0\n" if command == "rank" else "ok   structure")


@pytest.mark.parametrize("command", ["rank", "check"])
def test_deeply_nested_regex_exits_one(capsys, tmp_path, command):
    path = tmp_path / "nested.oct"
    path.write_text(_one_output_machine("(" * 3000 + "a" + ")" * 3000))
    code, out, err = run_cli(capsys, [command, str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("ocrank: nested.oct:5: bad regex")
    assert "parentheses nested deeper than 50" in err


def test_rank_not_scattered_exit_two(capsys, tmp_path):
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    path = tmp_path / "iter.oct"
    path.write_text(f"expr plus {fig1}\n")
    code, out, _ = run_cli(capsys, ["rank", str(path)])
    assert code == 2
    assert "not scattered" in out
    assert "word1: ca" in out and "word2: cba" in out


def test_rank_unknown_exit_three(capsys, tmp_path):
    (tmp_path / "deep.oct").write_text(DEEP_CHAIN)
    (tmp_path / "iter.oct").write_text("expr plus deep.oct\n")
    code, out, _ = run_cli(capsys, ["rank", str(tmp_path / "iter.oct")])
    assert code == 3
    assert out.startswith("unknown:")


def test_tiny_counter_cap_exits_four(capsys):
    code, _, err = run_cli(
        capsys, ["nsets", fixture_path("fig2.oct"), "--counter-cap", "10"]
    )
    assert code == 4
    assert "certification failed" in err
    assert "--counter-cap" in err


def test_check_reports_cap_failure(capsys):
    code, out, _ = run_cli(
        capsys, ["check", fixture_path("fig2.oct"), "--counter-cap", "10"]
    )
    assert code == 4
    assert "FAIL counter-sets" in out
    assert "ok   structure" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate", "whatever.oct"],
        ["nsets"],
        ["nsets", "/nonexistent/machine.oct"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("flag", ["--input-cap", "--output-cap", "--counter-cap"])
def test_negative_caps_are_usage_errors(capsys, flag):
    code, out, err = run_cli(capsys, ["enumerate", fixture_path("fig1.oct"), flag, "-3"])
    assert code == 1
    assert out == ""
    assert flag in err and "-3" in err


def test_non_utf8_fixture_exits_one(capsys, tmp_path):
    path = tmp_path / "latin1.oct"
    path.write_bytes(b"alphabet a\nstates q\ninitial q\nfinal q\ntrans q 0 q \xff\n")
    code, _, err = run_cli(capsys, ["nsets", str(path)])
    assert code == 1
    assert "latin1.oct: not UTF-8 text" in err


@pytest.mark.parametrize("command", ["rank", "nsets"])
def test_a_byte_order_mark_and_crlf_change_no_output_byte(capsys, tmp_path, command):
    # a leading BOM used to reach the parser as part of the first word
    with open(fixture_path("fig1.oct"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "fig1.oct"
    path.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
    expected = run_cli(capsys, [command, fixture_path("fig1.oct")])
    assert run_cli(capsys, [command, str(path)]) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("bad_line", [False, True])
def test_line_ends_are_read_as_a_text_mode_read_gives_them(tmp_path, bad_line):
    # Line ends mixing "\r\n", a lone "\r" and "\n", after a byte-order mark:
    # the fixture, or the line of its error, is what a text-mode read gives.
    lines = ["alphabet a b", "states p q", "initial p", "final q",
             "trans p 0 p a", "trans p 1 q b"]
    if bad_line:
        lines.insert(4, "trans p 0 q a**")
    rng = random.Random(bad_line)
    for _ in range(20):
        data = "\ufeff" + "".join(line + rng.choice(("\r\n", "\r", "\n")) for line in lines)
        path = tmp_path / "ends.oct"
        path.write_bytes(data.encode("utf-8"))
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
        try:
            expected = render_fixture(parse_fixture(text, name="ends.oct"))
        except FixtureError as exc:
            expected = str(exc)
        try:
            got = render_fixture(load_fixture_file(str(path)))
        except FixtureError as exc:
            got = str(exc)
        assert got == expected
        assert got.startswith("ends.oct:5: bad regex") == bad_line


@pytest.mark.parametrize("command", ["nsets", "mprime", "check", "dot"])
def test_machine_command_rejects_expression_fixture(capsys, tmp_path, command):
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    path = tmp_path / "iter.oct"
    path.write_text(f"expr plus {fig1}\n")
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 1
    assert out == ""
    assert err == f"ocrank: error: '{command}' needs a machine fixture, not an expression\n"


def _letter_machine(letters: str) -> str:
    """A machine over ``letters`` whose one output is its first letter."""
    return (
        f"alphabet {letters}\nstates q f\ninitial q\nfinal f\n"
        f"trans q 0 q {letters[0]}\ntrans q 1 f {letters[0]}\n"
    )


@pytest.mark.parametrize("command", ["rank", "enumerate"])
@pytest.mark.parametrize("letters", ["c", "b a"])
def test_an_expression_over_two_alphabets_exits_one(capsys, tmp_path, command, letters):
    # The lexicographic order of such a language is undefined.
    (tmp_path / "ab.oct").write_text(_letter_machine("a b"))
    (tmp_path / "other.oct").write_text(_letter_machine(letters))
    (tmp_path / "pair.oct").write_text("expr concat ab.oct other.oct\n")
    (tmp_path / "iter.oct").write_text("expr plus pair.oct\n")
    for name in ("pair.oct", "iter.oct"):
        code, out, err = run_cli(capsys, [command, str(tmp_path / name)])
        assert (code, out) == (1, "")
        assert err == (
            "ocrank: pair.oct:1: the machines of an expression must share one alphabet; "
            f"'ab.oct' has 'a b' and 'other.oct' has '{letters}'\n"
        )


# Accepts no input: s0 opens and s1 cannot close.  Its one output is
# quasi-dense, and no accepted run emits it.
NO_INPUT_DENSE = """
alphabet a b c
states s0 s1
initial s0
final s1
trans s0 0 s1 (a+b)*
"""


def test_a_dense_output_that_no_accepted_run_emits_bounds_nothing(capsys, tmp_path):
    (tmp_path / "empty.oct").write_text(NO_INPUT_DENSE)
    aa = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dead_quasi_dense.oct")
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    (tmp_path / "pair.oct").write_text(f"expr concat empty.oct {fig1}\n")
    (tmp_path / "aaaa.oct").write_text(f"expr concat {aa} {aa}\n")
    edge = "accepting edge (s1,1,up) -> (s2,0,down): 0 [Certified]"
    expected = {
        str(tmp_path / "empty.oct"): ["no accepted input; bound 0"],
        aa: [edge],
        str(tmp_path / "pair.oct"): ["concatenation with empty factor"],
        str(tmp_path / "aaaa.oct"): [edge, edge, "concat: 0 + 0 = 0"],
    }
    for path, lines in expected.items():
        code, out, err = run_cli(capsys, ["rank", path])
        derivation = "".join(f"  {line}\n" for line in lines)
        assert (code, out, err) == (0, f"bound: 0\nstatus: Certified\n{derivation}", "")


def test_a_cap_too_small_stops_rank_before_any_output_is_read(capsys, tmp_path):
    # The output of q0 -0-> q1 is quasi-dense, but rank levels the machine
    # first, and a cap below the floor leaves it unleveled.
    path = tmp_path / "dense.oct"
    path.write_text(
        "alphabet a b\nstates q0 q1 f z\ninitial q0\nfinal f\n"
        "trans q0 0 q1 (a+b)*\ntrans q1 1 f a\ntrans f 0 z a\n"
    )
    assert run_cli(capsys, ["rank", str(path)])[:2] == (2, (
        "not scattered\n  word1: a\n  word2: ba\n"
        "  output language of q0 -0-> q1 is itself quasi-dense\n"
    ))
    assert run_cli(capsys, ["rank", str(path), "--counter-cap", "9"]) == (4, "", (
        "ocrank: certification failed: counter cap 9 is too small for 3 states; "
        "pass --counter-cap 34 or higher\n"
    ))


def test_expression_nesting_past_the_limit_exits_one(capsys, tmp_path):
    # A fixture that names itself, and a chain of 17 expressions whose last
    # names a machine: loading that machine is the 17th nesting, one past
    # the limit, while the chain from its second link still loads.
    (tmp_path / "loop.oct").write_text("expr plus loop.oct\n")
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    for k in range(16):
        (tmp_path / f"chain{k}.oct").write_text(f"expr plus chain{k + 1}.oct\n")
    (tmp_path / "chain16.oct").write_text(f"expr plus {fig1}\n")
    for name, culprit in (("loop.oct", "loop.oct"), ("chain0.oct", "fig1.oct")):
        code, out, err = run_cli(capsys, ["rank", str(tmp_path / name)])
        assert (code, out) == (1, "")
        assert err == f"ocrank: {culprit}: expression fixtures nested deeper than 16\n"
    code, out, err = run_cli(capsys, ["rank", str(tmp_path / "chain1.oct")])
    assert (code, out.splitlines()[0], err) == (2, "not scattered", "")


def test_bad_fixture_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.oct"
    path.write_text("alphabet a\nstates q\ninitial q\nfinal q\ntrans q 0 q a**\n")
    code, _, err = run_cli(capsys, ["nsets", str(path)])
    assert code == 1
    assert "bad regex" in err


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")  # the help no longer follows the width
    assert run_cli(capsys, ["--help"]) == (0, ARGPARSE_RECORD["help"], "")


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # The parser keeps nothing between calls: a failed parse must leave
    # nothing behind for the calls after it.  The help is a constant, so
    # the terminal width does not change it.
    monkeypatch.setenv("COLUMNS", "40")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys; from ocrank.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (
        ["rank", fixture_path("fig1.oct"), "--input-cap", "x"],
        ["rank", fixture_path("fig1.oct")],
        ["--help"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert run_cli(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


# --- the command-line grammar against argparse ---------------------------------------


def test_the_record_lists_the_drawn_command_lines():
    lines = ARGPARSE_RECORD["lines"]
    assert [line["argv"] for line in lines] == argparse_record.drawn_lines()
    kinds = collections.Counter(
        "fields" if "fields" in line else "help" if "help" in line
        else line["error"].split(":")[0] for line in lines
    )
    assert kinds["fields"] >= 300 and kinds["help"] >= 100, kinds
    for kind in ("argument command", "the following arguments are required",
                 "argument --input-cap", "argument --json", "argument -h/--help",
                 "unrecognized arguments", "ambiguous option"):
        assert kinds[kind] >= 20, (kind, kinds)


def test_the_parser_matches_the_argparse_record(capsys):
    # The record holds argparse's reading of 3,000 seeded command lines,
    # so this check does not depend on the argparse of this interpreter.
    for line in ARGPARSE_RECORD["lines"]:
        argv = line["argv"]
        if "fields" in line:
            assert vars(cli._parse_args(argv)) == line["fields"], argv
        elif "help" in line:
            assert run_cli(capsys, argv) == (0, ARGPARSE_RECORD["help"], ""), argv
        else:
            assert run_cli(capsys, argv) == (1, "", f"ocrank: error: {line['error']}\n"), argv


@pytest.mark.skipif(
    platform.python_version() not in ARGPARSE_RECORD["argparse_of"],
    reason="the record is argparse's reading on the Python releases it names",
)
def test_the_record_is_what_argparse_gives(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    help_text = ARGPARSE_RECORD["help"]
    assert oracles.argparse_front(["--help"]) == (0, help_text, "")
    for line in ARGPARSE_RECORD["lines"]:
        assert argparse_record.argparse_outcome(line["argv"], help_text) == line


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["rank", "f.oct", "--json=--"], "json", "--"),
        (["rank", "--", "--"], "fixture", "--"),
        (["--dot=--", "--", "rank", "--"], "fixture", "--"),
    ],
)
def test_a_dash_dash_value_stays_a_value(argv, field, value):
    # argparse before Python 3.13 dropped it and set the field to [], which
    # later failed with a TypeError traceback.
    assert getattr(cli._parse_args(argv), field) == value


def test_a_dash_dash_cap_is_refused(capsys):
    code, out, err = run_cli(capsys, ["rank", "f.oct", "--input-cap=--"])
    assert (code, out) == (1, "")
    assert err == "ocrank: error: argument --input-cap: expected a count of 0 or more, got '--'\n"


@pytest.mark.parametrize("flag", ["-hx", "-h3", "-hhx", "-h=h3"])
def test_letters_glued_to_dash_h_are_refused(capsys, flag):
    # argparse from Python 3.13 prints the help here; this parser keeps
    # the message of the versions before it.
    tail = flag.lstrip("-h=")
    code, out, err = run_cli(capsys, ["rank", flag])
    assert (code, out) == (1, "")
    assert err == f"ocrank: error: argument -h/--help: ignored explicit argument {tail!r}\n"


@pytest.mark.parametrize("flag", ["-hh", "-h=h", "--he"])
def test_help_is_printed_where_the_parser_reaches_it(capsys, flag):
    assert run_cli(capsys, ["frobnicate", "--input-cap", "-1", flag]) == (
        1, "", "ocrank: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'nsets', 'mprime', 'dot', 'rank', 'enumerate', 'check')\n"
    )
    assert run_cli(capsys, [flag, "frobnicate", "--input-cap", "-1"]) == (0, cli._HELP, "")


def test_the_package_does_not_import_argparse():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    script = "import sys, ocrank.cli; print('argparse' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_no_module_imports_a_later_layer():
    # The package's table of exports lists its layers in import order; each
    # module is a layer, the package itself (which imports none) or __main__.
    order = [*ocrank._EXPORTS, "__main__"]
    package = os.path.dirname(os.path.abspath(ocrank.__file__))
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    assert modules == sorted(["__init__", *order])
    for module in modules:
        with open(os.path.join(package, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {node.module} if node.module else {a.name for a in node.names}
        below = 0 if module == "__init__" else order.index(module)
        assert all(order.index(name) < below for name in imported), (module, imported)


# --- ends that are not the analysis' ---------------------------------------------------


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["rank", "enumerate"])
def test_a_closed_stdout_ends_quietly(unbuffered, command):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ocrank", command, fixture_path("fig1.oct")],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stderr_keeps_what_stdout_was_given(tmp_path, unbuffered):
    # rank prints its bound, then fails to write --json and reports that
    # on stderr, whose reader has gone.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "ocrank", "rank", fixture_path("fig1.oct")]
    whole = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (whole.returncode, whole.stderr) == (0, "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [*argv, "--json", str(tmp_path / "missing" / "out.json")],
            env=env, stdout=subprocess.PIPE, stderr=write_end, text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stdout) == (1, whole.stdout)


@pytest.mark.parametrize(
    "command, stage", [("rank", "analyze_machine"), ("nsets", "reach_sets")]
)
def test_running_out_of_memory_exits_four(capsys, monkeypatch, command, stage):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, stage, exhausted)
    path = fixture_path("fig1.oct")
    assert run_cli(capsys, [command, path]) == (
        4, "", f"ocrank: out of memory while running {command} on {path}\n"
    )


# --- command output --------------------------------------------------------------------


def test_rank_of_m365_is_certified(capsys, tmp_path):
    path = tmp_path / "m365.oct"
    path.write_text(M365)
    code, out, err = run_cli(capsys, ["rank", str(path)])
    assert (code, err) == (0, "")
    assert out == (
        "bound: 1\nstatus: Certified\n"
        "  accepting edge (s2,1,up) -> (s5,0,down): 1 [Certified]\n"
    )
    code, out, err = run_cli(capsys, ["nsets", str(path)])
    assert (code, err) == (0, "")
    assert "s0: N- = {0} | N+ = {2t} | N = {0}" in out.splitlines()


def test_check_of_m138_passes_every_check(capsys, tmp_path):
    path = tmp_path / "m138.oct"
    path.write_text(M138)
    code, out, err = run_cli(
        capsys, ["check", str(path), "--input-cap", "4", "--output-cap", "10"]
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "ok   structure: 4 states, 5 transitions",
        "ok   counter-sets: P = 2, cap = 52",
        "ok   leveling: 3 leveled states",
        "ok   bounded-equality: languages agree on inputs up to 4",
        "ok   lift-project: all runs up to length 4 round-trip",
    ]


# Rings of 2 and 3 opens, both feeding q: its counters mix two periods.
TWO_RINGS = """alphabet a
states i a0 a1 b0 b1 b2 q
initial i
final q
trans i 0 a0 a
trans i 0 b0 a
trans a0 0 a1 a
trans a1 0 a0 a
trans b0 0 b1 a
trans b1 0 b2 a
trans b2 0 b0 a
trans a0 0 q a
trans b0 0 q a
"""


def test_nsets_of_two_rings_into_one_state(capsys, tmp_path):
    from test_counterset import realize

    path = tmp_path / "rings.oct"
    path.write_text(TWO_RINGS)
    code, out, err = run_cli(capsys, ["nsets", str(path)])
    assert (code, err) == (0, "")
    assert "q: N- = {2+6t} ∪ {4+6t} ∪ {5+6t} ∪ {6+6t} | N+ = {0} | N = ∅" in out.splitlines()
    machine = load_fixture_file(str(path)).value
    oracle = harness.upset_oracle(machine, 60)
    report = ocrank.reach_sets(machine)
    for q in machine.states:
        assert realize(report.minus[q], 60) == oracle.minus[q], q
        assert realize(report.plus[q], 60) == oracle.plus[q], q


def disjoint_rings(lengths) -> str:
    """Rings of opens entered from i, each state closing into the final d."""
    states, trans = ["i", "d"], ["trans d 1 d a"]
    for length in lengths:
        ring = [f"r{length}x{j}" for j in range(length)]
        states += ring
        trans.append(f"trans i 0 {ring[0]} a")
        for j, q in enumerate(ring):
            trans += [f"trans {q} 0 {ring[(j + 1) % length]} a", f"trans {q} 1 d a"]
    lines = ["alphabet a", "states " + " ".join(states), "initial i", "final d", *trans]
    return "\n".join(lines) + "\n"


def test_a_level_period_beyond_the_cap_is_refused(capsys, tmp_path):
    # The levels repeat from level 1 with period lcm(5, 7, 8, 9) = 2520, so
    # 2521 distinct levels must be computed: more than the default cap of
    # the 31 states (2050) allows.
    path = tmp_path / "rings.oct"
    path.write_text(disjoint_rings((5, 7, 8, 9)))
    code, out, err = run_cli(capsys, ["nsets", str(path)])
    assert (code, out) == (4, "")
    assert "--counter-cap" in err
    code, out, err = run_cli(capsys, ["nsets", str(path), "--counter-cap", "2520"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "P = 2520"
    assert "r9x8: N- = {9+9t} | N+ = {t} | N = {9+9t}" in lines


def test_check_all_green_on_fixtures(capsys):
    for name in ("fig1.oct", "fig2.oct"):
        code, out, _ = run_cli(capsys, ["check", fixture_path(name)])
        assert code == 0, out
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("ok  ") for line in lines)
        names = [line.split()[1].rstrip(":") for line in lines]
        assert names == [
            "structure",
            "counter-sets",
            "leveling",
            "bounded-equality",
            "lift-project",
        ]


def test_check_fails_on_a_leveled_machine_with_one_arc_removed(capsys, monkeypatch):
    build = cli.build_mprime

    def without_one_arc(machine, report):
        prime = build(machine, report)
        doomed = next(t for t in prime.transitions if t.rule == "iii")
        kept = tuple(t for t in prime.transitions if t is not doomed)
        return oracles.replace_transitions(prime, kept)

    monkeypatch.setattr(cli, "build_mprime", without_one_arc)
    code, out, err = run_cli(capsys, ["check", fixture_path("fig1.oct")])
    assert (code, err) == (4, "")
    lines = out.splitlines()
    assert lines[:3] == [
        "ok   structure: 2 states, 3 transitions",
        "ok   counter-sets: P = 2, cap = 20",
        "ok   leveling: 8 leveled states",
    ]
    assert lines[3] == "FAIL bounded-equality: first difference: 'ccaa' (output comparison truncated)"
    assert lines[4].startswith("FAIL lift-project: run could not be leveled: no leveled transition ")
    assert len(lines) == 5


def test_enumerate_cli_words_and_note(capsys):
    code, out, err = run_cli(
        capsys,
        ["enumerate", fixture_path("fig1.oct"), "--input-cap", "4", "--output-cap", "6"],
    )
    assert code == 0
    assert out.split() == [
        "ca",
        "cba",
        "cbba",
        "cbbba",
        "cbbbba",
        "ccaa",
        "ccaba",
        "ccabba",
        "ccbaa",
        "ccbaba",
        "ccbbaa",
    ]
    assert "exceeded --output-cap" in err


def test_enumerate_lists_words_longer_than_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "long.oct"
    path.write_text(
        "alphabet a\nstates p q\ninitial p\nfinal q\ntrans p 0 p a*\ntrans p 1 q eps\n"
    )
    code, out, err = run_cli(
        capsys, ["enumerate", str(path), "--input-cap", "2", "--output-cap", "1500"]
    )
    assert code == 0
    assert out.split("\n") == ["a" * k for k in range(1501)] + [""]
    assert err == "note: some outputs exceeded --output-cap\n"


def test_dot_output_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["dot", fixture_path("fig1.oct")])
    assert code == 0
    assert out.startswith("digraph transducer {")
    assert out.count("->") == 4  # __start arrow plus three transitions
    assert '"qf" [shape=doublecircle];' in out
    assert 'label="0 / c"' in out

    target = tmp_path / "fig1.dot"
    code, out, _ = run_cli(capsys, ["dot", fixture_path("fig1.oct"), "--dot", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph transducer {")


# State names and a letter that DOT must escape: a quote and a backslash.
QUOTED = r"""
alphabet a " \
states s"0 s\1
initial s"0
final s\1
trans s"0 0 s"0 "a
trans s"0 1 s\1 \+a
trans s\1 1 s\1 "*
"""

DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def dot_lines(text: str) -> list[tuple[str, list[str]]]:
    """Each line of DOT source as (the line with every quoted string put as
    Q, the strings unescaped)."""
    lines = []
    for line in text.splitlines():
        strings = [re.sub(r"\\(.)", r"\1", q[1:-1]) for q in DOT_STRING.findall(line)]
        lines.append((DOT_STRING.sub("Q", line), strings))
    return lines


def test_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    path = tmp_path / "quoted.oct"
    path.write_text(QUOTED, encoding="utf-8")
    machine = parse_fixture(QUOTED).value
    assert machine.states == ('s"0', "s\\1") and '"' in machine.alphabet.letters
    prime = build_mprime(machine, counterset.reach_sets(machine))
    head = [("  rankdir=LR;", []), ("  __start [shape=point, label=Q];", [""])]

    def shape(final: bool) -> str:
        return "doublecircle" if final else "circle"

    code, out, _ = run_cli(capsys, ["dot", str(path)])
    assert code == 0
    assert dot_lines(out) == [
        ("digraph transducer {", []), *head,
        *[(f"  Q [shape={shape(q in machine.finals)}];", [q]) for q in machine.states],
        ("  __start -> Q;", [machine.initial]),
        *[
            ("  Q -> Q [label=Q];", [t.source, t.target, f"{t.bit} / {t.output}"])
            for t in machine.transitions
        ],
        ("}", []),
    ]

    target = tmp_path / "prime.dot"
    code, _, _ = run_cli(capsys, ["mprime", str(path), "--dot", str(target)])
    assert code == 0
    assert dot_lines(target.read_text(encoding="utf-8")) == [
        ("digraph leveled {", []), *head,
        *[
            (f"  Q [shape={shape(s in prime.finals)}, label=Q];",
             [s.render(), f"{s.state},{s.level},{s.phase}"])
            for s in prime.states
        ],
        ("  __start -> Q;", [prime.initial.render()]),
        *[
            ("  Q -> Q [label=Q];",
             [t.source.render(), t.target.render(), f"{t.bit} / {t.output} ({t.rule})"])
            for t in prime.transitions
        ],
        ("}", []),
    ]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["rank", "fig1.oct"], "--json"),
        (["nsets", "fig2.oct"], "--json"),
        (["dot", "fig1.oct"], "--dot"),
        (["mprime", "fig1.oct"], "--dot"),
    ],
)
def test_unwritable_output_file_exits_one(capsys, tmp_path, argv, flag):
    target = tmp_path / "missing" / "out"
    command, name = argv
    code, _, err = run_cli(capsys, [command, fixture_path(name), flag, str(target)])
    assert code == 1
    assert err.startswith(f"ocrank: error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_mprime_dot_file(capsys, tmp_path):
    target = tmp_path / "prime.dot"
    code, out, _ = run_cli(
        capsys, ["mprime", fixture_path("fig1.oct"), "--dot", str(target)]
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph leveled {")
    assert '"(q0,0,up)"' in text
    assert "(rule" not in text  # rules are tagged as (i)/(ii)/...
    assert "(i)" in text or "(iii)" in text


def test_mprime_stdout_shape(capsys):
    code, out, _ = run_cli(capsys, ["mprime", fixture_path("fig1.oct")])
    assert code == 0
    assert "period = 2" in out
    assert "states (8):" in out
    assert "(q0,0,up) (initial)" in out
    assert "(qf,0,down) (accepting)" in out


def test_mprime_reports_a_vacuous_leveling(capsys, tmp_path, schema):
    # A machine that accepts no input word has no leveled machine; mprime
    # says so as check does, and every command exits 0 on it.
    path = tmp_path / "vacuous.oct"
    path.write_text(VACUOUS)
    json_path, dot_path = tmp_path / "m.json", tmp_path / "m.dot"
    code, out, err = run_cli(
        capsys, ["mprime", str(path), "--json", str(json_path), "--dot", str(dot_path)]
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "period = 2",
        "vacuous: level 0 is not a type of the initial state 's0'; "
        "the machine accepts no input word",
    ]
    payload = load_json(json_path)
    jsonschema.validate(payload, schema)
    assert payload == {"command": "mprime", "period": 2, "mprime": None}
    assert dot_path.read_text() == "digraph leveled {\n  rankdir=LR;\n}\n"
    for command in ("rank", "nsets", "check", "enumerate", "dot"):
        assert run_cli(capsys, [command, str(path)])[0] == 0, command


def test_rank_and_check_build_no_counter_sets(capsys, tmp_path, monkeypatch):
    # rank and check read only the period and the types of the counter
    # analysis; the sets and the certificates are built when nsets reads them.
    from test_components import ladder

    ladder_path = tmp_path / "ladder.oct"
    ladder_path.write_text(render_fixture(Fixture(ladder(2, 3))))
    paths = [fixture_path("fig1.oct"), fixture_path("fig2.oct"), str(ladder_path)]
    calls = [[command, path] for path in paths for command in ("rank", "check")]
    concat_path = tmp_path / "concat.oct"  # its factors are tested for emptiness
    fig1, fig2 = map(os.path.abspath, paths[:2])
    concat_path.write_text(f"expr concat {fig1} {fig2}\n")
    calls.append(["rank", str(concat_path)])
    want = [run_cli(capsys, argv) for argv in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("a counter set or certificate was built")

    monkeypatch.setattr(counterset, "UPSet", refuse)
    monkeypatch.setattr(counterset, "SliceCertificate", refuse)
    assert [run_cli(capsys, argv) for argv in calls] == want
    with pytest.raises(AssertionError, match="was built"):
        main(["nsets", paths[1]])
    capsys.readouterr()
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, ["nsets", paths[1]])
    assert code == 0
    assert "q4: N- = {2+3t} | N+ = {2} ∪ {1+2t} | N = {2} ∪ {5+6t}" in out


def test_mprime_and_dot_build_no_counter_sets(capsys, tmp_path, monkeypatch):
    # mprime reads only the period and the types of the counter analysis,
    # and dot runs none: with every set and certificate refused, the text,
    # --json and --dot outputs stay as they were.
    from test_components import ladder

    ladder_path = tmp_path / "ladder.oct"
    ladder_path.write_text(render_fixture(Fixture(ladder(2, 3))))
    vacuous_path = tmp_path / "vacuous.oct"
    vacuous_path.write_text(VACUOUS)
    paths = [fixture_path("fig1.oct"), fixture_path("fig2.oct"), str(ladder_path)]
    paths.append(str(vacuous_path))
    json_path, dot_path = tmp_path / "out.json", tmp_path / "out.dot"

    def outputs():
        runs = []
        for path in paths:
            argv = ["mprime", path, "--json", str(json_path), "--dot", str(dot_path)]
            runs.append(run_cli(capsys, argv))
            runs.append((json_path.read_text(), dot_path.read_text()))
            runs.append(run_cli(capsys, ["dot", path]))
        return runs

    want = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("a counter set or certificate was built")

    monkeypatch.setattr(counterset, "UPSet", refuse)
    monkeypatch.setattr(counterset, "SliceCertificate", refuse)
    assert outputs() == want


def test_cli_output_is_deterministic(capsys):
    first = run_cli(capsys, ["mprime", fixture_path("fig2.oct")])
    second = run_cli(capsys, ["mprime", fixture_path("fig2.oct")])
    assert first == second
    third = run_cli(capsys, ["nsets", fixture_path("fig2.oct")])
    fourth = run_cli(capsys, ["nsets", fixture_path("fig2.oct")])
    assert third == fourth


# --- JSON payloads ---------------------------------------------------------------------


def test_json_payloads_validate(capsys, tmp_path, schema):
    out_path = str(tmp_path / "payload.json")
    fig1 = fixture_path("fig1.oct")
    fig2 = fixture_path("fig2.oct")
    (tmp_path / "iter.oct").write_text(f"expr plus {os.path.abspath(fig1)}\n")
    (tmp_path / "deep.oct").write_text(DEEP_CHAIN)
    (tmp_path / "murky.oct").write_text("expr plus deep.oct\n")

    cases = [
        (["nsets", fig2], 0),
        (["mprime", fig2], 0),
        (["rank", fig1], 0),
        (["rank", str(tmp_path / "iter.oct")], 2),
        (["rank", str(tmp_path / "murky.oct")], 3),
        (["enumerate", fig1], 0),
        (["enumerate", str(tmp_path / "iter.oct"), "--output-cap", "8"], 0),
        (["check", fig1], 0),
        (["check", fig2, "--counter-cap", "10"], 4),
    ]
    for argv, expected in cases:
        code, _, _ = run_cli(capsys, argv + ["--json", out_path])
        assert code == expected, argv
        payload = load_json(out_path)
        jsonschema.validate(payload, schema)
        assert payload["command"] == argv[0]


def test_json_nsets_content(capsys, tmp_path):
    out_path = str(tmp_path / "n.json")
    run_cli(capsys, ["nsets", fixture_path("fig2.oct"), "--json", out_path])
    payload = load_json(out_path)
    assert payload["period"] == 6
    assert payload["nsets"]["q8"]["meet"] == "{0}"
    assert payload["types"]["q7"] == [1]
    assert payload["counter_cap"] == 202


def test_json_rank_witness_content(capsys, tmp_path):
    out_path = str(tmp_path / "r.json")
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    (tmp_path / "iter.oct").write_text(f"expr plus {fig1}\n")
    run_cli(capsys, ["rank", str(tmp_path / "iter.oct"), "--json", out_path])
    payload = load_json(out_path)
    assert payload["status"] == "NotScattered"
    assert payload["bound"] is None
    assert payload["witness"]["word1"] == "ca"
    assert payload["witness"]["word2"] == "cba"
    assert payload["witness"]["state"] is None


def test_json_enumerate_expr_truncation_is_null(capsys, tmp_path):
    out_path = str(tmp_path / "e.json")
    fig1 = os.path.abspath(fixture_path("fig1.oct"))
    (tmp_path / "iter.oct").write_text(f"expr plus {fig1}\n")
    run_cli(
        capsys,
        ["enumerate", str(tmp_path / "iter.oct"), "--output-cap", "8", "--json", out_path],
    )
    payload = load_json(out_path)
    assert payload["truncated"] is None
    assert payload["input_cap"] == 8 and payload["output_cap"] == 8


def test_json_machine_enumerate_truncation_is_boolean(capsys, tmp_path):
    out_path = str(tmp_path / "e.json")
    run_cli(capsys, ["enumerate", fixture_path("fig1.oct"), "--json", out_path])
    payload = load_json(out_path)
    assert payload["truncated"] is True
    assert payload["words"][0] == "ca"
