"""Command-line front-end.

Fixture files are line-oriented: ``alphabet``, ``states``, ``initial``,
``final`` and ``trans`` lines describe a machine; a single ``expr`` line
(atom / concat / plus over other fixture files) describes a language
expression.  ``#`` starts a comment.

Exit codes: 0 success, 1 usage or parse error (or a closed standard
output), 2 a non-scattered order was witnessed, 3 the analysis gave up
(Unknown), 4 internal certification or check failure, or out of memory.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import harness
from .counterset import CertificationError, reach_sets, render_upset
from .rank import (
    NotScattered,
    RankBound,
    RocAtom,
    RocConcat,
    RocExpr,
    RocPlus,
    analyze_machine,
    enumerate_expr,
    expr_rank_bound,
)
from .regular import Regex, RegexSyntaxError, parse_regex
from .transducer import (
    LevelingError,
    Transducer,
    TransducerError,
    TransducerPrime,
    Transition,
    bounded_language_equal,
    build_mprime,
    check_structure,
    lift_run,
)
from .words import Alphabet


class FixtureError(ValueError):
    """Fixture file rejected; the message carries file:line context."""


class Fixture(NamedTuple):
    """A parsed fixture: either one machine or one expression over machines."""

    value: Transducer | RocExpr
    name: str = "<fixture>"
    directive: str | None = None

    @property
    def is_machine(self) -> bool:
        return isinstance(self.value, Transducer)


_MAX_EXPR_DEPTH = 16
_COMMENT = re.compile(r"#[^\n]*")
_BITS = {"0": 0, "1": 1}
# Each header line and what it needs; 'initial' takes exactly one word.
_HEADERS = {
    "alphabet": "at least one letter",
    "states": "at least one state",
    "initial": "exactly one state",
    "final": "at least one state",
}
_NOT_ALONE = "an expression fixture must contain exactly one 'expr' line and nothing else"


def parse_fixture(
    text: str, base_dir: str = ".", name: str = "<fixture>", depth: int = 0
) -> Fixture:
    """Parse fixture text; see the module docstring for the grammar."""
    return _parse(text, name, depth, lambda: base_dir)


def load_fixture_file(path: str, depth: int = 0) -> Fixture:
    name = os.path.basename(path)
    if depth > _MAX_EXPR_DEPTH:
        raise FixtureError(f"{name}: expression fixtures nested deeper than {_MAX_EXPR_DEPTH}")
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        # utf-8-sig drops a leading byte-order mark, as editors on Windows write.
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FixtureError(f"{name}: not UTF-8 text: {exc}") from exc
    if "\r" in text:  # line ends as a text-mode read gives them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # Only an expression fixture reads the directory it is in.
    return _parse(text, name, depth, lambda: os.path.dirname(os.path.abspath(path)))


def _parse(text: str, name: str, depth: int, base_dir: Callable[[], str]) -> Fixture:
    """Read fixture text in one pass over its lines, checking each line as it
    is read but for a transition's states and output, as the headers may
    come last.  ``base_dir()`` is the directory of an expression's fixtures."""
    if "#" in text:  # a comment ends only at "\n", not at a form feed
        text = _COMMENT.sub("", text)
    # Split at "\n" alone: splitlines() would also break at form feeds and
    # other separators that may sit inside a comment.  load_fixture_file
    # has already turned "\r\n" into "\n", and split() drops a stray "\r".
    lines = text.split("\n")
    headers: dict[str, list[str]] = {}
    alphabet = None
    # Each 'trans' line's words, in order, with its line.
    trans: dict[tuple[str, ...], int] = {}

    def fail(lineno: int, msg: str):
        # An 'expr' line further on makes this an expression fixture, whose error wins.
        for at, line in enumerate(lines[lineno:], lineno + 1):
            if line.split()[:1] == ["expr"]:
                raise FixtureError(f"{name}:{at}: {_NOT_ALONE}")
        raise FixtureError(f"{name}:{lineno}: {msg}")

    for lineno, parts in enumerate(map(str.split, lines), 1):
        if not parts:
            continue
        word = parts[0]
        if word == "trans":
            if len(parts) != 5:
                fail(lineno, "'trans' needs: trans <src> <0|1> <tgt> <regex>")
            if parts[2] not in _BITS:
                fail(lineno, f"input bit must be 0 or 1, got {parts[2]!r}")
            if trans.setdefault(tuple(parts), lineno) != lineno:
                fail(lineno, f"duplicate transition {parts[1]} -{parts[2]}-> {parts[3]}")
            continue
        if word == "expr":
            if trans or headers or any(map(str.split, lines[lineno:])):
                raise FixtureError(f"{name}:{lineno}: {_NOT_ALONE}")
            expr = _parse_expr_directive(parts, base_dir(), name, lineno, depth)
            return Fixture(expr, name=name, directive=" ".join(parts))
        rest = parts[1:]
        if word not in _HEADERS:
            fail(lineno, f"unknown directive {word!r}")
        if word in headers:
            fail(lineno, f"duplicate {word!r} line")
        if not rest or word == "initial" and len(rest) > 1:
            fail(lineno, f"{word!r} needs {_HEADERS[word]}")
        if word == "alphabet":
            try:
                alphabet = Alphabet(tuple(rest))
            except ValueError as exc:
                fail(lineno, str(exc))
        elif word == "states" and len(set(rest)) != len(rest):
            fail(lineno, "duplicate state names")
        headers[word] = rest

    for word in _HEADERS:
        if word not in headers:
            raise FixtureError(f"{name}: missing {word!r} line")
    states, (initial,), finals = headers["states"], headers["initial"], headers["final"]
    known = set(states)
    if initial not in known:
        raise FixtureError(f"{name}: initial state {initial!r} not declared")
    for f in finals:
        if f not in known:
            raise FixtureError(f"{name}: final state {f!r} not declared")

    _, sources, bits, targets, regex_texts = zip(*trans) if trans else ((),) * 5
    # Each regex text is parsed once, and equal trees (``ab`` and ``(a)b``)
    # are folded to one object.  The lines differ in their text, so only
    # such a fold can make two transitions equal; then the first is kept,
    # as in make_transducer.
    outputs: dict[str, Regex] = {}
    trees: dict[Regex, Regex] = {}
    errors: dict[str, RegexSyntaxError] = {}
    for regex_text in dict.fromkeys(regex_texts):
        try:
            tree = parse_regex(regex_text, alphabet)
        except RegexSyntaxError as exc:
            errors[regex_text] = exc
        else:
            outputs[regex_text] = trees.setdefault(tree, tree)
    if errors or not known.issuperset(sources) or not known.issuperset(targets):
        for (_, src, _, tgt, regex_text), lineno in trans.items():  # the first bad line
            if src not in known or tgt not in known:
                fail(lineno, f"unknown state {src if src not in known else tgt!r}")
            if regex_text in errors:
                fail(lineno, f"bad regex {regex_text!r}: {errors[regex_text]}")
    # tuple.__new__ makes each Transition in C, not in the named tuple's Python __new__.
    rows = zip(sources, map(_BITS.get, bits), targets, map(outputs.get, regex_texts))
    transitions = tuple(map(tuple.__new__, repeat(Transition), rows))
    if len(trees) < len(outputs):
        transitions = tuple(dict.fromkeys(transitions))
    # The checks above are check_structure's.
    machine = Transducer(tuple(states), initial, frozenset(finals), transitions, alphabet,
                         accepts_epsilon=initial in finals)
    return Fixture(machine, name=name)


def _parse_expr_directive(
    parts: list[str], base_dir: str, name: str, lineno: int, depth: int
) -> RocExpr:
    def sub(ref: str) -> RocExpr:
        candidate = os.path.join(base_dir, ref)
        if not os.path.exists(candidate) and os.path.exists(candidate + ".oct"):
            candidate = candidate + ".oct"
        try:
            loaded = load_fixture_file(candidate, depth + 1)
        except OSError as exc:
            raise FixtureError(f"{name}:{lineno}: cannot read {ref!r}: {exc}") from exc
        if loaded.is_machine:
            return RocAtom(loaded.value)
        return loaded.value

    kind = parts[1] if len(parts) > 1 else ""
    if kind == "atom" and len(parts) == 3:
        e = sub(parts[2])
        if not isinstance(e, RocAtom):
            raise FixtureError(
                f"{name}:{lineno}: 'expr atom' needs a machine fixture, "
                f"got an expression in {parts[2]!r}"
            )
        return e
    if kind == "concat" and len(parts) == 4:
        left, right = sub(parts[2]), sub(parts[3])
        letters = [" ".join(_first_machine(side).alphabet.letters) for side in (left, right)]
        if letters[0] != letters[1]:
            raise FixtureError(
                f"{name}:{lineno}: the machines of an expression must share one alphabet; "
                f"{parts[2]!r} has '{letters[0]}' and {parts[3]!r} has '{letters[1]}'"
            )
        return RocConcat(left, right)
    if kind == "plus" and len(parts) == 3:
        return RocPlus(sub(parts[2]))
    raise FixtureError(
        f"{name}:{lineno}: bad expr line; expected "
        "'expr atom F' | 'expr concat F1 F2' | 'expr plus F'"
    )


def _first_machine(e: RocExpr) -> Transducer:
    while not isinstance(e, RocAtom):
        e = e.left if isinstance(e, RocConcat) else e.body
    return e.machine


def render_fixture(fixture: Fixture) -> str:
    """Inverse of parse_fixture, up to comments and blank lines."""
    if not fixture.is_machine:
        assert fixture.directive is not None
        return fixture.directive + "\n"
    m = fixture.value
    assert isinstance(m, Transducer)
    lines = [
        "alphabet " + " ".join(m.alphabet.letters),
        "states " + " ".join(m.states),
        "initial " + m.initial,
        "final " + " ".join(q for q in m.states if q in m.finals),
    ]
    for t in m.transitions:
        lines.append(f"trans {t.source} {t.bit} {t.target} {t.output}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT emission


def _quoted(text: str) -> str:
    """A DOT quoted string: ``\\`` and ``"`` escaped with a backslash."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(graph: str, nodes, initial, edges) -> str:
    """GraphViz source: ``nodes`` are (id, final, label or None), ``edges``
    (source, target, label); every ID and label is quoted."""
    lines = [f"digraph {graph} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q, final, label in nodes:
        shape = "doublecircle" if final else "circle"
        shown = "" if label is None else f", label={_quoted(label)}"
        lines.append(f"  {_quoted(q)} [shape={shape}{shown}];")
    lines.append(f"  __start -> {_quoted(initial)};")
    for source, target, label in edges:
        lines.append(f"  {_quoted(source)} -> {_quoted(target)} [label={_quoted(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def machine_dot(machine: Transducer) -> str:
    return _dot(
        "transducer",
        [(q, q in machine.finals, None) for q in machine.states],
        machine.initial,
        [(t.source, t.target, f"{t.bit} / {t.output}") for t in machine.transitions],
    )


def prime_dot(prime: TransducerPrime) -> str:
    return _dot(
        "leveled",
        [(s.render(), x in prime.finals, f"{s.state},{s.level},{s.phase}")
         for x, s in enumerate(prime.states)],
        prime.states[prime.initial].render(),
        [
            (t.source.render(), t.target.render(), f"{t.bit} / {t.output} ({t.rule})")
            for t in prime.transitions
        ],
    )


# ---------------------------------------------------------------------------
# Command implementations


def _typed_state_json(s) -> list:
    return [s.state, s.level, s.phase]


def _cmd_nsets(machine: Transducer, args, out) -> tuple[int, dict]:
    report = reach_sets(machine, counter_cap=args.counter_cap)
    minus, plus, meet = report.minus, report.plus, report.meet
    # States share their sets, so each distinct set is rendered once.
    text = {s: render_upset(s) for s in {*minus.values(), *plus.values(), *meet.values()}}
    rendered = {
        q: {"minus": text[minus[q]], "plus": text[plus[q]], "meet": text[meet[q]]}
        for q in machine.states
    }
    types = {q: sorted(report.types[q]) for q in machine.states}
    lines = [f"P = {report.period}\n"]
    lines += [f"{q}: N- = {sets['minus']} | N+ = {sets['plus']} | N = {sets['meet']}\n"
              for q, sets in rendered.items()]
    lines += [f"tau({q}) = {{{', '.join(map(str, values))}}}\n" for q, values in types.items()]
    out.write("".join(lines))
    payload = {
        "command": "nsets",
        "nsets": rendered,
        "period": report.period,
        "types": types,
        "counter_cap": report.counter_cap,
    }
    return 0, payload


def _cmd_mprime(machine: Transducer, args, out) -> tuple[int, dict]:
    report = reach_sets(machine, counter_cap=args.counter_cap)
    try:
        prime = build_mprime(machine, report)
    except LevelingError as exc:  # no input word is accepted: nothing to level
        print(f"period = {report.period}", file=out)
        print(f"vacuous: {exc}", file=out)
        if args.dot:
            _write_text(args.dot, "digraph leveled {\n  rankdir=LR;\n}\n")
        return 0, {"command": "mprime", "period": report.period, "mprime": None}
    print(f"period = {prime.period}", file=out)
    print(f"states ({len(prime.states)}):", file=out)
    for x, s in enumerate(prime.states):
        marks = ""
        if x == prime.initial:
            marks += " (initial)"
        if x in prime.finals:
            marks += " (accepting)"
        print(f"  {s.render()}{marks}", file=out)
    print(f"transitions ({len(prime.transitions)}):", file=out)
    for t in prime.transitions:
        print(
            f"  {t.source.render()} -{t.bit}-> {t.target.render()} "
            f"/ {t.output} [rule {t.rule}]",
            file=out,
        )
    if args.dot:
        _write_text(args.dot, prime_dot(prime))
    payload = {
        "command": "mprime",
        "period": prime.period,
        "mprime": {
            "states": [_typed_state_json(s) for s in prime.states],
            "initial": _typed_state_json(prime.states[prime.initial]),
            "finals": sorted(_typed_state_json(prime.states[x]) for x in prime.finals),
            "transitions": [
                {
                    "source": _typed_state_json(t.source),
                    "bit": t.bit,
                    "target": _typed_state_json(t.target),
                    "output": str(t.output),
                    "rule": t.rule,
                }
                for t in prime.transitions
            ],
        },
    }
    return 0, payload


def _cmd_dot(machine: Transducer, args, out) -> tuple[int, None]:
    text = machine_dot(machine)
    if args.dot:
        _write_text(args.dot, text)
    else:
        out.write(text)
    return 0, None


def _cmd_rank(subject: Transducer | RocExpr, args, out) -> tuple[int, dict]:
    components_json = None
    if isinstance(subject, Transducer):
        analysis = analyze_machine(subject, counter_cap=args.counter_cap)
        result = analysis.result
        if args.json:  # no other output shows the components
            components_json = []
            for c in analysis.sccs:
                verdict = analysis.verdicts.get(c.index)
                components_json.append(
                    {
                        "index": c.index,
                        "phase": c.phase,
                        "trivial": c.trivial,
                        "members": sorted(analysis.prime.states[q].render() for q in c.members),
                        "verdict": type(verdict).__name__ if verdict else None,
                    }
                )
    else:
        result = expr_rank_bound(subject, counter_cap=args.counter_cap)

    payload = {
        "command": "rank",
        "bound": None,
        "status": type(result).__name__,  # a bound replaces it with its own status
        "witness": None,
        "derivation": [],
        "components": components_json,
    }
    if isinstance(result, RankBound):
        print(f"bound: {result.value.render()}", file=out)
        print(f"status: {result.status}", file=out)
        for line in result.derivation:
            print(f"  {line}", file=out)
        payload.update(
            bound=result.value.render(), status=result.status, derivation=list(result.derivation)
        )
        return 0, payload
    if isinstance(result, NotScattered):
        print("not scattered", file=out)
        print(f"  word1: {result.word1}", file=out)
        print(f"  word2: {result.word2}", file=out)
        print(f"  {result.description}", file=out)
        state = result.state
        payload["witness"] = {
            "word1": result.word1,
            "word2": result.word2,
            "description": result.description,
            "state": state.render() if hasattr(state, "render") else state,
        }
        return 2, payload
    print(f"unknown: {result.reason}", file=out)
    payload["derivation"] = [result.reason]
    return 3, payload


def _cmd_enumerate(subject: Transducer | RocExpr, args, out) -> tuple[int, dict]:
    if isinstance(subject, Transducer):
        result = harness.enumerate(subject, args.input_cap, args.output_cap)
        words, truncated = result.words, result.truncated
    else:
        words = enumerate_expr(subject, args.input_cap, args.output_cap)
        # rank.expr_automaton's language is trimmed, so has_word_longer_than
        # could tell; but --json has always given null for expressions, and
        # the golden corpus freezes that output.
        truncated = None
    if words:
        out.write("\n".join(words) + "\n")
    if truncated:
        print("note: some outputs exceeded --output-cap", file=sys.stderr)
    payload = {
        "command": "enumerate",
        "words": words,
        "input_cap": args.input_cap,
        "output_cap": args.output_cap,
        "truncated": truncated,
    }
    return 0, payload


def _cmd_check(machine: Transducer, args, out) -> tuple[int, dict]:
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": ok, "detail": detail})
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", file=out)

    try:
        check_structure(machine)
        record("structure", True, f"{len(machine.states)} states, "
               f"{len(machine.transitions)} transitions")
    except TransducerError as exc:
        record("structure", False, str(exc))

    report = None
    try:
        report = reach_sets(machine, counter_cap=args.counter_cap)
        record("counter-sets", True,
               f"P = {report.period}, cap = {report.counter_cap}")
    except CertificationError as exc:
        record("counter-sets", False, str(exc))

    prime = None
    if report is not None:
        try:
            prime = build_mprime(machine, report)
            record("leveling", True, f"{len(prime.states)} leveled states")
        except LevelingError as exc:
            record("leveling", True, f"vacuous: {exc}")

    if prime is not None:
        equal, witness, truncated = bounded_language_equal(
            machine, prime, args.input_cap, output_cap=args.output_cap
        )
        note = " (output comparison truncated)" if truncated else ""
        if equal:
            record("bounded-equality", True,
                   f"languages agree on inputs up to {args.input_cap}{note}")
        else:
            record("bounded-equality", False,
                   f"first difference: {witness!r}{note}")

        ok = True
        detail = "no accepting runs at this length"
        run_len = min(args.input_cap, 8)
        try:
            for run in harness.accepting_runs(machine, run_len):
                if run:  # a step with no leveled copy raises LevelingError
                    lift_run(machine, run, prime)
                    detail = f"all runs up to length {run_len} round-trip"
        except (LevelingError, ValueError) as exc:
            ok, detail = False, f"run could not be leveled: {exc}"
        record("lift-project", ok, detail)
    elif report is not None:
        record("bounded-equality", True, "vacuous: no leveled machine")
        record("lift-project", True, "vacuous: no leveled machine")

    payload = {"command": "check", "checks": checks}
    return (0 if all(c["ok"] for c in checks) else 4), payload


# ---------------------------------------------------------------------------
# Entry point


class _UsageError(Exception):
    pass


# argparse's help for this command line at 80 columns, the same on Python
# 3.10 to 3.13; it no longer follows the terminal's width.
_HELP = """\
usage: ocrank [-h] [--input-cap N] [--output-cap N] [--counter-cap N]
              [--json PATH] [--dot PATH]
              {nsets,mprime,dot,rank,enumerate,check} fixture

Order-type analysis of one-counter transductions.

positional arguments:
  {nsets,mprime,dot,rank,enumerate,check}
  fixture               path to a .oct fixture file

options:
  -h, --help            show this help message and exit
  --input-cap N
  --output-cap N
  --counter-cap N
  --json PATH
  --dot PATH
"""

# Each command's function, and whether it needs a machine rather than an expression.
_COMMANDS = {
    "nsets": (_cmd_nsets, True),
    "mprime": (_cmd_mprime, True),
    "dot": (_cmd_dot, True),
    "rank": (_cmd_rank, False),
    "enumerate": (_cmd_enumerate, False),
    "check": (_cmd_check, True),
}
_CHOICES = ", ".join(map(repr, _COMMANDS))
# Each option string, in argparse's order, with the field it sets; help sets none.
_OPTIONS = {
    "-h": None,
    "--help": None,
    "--input-cap": "input_cap",
    "--output-cap": "output_cap",
    "--counter-cap": "counter_cap",
    "--json": "json",
    "--dot": "dot",
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


# Every field of the parsed command line, so that ``vars`` lists all seven.
_DEFAULTS = {"command": "", "fixture": "", "input_cap": 8, "output_cap": 24,
             "counter_cap": None, "json": None, "dot": None}


def _cap(option: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise _UsageError(f"argument {option}: expected a count of 0 or more, got {text!r}")
    return value


def _option(arg: str) -> tuple[str, str | None] | None:
    """How argparse reads one argument before ``--``.

    None for a positional; else the option string it names ('' for an
    unknown option) and the value glued to it (``--opt=V``, ``-hV``) or None.
    """
    if not arg or arg[0] != "-":
        return None
    if arg in _OPTIONS:
        return arg, None
    if len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in _OPTIONS:
        return name, value
    if arg[1] == "-":  # a unique prefix of a long option
        matches = [o for o in _OPTIONS if o.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[1] == "h":  # -h with more glued to it
        return "-h", arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return "", None


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """Read the command line as argparse did; None when help is asked for.

    Options may come anywhere, as ``--opt V``, ``--opt=V`` or a unique
    prefix; ``--`` ends them, the last of a repeated option wins, and
    ``-3`` is a value.  Every usage error raises :class:`_UsageError` with
    argparse's message.  One difference: a ``--`` that is a value
    (``--json=--``, or a second ``--``) stays a value, where argparse
    before Python 3.13 dropped it and set the field to an empty list.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    options = {
        i: found for i, arg in enumerate(argv[:cut]) if (found := _option(arg)) is not None
    }
    args = SimpleNamespace(**_DEFAULTS)
    wanted = ["command", "fixture"]
    extras: list[str] = []

    def positionals(i: int) -> int:
        # Each positional takes one argument, with the ``--`` just before or after it.
        while wanted:
            j = i + (i == cut)
            if j >= len(argv) or j in options:
                break
            value, i = argv[j], j + 1 + (j + 1 == cut)
            if wanted[0] == "command" and value not in _COMMANDS:
                raise _UsageError(
                    f"argument command: invalid choice: {value!r} (choose from {_CHOICES})"
                )
            setattr(args, wanted.pop(0), value)
        return i

    i = 0
    for at, (name, value) in options.items():
        if i < at:
            i = positionals(i)
            extras += argv[i:at]
        i = at + 1
        if not name:
            extras.append(argv[at])
            continue
        field = _OPTIONS[name]
        if field is None:  # help: -hh… is -h -h …, and any other letter glued on is refused
            while value is not None:
                if name != "-h" or value[:1] != "h":
                    raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                value = value[1:] or None
            return None
        if value is None:
            if i >= len(argv) or i in options or i == cut:
                raise _UsageError(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        setattr(args, field, value if field in ("json", "dot") else _cap(name, value))
    extras += argv[positionals(i):]
    if wanted:
        raise _UsageError(f"the following arguments are required: {', '.join(wanted)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # A reader went away (``| head``): stop quietly, with exit 1.  What
        # is still buffered for the stream that lost its reader goes to the
        # null device, so that exit stays quiet too; the other stream keeps
        # all it was given.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
        return 1
    return code


def _run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"ocrank: error: {exc}", file=sys.stderr)
        return 1
    if args is None:
        sys.stdout.write(_HELP)
        return 0

    try:
        fixture = load_fixture_file(args.fixture)
    except FixtureError as exc:
        print(f"ocrank: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ocrank: cannot read {args.fixture}: {exc}", file=sys.stderr)
        return 1

    command, machine_only = _COMMANDS[args.command]
    try:
        if machine_only and not fixture.is_machine:
            raise _UsageError(f"'{args.command}' needs a machine fixture, not an expression")
        code, payload = command(fixture.value, args, sys.stdout)
        if args.json and payload is not None:
            _write_text(args.json, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    except _UsageError as exc:
        print(f"ocrank: error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"ocrank: certification failed: {exc}", file=sys.stderr)
        return 4
    except (LevelingError, TransducerError) as exc:
        print(f"ocrank: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(
            f"ocrank: out of memory while running {args.command} on {args.fixture}",
            file=sys.stderr,
        )
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
