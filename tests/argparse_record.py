"""The argparse record: what argparse made of 3,000 drawn command lines.

``argparse_record.json`` lists, for each seeded command line that
:func:`draw_argv` gives, what :func:`oracles.argparse_front` returned:
the parsed fields, the error message (exit 1), or the help (exit 0).  It
also holds the help at 80 columns and the Python releases whose argparse
gave exactly this record.  ``tests/test_cli.py`` checks ``cli``'s own
parser against the record, so the check does not depend on the argparse
of the interpreter that runs it: argparse's reading of some of these
lines (values that look like negative numbers, a ``--`` that is a value,
letters glued to ``-h``) changes between patch releases.  Lines where a
``--`` is a value are not drawn; ``cli`` reads them differently on
purpose.  Regenerate the file only with one of the releases it names,
from the repository root::

    PYTHONPATH=src python tests/argparse_record.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

RECORD_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "argparse_record.json")
SEED = 20261019
LINES = 3000
ARGPARSE_OF = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")

_COMMAND_WORDS = ("nsets", "mprime", "dot", "rank", "enumerate", "check")
_OPTION_NAMES = ("--input-cap", "--output-cap", "--counter-cap", "--json", "--dot")
_GOOD_VALUES = ("0", "3", "12", "+3", " 7 ", "1_0", "\u0663", "f.oct")
_BAD_VALUES = (
    "-3", "-0", "-1.5", "-.5", "-5.", "-1e5", "-3\n", "-\u0663", "x", "", "3.5", "a b",
    "-x y", "-", "=", "a=b", "-h", "--h",
)
_NOISE = (
    "ranks", "", "-", "-3", "-x", "--", "-h", "--help", "--he", "-h=3", "-h=", "-hh", "--help=1",
    "--=x", "--=", "---", "--x", "-x y", "--inp x", "-i", "=", "a b", "-f x", "-5",
)


def draw_argv(rng) -> list[str]:
    """A command line: a command, a path and options, then some noise.

    Options come in full, as a prefix, and in ``=`` form, with good, bad,
    negative and missing values; the noise is bad commands, loose values,
    ``--`` and forms of ``-h``.
    """
    argv = [rng.choice(_COMMAND_WORDS), rng.choice(("f.oct", "g", "-5"))][: rng.randint(0, 2)]
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(_OPTION_NAMES)
        name = name[: rng.randint(3, len(name))]  # a unique prefix, or in full
        value = rng.choice(_GOOD_VALUES if rng.random() < 0.75 else _BAD_VALUES)
        r = rng.random()
        words = [f"{name}={value}"] if r < 0.3 else [name] if r < 0.4 else [name, value]
        at = rng.randint(0, len(argv))
        argv[at:at] = words
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        argv.insert(rng.randint(0, len(argv)), rng.choice(_NOISE + _BAD_VALUES))
    return argv


def drawn_lines() -> list[list[str]]:
    """The seeded command lines of the record, those with a ``--`` value left out."""
    rng = random.Random(SEED)
    lines = []
    while len(lines) < LINES:
        argv = draw_argv(rng)
        if argv.count("--") <= 1 and not any(a.endswith("=--") for a in argv):
            lines.append(argv)
    return lines


def argparse_outcome(argv: list[str], help_text: str) -> dict:
    """What argparse made of ``argv``, as one record entry."""
    got = oracles.argparse_front(argv)
    if isinstance(got, dict):
        return {"argv": argv, "fields": got}
    if got == (0, help_text, ""):
        return {"argv": argv, "help": True}
    code, out, err = got
    prefix = "ocrank: error: "
    assert code == 1 and out == "" and err.startswith(prefix) and err.endswith("\n"), got
    return {"argv": argv, "error": err[len(prefix):-1]}


def generate() -> dict:
    os.environ["COLUMNS"] = "80"
    code, help_text, err = oracles.argparse_front(["--help"])
    assert (code, err) == (0, "")
    lines = [argparse_outcome(argv, help_text) for argv in drawn_lines()]
    return {"argparse_of": list(ARGPARSE_OF), "help": help_text, "lines": lines}


def write(record: dict, path: str) -> None:
    entries = ",\n".join(json.dumps(entry, ensure_ascii=False) for entry in record["lines"])
    head = json.dumps({key: record[key] for key in ("argparse_of", "help")}, ensure_ascii=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ',\n"lines": [\n' + entries + "\n]}\n")


if __name__ == "__main__":
    if platform.python_version() not in ARGPARSE_OF:
        sys.exit(f"argparse_record.py: run it with Python {', '.join(ARGPARSE_OF)}")
    write(generate(), RECORD_PATH)
    print(f"wrote {LINES} lines to {RECORD_PATH}")
