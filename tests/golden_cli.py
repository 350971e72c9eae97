"""The golden CLI corpus: what every command prints on a fixed set of fixtures.

``golden_cli.json`` holds each fixture's text once and lists, per call,
the fixture's name, the command line, and the exit code, standard output,
standard error and ``--json`` text the program gave.  The fixtures are the packaged fig1 and fig2 and 60 seeded
``random_machine``s; the commands are ``rank``, ``nsets``, ``check``,
``enumerate``, ``mprime`` and ``dot``, the random machines at input cap 4
and output cap 10, as in the benchmark's check-enum workload.  ``tests/test_golden_cli.py`` replays it, so a change
that alters any output fails there.  Regenerate the file only for an
intended change of output, from the repository root::

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import fixture_path, random_machine  # noqa: E402
from ocrank import cli  # noqa: E402

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
COMMANDS = ("rank", "nsets", "check", "enumerate", "mprime", "dot")
RANDOM_SEEDS = range(60)
RANDOM_CAPS = ("--input-cap", "4", "--output-cap", "10")


def corpus_fixtures() -> dict[str, tuple[str, list[str]]]:
    """Each fixture's name, with its text and the flags its calls take."""
    fixtures = {}
    for name in ("fig1", "fig2"):
        with open(fixture_path(name + ".oct"), encoding="utf-8") as fh:
            fixtures[name] = (fh.read(), [])
    for seed in RANDOM_SEEDS:
        machine = random_machine(random.Random(seed))
        fixtures[f"random{seed}"] = (cli.render_fixture(cli.Fixture(machine)), list(RANDOM_CAPS))
    return fixtures


def run_call(text: str, argv: list[str], directory: str) -> dict:
    """Run one call in process on ``text`` and return what it gave.

    The fixture is written as ``machine.oct`` in ``directory``, so the
    paths in the output do not depend on the fixture's name.
    """
    path = os.path.join(directory, "machine.oct")
    json_path = os.path.join(directory, "out.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if os.path.exists(json_path):
        os.remove(json_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], path, *argv[1:], "--json", json_path])
    payload = None
    if os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            payload = fh.read()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "json": payload}


def generate(directory: str) -> dict:
    fixtures = corpus_fixtures()
    calls = [
        {"fixture": name, "argv": [cmd, *flags], **run_call(text, [cmd, *flags], directory)}
        for name, (text, flags) in fixtures.items()
        for cmd in COMMANDS
    ]
    return {"fixtures": {name: text for name, (text, _) in fixtures.items()}, "calls": calls}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(tmp)
    with open(CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(corpus['calls'])} calls to {CORPUS_PATH}")
