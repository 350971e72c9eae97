"""The golden CLI corpus: what every command prints on a fixed set of fixtures.

``golden_cli.json`` holds each fixture's text once and lists, per call,
the fixture's name, the command line, and the exit code, standard output,
standard error and ``--json`` text the program gave.  The machine fixtures
are the packaged fig1 and fig2 and 60 seeded ``random_machine``s, each
called with ``rank``, ``nsets``, ``check``, ``enumerate``, ``mprime`` and
``dot``, the random machines at input cap 4 and output cap 10, as in the
benchmark's check-enum workload.  The expression fixtures are seeded
``expr concat``, ``expr plus`` and nested expressions over the random
machines, each called with ``rank`` at the default caps and with
``enumerate`` at input cap 4 and output cap 10.
``tests/test_golden_cli.py`` replays it, so a change that alters any
output fails there.  Regenerate the file only for an
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
EXPRESSION_SEEDS = range(12)
EXPRESSION_CALLS = (["rank"], ["enumerate", *RANDOM_CAPS])


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


def expression_fixtures() -> dict[str, str]:
    """Each expression fixture's name and text.

    Per seed: a concatenation of two random machines, an iteration of the
    first, and one nesting of the two, which refers to the others by their
    corpus names.
    """
    fixtures = {}
    for seed in EXPRESSION_SEEDS:
        rng = random.Random(seed)
        left, right = (f"random{rng.choice(RANDOM_SEEDS)}.oct" for _ in range(2))
        fixtures[f"concat{seed}"] = f"expr concat {left} {right}\n"
        fixtures[f"plus{seed}"] = f"expr plus {left}\n"
        fixtures[f"nested{seed}"] = rng.choice(
            (
                f"expr plus concat{seed}.oct\n",
                f"expr concat plus{seed}.oct {right}\n",
                f"expr concat {right} plus{seed}.oct\n",
            )
        )
    return fixtures


def write_fixture(text: str, path: str, texts: dict[str, str]) -> None:
    """Write ``text`` to ``path``, and beside it, as NAME.oct, every corpus
    fixture that its ``expr`` line refers to, and theirs in turn."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if text.startswith("expr "):
        for ref in text.split()[2:]:
            name = ref[: -len(".oct")]
            write_fixture(texts[name], os.path.join(os.path.dirname(path), ref), texts)


def run_call(
    text: str, argv: list[str], directory: str, texts: dict[str, str], main=cli.main
) -> dict:
    """Run one call in process on ``text`` and return what it gave.

    The fixture is written as ``machine.oct`` in ``directory``, so the
    paths in the output do not depend on the fixture's name; the fixtures
    of ``texts`` that an expression refers to are written beside it.
    ``main`` is the command line to call, this program's by default.
    """
    path = os.path.join(directory, "machine.oct")
    json_path = os.path.join(directory, "out.json")
    write_fixture(text, path, texts)
    if os.path.exists(json_path):
        os.remove(json_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path, *argv[1:], "--json", json_path])
    payload = None
    if os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            payload = fh.read()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "json": payload}


def corpus_calls() -> list[tuple[str, list[str]]]:
    """Each call of the corpus: its fixture's name and its command line."""
    calls = [
        (name, [cmd, *flags])
        for name, (_, flags) in corpus_fixtures().items()
        for cmd in COMMANDS
    ]
    calls += [(name, argv) for name in expression_fixtures() for argv in EXPRESSION_CALLS]
    return calls


def corpus_texts() -> dict[str, str]:
    """Each fixture's name and text, machines first."""
    texts = {name: text for name, (text, _) in corpus_fixtures().items()}
    texts.update(expression_fixtures())
    return texts


def generate(directory: str) -> dict:
    texts = corpus_texts()
    calls = [
        {"fixture": name, "argv": argv, **run_call(texts[name], argv, directory, texts)}
        for name, argv in corpus_calls()
    ]
    return {"fixtures": texts, "calls": calls}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(tmp)
    with open(CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(corpus['calls'])} calls to {CORPUS_PATH}")
