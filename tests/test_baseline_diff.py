"""The command line gives what the frozen first version of the program gave.

``bench/baseline/ocrank_baseline`` is the program as it stood when the
benchmark was defined, and it imports beside ``src/``.  Both copies run
the same calls in process on the same fixture text, and every call must
give the same exit code, standard output, standard error and ``--json``
text, except for the output changes declared since then.  Each of those
is a named predicate below; the list is closed, and each predicate's hits
are counted and pinned.

The copy is exponential on period shapes (the coprime ladders at P = 210
exhaust it), so it only sees ``random_machine``s at their default sizes
and two small planted fixtures, and the test has a time budget.
"""

from __future__ import annotations

import os
import random
import sys
import time

from conftest import random_machine
from golden_cli import run_call
from ocrank import cli

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(os.path.dirname(TESTS_DIR), "bench", "baseline")
if BASELINE not in sys.path:
    sys.path.insert(0, BASELINE)
from ocrank_baseline import cli as baseline_cli  # noqa: E402

SEEDS = range(200)
CAPS = ["--input-cap", "4", "--output-cap", "10"]
CALLS = (["rank"], ["nsets"], ["mprime"], ["check", *CAPS], ["enumerate", *CAPS])
BUDGET_S = 30.0

# A machine that accepts no input word: its one transition closes at 0.
VACUOUS = "alphabet a\nstates s0 s1\ninitial s0\nfinal s1\ntrans s0 1 s1 a\n"
with open(os.path.join(TESTS_DIR, "dead_quasi_dense.oct"), encoding="utf-8") as fh:
    DEAD_QUASI_DENSE = fh.read()
PLANTED = [
    (VACUOUS, ["mprime"]),
    (DEAD_QUASI_DENSE, ["rank"]),
    (DEAD_QUASI_DENSE, ["rank", "--counter-cap", "3"]),
]


# --- the declared differences -------------------------------------------------------
#
# Each takes the command line and what each copy gave, as ``run_call`` returns it.


def dead_quasi_dense_output(argv, program, copy) -> bool:
    """A quasi-dense output that no accepted run emits no longer makes the
    language quasi-dense: ``rank`` gives a bound where the copy said
    ``not scattered`` (exit 2)."""
    return (
        argv[0] == "rank"
        and copy["code"] == 2
        and copy["stdout"].startswith("not scattered\n")
        and "is itself quasi-dense" in copy["stdout"]
        and program["code"] == 0
        and program["stdout"].startswith("bound: ")
    )


def counter_cap_refusal_first(argv, program, copy) -> bool:
    """``rank`` levels the machine before it analyses the outputs, so a
    counter cap too small for it exits 4 where the copy found a quasi-dense
    output first and exited 2."""
    return (
        argv[0] == "rank"
        and copy["code"] == 2
        and "is itself quasi-dense" in copy["stdout"]
        and (program["code"], program["stdout"]) == (4, "")
        and program["stderr"].startswith("ocrank: certification failed: counter cap ")
    )


def vacuous_mprime(argv, program, copy) -> bool:
    """``mprime`` on a machine that accepts no input word reports it as
    vacuous and exits 0, where the copy exited 4 with the same reason."""
    reason = copy["stderr"].removeprefix("ocrank: ").rstrip("\n")
    return (
        argv[0] == "mprime"
        and (copy["code"], copy["stdout"]) == (4, "")
        and reason.endswith("the machine accepts no input word")
        and program["code"] == 0
        and f"vacuous: {reason}\n" in program["stdout"]
    )


DECLARED = (dead_quasi_dense_output, counter_cap_refusal_first, vacuous_mprime)


def test_the_command_line_agrees_with_the_first_version(tmp_path):
    cases = [
        (cli.render_fixture(cli.Fixture(random_machine(random.Random(seed)))), argv)
        for seed in SEEDS
        for argv in CALLS
    ]
    hits = {p.__name__: 0 for p in DECLARED}
    unnamed = []
    t0 = time.perf_counter()
    for text, argv in cases + PLANTED:
        program = run_call(text, argv, str(tmp_path), {})
        copy = run_call(text, argv, str(tmp_path), {}, baseline_cli.main)
        if program == copy:
            continue
        named = [p.__name__ for p in DECLARED if p(argv, program, copy)]
        if len(named) != 1:
            unnamed.append((text, argv, program, copy))
        for name in named:
            hits[name] += 1
    took = time.perf_counter() - t0
    assert unnamed == []
    # Only the planted fixtures differ, each as its predicate names.
    assert hits == {p.__name__: 1 for p in DECLARED}
    assert took < BUDGET_S, f"took {took:.2f}s, budget {BUDGET_S:g}s"
