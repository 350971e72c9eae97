"""Seeded inputs for the four benchmark workloads.

Every input is fixture text, exactly what a user hands to the ``ocrank``
command line.  A workload is a list of calls (command, extra flags,
fixture); one pass runs each call once, in a seeded order.  The seed
changes state names, line order, call order and, for the random families,
the machines themselves.  The shapes of ``ladder`` and ``complete`` and
the grid of sizes of the random machines are fixed, so that a seed changes
how much work a pass holds as little as it can.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Output regexes of the random machines, as in the test suite's generator.
OUTPUT_POOL = ("a", "b", "ab", "a*", "a+b", "b*a", "eps", "a(b+a)")

WORKLOADS = ("ladder", "complete", "soup", "check-enum")

# Ladder machines: a k-cycle of opens emitting c, one close into a j-cycle
# of closes emitting b*a.  Only coprime (k, j) accept inputs; (1, 1) is the
# packaged fig1 fixture itself.  {(k, j): renamings drawn from the seed}.
# The cost of one machine moves with its state names and the process's
# string hashing (for (1, 5) and (5, 1) by up to half), which the pairing
# with the baseline cancels.  The counts put the median call deep inside
# the (1, 3)/(3, 1) block and the p75 call inside the (1, 5)/(5, 1) block;
# the shapes with P = 6 take ~0.15 s a call, so two renamings of each keep
# a pass short enough for a run to hold several.
LADDER_SHAPES = {
    (1, 3): 12, (3, 1): 12, (1, 5): 4, (5, 1): 4,
    (1, 6): 2, (6, 1): 2, (2, 3): 2, (3, 2): 2,
}

# Complete machines of n states: renamings drawn from the seed through
# `nsets`, {n: count}, and the first renaming of each size up to 6 through
# `rank` as well.  `rank` of n = 7 takes ~3.5 s, which would leave too few
# passes in a run; `nsets` of n = 7 runs the same cycle enumeration, twice:
# each such call takes ~0.4 s, and with more of them a run holds too few
# passes for a steady throughput, with fewer `counterset` falls below 80%
# of the time.  One call's cost moves with state names and string hashing
# (n = 5: ~7 to ~10 ms), so the counts put the median call in the middle
# of the n = 5 block and the p75 call inside the n = 6 block.
COMPLETE_NSETS = {3: 8, 4: 8, 5: 16, 6: 12, 7: 2}
COMPLETE_RANK_MAX = 6

# Soup: random machines plus expressions over some of them.
SOUP_MACHINES = 400
SOUP_PLUS = 25
SOUP_CONCAT = 25

# check-enum: random machines through `check` and `enumerate`.
CHECK_ENUM_MACHINES = 200
CHECK_ENUM_INPUT_CAP = 4
CHECK_ENUM_OUTPUT_CAP = 10

# Per-call wall limit in seconds; a call over it is recorded, not waited on.
CALL_LIMIT_S = {"ladder": 20.0, "complete": 20.0, "soup": 5.0, "check-enum": 5.0}


@dataclass
class Spec:
    """A machine as the benchmark generated it, kept for the output checks."""

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    finals: tuple[str, ...]
    transitions: tuple[tuple[str, int, str, str], ...]

    def render(self) -> str:
        lines = [
            "alphabet " + " ".join(self.alphabet),
            "states " + " ".join(self.states),
            "initial " + self.initial,
            "final " + " ".join(self.finals),
        ]
        lines += [f"trans {s} {b} {t} {r}" for s, b, t, r in self.transitions]
        return "\n".join(lines) + "\n"


@dataclass
class Case:
    """One fixture file.  ``spec`` is None for expression fixtures."""

    name: str
    family: str
    text: str
    spec: Spec | None = None


@dataclass
class Call:
    """One command on one fixture; a pass runs every call of its workload."""

    case: Case
    command: str
    flags: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.command} {self.case.name}"

    def argv(self, directory: str) -> list[str]:
        return [self.command, os.path.join(directory, self.case.name + ".oct"), *self.flags]


@dataclass
class Workload:
    name: str
    seed: int
    cases: list[Case]
    calls: list[Call]
    limit_s: float


def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    """``count`` distinct state names, drawn from the seed."""
    picked = rng.sample(range(10 * count + 10), count)
    return [f"{prefix}{i}" for i in picked]


def _shuffled(rng: random.Random, items):
    items = list(items)
    rng.shuffle(items)
    return items


def ladder_spec(k: int, j: int, rng: random.Random) -> Spec:
    opens = _names(rng, k, "o")
    closes = _names(rng, j, "c")
    trans = [(opens[i], 0, opens[(i + 1) % k], "c") for i in range(k)]
    trans.append((opens[0], 1, closes[0], "b*a"))
    trans += [(closes[i], 1, closes[(i + 1) % j], "b*a") for i in range(j)]
    return Spec(
        ("a", "b", "c"),
        tuple(_shuffled(rng, opens + closes)),
        opens[0],
        (closes[0],),
        tuple(_shuffled(rng, trans)),
    )


def complete_spec(n: int, rng: random.Random) -> Spec:
    states = _names(rng, n, "s")
    trans = [(p, b, q, "a") for p in states for q in states for b in (0, 1)]
    return Spec(
        ("a",),
        tuple(_shuffled(rng, states)),
        states[0],
        (states[0],),
        tuple(_shuffled(rng, trans)),
    )


def random_spec(rng: random.Random, n: int, size: int) -> Spec:
    """A random machine with ``n`` states and ``size`` transitions drawn
    (duplicates dropped), like the test suite's ``random_machine``.

    A short open/close path into a final state is planted so most samples
    accept some balanced input.
    """
    states = [f"s{i}" for i in range(n)]
    finals = sorted(rng.sample(states, rng.randint(1, n)))
    mid = rng.choice(states)
    trans = [
        (states[0], 0, mid, rng.choice(OUTPUT_POOL)),
        (mid, 1, rng.choice(finals), rng.choice(OUTPUT_POOL)),
    ]
    while len(trans) < size:
        trans.append(
            (rng.choice(states), rng.choice((0, 1)), rng.choice(states), rng.choice(OUTPUT_POOL))
        )
    return Spec(("a", "b"), tuple(states), states[0], tuple(finals), tuple(dict.fromkeys(trans)))


def random_specs(
    rng: random.Random, count: int, max_states: int, max_transitions: int
) -> list[Spec]:
    """``count`` random machines over a fixed grid of sizes.

    State count and transition count cycle through 1..max_states and
    2..max_transitions, so every seed holds the same mix of sizes; the seed
    draws the rest.  A one-state machine with many transitions costs a
    hundred times a typical one, so leaving sizes to chance would make the
    work of a pass depend on the seed.
    """
    sizes = range(2, max_transitions + 1)
    return [
        random_spec(rng, 1 + i % max_states, sizes[(i // max_states) % len(sizes)])
        for i in range(count)
    ]


# The fixtures shipped inside the ocrank package of this checkout.  Read
# from the file tree rather than through ``import ocrank``, so that building
# a workload imports neither ocrank nor the baseline copy.
FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ocrank", "fixtures"
)


def packaged_fixture(name: str) -> str:
    """Text of one of the fixtures shipped inside the ocrank package."""
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_spec(text: str) -> Spec:
    """Read back a machine fixture (used for the packaged fig1 and fig2)."""
    fields: dict[str, list[str]] = {}
    trans = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "trans":
            s, b, t, r = parts[1:]
            trans.append((s, int(b), t, r))
        else:
            fields[parts[0]] = parts[1:]
    return Spec(
        tuple(fields["alphabet"]),
        tuple(fields["states"]),
        fields["initial"][0],
        tuple(fields["final"]),
        tuple(trans),
    )


def _packaged_case(name: str) -> Case:
    text = packaged_fixture(name + ".oct")
    return Case(name, name, text, parse_spec(text))


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The inputs of one workload.  ``scale`` below 1 shrinks it for tests."""
    rng = random.Random(f"{name}:{seed}")

    def count(n: int) -> int:
        return max(1, round(n * scale))

    cases: list[Case] = []
    calls: list[Call] = []
    if name == "ladder":
        cases.append(_packaged_case("fig1"))
        shapes = LADDER_SHAPES if scale >= 1 else {(1, 3): 1, (3, 1): 1}
        for (k, j), renamings in shapes.items():
            for v in range(renamings):
                spec = ladder_spec(k, j, rng)
                cases.append(Case(f"ladder{k}x{j}v{v}", "ladder", spec.render(), spec))
        calls = [Call(c, "rank") for c in cases]
    elif name == "complete":
        fig2 = _packaged_case("fig2")
        cases.append(fig2)
        calls = [Call(fig2, "rank"), Call(fig2, "nsets")]
        sizes = tuple(COMPLETE_NSETS) if scale >= 1 else (3,)
        for n in sizes:
            renamings = [complete_spec(n, rng) for _ in range(max(1, count(COMPLETE_NSETS[n])))]
            for v, spec in enumerate(renamings):
                case = Case(f"complete{n}v{v}", "complete", spec.render(), spec)
                cases.append(case)
                if v == 0 and n <= COMPLETE_RANK_MAX:
                    calls.append(Call(case, "rank"))
                calls.append(Call(case, "nsets"))
    elif name == "soup":
        machines = [
            Case(f"m{i}", "random", spec.render(), spec)
            for i, spec in enumerate(random_specs(rng, count(SOUP_MACHINES), 6, 8))
        ]
        cases += machines
        for i in range(count(SOUP_PLUS)):
            body = rng.choice(machines)
            cases.append(Case(f"plus{i}", "plus", f"expr plus {body.name}\n"))
        for i in range(count(SOUP_CONCAT)):
            left, right = rng.choice(machines), rng.choice(machines)
            cases.append(Case(f"concat{i}", "concat", f"expr concat {left.name} {right.name}\n"))
        calls = [Call(c, "rank") for c in cases]
    elif name == "check-enum":
        cases += [_packaged_case("fig1"), _packaged_case("fig2")]
        cases += [
            Case(f"m{i}", "random", spec.render(), spec)
            for i, spec in enumerate(random_specs(rng, count(CHECK_ENUM_MACHINES), 5, 5))
        ]
        flags = ("--input-cap", str(CHECK_ENUM_INPUT_CAP),
                 "--output-cap", str(CHECK_ENUM_OUTPUT_CAP))
        calls = [Call(c, cmd, flags) for c in cases for cmd in ("check", "enumerate")]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, cases, _shuffled(rng, calls), CALL_LIMIT_S[name])


def write_fixtures(workload: Workload, directory: str) -> None:
    for case in workload.cases:
        with open(os.path.join(directory, case.name + ".oct"), "w", encoding="utf-8") as fh:
            fh.write(case.text)
