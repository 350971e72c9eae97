"""Shared fixtures: the packaged example machines and random machine soup."""

from __future__ import annotations

import os
import random

import pytest

from ocrank import load_fixture_file
from ocrank.transducer import Transducer, make_transducer
from ocrank.words import Alphabet

FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src", "ocrank", "fixtures"
)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


@pytest.fixture(scope="session")
def fig1() -> Transducer:
    machine = load_fixture_file(fixture_path("fig1.oct")).value
    assert isinstance(machine, Transducer)
    return machine


@pytest.fixture(scope="session")
def fig2() -> Transducer:
    machine = load_fixture_file(fixture_path("fig2.oct")).value
    assert isinstance(machine, Transducer)
    return machine


# Two machines of the benchmark's random soups.  Each has a cycle that no
# run can take once the counter is pumped up (m365: the opening s2
# self-loop, read backwards; m138: the closing s0 self-loop), which used to
# force period 1 on a slice whose tail is the even numbers, so the window
# check refused them at every cap.
M365 = """alphabet a b
states s0 s1 s2 s3 s4 s5
initial s0
final s0 s5
trans s0 0 s2 a
trans s2 1 s5 b*a
trans s0 1 s4 a(b+a)
trans s4 1 s0 b*a
trans s2 0 s2 a(b+a)
trans s1 1 s5 b
"""

M138 = """alphabet a b
states s0 s1 s2 s3
initial s0
final s1
trans s0 0 s2 a(b+a)
trans s2 1 s1 a
trans s0 1 s0 b*a
trans s3 0 s1 ab
trans s1 0 s3 a*
"""


def mask_bits(mask: int) -> list[int]:
    """The states of an automaton's successor bitmask, lowest first, read
    bit by bit rather than through ``words.state_bits``."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


OUTPUT_POOL = ("a", "b", "ab", "a*", "a+b", "b*a", "eps", "a(b+a)")


def random_machine(
    rng: random.Random,
    max_states: int = 5,
    max_transitions: int = 8,
    bias_nonempty: bool = True,
) -> Transducer:
    """A small random machine over input bits {0,1} and outputs over {a,b}.

    With ``bias_nonempty`` a short open/close path into a final state is
    planted so that most samples accept at least one balanced word.
    """
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    finals = rng.sample(states, rng.randint(1, n))
    alphabet = Alphabet(("a", "b"))
    transitions: list[tuple[str, int, str, str]] = []
    if bias_nonempty:
        mid = rng.choice(states)
        transitions.append((states[0], 0, mid, rng.choice(OUTPUT_POOL)))
        transitions.append((mid, 1, rng.choice(finals), rng.choice(OUTPUT_POOL)))
    while len(transitions) < rng.randint(1, max_transitions):
        transitions.append(
            (
                rng.choice(states),
                rng.choice((0, 1)),
                rng.choice(states),
                rng.choice(OUTPUT_POOL),
            )
        )
    return make_transducer(states, states[0], finals, transitions, alphabet)
