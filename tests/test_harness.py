"""Desk-check utilities: enumeration, density probes, and the BFS counter oracle."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from ocrank import cli, harness
from ocrank.counterset import reach_sets
from ocrank.rank import RocAtom, RocConcat, RocPlus, enumerate_expr
from ocrank.transducer import build_mprime, check_run, lift_run, make_transducer
from ocrank.words import Alphabet, primitive_root
from conftest import random_machine
from test_counterset import realize
import oracles
from oracles import project_run

AB = Alphabet(("a", "b"))


def fig1_expected_words(max_blocks: int, output_cap: int) -> set[str]:
    """c^n (b^k1 a)...(b^kn a) for 1 <= n <= max_blocks, capped by length."""
    expected: set[str] = set()
    for n in range(1, max_blocks + 1):
        slack = output_cap - 2 * n
        if slack < 0:
            continue
        for total in range(slack + 1):
            for cuts in itertools.combinations(range(total + n - 1), n - 1):
                parts = []
                prev = -1
                for cut in cuts + (total + n - 1,):
                    parts.append(cut - prev - 1)
                    prev = cut
                word = "c" * n + "".join("b" * k + "a" for k in parts)
                expected.add(word)
    return expected


# --- enumeration ---------------------------------------------------------------------


def enumerate_machine(machine, input_cap: int, output_cap: int, directory) -> dict:
    """The ``--json`` payload of ``enumerate`` on the machine, written as a fixture."""
    path, out_path = directory / "m.oct", str(directory / "m.json")
    path.write_text(cli.render_fixture(cli.Fixture(machine)), encoding="utf-8")
    caps = ["--input-cap", str(input_cap), "--output-cap", str(output_cap)]
    assert cli.main(["enumerate", str(path), *caps, "--json", out_path]) == 0
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def test_enumerate_fig1_matches_expansion(fig1, tmp_path):
    result = enumerate_machine(fig1, 8, 12, tmp_path)
    expected = fig1_expected_words(4, 12)
    assert set(result["words"]) == expected
    assert len(result["words"]) == 210
    # lex order over letters a < b < c
    assert result["words"] == sorted(result["words"])
    assert result["truncated"]  # b* always has members beyond any cap


def test_enumerate_finite_outputs_not_truncated(tmp_path):
    m = make_transducer(
        ["q0", "q1"],
        "q0",
        ["q0"],
        [("q0", 0, "q1", "a"), ("q1", 1, "q0", "b")],
        AB,
    )
    result = enumerate_machine(m, 8, 12, tmp_path)
    assert result["words"] == ["", "ab", "abab", "ababab", "abababab"]
    assert not result["truncated"]


def test_enumerate_epsilon_only_machine(tmp_path):
    m = make_transducer(["q"], "q", ["q"], [], AB)
    result = enumerate_machine(m, 6, 6, tmp_path)
    assert result["words"] == [""]
    assert not result["truncated"]


def test_enumerate_respects_output_cap(fig1, tmp_path):
    shorter = enumerate_machine(fig1, 8, 6, tmp_path)
    assert set(shorter["words"]) == fig1_expected_words(4, 6)
    assert all(len(w) <= 6 for w in shorter["words"])
    assert shorter["truncated"]


def _pair_machine(out0: str, out1: str):
    return make_transducer(
        ["q0", "q1", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q1", out0), ("q1", 1, "f", out1)],
        AB,
    )


def test_enumerate_expr_concat_and_plus():
    ab = RocAtom(_pair_machine("a", "b"))
    ba = RocAtom(_pair_machine("b", "a"))
    assert enumerate_expr(ab, 4, 10) == ["ab"]
    assert enumerate_expr(RocConcat(ab, ba), 4, 10) == ["abba"]
    assert enumerate_expr(RocPlus(ab), 4, 8) == [
        "ab",
        "abab",
        "ababab",
        "abababab",
    ]
    # the pairwise cap drops long combinations, not whole factors
    assert enumerate_expr(RocConcat(ab, ba), 4, 3) == []


def test_enumerate_expr_rejects_foreign_objects():
    with pytest.raises(TypeError):
        enumerate_expr("ab", 4, 4)


# --- density probing -----------------------------------------------------------------


def single_root_machine():
    return make_transducer(
        ["q0", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q0", "b"), ("q0", 1, "f", "b"), ("f", 1, "f", "b")],
        AB,
    )


def mixed_cycle_machine():
    # two parallel self-loop outputs give the walk sampler two roots to find
    return make_transducer(
        ["q0", "f"],
        "q0",
        ["f"],
        [
            ("q0", 0, "q0", "a"),
            ("q0", 0, "q0", "b"),
            ("q0", 1, "f", "a"),
            ("f", 1, "f", "a"),
        ],
        AB,
    )


def one_regex_cycle_machine():
    # a single alternative inside one output regex is beyond the per-edge
    # shortest-word sampling
    return make_transducer(
        ["q0", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q0", "a+b"), ("q0", 1, "f", "a"), ("f", 1, "f", "a")],
        AB,
    )


def void_machine():
    return make_transducer(["q", "f"], "q", ["f"], [("q", 0, "q", "a")], AB)


def test_probe_density_machine_atom(fig1):
    # fig1 itself is only conditionally bounded, but the per-state cycle
    # sampling sees one root per leveled state and stays silent.
    assert harness.probe_density(RocAtom(fig1)) is None


def test_probe_density_machine_with_mixed_cycle():
    witness = harness.probe_density(RocAtom(mixed_cycle_machine()))
    assert witness is not None
    assert witness.state is not None
    assert witness.state.state == "q0"
    assert primitive_root(witness.word1) != primitive_root(witness.word2)
    assert "distinct primitive roots" in witness.description


def test_probe_density_is_sampling_limited():
    # the probe must stay silent rather than guess
    assert harness.probe_density(RocAtom(one_regex_cycle_machine())) is None


def test_probe_density_empty_machine_is_none():
    assert harness.probe_density(RocAtom(void_machine())) is None


def test_probe_density_walks_a_machine_atom_only(fig1):
    # An iteration's two distinct-root members are found by
    # rank.expr_rank_bound itself, so the probe has no expression branch.
    for e in (RocPlus(RocAtom(fig1)), RocConcat(RocAtom(fig1), RocAtom(fig1)), fig1, "fig1"):
        with pytest.raises(TypeError, match="not a machine atom"):
            harness.probe_density(e)


def test_probe_machine_matches_the_transition_walk(fig1, fig2):
    # The walk over integer arcs against the walk over prime.transitions,
    # on machines as atoms.  At most six transitions each: the walks are
    # exponential in the walk cap, and the old one is the slower by far.
    rng = random.Random(3131)
    machines = [fig1, fig2, single_root_machine(), mixed_cycle_machine(),
                one_regex_cycle_machine(), void_machine()]
    machines += [random_machine(rng, max_transitions=6) for _ in range(300)]
    found = 0
    for machine in machines:
        got = harness.probe_density(RocAtom(machine))
        assert got == oracles.probe_machine_by_transitions(machine, 24), machine.transitions
        found += got is not None
    assert found >= 50


# --- counter oracle ------------------------------------------------------------------


def test_upset_oracle_fig2_pinned_slices(fig2):
    oracle = harness.upset_oracle(fig2, 20)
    assert oracle.bound == 20
    assert oracle.meet["q4"] == frozenset({2, 5, 11, 17})
    assert oracle.meet["q8"] == frozenset({0})
    assert oracle.minus["q0"] == frozenset(range(0, 21, 3))
    assert oracle.plus["q5"] == frozenset(range(0, 21, 2))


def test_upset_oracle_agrees_with_certified_sets(fig2):
    oracle = harness.upset_oracle(fig2, 20)
    report = reach_sets(fig2)
    for q in fig2.states:
        assert realize(report.minus[q], 20) == oracle.minus[q]
        assert realize(report.plus[q], 20) == oracle.plus[q]
        assert realize(report.meet[q], 20) == oracle.meet[q]


def test_upset_oracle_zero_bound(fig1):
    oracle = harness.upset_oracle(fig1, 0)
    assert oracle.minus["q0"] == frozenset({0})
    assert oracle.meet["qf"] == frozenset({0})


# --- run enumeration -----------------------------------------------------------------


def test_accepting_runs_fig1(fig1):
    runs = harness.accepting_runs(fig1, 10)
    assert len(runs) == 5  # inputs 0^k 1^k for k = 1..5
    lengths = sorted(len(r) for r in runs)
    assert lengths == [2, 4, 6, 8, 10]
    prime = build_mprime(fig1, reach_sets(fig1))
    for run in runs:
        check_run(fig1, run)
        assert project_run([prime.transitions[k] for k in lift_run(fig1, run, prime)]) == run


def test_accepting_runs_epsilon_and_caps():
    m = make_transducer(
        ["q0", "q1"],
        "q0",
        ["q0"],
        [("q0", 0, "q1", "a"), ("q1", 1, "q0", "b")],
        AB,
    )
    runs = harness.accepting_runs(m, 6)
    assert runs[0] == []  # epsilon is accepted and listed first
    assert sorted(len(r) for r in runs) == [0, 2, 4, 6]
    assert harness.accepting_runs(m, 1) == [[]]


def test_enumerate_at_a_larger_output_cap_extends_the_smaller_one(tmp_path):
    # Metamorphic: raising the output cap from k to k + 3 only adds words
    # longer than k, in their places; truncation at k + 3 implies it at k.
    rng = random.Random(21)
    grown = truncated = 0
    for _ in range(240):
        machine = random_machine(rng, max_states=5, max_transitions=9)
        k = rng.randint(0, 7)
        small = enumerate_machine(machine, 6, k, tmp_path)
        large = enumerate_machine(machine, 6, k + 3, tmp_path)
        assert small["words"] == [w for w in large["words"] if len(w) <= k], machine.transitions
        assert small["truncated"] or not large["truncated"], machine.transitions
        grown += len(large["words"]) > len(small["words"])
        truncated += large["truncated"]
    assert grown >= 100 and truncated >= 20, (grown, truncated)
