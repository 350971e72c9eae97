"""``lift_run`` and the leveled machine's languages against their oracles.

``lift_run`` looks each step up in the step table, by (base index, source
level, source phase, target level, target phase), and returns indices into
``prime.arcs``; :func:`oracles.typed_lift` builds a :class:`TypedState` per
step and looks it up by (TypedState, TypedState, Transition).  Mapped
through ``prime.transitions``, the two must agree on every accepting run,
and fail with the same text on the same run, also when an arc is missing or
leads from or to the wrong level.  ``bounded_outputs`` of a leveled machine
walks state numbers; :func:`oracles.bounded_outputs_by_transitions` walks
``prime.transitions``.  ``bounded_language`` adds the empty input by making
the initial states final; :func:`oracles.bounded_language_by_union` adds
ε's automaton.  The lift tables are dicts keyed by tuples, so CI runs this
file under a fixed hash seed too."""

from __future__ import annotations

import os
import random

import pytest

import oracles
from conftest import fixture_path, random_machine
from golden_cli import corpus_fixtures
from ocrank import cli, harness, regular
from ocrank.cli import Fixture, parse_fixture, render_fixture
from ocrank.counterset import reach_sets
from ocrank.transducer import (
    LevelingError,
    TransducerPrime,
    TypedTransition,
    bounded_language,
    bounded_outputs,
    build_mprime,
    check_run,
    lift_run,
)

# One state and seven loops: Σ_k Catalan(k)·12^k accepting runs of length 2k.
SEVEN_LOOPS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seven_loops.oct")


def leveled(machine):
    try:
        return build_mprime(machine, reach_sets(machine))
    except LevelingError:
        return None


def cases(fig1, fig2):
    """(machine, leveled machine, run cap) for fig1, fig2, the seven loops
    and 200 random machines."""
    rng = random.Random(3030)
    shown = [(fig1, 8), (fig2, 8), (cli.load_fixture_file(SEVEN_LOOPS).value, 6)]
    shown += [(random_machine(rng), 4) for _ in range(200)]
    return [(m, prime, cap) for m, cap in shown if (prime := leveled(m)) is not None]


def outcome(lift, machine, run, prime):
    """The lifted transitions, or the error's class and text."""
    try:
        return lift(machine, run, prime)
    except (LevelingError, ValueError) as exc:
        return type(exc), str(exc)


def arc_lift(machine, run, prime):
    return [prime.transitions[k] for k in lift_run(machine, run, prime)]


def test_lift_run_matches_the_typed_lift(fig1, fig2):
    lifted = 0
    for machine, prime, cap in cases(fig1, fig2):
        ends = oracles.by_ends(prime)
        for run in harness.accepting_runs(machine, cap):
            want = oracles.typed_lift(machine, run, prime, ends)
            assert arc_lift(machine, run, prime) == want, (machine.transitions, run)
            lifted += len(run)
    assert lifted > 50_000


def test_lift_run_reads_an_equal_run_of_another_parse(fig1):
    # The run's transitions are not the machine's own objects, only equal.
    text = render_fixture(Fixture(fig1))
    prime = build_mprime(fig1, reach_sets(fig1))
    twin = parse_fixture(text).value
    assert twin.transitions == fig1.transitions
    assert all(a is not b for a, b in zip(twin.transitions, fig1.transitions))
    for run, other in zip(harness.accepting_runs(fig1, 8), harness.accepting_runs(twin, 8)):
        assert lift_run(twin, other, prime) == lift_run(fig1, run, prime)


def without_one_iii_arc(prime):
    doomed = next(t for t in prime.transitions if t.rule == "iii")
    kept = tuple(t for t in prime.transitions if t is not doomed)
    return oracles.replace_transitions(prime, kept)


def test_a_missing_arc_fails_with_the_oracles_text_on_the_same_run(fig1, fig2):
    broken = 0
    for machine, prime, cap in cases(fig1, fig2):
        if not any(rule == "iii" for _, _, _, rule in prime.arcs):
            continue
        damaged = without_one_iii_arc(prime)
        runs = harness.accepting_runs(machine, cap)
        got = [outcome(arc_lift, machine, run, damaged) for run in runs]
        assert got == [outcome(oracles.typed_lift, machine, run, damaged) for run in runs]
        failures = [g for g in got if isinstance(g, tuple)]
        broken += bool(failures)
        assert all(kind is LevelingError for kind, _ in failures)
    assert broken >= 3


def redirected(prime, arc, end):
    """``prime`` with leveled arc ``arc`` moved at its ``end`` ("source" or
    "target") to another level of that end's state and phase, or None when
    the end has no such level."""
    tt = prime.transitions[arc]
    at = getattr(tt, end)
    other = next((s for s in prime.states
                  if s.state == at.state and s.phase == at.phase and s != at), None)
    if other is None:
        return None
    source, target = (other, tt.target) if end == "source" else (tt.source, other)
    transitions = list(prime.transitions)
    transitions[arc] = TypedTransition(source, tt.bit, target, tt.output, tt.rule, tt.base)
    return oracles.replace_transitions(prime, transitions)


@pytest.mark.parametrize("end", ["source", "target"])
def test_an_arc_at_the_wrong_level_fails_with_the_oracles_text_on_the_same_run(fig1, fig2, end):
    # A step table keyed without that end's level would still find the
    # moved arc, and lift the run that the oracle refuses.
    broken = 0
    for machine, prime, cap in cases(fig1, fig2):
        runs = harness.accepting_runs(machine, cap)
        used = dict.fromkeys(k for run in runs for k in lift_run(machine, run, prime))
        damaged = next((d for k in used if (d := redirected(prime, k, end))), None)
        if damaged is None:
            continue
        got = [outcome(arc_lift, machine, run, damaged) for run in runs]
        want = [outcome(oracles.typed_lift, machine, run, damaged) for run in runs]
        first = next(i for i, g in enumerate(got) if isinstance(g, tuple))
        assert first == next(i for i, w in enumerate(want) if isinstance(w, tuple))
        assert got[first] == want[first] and got[first][0] is LevelingError
        broken += 1
    assert broken >= 100


def test_check_run_names_the_first_rule_a_run_breaks(fig1):
    opens, closes, stays = fig1.transitions  # q0 -0-> q0, q0 -1-> qf, qf -1-> qf
    broken = [
        # starts elsewhere, and breaks
        ([stays, opens], "run starts at 'qf', not the initial state"),
        # starts elsewhere, and is unbalanced
        ([stays], "run starts at 'qf', not the initial state"),
        # goes below zero before it breaks
        ([closes, stays, opens, closes], "run breaks between 'qf' and 'q0'"),
        # breaks, and ends at a non-final state
        ([opens, closes, opens], "run breaks between 'qf' and 'q0'"),
        # ends at a non-final state, and is unbalanced
        ([opens, opens], "run ends at non-final state 'q0'"),
        # goes below zero and ends at zero
        ([closes, stays], "run input word is not balanced"),
        ([opens, closes, stays], "run input word is not balanced"),
        ([], "empty run, but the machine does not accept the empty input"),
    ]
    for run, message in broken:
        with pytest.raises(ValueError) as got:
            check_run(fig1, run)
        with pytest.raises(ValueError) as want:
            oracles.check_run_by_word(fig1, run)
        assert str(got.value) == str(want.value) == message, run
    assert check_run(fig1, [opens, opens, closes, stays]) == [0, 1, 2, 1, 0]


@pytest.mark.parametrize("cap", [4, 6])
def test_bounded_outputs_of_the_leveled_machine_match_the_transition_walk(fig1, fig2, cap):
    for machine, prime, _ in cases(fig1, fig2):
        got = bounded_outputs(prime, cap)
        want = oracles.bounded_outputs_by_transitions(prime, cap)
        assert regular.subset_with_witness(got, want) == (True, None), machine.transitions
        assert regular.subset_with_witness(want, got) == (True, None), machine.transitions


def test_bounded_language_adds_the_empty_input_as_the_union_did(fig1, fig2):
    # The golden corpus's machines, and 200 random machines that accept ε,
    # each with its leveled machine.
    machines = [parse_fixture(text).value for text, _ in corpus_fixtures().values()]
    rng = random.Random(3232)
    with_epsilon: list = []
    while len(with_epsilon) < 200:
        machine = random_machine(rng)
        if machine.accepts_epsilon:
            with_epsilon.append(machine)
    compared = 0
    for machine in machines + with_epsilon:
        prime = leveled(machine)
        for m in (machine,) if prime is None else (machine, prime):
            got = bounded_language(m, 4)
            want = oracles.bounded_language_by_union(m, 4)
            assert regular.subset_with_witness(got, want) == (True, None), machine.transitions
            assert regular.subset_with_witness(want, got) == (True, None), machine.transitions
            compared += m.accepts_epsilon
    assert compared >= 300


def test_check_never_builds_the_transition_view(capsys, monkeypatch, tmp_path):
    assert not hasattr(TransducerPrime, "typed_transition")
    built: list[TransducerPrime] = []
    build = cli.build_mprime

    def kept(machine, report):
        built.append(build(machine, report))
        return built[-1]

    monkeypatch.setattr(cli, "build_mprime", kept)
    machine = next(m for m in (random_machine(random.Random(seed)) for seed in range(100))
                   if leveled(m) is not None)
    path = tmp_path / "random.oct"
    path.write_text(render_fixture(Fixture(machine)), encoding="utf-8")
    for name in (fixture_path("fig1.oct"), fixture_path("fig2.oct"), str(path)):
        assert cli.main(["check", name]) == 0, capsys.readouterr().out
    assert len(built) == 3
    assert [prime._transitions for prime in built] == [None] * 3
