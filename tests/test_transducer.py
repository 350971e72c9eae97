"""Machine structure, normalization, leveling, and desk-scale equivalence.

The four leveling rules are re-stated here as independent predicates so the
builder's rule tags are checked against a second formulation, not against
themselves.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from ocrank import regular
from ocrank.counterset import CertificationError, default_counter_cap, reach_sets
from ocrank.cli import parse_fixture
from ocrank.regular import compile_regex, parse_regex
from ocrank.transducer import (
    DOWN,
    EQ,
    UP,
    LevelingError,
    Transducer,
    TransducerError,
    TypedTransition,
    _split,
    build_mprime,
    bounded_language,
    bounded_language_equal,
    bounded_outputs,
    check_run,
    check_structure,
    lift_run,
    make_transducer,
    minimal_normalize,
    run_input_word,
)
from ocrank.words import Alphabet, in_d1
from conftest import random_machine
from test_components import leveling_machines
from oracles import (
    balanced_words_up_to,
    equivalent,
    language_of_input,
    leveled_by_pairs,
    project_run,
    replace_transitions,
    step_language,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


# --- independent restatements of the four leveling rules -------------------------


def rule_predicates(period: int, bit: int, n: int, s1: str, m: int, s2: str):
    """True/False for each rule name, straight from the definitions."""
    return {
        "i": bit == 0 and m == n + 1 and m < period and s1 == s2 and s1 != EQ,
        "ii": bit == 1
        and m == n - 1
        and m < period
        and n < period
        and s1 in (UP, DOWN)
        and s2 in (s1, DOWN),
        "iii": bit == 0
        and m >= period
        and n >= period - 1
        and (n + 1 - m) % period == 0
        and s2 == EQ
        and s1 != DOWN,
        "iv": bit == 1
        and n >= period
        and m >= period - 1
        and (n - 1 - m) % period == 0
        and s1 == EQ
        and s2 != UP,
    }


PHASE_RANK = {UP: 0, EQ: 1, DOWN: 2}


def assert_leveling_invariants(machine: Transducer, prime) -> None:
    for t in prime.transitions:
        fired = rule_predicates(
            prime.period, t.bit, t.source.level, t.source.phase,
            t.target.level, t.target.phase,
        )
        matched = [name for name, hit in fired.items() if hit]
        assert matched == [t.rule], (t, matched)
        assert PHASE_RANK[t.source.phase] <= PHASE_RANK[t.target.phase], t
    assert_depth_soundness(prime)


def _consistent(state, counter: int, period: int) -> bool:
    if state.phase == EQ:
        return counter >= period and counter % period == state.level % period
    return counter == state.level and counter < period


def assert_depth_soundness(prime) -> None:
    """Explore (typed state, exact open depth) pairs along consistent steps.

    Two genuine claims are checked.  First, from any pair whose depth sits
    strictly below the period, *every* outgoing typed transition lands on a
    pair that again matches its target's declared level — below the period the
    rule windows leave no slack.  (At or above the period the builder
    deliberately keeps mod-period siblings, so only the matching branch is
    followed.)  Second, every typed state the builder emitted is actually
    reachable through consistent pairs, i.e. no state's level is semantic
    junk.
    """
    period = prime.period
    n_raw = len(prime.base.states)
    cap = 2 * period + default_counter_cap(n_raw) + n_raw * n_raw
    by_source: dict = {}
    for t in prime.transitions:
        by_source.setdefault(t.source, []).append(t)
    seen = {(prime.initial, 0)}
    frontier = [(prime.initial, 0)]
    assert _consistent(prime.initial, 0, period)
    while frontier:
        s, c = frontier.pop()
        below = s.phase != EQ
        for t in by_source.get(s, ()):
            c2 = c + (1 if t.bit == 0 else -1)
            if c2 < 0 or c2 > cap:
                continue
            ok = _consistent(t.target, c2, period)
            if below:
                assert ok, (s, c, t)
            if ok and (t.target, c2) not in seen:
                seen.add((t.target, c2))
                frontier.append((t.target, c2))
    assert {s for s, _ in seen} == set(prime.states)


def assert_up_down_cycles_weigh_nothing(prime) -> None:
    """Every cycle off the eq phase weighs 0, whatever its length.

    Inside each strongly connected component of the non-eq subgraph, a
    potential spread from one member along a search tree must make every
    internal edge tight: then each cycle's weight telescopes to 0, and an
    untight edge closes a cycle that does not.
    """
    by_source: dict = {}
    for t in prime.transitions:
        if t.source.phase != EQ and t.target.phase != EQ:
            by_source.setdefault(t.source, []).append((1 if t.bit == 0 else -1, t.target))
    g = nx.DiGraph((u, v) for u, out in by_source.items() for _, v in out)
    for members in nx.strongly_connected_components(g):
        root = next(iter(members))
        potential = {root: 0}
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for w, v in by_source.get(u, ()):
                if v in members and v not in potential:
                    potential[v] = potential[u] + w
                    frontier.append(v)
        for u in members:
            for w, v in by_source.get(u, ()):
                if v in members:
                    assert potential[u] + w == potential[v], (u, w, v)


# --- structural checks ------------------------------------------------------------


def test_make_transducer_rejects_malformed():
    with pytest.raises(TransducerError):
        make_transducer([], "q", ["q"], [], AB)
    with pytest.raises(TransducerError):
        make_transducer(["q", "q"], "q", ["q"], [], AB)
    with pytest.raises(TransducerError):
        make_transducer(["q"], "missing", ["q"], [], AB)
    with pytest.raises(TransducerError):
        make_transducer(["q"], "q", ["other"], [], AB)
    with pytest.raises(TransducerError):
        make_transducer(["q"], "q", ["q"], [("q", 2, "q", "a")], AB)


def test_accepts_epsilon_tracks_initial_in_finals():
    m = make_transducer(["q"], "q", ["q"], [("q", 0, "q", "a")], AB)
    assert m.accepts_epsilon
    m2 = make_transducer(["p", "q"], "p", ["q"], [("p", 0, "q", "a")], AB)
    assert not m2.accepts_epsilon


def test_check_structure_leaves_machine_alone(fig1):
    before = (fig1.states, fig1.transitions)
    check_structure(fig1)
    assert (fig1.states, fig1.transitions) == before


# --- normalization ------------------------------------------------------------------


def inputs_agree(m1: Transducer, m2: Transducer, max_len: int = 8) -> bool:
    for u in balanced_words_up_to(max_len):
        if not u:
            if m1.accepts_epsilon != m2.accepts_epsilon:
                return False
            continue
        l1, l2 = language_of_input(m1, u), language_of_input(m2, u)
        if not equivalent(l1, l2):
            return False
    return True


def split_busy_endpoints(m: Transducer) -> Transducer:
    """``_split`` detaching the initial state if a transition enters it and
    each final state that a transition leaves."""
    busy_finals = {f for f in m.finals if any(t.source == f for t in m.transitions)}
    return _split(m, any(t.target == m.initial for t in m.transitions), busy_finals)


def test_split_detaches_busy_endpoints(fig1):
    split = split_busy_endpoints(fig1)
    # the initial state has a self-loop, so it must have been copied
    assert len(split.states) > len(fig1.states)
    incoming_to_initial = [t for t in split.transitions if t.target == split.initial]
    assert incoming_to_initial == []
    for f in split.finals:
        assert [t for t in split.transitions if t.source == f] == []
    assert inputs_agree(fig1, split)


def test_split_on_fig2_preserves_language(fig2):
    split = split_busy_endpoints(fig2)
    assert inputs_agree(fig2, split, max_len=8)


def test_minimal_normalize_keeps_tidy_machines(fig1, fig2):
    assert minimal_normalize(fig1) is fig1
    assert minimal_normalize(fig2) is fig2


def test_minimal_normalize_splits_on_one_edge_into_initial():
    m = make_transducer(
        ["q0", "q1"],
        "q0",
        ["q0"],
        [("q0", 0, "q1", "a"), ("q1", 1, "q0", "b")],
        AB,
    )
    fixed = minimal_normalize(m)
    assert fixed is not m
    assert [t for t in fixed.transitions if t.target == fixed.initial and t.bit == 1] == []
    assert inputs_agree(m, fixed)


def test_minimal_normalize_splits_on_zero_edge_out_of_final():
    m = make_transducer(
        ["q0", "q1", "f"],
        "q0",
        ["f"],
        [
            ("q0", 0, "q1", "a"),
            ("q1", 1, "f", "a"),
            ("f", 0, "q1", "b"),
        ],
        AB,
    )
    fixed = minimal_normalize(m)
    assert fixed is not m
    for f in fixed.finals:
        assert [t for t in fixed.transitions if t.source == f and t.bit == 0] == []
    assert inputs_agree(m, fixed)


# --- per-input output languages ---------------------------------------------------------


def test_step_language_matches_concatenation(fig1):
    final_langs = step_language(fig1, "01")
    assert set(final_langs) == {"qf"}
    assert equivalent(final_langs["qf"], compile_regex(parse_regex("c(b*a)", ABC), ABC))
    deeper = step_language(fig1, "0011")
    assert equivalent(deeper["qf"], compile_regex(parse_regex("cc(b*a)(b*a)", ABC), ABC))


def test_language_of_input_unions_over_finals(fig2):
    lang = language_of_input(fig2, "0011")
    # two accepting runs of length 4: via q4->q5 and via q4->q7->... none at 4?
    assert equivalent(lang, compile_regex(parse_regex("aaaa", AB), AB))


def test_language_of_input_empty_for_rejected_input(fig1):
    assert not language_of_input(fig1, "0101").finals


def test_balanced_words_up_to():
    words = balanced_words_up_to(6)
    assert words[0] == ""
    assert "01" in words and "0011" in words and "010101" in words
    assert all(in_d1(w) for w in words)
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert len(words) == 1 + 1 + 2 + 5  # Catalan 0..3


# --- leveling -----------------------------------------------------------------------------


def test_fig1_prime_shape(fig1):
    prime = build_mprime(fig1, reach_sets(fig1))
    assert prime.period == 2
    assert len(prime.states) == 8
    assert prime.initial.render() == "(q0,0,up)"
    assert {s.render() for s in prime.finals} == {"(qf,0,down)"}
    assert_leveling_invariants(fig1, prime)
    assert_up_down_cycles_weigh_nothing(prime)


def test_fig2_prime_invariants(fig2):
    prime = build_mprime(fig2, reach_sets(fig2))
    assert prime.period == 6
    assert_leveling_invariants(fig2, prime)
    assert_up_down_cycles_weigh_nothing(prime)


def test_up_down_check_rejects_a_planted_nonzero_cycle(fig1):
    prime = build_mprime(fig1, reach_sets(fig1))
    up = next(t for t in prime.transitions if t.source.phase == UP == t.target.phase)
    back = TypedTransition(up.target, 1 - up.bit, up.source, up.output, up.rule, up.base)
    heavy = TypedTransition(up.target, up.bit, up.source, up.output, up.rule, up.base)
    self_loop = TypedTransition(up.source, up.bit, up.source, up.output, up.rule, up.base)

    def planted(*extra):
        return replace_transitions(prime, prime.transitions + extra)

    assert_up_down_cycles_weigh_nothing(planted(back))
    for extra in ((heavy,), (back, heavy), (self_loop,)):
        with pytest.raises(AssertionError):
            assert_up_down_cycles_weigh_nothing(planted(*extra))


def test_leveling_error_when_nothing_accepted():
    m = make_transducer(
        ["q0", "f"], "q0", ["f"], [("q0", 0, "q0", "a")], AB
    )
    with pytest.raises(LevelingError):
        build_mprime(m, reach_sets(m))


def test_random_machines_level_cleanly():
    rng = random.Random(31337)
    built = 0
    for _ in range(40):
        machine = random_machine(rng)
        report = reach_sets(machine)
        try:
            prime = build_mprime(machine, report)
        except LevelingError:
            continue
        built += 1
        assert_leveling_invariants(machine, prime)
        assert_up_down_cycles_weigh_nothing(prime)
    assert built >= 25


# --- runs: check, lift, project ------------------------------------------------------------


def run_for_input(machine: Transducer, word: str):
    """Some accepting run over `word`, by depth-first search."""

    def dfs(state, i, acc):
        if i == len(word):
            return acc if state in machine.finals else None
        for t in machine.transitions:
            if t.source == state and t.bit == int(word[i]):
                hit = dfs(t.target, i + 1, acc + [t])
                if hit is not None:
                    return hit
        return None

    return dfs(machine.initial, 0, [])


def test_check_run_rejects_bad_runs(fig1):
    run = run_for_input(fig1, "0011")
    assert run is not None
    check_run(fig1, run)
    with pytest.raises(ValueError):
        check_run(fig1, run[1:])  # does not start at the initial state
    with pytest.raises(ValueError):
        check_run(fig1, run[:-1])  # unbalanced input
    with pytest.raises(ValueError):
        check_run(fig1, [])  # fig1 does not accept the empty word


def test_lift_project_round_trip_on_fixture_runs(fig1, fig2):
    for machine in (fig1, fig2):
        prime = build_mprime(machine, reach_sets(machine))
        for u in balanced_words_up_to(10):
            run = run_for_input(machine, u) if u else None
            if run is None:
                continue
            lifted = lift_run(machine, run, prime=prime)
            assert project_run(lifted) == run
            assert run_input_word(run) == u
            # the lifted walk is connected and accepting in M'
            assert lifted[0].source == prime.initial
            assert lifted[-1].target in prime.finals
            for a, b in zip(lifted, lifted[1:]):
                assert a.target == b.source


def test_lift_reports_levels_beyond_the_period(fig1):
    run = run_for_input(fig1, "0" * 4 + "1" * 4)
    lifted = lift_run(fig1, run, prime=build_mprime(fig1, reach_sets(fig1)))
    phases = [t.source.phase for t in lifted] + [lifted[-1].target.phase]
    assert phases[0] == UP and phases[-1] == DOWN
    assert EQ in phases


# --- bounded language comparison --------------------------------------------------------------


def test_bounded_language_equal_on_small_caps(fig1):
    prime = build_mprime(fig1, reach_sets(fig1))
    equal, witness, truncated = bounded_language_equal(fig1, prime, 6, output_cap=72)
    assert equal and witness is None
    # fig1 outputs contain b*, so truncation is inevitable
    assert truncated


def _drop_transition(prime, doomed):
    return replace_transitions(prime, tuple(t for t in prime.transitions if t is not doomed))


def test_bounded_language_equal_spots_a_missing_rule(fig1, fig2):
    # fig1 reaches its mod-period band at depth 2, so every high-band step
    # matters for some input of length <= 8 and the comparison must notice.
    prime1 = build_mprime(fig1, reach_sets(fig1))
    doomed = next(t for t in prime1.transitions if t.rule == "iii")
    equal, witness, _ = bounded_language_equal(
        fig1, _drop_transition(prime1, doomed), 8, output_cap=96
    )
    assert not equal
    assert witness is not None

    # fig2 only climbs that high on much longer inputs; cut its very first
    # low step instead, which empties the whole desk-scale language.
    prime2 = build_mprime(fig2, reach_sets(fig2))
    first = next(
        t for t in prime2.transitions if t.source == prime2.initial and t.rule == "i"
    )
    equal, witness, _ = bounded_language_equal(fig2, _drop_transition(prime2, first), 12, output_cap=40)
    assert not equal
    assert witness is not None


def test_bounded_language_adds_the_empty_input():
    # Accepting only the empty input, the language is the ε automaton
    # alone, which stays trimmed for the truncation test.
    only_empty = make_transducer(["q"], "q", ["q"], [("q", 1, "q", "a")], AB)
    assert bounded_language(only_empty, 4) == regular.epsilon_automaton(AB)
    both = make_transducer(["q"], "q", ["q"], [("q", 0, "q", "a"), ("q", 1, "q", "b")], AB)
    assert regular.words_up_to(bounded_language(both, 4), 4) == ["", "aabb", "ab", "abab"]
    not_empty = make_transducer(
        ["q", "f"], "q", ["f"], [("q", 0, "q", "a"), ("q", 1, "f", "b")], AB
    )
    assert bounded_language(not_empty, 4) == bounded_outputs(not_empty, 4)


def test_bounded_language_equal_epsilon_cases():
    m = make_transducer(["q"], "q", ["q"], [("q", 0, "q", "a")], AB)
    prime = build_mprime(m, reach_sets(m))
    equal, witness, _ = bounded_language_equal(m, prime, 4, output_cap=32)
    assert equal, witness


# --- one automaton for the outputs of all bounded inputs --------------------------


def _per_word_unions(machine, nmax: int):
    """Per-word oracle: for n = 0..nmax, the union of the outputs over the
    nonempty balanced inputs of length ≤ n, each input stepped on its own."""
    acc = regular.empty_automaton(machine.alphabet)
    unions = []
    for n in range(nmax + 1):
        for u in balanced_words_up_to(n):
            if len(u) != n or not u:
                continue
            if isinstance(machine, Transducer):
                acc = regular.union_automata(acc, language_of_input(machine, u))
                continue
            per_state = step_language(machine, u)
            for f in sorted(machine.finals):
                if f in per_state:
                    acc = regular.union_automata(acc, per_state[f])
        unions.append(acc)
    return unions


def _oracle_machines():
    rng = random.Random(20240605)
    machines = [random_machine(rng) for _ in range(200)]
    # ε and a* outputs, on machines whose initial state is final.
    machines.append(
        make_transducer(["q"], "q", ["q"], [("q", 0, "q", "eps"), ("q", 1, "q", "a*")], AB)
    )
    machines.append(
        make_transducer(
            ["p", "q"], "p", ["p", "q"],
            [("p", 0, "q", "a*"), ("q", 0, "q", "eps"), ("q", 1, "q", "b"),
             ("q", 1, "p", "eps"), ("p", 1, "p", "ab")],
            AB,
        )
    )
    return machines


def test_bounded_outputs_match_the_per_word_union(fig1, fig2):
    checked = primes = 0
    for machine in [fig1, fig2] + _oracle_machines():
        subjects = [machine]
        try:
            subjects.append(build_mprime(machine, reach_sets(machine)))
        except (LevelingError, CertificationError):
            pass
        for subject in subjects:
            oracle = _per_word_unions(subject, 6)
            for nmax in range(7):
                glued = bounded_outputs(subject, nmax)
                assert equivalent(glued, oracle[nmax]), (subject, nmax)
                assert regular.trim(glued).n == glued.n, (subject, nmax)
                checked += 1
            primes += subject is not machine
    assert primes >= 100 and checked >= 7 * 300


# One state with three opening and three closing self-loops: the input
# words grow exponentially with the cap, the configurations quadratically.
SIX_LOOPS = """alphabet a b
states s
initial s
final s
trans s 0 s a
trans s 0 s a*
trans s 0 s ab
trans s 1 s b*a
trans s 1 s a(b+a)
trans s 1 s b
"""


def test_bounded_outputs_of_the_six_loop_machine_have_a_pinned_size():
    machine = parse_fixture(SIX_LOOPS).value
    assert [bounded_outputs(machine, cap).n for cap in (6, 8)] == [61, 101]


# --- rule-generated arcs against the pair scan ---------------------------------------------


def test_rule_generated_arcs_match_the_pair_scan():
    """``build_mprime`` generates each transition's copies from the rules;
    the old scan of every (source type, target type) pair gives the same
    states, finals and transitions, in the same order, with the same
    rules and bases."""
    compared = 0
    for machine in leveling_machines():
        try:
            report = reach_sets(machine)
            prime = build_mprime(machine, report)
        except (CertificationError, LevelingError):
            continue
        states, finals, transitions = leveled_by_pairs(machine, report)
        assert prime.states == states, machine.transitions
        assert prime.finals == finals, machine.transitions
        assert prime.transitions == transitions, machine.transitions
        compared += 1
    assert compared >= 600, compared
