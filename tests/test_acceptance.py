"""End-to-end acceptance checks, one test per shipped guarantee.

Each test carries its own wall-clock budget so a regression that melts
performance shows up here rather than in someone's pipeline.  Expected
values are frozen; the randomized batches use fixed seeds.
"""

import math
import os
import random
import time

from conftest import fixture_path, random_machine
from oracles import project_run, up_union, worked_close_image
from test_components import ladder
from test_counterset import complete_machine, random_upset, realize, row_meet
from test_harness import fig1_expected_words
from test_transducer import (
    SIX_LOOPS,
    assert_leveling_invariants,
    assert_up_down_cycles_weigh_nothing,
)

from ocrank import cli, harness
from ocrank.counterset import reach_sets, render_upset
from ocrank.rank import (
    OMEGA,
    ZERO,
    Ordinal,
    RankBound,
    RocAtom,
    RocConcat,
    expr_rank_bound,
    ord_add,
    transducer_rank_bound,
)
from ocrank.transducer import (
    LevelingError,
    TypedState,
    bounded_language_equal,
    build_mprime,
    check_run,
    lift_run,
    minimal_normalize,
)


def assert_within(t0: float, budget: float) -> None:
    took = time.perf_counter() - t0
    assert took < budget, f"took {took:.2f}s, budget {budget:g}s"


# The full counter-set table for the nine-state desk example, exactly as the
# CLI prints it.
FIG2_NSET_TABLE = [
    "q0: N- = {3t} | N+ = {t} | N = {3t}",
    "q1: N- = {1+3t} | N+ = {t} | N = {1+3t}",
    "q2: N- = {2+3t} | N+ = {t} | N = {2+3t}",
    "q3: N- = {2+3t} | N+ = {1+t} | N = {2+3t}",
    "q4: N- = {2+3t} | N+ = {2} ∪ {1+2t} | N = {2} ∪ {5+6t}",
    "q5: N- = {t} | N+ = {2t} | N = {2t}",
    "q6: N- = {t} | N+ = {1+2t} | N = {1+2t}",
    "q7: N- = {1+3t} | N+ = {1} | N = {1}",
    "q8: N- = {3t} | N+ = {0} | N = {0}",
]


def test_01_desk_example_counter_sets(capsys):
    t0 = time.perf_counter()
    code = cli.main(["nsets", fixture_path("fig2.oct")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "P = 6"
    assert lines[1:10] == FIG2_NSET_TABLE
    assert_within(t0, 1.0)


def test_02_close_image_of_worked_regex():
    t0 = time.perf_counter()
    image = worked_close_image("(000+01)*0(1(11)*+11)")
    assert render_upset(image) == "{t}"
    assert_within(t0, 1.0)


def _desk_example_fragment() -> tuple[list[TypedState], list[tuple]]:
    """The hand-drawn corner of the leveled desk example: 33 states, 39 arrows."""

    def phase(q: str, d: int) -> str:
        if d >= 6:
            return "eq"
        return "down" if q in ("q5", "q6", "q8") else "up"

    def ts(q: str, d: int) -> TypedState:
        return TypedState(q, d, phase(q, d))

    nodes: list[TypedState] = []
    for q, levels in [
        ("q0", (0, 3, 6, 9)),
        ("q1", (1, 4, 7, 10)),
        ("q2", (2, 5, 8, 11)),
        ("q3", (2, 5, 8, 11)),
        ("q4", (2, 5, 11)),
        ("q5", (0, 2, 4, 6, 8, 10)),
        ("q6", (1, 3, 5, 7, 9, 11)),
        ("q7", (1,)),
        ("q8", (0,)),
    ]:
        nodes.extend(ts(q, d) for d in levels)

    edges: list[tuple] = []
    for d in (0, 3, 6, 9):
        edges.append((ts("q0", d), 0, ts("q1", d + 1)))
    for d in (1, 4, 7, 10):
        edges.append((ts("q1", d), 0, ts("q2", d + 1)))
        edges.append((ts("q1", d), 0, ts("q3", d + 1)))
    for d in (1, 4, 10):
        edges.append((ts("q1", d), 0, ts("q4", d + 1)))
    edges.append((ts("q2", 2), 0, ts("q0", 3)))
    edges.append((ts("q2", 5), 0, ts("q0", 6)))
    edges.append((ts("q2", 8), 0, ts("q0", 9)))
    edges.append((ts("q2", 11), 0, ts("q0", 6)))
    for d in (2, 5, 8, 11):
        edges.append((ts("q3", d), 1, ts("q1", d - 1)))
    edges.append((ts("q4", 2), 1, ts("q7", 1)))
    edges.append((ts("q4", 5), 1, ts("q5", 4)))
    edges.append((ts("q4", 11), 1, ts("q5", 10)))
    for d in (2, 4, 6, 8, 10):
        edges.append((ts("q5", d), 1, ts("q6", d - 1)))
    edges.append((ts("q5", 6), 1, ts("q6", 11)))
    for d in (1, 3, 5, 7, 9, 11):
        edges.append((ts("q6", d), 1, ts("q5", d - 1)))
    edges.append((ts("q7", 1), 1, ts("q8", 0)))
    return nodes, edges


def test_03_leveled_desk_example_contains_fragment(fig2):
    t0 = time.perf_counter()
    prime = build_mprime(fig2, reach_sets(fig2))
    nodes, edges = _desk_example_fragment()
    assert len(nodes) == 33 and len(edges) == 39

    states = set(prime.states)
    missing = [s for s in nodes if s not in states]
    assert not missing, f"missing leveled states: {missing}"

    arrows = {(t.source, t.bit, t.target) for t in prime.transitions}
    absent = [e for e in edges if e not in arrows]
    assert not absent, f"missing leveled transitions: {absent}"

    assert prime.states[prime.initial] == TypedState("q0", 0, "up")
    assert {prime.states[x] for x in prime.finals} == {
        TypedState("q5", 0, "down"),
        TypedState("q8", 0, "down"),
    }
    assert_within(t0, 1.0)


def test_04_leveling_preserves_behaviour_on_short_inputs(fig1, fig2):
    t0 = time.perf_counter()
    for machine in (fig1, fig2):
        prime = build_mprime(machine, reach_sets(machine))
        equal, witness, _ = bounded_language_equal(
            machine, prime, 12, output_cap=40
        )
        assert equal, f"disagree on {witness!r}"
    assert_within(t0, 30.0)


def test_05_enumeration_matches_closed_form(fig1):
    t0 = time.perf_counter()
    result = harness.enumerate(fig1, 8, 12)
    expected = sorted(fig1_expected_words(4, 12))
    assert result.words == expected
    assert len(result.words) == 210
    assert_within(t0, 5.0)


def test_06_concatenation_climbs_one_omega_per_factor(fig1):
    t0 = time.perf_counter()
    atom = RocAtom(fig1)
    exprs = {1: atom, 2: RocConcat(atom, atom)}
    exprs[3] = RocConcat(exprs[2], atom)
    for k in (1, 2, 3):
        result = expr_rank_bound(exprs[k])
        assert isinstance(result, RankBound), result
        assert Ordinal(k, 0) <= result.value < Ordinal(k + 1, 0), (k, result)
    assert_within(t0, 10.0)


def test_07_iterating_the_two_root_machine_is_flagged_dense(tmp_path, capsys):
    t0 = time.perf_counter()
    loop = tmp_path / "loop.oct"
    loop.write_text(f"expr plus {fixture_path('fig1.oct')}\n", encoding="utf-8")
    code = cli.main(["rank", str(loop)])
    out = capsys.readouterr().out
    assert code == 2
    assert "word1: ca" in out
    assert "word2: cba" in out
    assert_within(t0, 5.0)


def test_08a_random_machines_level_with_all_invariants():
    t0 = time.perf_counter()
    rng = random.Random(20250811)
    built = 0
    for _ in range(200):
        machine = random_machine(rng)
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except LevelingError:
            continue
        built += 1
        assert_leveling_invariants(machine, prime)
        assert_up_down_cycles_weigh_nothing(prime)
    assert built >= 150, f"only {built} of 200 machines accept anything"
    assert_within(t0, 120.0)


def test_08b_counter_set_arithmetic_against_pointwise_sets():
    t0 = time.perf_counter()
    rng = random.Random(20250813)
    for _ in range(500):
        s1, s2 = random_upset(rng), random_upset(rng)
        bound = 10 * math.lcm(s1.period, s2.period) + max(s1.threshold, s2.threshold)
        r1, r2 = realize(s1, bound), realize(s2, bound)
        assert realize(row_meet(s1, s2), bound) == (r1 & r2), (s1, s2)
        assert realize(up_union(s1, s2), bound) == (r1 | r2), (s1, s2)
    assert_within(t0, 30.0)


def test_08c_counter_sets_agree_with_search(fig1, fig2):
    t0 = time.perf_counter()
    machines = [fig1, fig2]
    rng = random.Random(20250812)
    machines.extend(random_machine(rng) for _ in range(100))
    for machine in machines:
        report = reach_sets(machine)
        oracle = harness.upset_oracle(machine, 20)
        for q in machine.states:
            for field in ("minus", "plus", "meet"):
                got = realize(getattr(report, field)[q], 20)
                assert got == getattr(oracle, field)[q], (machine.states, q, field)
    assert_within(t0, 60.0)


def test_08d_ordinal_arithmetic_laws():
    # Three-variable laws run over anchor points instead of the cubed grid:
    # addition only branches on whether the right summand reaches the first
    # limit, so a small grid already exercises every branch pair.
    t0 = time.perf_counter()
    grid = [Ordinal(a, b) for a in range(21) for b in range(21)]
    small = [Ordinal(a, b) for a in range(7) for b in range(7)]
    anchors = [ZERO, Ordinal(0, 7), OMEGA, Ordinal(3, 5), Ordinal(20, 20)]

    for x in grid:
        assert ord_add(ZERO, x) == x
        assert ord_add(x, ZERO) == x

    for x in grid:
        for y in grid:
            total = ord_add(x, y)
            assert total >= x and total >= y
            best = max(x, y)
            assert best in (x, y) and best >= x and best >= y

    for x in small:
        for y in small:
            for z in small:
                assert ord_add(ord_add(x, y), z) == ord_add(x, ord_add(y, z))

    for z in anchors:
        for x in grid:
            for y in grid:
                if x < y:
                    assert ord_add(z, x) < ord_add(z, y)
                    assert ord_add(x, z) <= ord_add(y, z)
    assert_within(t0, 5.0)


def test_08e_runs_lift_and_project_losslessly(fig1, fig2):
    t0 = time.perf_counter()
    for machine, least in ((fig1, 5), (fig2, 2)):
        runs = harness.accepting_runs(machine, 10)
        assert len(runs) >= least
        prime = build_mprime(machine, reach_sets(machine))
        for run in runs:
            check_run(machine, run)
            lifted = [prime.transitions[k] for k in lift_run(machine, run, prime)]
            assert project_run(lifted) == run
    assert_within(t0, 30.0)


def test_08f_counter_sets_of_a_complete_machine_in_polynomial_time():
    # Ten states with every transition: simple-cycle enumeration does not
    # finish here, per-component cycle data takes a fraction of a second.
    machine = complete_machine(10)
    t0 = time.perf_counter()
    for m in (machine, minimal_normalize(machine)):
        report = reach_sets(m)
        assert report.period == 2
    assert_within(t0, 5.0)


def test_08g_bounded_outputs_of_a_six_loop_machine_in_polynomial_time(tmp_path, capsys):
    # Stepping each balanced input on its own takes over 30 s (enumerate)
    # and over 3 s (check) on a 2-core host; one automaton over the
    # (state, counter, step) configurations takes a fraction of a second.
    path = tmp_path / "six.oct"
    path.write_text(SIX_LOOPS, encoding="utf-8")
    t0 = time.perf_counter()
    code = cli.main(["enumerate", str(path), "--input-cap", "8", "--output-cap", "12"])
    captured = capsys.readouterr()
    assert code == 0
    words = captured.out.split("\n")[:-1]
    assert (len(words), words[:2], words[-1]) == (7715, ["", "a"], "bbbbbbbbbbba")
    assert captured.err == "note: some outputs exceeded --output-cap\n"
    assert_within(t0, 2.0)

    t0 = time.perf_counter()
    code = cli.main(["check", str(path), "--input-cap", "6", "--output-cap", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok   bounded-equality: languages agree on inputs up to 6" in out
    assert_within(t0, 2.0)


def test_08h_cycle_roots_of_large_components_in_one_pass_each():
    # One labelling per component, and a cycle language only for a reported
    # clash, not one language and one inclusion test per anchor: the
    # per-anchor loop took 2.3 s on complete n = 12 on a 2-core host.
    for machine, bound, status in (
        (complete_machine(12), "72", "Certified"),
        (ladder(8, 9), "w+73", "ConditionalOnScattered"),
    ):
        t0 = time.perf_counter()
        result = transducer_rank_bound(machine)
        assert isinstance(result, RankBound)
        assert (result.value.render(), result.status) == (bound, status)
        assert_within(t0, 1.0)


def test_08i_counter_sets_of_a_24_state_complete_machine_level_by_level(tmp_path, capsys):
    # One Dyck closure and a level recurrence over 24-bit masks, not a
    # search over every (state, counter) pair up to cap + n²: the search
    # took 1.17 s on a 2-core host.
    path = tmp_path / "complete24.oct"
    path.write_text(cli.render_fixture(cli.Fixture(complete_machine(24))), encoding="utf-8")
    t0 = time.perf_counter()
    code = cli.main(["nsets", str(path)])
    out = capsys.readouterr().out
    states = [f"s{i}" for i in range(24)]
    assert code == 0
    assert out.splitlines() == (
        ["P = 2"]
        + [f"{q}: N- = {{t}} | N+ = {{t}} | N = {{t}}" for q in states]
        + [f"tau({q}) = {{0, 1, 2, 3}}" for q in states]
    )
    assert_within(t0, 0.3)


def coprime_ladders(pairs: list[tuple[int, int]]) -> str:
    """Fixture text of one ladder per (a, b), all from state i to state f.

    A ladder has an opens ring of length a, entered from i, and a closes
    ring of length b, entered from the opens ring's first state, whose
    first state closes into f.  The counter levels repeat with the lcm of
    all the lengths as their period P.
    """
    states, trans = ["i"], []
    for k, (a, b) in enumerate(pairs):
        opens = [f"o{k}_{j}" for j in range(a)]
        closes = [f"c{k}_{j}" for j in range(b)]
        states += opens + closes
        trans.append(f"trans i 0 {opens[0]} c")
        trans += [f"trans {opens[j]} 0 {opens[(j + 1) % a]} c" for j in range(a)]
        trans.append(f"trans {opens[0]} 1 {closes[0]} b*a")
        trans += [f"trans {closes[j]} 1 {closes[(j + 1) % b]} b*a" for j in range(b)]
        trans.append(f"trans {closes[0]} 1 f a")
    lines = ["alphabet a b c", "states " + " ".join(states + ["f"]), "initial i", "final f"]
    return "\n".join(lines + trans) + "\n"


COPRIME_LADDERS_210 = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "coprime_ladders_210.oct"
)


def test_09_coprime_ladders_rank_within_their_budgets(tmp_path, capsys):
    # Every stage after the counter sets is sized by the types, up to 2P per
    # state, and P is the lcm of the ring lengths.  On a 2-core host rank
    # took 0.03 s at P = 210 and 0.65 s at P = 2,310, in process.
    committed = cli.load_fixture_file(COPRIME_LADDERS_210)
    generated = cli.parse_fixture(coprime_ladders([(2, 3), (5, 7)]))
    assert cli.render_fixture(committed) == cli.render_fixture(generated)
    path = tmp_path / "ladders.oct"
    path.write_text(coprime_ladders([(2, 3), (5, 7), (11, 1)]), encoding="utf-8")
    for fixture, period, budget in ((COPRIME_LADDERS_210, 210, 0.5), (str(path), 2310, 4.0)):
        t0 = time.perf_counter()
        code = cli.main(["rank", fixture])
        captured = capsys.readouterr()
        assert_within(t0, budget)
        assert (code, captured.err) == (0, "")
        assert captured.out.splitlines()[:2] == [
            f"bound: w+{period + 1}", "status: ConditionalOnScattered",
        ]
        assert cli.main(["nsets", fixture]) == 0
        assert capsys.readouterr().out.startswith(f"P = {period}\n")


def test_10_check_with_a_huge_output_cap_walks_no_longer_than_the_automaton(capsys):
    # The truncation test walks at most one step more than the automaton
    # has states: past that a walk repeats a state, whose loop pumps words
    # past any length.  Walking output-cap steps took minutes at 10^9.
    fig1 = fixture_path("fig1.oct")
    assert cli.main(["check", fig1, "--output-cap", "100000"]) == 0
    expected = capsys.readouterr()
    t0 = time.perf_counter()
    code = cli.main(["check", fig1, "--output-cap", "1000000000"])
    assert_within(t0, 2.0)
    assert (code, capsys.readouterr()) == (0, expected)
    assert len(expected.out.splitlines()) == 5


def test_11_enumerating_an_iteration_builds_one_automaton(tmp_path, capsys):
    # One final initial state with the loops 0/b*a, 0/b, 0/a(b+a),
    # 1/a(b+a), 1/eps: its iteration has the empty word and the 32,766
    # words of length 1 to 14 over a and b.  Joining word sets pairwise
    # took 13-15 s on a 2-core host.
    machine = tmp_path / "loops.oct"
    machine.write_text(cli.render_fixture(cli.Fixture(random_machine(random.Random(43)))))
    path = tmp_path / "iter.oct"
    path.write_text("expr plus loops.oct\n")
    t0 = time.perf_counter()
    code = cli.main(["enumerate", str(path), "--input-cap", "6", "--output-cap", "14"])
    captured = capsys.readouterr()
    assert_within(t0, 2.0)
    assert (code, captured.err) == (0, "")
    words = captured.out.splitlines()
    assert words[0] == "" and len(words[1:]) == 32766 == 2**15 - 2
    assert (words[1:4], words[-1]) == (["a", "aa", "aaa"], "b" * 14)


def test_12_density_probe_expands_each_walk_node_once():
    # Five loops at one state, two of whose outputs have ε as shortest
    # word: many walks reach the state with the same word after as many
    # steps, and walking each of them again took 1.3 s on a 2-core host.
    machine = cli.parse_fixture(
        "alphabet a b\nstates s0\ninitial s0\nfinal s0\n"
        "trans s0 0 s0 a+b\ntrans s0 1 s0 eps\ntrans s0 0 s0 a*\n"
        "trans s0 1 s0 a(b+a)\ntrans s0 1 s0 b*a\n"
    ).value
    t0 = time.perf_counter()
    witness = harness.probe_density(RocAtom(machine))
    assert_within(t0, 0.25)
    assert witness is None
