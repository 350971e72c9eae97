"""Ordinal arithmetic and the machine/expression rank pipeline."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import random_machine
from oracles import scc_index_of
from test_acceptance import COPRIME_LADDERS_210
from test_components import ladder
from test_counterset import complete_machine
from ocrank import cli, rank, regular
from ocrank.rank import (
    CERTIFIED,
    CONDITIONAL,
    OMEGA,
    ZERO,
    MachineAnalysis,
    NotScattered,
    Ordinal,
    RankBound,
    RocAtom,
    RocConcat,
    RocPlus,
    Unknown,
    analyze_machine,
    edge_bounds,
    expr_rank_bound,
    ord_add,
    transducer_rank_bound,
)
from ocrank.components import FullyCertified, ZeroCertified
from ocrank.counterset import default_counter_cap
from ocrank.transducer import make_transducer, minimal_normalize
from ocrank.words import Alphabet

AB = Alphabet(("a", "b"))

GRID = [Ordinal(a, b) for a in range(5) for b in range(5)]


# --- ordinals ----------------------------------------------------------------------


def test_ordinal_ordering_matches_lexicographic_pairs():
    for x, y in itertools.product(GRID, GRID):
        assert (x < y) == ((x.a, x.b) < (y.a, y.b))
        assert (x == y) == ((x.a, x.b) == (y.a, y.b))
        assert (x <= y) == ((x.a, x.b) <= (y.a, y.b))


@pytest.mark.parametrize(
    "ordinal,text",
    [
        (Ordinal(0, 0), "0"),
        (Ordinal(0, 5), "5"),
        (Ordinal(1, 0), "w"),
        (Ordinal(1, 5), "w+5"),
        (Ordinal(2, 0), "w*2"),
        (Ordinal(2, 3), "w*2+3"),
    ],
)
def test_ordinal_render(ordinal, text):
    assert ordinal.render() == text
    assert str(ordinal) == text


def test_ordinal_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        Ordinal(-1, 0)
    with pytest.raises(ValueError):
        Ordinal(0, -3)


def test_ordinal_constants():
    assert ZERO == Ordinal(0, 0)
    assert OMEGA == Ordinal(1, 0)


def test_ord_add_identity_and_examples():
    for x in GRID:
        assert ord_add(x, ZERO) == x
        assert ord_add(ZERO, x) == x
    # a finite left addend is absorbed by a limit on the right
    assert ord_add(Ordinal(0, 9), OMEGA) == OMEGA
    assert ord_add(OMEGA, Ordinal(0, 9)) == Ordinal(1, 9)
    assert ord_add(Ordinal(1, 3), Ordinal(1, 3)) == Ordinal(2, 3)


def test_ord_add_associative_on_grid():
    for x, y, z in itertools.product(GRID, GRID, GRID):
        assert ord_add(ord_add(x, y), z) == ord_add(x, ord_add(y, z))


def test_ord_add_monotonicity():
    for x, y in itertools.product(GRID, GRID):
        if x <= y:
            for z in GRID:
                assert ord_add(z, x) <= ord_add(z, y)  # strictly monotone side
                assert ord_add(x, z) <= ord_add(y, z)  # weakly monotone side


def test_ord_max_laws():
    for x, y in itertools.product(GRID, GRID):
        m = max(x, y)  # the order the rank DP takes its maxima in
        assert m in (x, y) and m >= x and m >= y
        assert max(x, y) == max(y, x)
        assert max(x, x) == x


# --- shared machines ----------------------------------------------------------------


@pytest.fixture(scope="module")
def star_exit():
    # one a*-labeled step, then the accepting step: order bound 1
    return make_transducer(
        ["q0", "q1", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q1", "a*"), ("q1", 1, "f", "a")],
        AB,
    )


@pytest.fixture(scope="module")
def void():
    # the final state is unreachable, so no input is accepted
    return make_transducer(["q", "f"], "q", ["f"], [("q", 0, "q", "a")], AB)


@pytest.fixture(scope="module")
def deep_chain():
    # accepts only the depth-5 input; outputs {a^10, b a^9}
    names = [f"s{i}" for i in range(11)]
    trans = []
    for i in range(5):
        trans.append((names[i], 0, names[i + 1], "a+b" if i == 0 else "a"))
    for i in range(5, 10):
        trans.append((names[i], 1, names[i + 1], "a"))
    return make_transducer(names, "s0", ["s10"], trans, AB)


# --- machine analysis ---------------------------------------------------------------


def test_fig1_bound(fig1):
    result = transducer_rank_bound(fig1)
    assert isinstance(result, RankBound)
    assert result.value == Ordinal(1, 3)
    assert result.status == CONDITIONAL
    assert "accepting edge (q0,1,up) -> (qf,0,down): 1 [Certified]" in result.derivation
    assert (
        "accepting edge (qf,1,down) -> (qf,0,down): w+3 [ConditionalOnScattered]"
        in result.derivation
    )


def test_fig1_analysis_artifacts(fig1):
    analysis = analyze_machine(fig1)
    assert isinstance(analysis, MachineAnalysis)
    assert analysis.prime is not None
    assert len(analysis.sccs) == 6
    nontrivial = [v for c, v in analysis.verdicts.items() if not analysis.sccs[c].trivial]
    assert sum(isinstance(v, FullyCertified) for v in nontrivial) == 1
    assert sum(isinstance(v, ZeroCertified) for v in nontrivial) == 1
    direct = transducer_rank_bound(fig1)
    assert (direct.value, direct.status) == (
        analysis.result.value,
        analysis.result.status,
    )


def test_alternating_machine_is_certified_finite():
    # the initial state sits on the input cycle and must be split first
    m = make_transducer(
        ["q0", "q1"],
        "q0",
        ["q0"],
        [("q0", 0, "q1", "a"), ("q1", 1, "q0", "b")],
        AB,
    )
    result = transducer_rank_bound(m)
    assert isinstance(result, RankBound)
    assert result.value == Ordinal(0, 4)
    assert result.status == CERTIFIED
    assert analyze_machine(m).machine.initial == "q0_src"
    assert any("q0_snk" in line for line in result.derivation)


def test_star_exit_bound(star_exit):
    result = transducer_rank_bound(star_exit)
    assert result.value == Ordinal(0, 1)
    assert result.status == CERTIFIED


def test_void_machine_bound_is_zero(void):
    result = transducer_rank_bound(void)
    assert result.value == ZERO
    assert result.status == CERTIFIED
    assert result.derivation == ("no accepted input; bound 0",)


def test_deep_chain_bound(deep_chain):
    result = transducer_rank_bound(deep_chain)
    assert result.value == ZERO
    assert result.status == CERTIFIED


def test_dense_output_edge_is_fatal():
    m = make_transducer(
        ["q0", "q1", "f", "z"],
        "q0",
        ["f"],
        [("q0", 0, "q1", "(a+b)*"), ("q1", 1, "f", "a"), ("f", 0, "z", "a")],
        AB,
    )
    result = transducer_rank_bound(m)
    assert isinstance(result, NotScattered)
    assert (result.word1, result.word2) == ("a", "ba")
    assert result.description.startswith("output language of q0 -0-> q1")


# A quasi-dense output that no accepted run emits bears on nothing: on an
# edge out of a final state that no run leaves, on the only path of a
# machine that accepts no input (s0 opens and s1 cannot close), and on a
# close out of the initial state at counter 0 beside a path that gives aa.
DEAD_DENSE_EDGES = {
    "graph-dead": (
        ["f"],
        [("q0", 0, "q0", "a"), ("q0", 1, "f", "a"), ("f", 0, "z", "(a+b)*")],
        None,
    ),
    "no-accepted-input": (
        ["s1"], [("s0", 0, "s1", "(a+b)*")], ("no accepted input; bound 0",)
    ),
    "language-aa": (
        ["s2"],
        [("s0", 0, "s1", "a"), ("s1", 1, "s2", "a"), ("s0", 1, "s2", "(a+b)*")],
        ("accepting edge (s1,1,up) -> (s2,0,down): 0 [Certified]",),
    ),
}


@pytest.mark.parametrize("case", DEAD_DENSE_EDGES)
def test_dense_output_on_dead_edge_is_ignored(case):
    finals, trans, derivation = DEAD_DENSE_EDGES[case]
    states = sorted({q for t in trans for q in (t[0], t[2])})
    m = make_transducer(states, trans[0][0], finals, trans, AB)
    result = transducer_rank_bound(m)
    assert isinstance(result, RankBound)
    assert result.status == CERTIFIED
    if derivation is not None:
        assert (result.value, result.derivation) == (ZERO, derivation)


def shaped_machines(fig1, fig2):
    return (
        [fig1, fig2]
        + [ladder(k, j) for k in range(1, 5) for j in range(1, 5)]
        + [complete_machine(n) for n in range(1, 7)]
    )


def test_each_live_output_is_analysed_once(fig1, fig2):
    # The outputs that count are those of the transitions that the leveled
    # arcs copy: the transitions of accepted runs.
    calls = []
    analyse = regular.regular_scattered

    def counted(a):
        calls.append(a)
        return analyse(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regular, "regular_scattered", counted)
        for machine in shaped_machines(fig1, fig2):
            calls.clear()
            analysis = analyze_machine(machine)
            prime, m = analysis.prime, analysis.machine
            if prime is None:
                assert calls == [], machine.states
                continue
            outputs = {m.transitions[b].output for _, _, b, _ in prime.arcs}
            assert 0 < len(calls) <= len(outputs), (machine.states, len(calls), outputs)


def edge_bounds_per_feed(prime, sccs, verdicts, regrank):
    """The bound DP with one candidate per feed and out-edge, as an oracle."""
    scc_of = scc_index_of(sccs)
    initial_comp = scc_of[prime.initial]
    incoming = {c.index: [] for c in sccs}
    edges_of_comp = {c.index: [] for c in sccs}
    intra_max = {c.index: 0 for c in sccs}
    for i, (source, target, _, _) in enumerate(prime.arcs):
        cs, ct = scc_of[source], scc_of[target]
        if cs == ct:
            intra_max[cs] = max(intra_max[cs], regrank[i])
        else:
            incoming[ct].append(i)
            edges_of_comp[cs].append(i)
    bounds = {}
    for c in sccs:
        verdict = verdicts.get(c.index)
        for i in edges_of_comp[c.index]:
            r = regrank[i]
            if c.index == initial_comp:
                bounds[i] = RankBound(
                    Ordinal(0, r), CERTIFIED, (f"edge {i}: base {Ordinal(0, r)}",)
                )
                continue
            feeds = [bounds[j] for j in incoming[c.index] if j in bounds]
            if not feeds:
                continue
            if c.trivial:
                step, note = Ordinal(0, r), f"trivial +{r}"
            elif isinstance(verdict, FullyCertified):
                f_c = len(c.members) * (1 + intra_max[c.index]) + r
                step, note = Ordinal(0, f_c), f"fully certified +{f_c}"
            else:
                assert isinstance(verdict, ZeroCertified)
                step, note = OMEGA, "zero certified +w"
            best = None
            for fed in feeds:
                status = CONDITIONAL if isinstance(verdict, ZeroCertified) else fed.status
                cand = RankBound(ord_add(step, fed.value), status)
                if best is None or best.value < cand.value or (
                    best.value == cand.value
                    and best.status == CONDITIONAL
                    and status == CERTIFIED
                ):
                    best = cand
            top = max(f.value for f in feeds)
            bounds[i] = RankBound(
                best.value, best.status, (f"edge {i}: {note} onto {top} = {best.value}",)
            )
    return bounds


def test_edge_bounds_match_the_per_feed_oracle(fig1, fig2):
    rng = random.Random(20261018)
    machines = shaped_machines(fig1, fig2)
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(320)]
    machines.append(cli.load_fixture_file(COPRIME_LADDERS_210).value)  # P = 210
    compared = several_feeds = conditional = 0
    for machine in machines:
        analysis = analyze_machine(machine)
        prime = analysis.prime
        if prime is None or not isinstance(analysis.result, RankBound):
            continue
        regrank = {
            i: regular.regular_scattered(prime.base.compiled_output(tt.base)).rank
            for i, tt in enumerate(prime.transitions)
        }
        args = (prime, analysis.sccs, analysis.verdicts, regrank)
        assert edge_bounds(*args) == analysis.edge_bound
        # edge_bounds keeps each edge's (bound, status) and no derivation text.
        oracle = edge_bounds_per_feed(*args)
        assert analysis.edge_bound == {i: (b.value, b.status) for i, b in oracle.items()}
        compared += 1
        scc_of = scc_index_of(analysis.sccs)
        entries = [scc_of[target] for i, (_, target, _, _) in enumerate(prime.arcs)
                   if i in analysis.edge_bound]
        several_feeds += len(entries) > len(set(entries))
        conditional += any(status == CONDITIONAL for _, status in analysis.edge_bound.values())
    assert compared >= 150 and several_feeds >= 20 and conditional >= 10, (
        compared, several_feeds, conditional,
    )


# --- expressions ---------------------------------------------------------------------


def test_atom_bound_equals_machine_bound(fig1):
    direct = transducer_rank_bound(fig1)
    via_expr = expr_rank_bound(RocAtom(fig1))
    assert (via_expr.value, via_expr.status) == (direct.value, direct.status)


def test_concat_adds_with_right_factor_first(fig1, star_exit):
    a1 = RocAtom(star_exit)
    f1 = RocAtom(fig1)

    both_finite = expr_rank_bound(RocConcat(a1, a1))
    assert both_finite.value == Ordinal(0, 2)
    assert both_finite.status == CERTIFIED
    assert both_finite.derivation[-1] == "concat: 1 + 1 = 2"

    # a finite prefix factor survives next to the limit...
    left_finite = expr_rank_bound(RocConcat(a1, f1))
    assert left_finite.value == Ordinal(1, 4)
    assert left_finite.status == CONDITIONAL
    # ...while a finite suffix factor is absorbed by it
    right_finite = expr_rank_bound(RocConcat(f1, a1))
    assert right_finite.value == Ordinal(1, 3)

    k2 = expr_rank_bound(RocConcat(f1, f1))
    assert k2.value == Ordinal(2, 3)
    k3 = expr_rank_bound(RocConcat(RocConcat(f1, f1), f1))
    assert k3.value == Ordinal(3, 3)
    assert k3.status == CONDITIONAL


def test_concat_with_empty_factor(fig1, void):
    result = expr_rank_bound(RocConcat(RocAtom(void), RocAtom(fig1)))
    assert result.value == ZERO
    assert result.status == CERTIFIED
    assert result.derivation == ("concatenation with empty factor",)


def test_plus_single_root_is_certified():
    mono = make_transducer(
        ["q0", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q0", "b"), ("q0", 1, "f", "b"), ("f", 1, "f", "b")],
        AB,
    )
    result = expr_rank_bound(RocPlus(RocAtom(mono)))
    assert result.value == Ordinal(0, 1)
    assert result.status == CERTIFIED
    assert "powers of 'b'" in result.derivation[0]


def test_plus_fig1_is_not_scattered(fig1):
    result = expr_rank_bound(RocPlus(RocAtom(fig1)))
    assert isinstance(result, NotScattered)
    assert (result.word1, result.word2) == ("ca", "cba")
    assert "roots 'ca' vs 'cba'" in result.description


def test_plus_of_empty_and_epsilon(void):
    result = expr_rank_bound(RocPlus(RocAtom(void)))
    assert result.value == ZERO
    assert result.derivation == ("iteration of the empty language",)

    eps_only = make_transducer(["q"], "q", ["q"], [], AB)
    result = expr_rank_bound(RocPlus(RocAtom(eps_only)))
    assert result.value == ZERO
    assert result.derivation == ("iteration of {empty word}",)


def test_plus_beyond_probe_caps_is_unknown(deep_chain):
    result = expr_rank_bound(RocPlus(RocAtom(deep_chain)))
    assert isinstance(result, Unknown)
    assert "no distinct-root member pair" in result.reason


def test_verdicts_propagate_through_concat(fig1, deep_chain):
    bad = RocPlus(RocAtom(fig1))
    murky = RocPlus(RocAtom(deep_chain))
    assert isinstance(expr_rank_bound(RocConcat(RocAtom(fig1), murky)), Unknown)
    assert isinstance(expr_rank_bound(RocConcat(bad, RocAtom(fig1))), NotScattered)
    # refutation on the left wins over uncertainty on the right
    assert isinstance(expr_rank_bound(RocConcat(bad, murky)), NotScattered)


def test_each_atom_is_analysed_once(fig1, star_exit, void):
    calls = []
    analyse = rank.reach_sets

    def counted(machine, counter_cap=None):
        calls.append(machine)
        return analyse(machine, counter_cap)

    a, b, c = RocAtom(fig1), RocAtom(star_exit), RocAtom(fig1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank, "reach_sets", counted)
        # the iteration's over-approximation and member search level nothing
        result = expr_rank_bound(RocPlus(RocConcat(a, RocConcat(b, c))))
        assert isinstance(result, Unknown)
        assert len(calls) == 3
        # an empty left factor stops the concatenation before its right one
        calls.clear()
        result = expr_rank_bound(RocConcat(RocAtom(void), RocConcat(b, c)))
        assert result.derivation == ("concatenation with empty factor",)
        assert len(calls) == 1


def test_expr_rank_bound_rejects_foreign_objects():
    with pytest.raises(TypeError):
        expr_rank_bound(object())


def test_counter_cap_passthrough(fig1):
    capped = transducer_rank_bound(fig1, counter_cap=202)
    default = transducer_rank_bound(fig1)
    assert (capped.value, capped.status) == (default.value, default.status)


# --- metamorphic relations -------------------------------------------------------------


def outcome(machine):
    """The verdict's type, and a bound's value and status."""
    result = transducer_rank_bound(machine)
    if isinstance(result, RankBound):
        return "RankBound", result.value.render(), result.status
    return (type(result).__name__,)


def renamed_and_shuffled(machine, rng: random.Random):
    """``machine`` with its states renamed and its states and transitions
    listed in a shuffled order."""
    names = [f"r{i}" for i in range(len(machine.states))]
    rng.shuffle(names)
    rename = dict(zip(machine.states, names))
    states = list(names)
    rng.shuffle(states)
    trans = [(rename[t.source], t.bit, rename[t.target], t.output) for t in machine.transitions]
    rng.shuffle(trans)
    finals = [rename[q] for q in machine.finals]
    return make_transducer(states, rename[machine.initial], finals, trans, machine.alphabet)


def test_renaming_and_shuffling_keep_the_verdict():
    rng = random.Random(20261023)
    kinds = {"RankBound": 0, "NotScattered": 0}
    for _ in range(600):
        machine = random_machine(rng, max_states=6, max_transitions=10)
        want = outcome(machine)
        assert outcome(renamed_and_shuffled(machine, rng)) == want, machine
        kinds[want[0]] += 1
    assert min(kinds.values()) >= 100, kinds


def test_a_duplicated_transition_changes_no_verdict():
    # make_transducer keeps the first of each duplicate, so a copy after its
    # original gives the same machine, and one before it only moves the
    # transition; the fixture parser rejects duplicates, so this is a
    # library-level relation
    rng = random.Random(20261024)
    for _ in range(200):
        machine = random_machine(rng, max_states=6, max_transitions=10)
        trans = [(t.source, t.bit, t.target, t.output) for t in machine.transitions]
        i = rng.randrange(len(trans))
        later = trans[:]
        later.insert(rng.randint(i + 1, len(trans)), trans[i])
        anywhere = trans[:]
        anywhere.insert(rng.randint(0, len(trans)), trans[i])
        states = (machine.states, machine.initial, machine.finals)
        doubled = make_transducer(*states, later, machine.alphabet)
        assert doubled == machine
        assert transducer_rank_bound(doubled) == transducer_rank_bound(machine)
        moved = make_transducer(*states, anywhere, machine.alphabet)
        assert outcome(moved) == outcome(machine)


def with_a_dead_dense_pair(machine):
    """``machine`` with fresh states u and v, v final, and the transitions
    initial -1-> u -0-> v, both with output (a+b)*.  A run enters v one
    level above where it left the initial state, so above 0, and nothing
    leaves v: no accepted run takes the pair."""
    trans = [tuple(t) for t in machine.transitions]
    trans += [(machine.initial, 1, "u", "(a+b)*"), ("u", 0, "v", "(a+b)*")]
    return make_transducer(
        machine.states + ("u", "v"), machine.initial, machine.finals | {"v"}, trans,
        machine.alphabet,
    )


def test_a_counter_dead_dense_pair_changes_no_verdict():
    rng = random.Random(20261025)
    kinds = {"RankBound": 0, "NotScattered": 0}
    for _ in range(300):
        machine = random_machine(rng, max_states=6, max_transitions=10)
        # the extra states would raise the default cap
        cap = default_counter_cap(len(minimal_normalize(machine).states))
        want = analyze_machine(machine, cap).result
        assert analyze_machine(with_a_dead_dense_pair(machine), cap).result == want, machine
        kinds[type(want).__name__] += 1
    assert min(kinds.values()) >= 100, kinds
