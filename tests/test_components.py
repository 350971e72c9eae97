"""Component condensation, cycle weights, and cycle-output certification.

The condensation order is checked against networkx, the longest-path
potential against a plain simple-cycle enumeration, and the fixture
machine's components against hand-computed verdicts.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest

from ocrank import regular
from ocrank.components import (
    FullyCertified,
    QuasiDenseWitness,
    ZeroCertified,
    certify_component,
    condense,
)
from ocrank.counterset import CertificationError, reach_sets
from ocrank.regular import (
    compile_regex,
    expand_graph,
    longest_potential,
    parse_regex,
)
from ocrank.transducer import (
    LevelingError,
    Transition,
    TransducerPrime,
    TypedState,
    TypedTransition,
    build_mprime,
    make_transducer,
)
from ocrank.words import Alphabet, primitive_root, state_bits
from conftest import mask_bits, random_machine
from oracles import (
    arc_graph,
    arc_graph_certify,
    arc_graph_roots,
    cycle_outputs,
    equivalent,
    internal_transitions,
    is_empty_language,
    replace_transitions,
    scc_index_of,
    spliced_expand_graph,
    tight_typed,
    typed_members,
)
from test_counterset import complete_machine
from test_regular import arc_components, assert_cycle_roots_match

AB = Alphabet(("a", "b"))


def lang(rx: str, alphabet: Alphabet):
    return compile_regex(parse_regex(rx, alphabet), alphabet)


@pytest.fixture(scope="module")
def fig1_prime(fig1):
    return build_mprime(fig1, reach_sets(fig1))


@pytest.fixture(scope="module")
def fig1_sccs(fig1_prime):
    return condense(fig1_prime)


# --- condensation ------------------------------------------------------------------


def test_fig1_condensation_members(fig1_prime, fig1_sccs):
    got = {frozenset(fig1_prime.states[q].render() for q in c.members) for c in fig1_sccs}
    expected = {
        frozenset({"(q0,0,up)"}),
        frozenset({"(q0,1,up)"}),
        frozenset({"(q0,2,eq)", "(q0,3,eq)"}),
        frozenset({"(qf,2,eq)", "(qf,3,eq)"}),
        frozenset({"(qf,1,down)"}),
        frozenset({"(qf,0,down)"}),
    }
    assert got == expected
    for c in fig1_sccs:
        assert c.trivial == (len(c.members) == 1)
        phases = {s.phase for s in typed_members(c, fig1_prime)}
        assert phases == {c.phase}
    # every typed state lands in exactly one component
    index = scc_index_of(fig1_sccs)
    assert set(index) == set(range(len(fig1_prime.states)))


def test_condensation_is_topological(fig1_prime, fig1_sccs):
    index = scc_index_of(fig1_sccs)
    assert [c.index for c in fig1_sccs] == list(range(len(fig1_sccs)))
    for source, target, _, _ in fig1_prime.arcs:
        assert index[source] <= index[target]
        if index[source] != index[target]:
            assert index[source] < index[target]
    # the initial state's component comes first, the accepting one last
    assert index[fig1_prime.initial] == 0


def test_internal_transitions_count(fig1_prime, fig1_sccs):
    sizes = sorted(len(internal_transitions(c, fig1_prime)) for c in fig1_sccs)
    # two 2-cycles, four trivial components without self-loops
    assert sizes == [0, 0, 0, 0, 2, 2]


def _fake_prime(states, transitions):
    base = make_transducer(["x"], "x", ["x"], [("x", 0, "x", "a")], AB)
    empty = TransducerPrime(
        period=2,
        states=tuple(states),
        initial=0,
        finals=frozenset(),
        arcs=(),
        alphabet=AB,
        accepts_epsilon=False,
        base=base,
    )
    return replace_transitions(empty, transitions)


def test_the_leveled_machine_names_its_states_by_number():
    """The initial state, the final states, the members of each component
    and the anchors of each certified verdict's roots are numbers into
    ``prime.states``, as the ends of the arcs are: on the golden corpus's
    machines (fig1, fig2 and 60 random ones) and 200 more random machines."""
    from golden_cli import corpus_fixtures
    from ocrank.cli import parse_fixture

    machines = [parse_fixture(text).value for text, _ in corpus_fixtures().values()]
    rng = random.Random(20261023)
    machines += [random_machine(rng) for _ in range(200)]
    leveled = rooted = 0
    for machine in machines:
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (LevelingError, CertificationError):
            continue
        n = len(prime.states)
        assert type(prime.initial) is int and 0 <= prime.initial < n, prime.initial
        assert type(prime.finals) is frozenset, prime.finals
        assert all(type(x) is int and 0 <= x < n for x in prime.finals), prime.finals
        sccs = condense(prime)
        for c in sccs:
            assert all(type(q) is int for q in c.members), c.members
            assert c.members == sorted(set(c.members)), c.members
        assert sorted(q for c in sccs for q in c.members) == list(range(n))
        for c in sccs:
            verdict = certify_component(c, prime)
            if isinstance(verdict, (FullyCertified, ZeroCertified)):
                assert set(verdict.roots) <= set(c.members), (verdict.roots, c.members)
                rooted += bool(verdict.roots)
        leveled += 1
    assert leveled >= 150 and rooted >= 80, (leveled, rooted)


def test_condense_rejects_phase_mixing():
    up = TypedState("q", 0, "up")
    down = TypedState("q", 1, "down")
    raw = Transition("q", 0, "q", parse_regex("a", AB))
    prime = _fake_prime(
        [up, down],
        [
            TypedTransition(up, 0, down, raw.output, "i", raw),
            TypedTransition(down, 1, up, raw.output, "ii", raw),
        ],
    )
    with pytest.raises(AssertionError):
        condense(prime)


def networkx_condense(prime):
    """Members and triviality of each component, in networkx's order."""
    g = nx.DiGraph()
    g.add_nodes_from(prime.states)
    for tt in prime.transitions:
        g.add_edge(tt.source, tt.target)
    cond = nx.condensation(g)
    out = []
    for node in nx.topological_sort(cond):
        members = frozenset(cond.nodes[node]["members"])
        only = next(iter(members))
        out.append((members, len(members) == 1 and not g.has_edge(only, only)))
    return out


def test_condense_order_matches_networkx(fig1, fig2):
    machines = [fig1, fig2]
    machines += [ladder(k, j) for k in range(1, 5) for j in range(1, 5)]
    machines += [ladder(1, 5), ladder(5, 1), ladder(1, 6), ladder(6, 1)]
    rng = random.Random(20261019)
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(600)]
    compared = 0
    for machine in machines:
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (CertificationError, LevelingError):
            continue
        sccs = condense(prime)
        got = [(typed_members(c, prime), c.trivial) for c in sccs]
        assert got == networkx_condense(prime), sorted(s.render() for s in prime.states)
        # Each arc is filed once, under its source's component: internal when
        # its target is there too, leaving when the target comes later.
        position = {q: c.index for c in sccs for q in c.members}
        filed = sorted(k for c in sccs for k in c.internal + c.leaving)
        assert filed == list(range(len(prime.arcs)))
        for c in sccs:
            for k in c.internal:
                assert position[prime.arcs[k][0]] == position[prime.arcs[k][1]] == c.index
            for k in c.leaving:
                assert position[prime.arcs[k][0]] == c.index < position[prime.arcs[k][1]]
        compared += 1
    assert compared >= 600


# --- cycle profiles ----------------------------------------------------------------


def _nontrivial(prime, sccs, state_name):
    for c in sccs:
        if not c.trivial and any(s.state == state_name for s in typed_members(c, prime)):
            return c
    raise AssertionError(f"no nontrivial component for {state_name}")


def test_fig1_cycle_profiles(fig1_prime, fig1_sccs):
    opening = _nontrivial(fig1_prime, fig1_sccs, "q0")
    closing = _nontrivial(fig1_prime, fig1_sccs, "qf")
    # the opening loop pumps the counter up; the closing one only down
    assert tight_typed(internal_transitions(opening, fig1_prime)) is None
    assert tight_typed(internal_transitions(closing, fig1_prime)) is not None


def test_certify_rejects_weighted_up_cycle():
    # an up component whose cycles climb, with two roots at each anchor so
    # that stage 1 fails and the weights are looked at
    a = TypedState("q", 0, "up")
    b = TypedState("q", 1, "up")
    raw0 = Transition("q", 0, "q", parse_regex("a+b", AB))
    prime = _fake_prime(
        [a, b],
        [
            TypedTransition(a, 0, b, raw0.output, "i", raw0),
            TypedTransition(b, 0, a, raw0.output, "i", raw0),
        ],
    )
    sccs = condense(prime)
    assert len(sccs) == 1 and not sccs[0].trivial
    with pytest.raises(AssertionError, match="nonzero-weight cycle"):
        certify_component(sccs[0], prime)


# --- longest-path potential vs. simple-cycle enumeration -------------------------------


def brute_max_mean(nodes, edges):
    best = None
    for start in nodes:
        stack = [(start, 0, 0, frozenset({start}))]
        while stack:
            at, weight, length, visited = stack.pop()
            for u, w, v in edges:
                if u != at:
                    continue
                if v == start:
                    mean = Fraction(weight + w, length + 1)
                    if best is None or mean > best:
                        best = mean
                elif v not in visited:
                    stack.append((v, weight + w, length + 1, visited | {v}))
    return best


def check_longest_potential(edges):
    result = longest_potential(edges)
    nodes = sorted({x for u, _, v in edges for x in (u, v)})
    best = brute_max_mean(nodes, edges)
    if result is None:
        assert best is not None and best > 0, edges
        return
    assert best is None or best <= 0, (edges, best)
    assert set(result) == set(nodes)
    for u, w, v in edges:
        assert result[v] >= result[u] + w, (edges, result)


def test_longest_potential_matches_cycle_enumeration():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = [
            (rng.randrange(n), rng.randint(-3, 3), rng.randrange(n))
            for _ in range(rng.randint(0, 10))
        ]
        check_longest_potential(edges)


def test_longest_potential_edge_cases():
    assert longest_potential([]) == {}
    assert longest_potential([(0, 5, 1)]) == {0: 0, 1: 5}
    assert longest_potential([(0, -2, 0)]) == {0: 0}
    assert longest_potential([(0, 2, 0)]) is None
    # a long slightly-positive cycle is found next to a short negative one
    edges = [(0, 1, 1), (1, 1, 2), (2, -1, 0), (0, -1, 0)]
    assert longest_potential(edges) is None
    check_longest_potential(edges)
    # a zero-weight cycle has a potential, tight all round
    edges = [(0, 1, 1), (1, 1, 2), (2, -2, 0)]
    assert longest_potential(edges) == {0: 0, 1: 1, 2: 2}
    check_longest_potential(edges)


# --- cycle outputs and certification -------------------------------------------------


def test_fig1_cycle_outputs(fig1, fig1_prime, fig1_sccs):
    alphabet = fig1.alphabet
    opening = _nontrivial(fig1_prime, fig1_sccs, "q0")
    for s in typed_members(opening, fig1_prime):
        assert equivalent(cycle_outputs(opening, s, fig1_prime), lang("cc", alphabet))
    closing = _nontrivial(fig1_prime, fig1_sccs, "qf")
    for s in typed_members(closing, fig1_prime):
        assert equivalent(cycle_outputs(closing, s, fig1_prime), lang("b*ab*a", alphabet))


def test_cycle_outputs_trivial_component_is_empty(fig1_prime, fig1_sccs):
    trivial = next(c for c in fig1_sccs if c.trivial)
    anchor = fig1_prime.states[trivial.members[0]]
    assert is_empty_language(cycle_outputs(trivial, anchor, fig1_prime))


def test_cycle_outputs_rejects_foreign_anchor(fig1_prime, fig1_sccs):
    outside = fig1_prime.states[fig1_sccs[0].members[0]]
    other = fig1_sccs[-1]
    with pytest.raises(ValueError):
        cycle_outputs(other, outside, fig1_prime)


def test_fig1_verdicts(fig1_prime, fig1_sccs):
    opening = _nontrivial(fig1_prime, fig1_sccs, "q0")
    v1 = certify_component(opening, fig1_prime)
    assert isinstance(v1, FullyCertified)
    assert set(v1.roots.values()) == {"c"}

    closing = _nontrivial(fig1_prime, fig1_sccs, "qf")
    v2 = certify_component(closing, fig1_prime)
    # b*ab*a mixes roots, but all its cycles close strictly; only the
    # zero-weight cycles accumulate, and there are none.
    assert isinstance(v2, ZeroCertified)
    assert set(v2.roots.values()) == {None}
    assert tight_typed(internal_transitions(closing, fig1_prime)) == []


def test_trivial_components_certify_vacuously(fig1_prime, fig1_sccs):
    for c in fig1_sccs:
        if c.trivial:
            v = certify_component(c, fig1_prime)
            assert isinstance(v, FullyCertified) and v.roots == {}
            # The two certified verdicts share a layout and differ by class.
            assert v == FullyCertified({}) != ZeroCertified({})


def test_quasi_dense_self_loop_is_caught():
    toy = make_transducer(
        ["q0", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q0", "a+b"), ("q0", 1, "f", "a"), ("f", 1, "f", "a")],
        AB,
    )
    prime = build_mprime(toy, reach_sets(toy))
    verdicts = [
        certify_component(c, prime) for c in condense(prime) if not c.trivial
    ]
    witnesses = [v for v in verdicts if isinstance(v, QuasiDenseWitness)]
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.state.state == "q0"
    assert (w.word1, w.word2) == ("aa", "ab")
    assert primitive_root(w.word1) != primitive_root(w.word2)
    # the all-a closing ladder stays certified
    assert any(
        isinstance(v, FullyCertified) and set(v.roots.values()) == {"a"}
        for v in verdicts
    )


def test_zero_band_cycles_certify_against_root():
    # opening loop emits ab, closing loop emits ba: every individual cycle is
    # single-rooted, yet different anchors see different roots; all cycles in
    # each component still certify because each component is one loop.
    machine = make_transducer(
        ["q0", "f"],
        "q0",
        ["f"],
        [("q0", 0, "q0", "ab"), ("q0", 1, "f", "a"), ("f", 1, "f", "ba")],
        AB,
    )
    prime = build_mprime(machine, reach_sets(machine))
    for c in condense(prime):
        if c.trivial:
            continue
        v = certify_component(c, prime)
        assert isinstance(v, FullyCertified)
        assert set(v.roots.values()) <= {"ab", "ba"}


# --- stage 2 against the weight-banded product ------------------------------------------


def banded_zero_cycle_outputs(c, anchor, prime, band):
    """Outputs of zero-weight closed paths through ``anchor``, by brute force.

    Tracks the running weight in [-band, band] in a product with the
    component; without positive cycles no zero-weight closed path leaves a
    band of 2·|C|·P.  It uses no potential, so it checks stage 2's
    tight-transition construction independently.
    """
    src = ("src", anchor, 0)
    snk = ("snk", anchor, 0)
    nodes = [src, snk]
    for s in sorted(typed_members(c, prime)):
        for w in range(-band, band + 1):
            if s != anchor or w != 0:
                nodes.append((s, w))
    arcs = []
    for tt in internal_transitions(c, prime):
        delta = 1 if tt.bit == 0 else -1
        a = prime.base.compiled_output(tt.base)
        for w in range(-band, band + 1):
            w2 = w + delta
            if not -band <= w2 <= band:
                continue
            u = src if (tt.source == anchor and w == 0) else (tt.source, w)
            v = snk if (tt.target == anchor and w2 == 0) else (tt.target, w2)
            arcs.append((u, a, v))
    return expand_graph(nodes, arcs, [src], [snk], prime.alphabet)


def oracle_certify(c, prime):
    """certify_component with an explicit per-anchor loop and the banded stage 2."""
    if c.trivial:
        return FullyCertified({})

    number = {s: x for x, s in enumerate(prime.states)}

    def single_roots(outputs_at):
        roots = {}
        for s in sorted(typed_members(c, prime)):
            outputs = outputs_at(s)
            m = regular.shortest_nonempty_word(outputs)
            roots[number[s]] = None if m is None else primitive_root(m)
            if m is not None:
                ok, x = regular.subset_of_power_with_witness(outputs, roots[number[s]])
                if not ok:
                    return QuasiDenseWitness(s, m, x)
        return roots

    roots = single_roots(lambda s: cycle_outputs(c, s, prime))
    if not isinstance(roots, QuasiDenseWitness):
        return FullyCertified(roots)
    edges = [(tt.source, 1 if tt.bit == 0 else -1, tt.target)
             for tt in internal_transitions(c, prime)]
    if brute_max_mean(sorted(typed_members(c, prime)), edges) > 0:
        return roots
    band = 2 * len(c.members) * prime.period
    roots = single_roots(lambda s: banded_zero_cycle_outputs(c, s, prime, band))
    return roots if isinstance(roots, QuasiDenseWitness) else ZeroCertified(roots)


def ladder(k: int, j: int):
    """A k-cycle of opens emitting c, one close into a j-cycle of closes emitting b*a."""
    opens = [f"o{i}" for i in range(k)]
    closes = [f"c{i}" for i in range(j)]
    trans = [(opens[i], 0, opens[(i + 1) % k], "c") for i in range(k)]
    trans.append((opens[0], 1, closes[0], "b*a"))
    trans += [(closes[i], 1, closes[(i + 1) % j], "b*a") for i in range(j)]
    return make_transducer(
        opens + closes, opens[0], [closes[0]], trans, Alphabet(("a", "b", "c"))
    )


def test_tight_transitions_match_the_banded_product():
    machines = [ladder(k, j) for k in (1, 2, 3) for j in (1, 2, 3)]
    rng = random.Random(20261018)
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(200)]
    anchors = 0
    stage2 = {ZeroCertified: 0, QuasiDenseWitness: 0}
    for machine in machines:
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except LevelingError:
            continue
        for c in condense(prime):
            if c.trivial:
                continue
            verdict = certify_component(c, prime)
            members = sorted(typed_members(c, prime))
            assert verdict == oracle_certify(c, prime), members
            tight = tight_typed(internal_transitions(c, prime))
            if tight is None:
                continue
            band = 2 * len(c.members) * prime.period
            for s in members:
                anchors += 1
                assert equivalent(
                    banded_zero_cycle_outputs(c, s, prime, band),
                    cycle_outputs(c, s, prime, tight),
                ), (members, s)
            if not isinstance(verdict, FullyCertified):
                stage2[type(verdict)] += 1
    assert anchors >= 400
    assert stage2[ZeroCertified] >= 1 and stage2[QuasiDenseWitness] >= 1, stage2


# --- cycle roots against the per-anchor loop ----------------------------------------------


def two_zero_loops(second: str):
    """Pumps the counter, then two zero-weight loops p q and u v joined by
    closes both ways, then drains.  The tight transitions of each window
    component fall apart into four looping components; with ``second`` =
    ``a+b`` the u v loops clash and the p q loops, which come first, pass."""
    trans = [
        ("s", 0, "s", "c"), ("s", 0, "p", "c"),
        ("p", 0, "q", "a"), ("q", 1, "p", "b"),
        ("u", 0, "v", second), ("v", 1, "u", "a"),
        ("p", 1, "u", "a"), ("u", 1, "p", "a"),
        ("p", 1, "f", "c"), ("f", 1, "f", "c"),
    ]
    return make_transducer("spquvf", "s", ["f"], trans, Alphabet(("a", "b", "c")))


def leveled_arcs(c, prime, transitions):
    """``transitions`` as ``regular.cycle_roots`` reads them, with the
    anchors numbered in sorted order: each arc with its output automaton
    and that automaton's shortest nonempty word, ε if it has none."""
    node = {s: x for x, s in enumerate(sorted(typed_members(c, prime)))}
    out = [[] for _ in node]
    for tt in transitions:
        a = prime.base.compiled_output(tt.base)
        w = regular.shortest_nonempty_word(a) or ""
        out[node[tt.source]].append((node[tt.target], w, a))
    return out


def test_cycle_roots_match_the_per_anchor_loop_on_both_stages(fig1, fig2):
    machines = [fig1, fig2, two_zero_loops("b"), two_zero_loops("a+b")]
    machines += [ladder(k, j) for k in range(1, 5) for j in range(1, 5)]
    machines += [complete_machine(n) for n in range(1, 7)]
    rng = random.Random(20261018)
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(500)]
    outcomes = {"stage 1 pass": 0, "stage 1 clash": 0, "stage 2 pass": 0, "stage 2 clash": 0,
                "stage 2 on several looping components": 0,
                "stage 2 clash after a passing component": 0}
    for machine in machines:
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (LevelingError, CertificationError):
            continue
        for c in condense(prime):
            if c.trivial:
                continue
            anchors = sorted(typed_members(c, prime))
            internal = internal_transitions(c, prime)
            for stage, transitions in (("stage 1", internal),
                                       ("stage 2", tight_typed(internal))):
                if transitions is None:
                    break
                arcs = leveled_arcs(c, prime, transitions)
                if stage == "stage 1":
                    components = [list(range(len(anchors)))]
                else:
                    targets = [[y for y, _, _ in out] for out in arcs]
                    components = sorted(regular.tarjan_sccs(len(anchors), targets))
                spliced = [
                    (tt.source, prime.base.compiled_output(tt.base), tt.target)
                    for tt in transitions
                ]
                _, successors = arc_graph(anchors, spliced)
                got = assert_cycle_roots_match(
                    anchors,
                    arcs,
                    components,
                    successors,
                    prime.alphabet,
                    lambda s, transitions=transitions: cycle_outputs(c, s, prime, transitions),
                )
                outcomes[f"{stage} {'clash' if isinstance(got, tuple) else 'pass'}"] += 1
                if stage == "stage 2":
                    looping = [
                        m for m in arc_components(successors, looping_only=True)
                        if m[0] < len(anchors)
                    ]
                    outcomes["stage 2 on several looping components"] += len(looping) > 1
                    if isinstance(got, tuple):
                        first = anchors.index(got[0])
                        outcomes["stage 2 clash after a passing component"] += any(
                            m[0] < first for m in looping
                        )
                if not isinstance(got, tuple):
                    break
    assert min(outcomes.values()) >= 2, outcomes


def test_stage_two_cycle_languages_use_only_their_own_component(monkeypatch):
    """A cycle language is built only for the clash that becomes the
    verdict: none for a passing component, and one for a clash, for the
    reported component from its own anchors, the arcs into its first
    anchor sent to the sink None.  Stage 1's witness is not built when
    stage 2 passes (ladder(3, 2)), stage 2 does not repeat stage 1 when
    every transition is tight, as in a clashing ``up`` component, and a
    passing stage 1 runs no SCC search."""
    built, labelled, searched = [], [], []
    expand_graph, cycle_roots = regular.expand_graph, regular.cycle_roots
    tarjan_sccs = regular.tarjan_sccs

    def recorded_expansion(nodes, arcs, initials, finals, alphabet):
        built.append((nodes, arcs, initials, finals))
        return expand_graph(nodes, arcs, initials, finals, alphabet)

    def recorded_labelling(arcs, components):  # one labelling per stage
        labelled.append(components)
        return cycle_roots(arcs, components)

    def recorded_search(n, targets):
        searched.append(n)
        return tarjan_sccs(n, targets)

    rng = random.Random(20261019)
    machines = [ladder(3, 2), two_zero_loops("b"), two_zero_loops("a+b")]
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(300)]
    seen = {"stage 1 pass": 0, "ladder stage 2 pass": 0, "stage 2 pass": 0, "clash": 0,
            "up clash": 0}
    for i, machine in enumerate(machines):
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (LevelingError, CertificationError):
            continue
        for c in condense(prime):
            built.clear()
            labelled.clear()
            searched.clear()
            with monkeypatch.context() as mp:
                mp.setattr(regular, "expand_graph", recorded_expansion)
                mp.setattr(regular, "cycle_roots", recorded_labelling)
                mp.setattr(regular, "tarjan_sccs", recorded_search)
                verdict = certify_component(c, prime)
            if not isinstance(verdict, QuasiDenseWitness):
                assert built == [], sorted(c.members)
                if isinstance(verdict, FullyCertified) and not c.trivial:
                    assert len(labelled) == 1 and searched == []
                    seen["stage 1 pass"] += 1
                if isinstance(verdict, ZeroCertified):
                    assert len(labelled) == 2  # stage 1 clashed
                    assert searched == [len(c.members)]
                    seen["ladder stage 2 pass" if i == 0 else "stage 2 pass"] += 1
                continue
            [(nodes, arcs, initials, finals)] = built
            first = sorted(typed_members(c, prime)).index(verdict.state)
            [members] = [m for m in labelled[-1] if m[0] == first]
            assert nodes == members + [None]
            assert (initials, finals) == ([first], [None])
            assert all(u in nodes[:-1] and v in nodes and v != first for u, _, v in arcs)
            seen["clash"] += 1
            if c.phase == "up":
                assert len(labelled) == 1
                seen["up clash"] += 1
    assert min(seen.values()) >= 1, seen


def test_witness_languages_match_the_spliced_single_returns(monkeypatch):
    """The single-return NFA that a clash builds has the language of the
    same arcs spliced into one graph with ε arcs (``spliced_expand_graph``),
    and the witness ``(anchor, m, x)`` is the one the arc-graph labelling
    reads off the single returns to its clashing component's first node
    (``arc_graph_certify``)."""
    expand_graph = regular.expand_graph
    checked = []

    def checked_expansion(nodes, arcs, initials, finals, alphabet):
        got = expand_graph(nodes, arcs, initials, finals, alphabet)
        assert equivalent(got, spliced_expand_graph(nodes, arcs, initials, finals, alphabet))
        checked.append(got)
        return got

    monkeypatch.setattr(regular, "expand_graph", checked_expansion)
    rng = random.Random(20261021)
    clashes = 0
    for _ in range(640):
        machine = random_machine(rng, max_states=6, max_transitions=10)
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (LevelingError, CertificationError):
            continue
        for c in condense(prime):
            verdict = certify_component(c, prime)
            if isinstance(verdict, QuasiDenseWitness):
                clashes += 1
                assert verdict == arc_graph_certify(c, prime), sorted(c.members)
    assert clashes >= 100 and len(checked) == clashes, (clashes, len(checked))


# --- stage 1 without an SCC search --------------------------------------------------------


def leveling_machines():
    """The golden corpus fixtures (fig1, fig2 and 60 random machines), 600
    more random machines, ladder shapes up to (32, 33) and complete
    machines up to n = 24."""
    from golden_cli import corpus_fixtures
    from ocrank.cli import parse_fixture

    machines = [parse_fixture(text).value for text, _ in corpus_fixtures().values()]
    rng = random.Random(20261020)
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(600)]
    machines += [ladder(k, j) for k in range(1, 5) for j in range(1, 5)]
    machines += [ladder(16, 17), ladder(24, 25), ladder(32, 33)]
    machines += [complete_machine(n) for n in (*range(1, 9), 12, 16, 24)]
    return machines


def test_stage_one_arc_graph_is_one_component():
    """Stage 1 labels the component as one strongly connected component.
    Tarjan finds exactly one in its arc graph, where every output
    automaton is spliced in, and the one labelling of the leveled states
    gives the roots, in anchor order, or the clash anchors that the
    Tarjan-driven labelling of that arc graph gives."""
    outcomes = {"pass": 0, "clash": 0}
    for machine in leveling_machines():
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (LevelingError, CertificationError):
            continue
        for c in condense(prime):
            if c.trivial:
                continue
            anchors = sorted(typed_members(c, prime))
            internal = internal_transitions(c, prime)
            spliced = [
                (tt.source, prime.base.compiled_output(tt.base), tt.target) for tt in internal
            ]
            _, successors = arc_graph(anchors, spliced)
            # state_bits, not the bit-by-bit mask_bits, which is quadratic on the
            # arc graphs of thousands of nodes
            targets = [sorted({y for m in row.values() for y in state_bits(m)})
                       for row in successors]
            assert len(regular.tarjan_sccs(len(successors), targets)) == 1
            want = arc_graph_roots(anchors, successors)
            whole = [list(range(len(anchors)))]
            got = regular.cycle_roots(leveled_arcs(c, prime, internal), whole)
            if isinstance(want, dict):
                assert [(anchors[x], root) for x, root in got.items()] == list(want.items())
                number = {s: x for x, s in enumerate(prime.states)}
                assert certify_component(c, prime) == FullyCertified(
                    {number[s]: root for s, root in want.items()})
            else:
                assert got == list(range(len(anchors))) == [x for x in want if x < len(anchors)]
            outcomes["clash" if isinstance(want, list) else "pass"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def arc_graph_machines():
    """The golden corpus fixtures, 600 random machines, ladder(1..5, 1..5),
    complete machines up to n = 8 and both ``two_zero_loops``."""
    from golden_cli import corpus_fixtures
    from ocrank.cli import parse_fixture

    machines = [parse_fixture(text).value for text, _ in corpus_fixtures().values()]
    rng = random.Random(20261022)
    machines += [random_machine(rng, max_states=6, max_transitions=10) for _ in range(600)]
    machines += [ladder(k, j) for k in range(1, 6) for j in range(1, 6)]
    machines += [complete_machine(n) for n in range(1, 9)]
    machines += [two_zero_loops("b"), two_zero_loops("a+b")]
    return machines


def test_certify_component_matches_the_arc_graph_oracle():
    """Every verdict equals the one of certification on arc graphs
    (``arc_graph_certify``): the stage that decided it, its roots with
    their key order, and every witness."""
    seen = {FullyCertified: 0, ZeroCertified: 0, QuasiDenseWitness: 0, "two roots": 0}
    for machine in arc_graph_machines():
        try:
            prime = build_mprime(machine, reach_sets(machine))
        except (LevelingError, CertificationError):
            continue
        for c in condense(prime):
            verdict = certify_component(c, prime)
            want = arc_graph_certify(c, prime)
            assert verdict == want, sorted(c.members)
            if not isinstance(verdict, QuasiDenseWitness):
                assert list(verdict.roots.items()) == list(want.roots.items())
                seen["two roots"] += len(set(verdict.roots.values()) - {None}) > 1
            seen[type(verdict)] += not c.trivial
    assert min(seen.values()) >= 20, seen


# --- the word w of each arc ----------------------------------------------------------


def loop_verdicts(*outputs: str):
    """The verdicts of the nontrivial components of a one-state machine
    with an open and a close loop for each output, and those of
    certification on arc graphs."""
    trans = [("q", bit, "q", out) for out in outputs for bit in (0, 1)]
    machine = make_transducer(["q"], "q", ["q"], trans, AB)
    prime = build_mprime(machine, reach_sets(machine))
    got, want = [], []
    for c in condense(prime):
        if not c.trivial:
            got.append(certify_component(c, prime))
            want.append(arc_graph_certify(c, prime))
    assert got and got == want
    return got


def test_a_loop_reading_a_star_has_root_a():
    # its shortest word is ε, which would read no letter
    for verdict in loop_verdicts("a*"):
        assert isinstance(verdict, FullyCertified)
        assert set(verdict.roots.values()) == {"a"}


def test_a_loop_reading_eps_or_ab_has_root_ab():
    for verdict in loop_verdicts("eps+ab"):
        assert isinstance(verdict, FullyCertified)
        assert set(verdict.roots.values()) <= {"ab", "ba"}
        assert "ab" in verdict.roots.values()


def test_cycles_that_read_only_eps_have_no_root():
    for verdict in loop_verdicts("eps"):
        assert isinstance(verdict, FullyCertified)
        assert set(verdict.roots.values()) == {None}


def test_an_arc_language_outside_its_window_is_a_clash():
    # a, then b*a back: the words w are a and a, which label the cycle
    # with root a, and b*a ⊄ a* is the clash
    machine = make_transducer(
        ["p", "q"], "p", ["p"], [("p", 0, "q", "a"), ("q", 1, "p", "b*a")], AB
    )
    prime = build_mprime(machine, reach_sets(machine))
    verdicts = []
    for c in condense(prime):
        if not c.trivial:
            verdicts.append(certify_component(c, prime))
            assert verdicts[-1] == arc_graph_certify(c, prime)
    clashes = [v for v in verdicts if isinstance(v, QuasiDenseWitness)]
    assert clashes and all((v.word1, v.word2) == ("aa", "aba") for v in clashes), verdicts
    out = [[(1, "a", None)], [(0, "a", lang("b*a", AB))]]
    assert regular.cycle_roots(out, [[0, 1]]) == [0, 1]
    assert regular.cycle_roots([[(1, "a", None)], [(0, "a", lang("a", AB))]], [[0, 1]]) == {
        0: "a", 1: "a"
    }
