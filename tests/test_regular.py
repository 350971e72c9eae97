"""Regex and automaton layer, cross-checked against a brute matcher.

The oracle interprets the regex AST directly on words by recursion over
split points, so the compiled-automaton route is verified end to end.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ocrank import regular
from ocrank.regular import (
    Automaton,
    Concat,
    Eps,
    Lit,
    QuasiDense,
    RegexSyntaxError,
    Scattered,
    Star,
    Union,
    compile_regex,
    cycle_roots,
    cycle_witness,
    determinize,
    empty_automaton,
    epsilon_automaton,
    expand_graph,
    has_word_longer_than,
    nfa_of_regex,
    parse_regex,
    power_automaton,
    regular_scattered,
    shortest_nonempty_word,
    shortest_word,
    subset_of_power_with_witness,
    subset_with_witness,
    tarjan_sccs,
    trim,
    words_up_to,
)
from ocrank.words import Alphabet, primitive_root
from conftest import mask_bits
from oracles import (
    arc_graph_roots,
    closed_walks,
    complement,
    eager_difference_witness,
    equivalent,
    intersect,
    is_empty_language,
    membership,
    shortest_from,
    spliced_expand_graph,
    subset_language,
)

AB = Alphabet(("a", "b"))


# --- oracle ------------------------------------------------------------------


def oracle_match(r, w: str) -> bool:
    if isinstance(r, Eps):
        return w == ""
    if isinstance(r, Lit):
        return w == r.ch
    if isinstance(r, Union):
        return oracle_match(r.left, w) or oracle_match(r.right, w)
    if isinstance(r, Concat):
        return any(
            oracle_match(r.left, w[:i]) and oracle_match(r.right, w[i:])
            for i in range(len(w) + 1)
        )
    if isinstance(r, Star):
        if w == "":
            return True
        # nonempty first chunk avoids infinite regress
        return any(
            oracle_match(r.body, w[:i]) and oracle_match(r, w[i:])
            for i in range(1, len(w) + 1)
        )
    raise TypeError(r)


def random_regex(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Lit("a"), Lit("b"), Eps()])
    pick = rng.random()
    if pick < 0.35:
        return Union(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if pick < 0.75:
        return Concat(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    return Star(random_regex(rng, depth - 1))


def words_over_ab(max_len: int):
    stack = [""]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack.extend([w + "a", w + "b"])


def test_membership_against_oracle_bulk():
    rng = random.Random(20250819)
    cases = 0
    for _ in range(60):
        r = random_regex(rng, 3)
        a = compile_regex(r, AB)
        # No regex of the dialect denotes the empty language, so machines
        # need no emptiness test on their outputs.
        assert compile_regex(parse_regex(str(r), AB), AB).finals, str(r)
        for w in words_over_ab(5):
            assert membership(a, w) == oracle_match(r, w), (str(r), w)
            cases += 1
    assert cases >= 1000


# --- parsing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", Lit("a")),
        ("eps", Eps()),
        ("ab", Concat(Lit("a"), Lit("b"))),
        ("a+b", Union(Lit("a"), Lit("b"))),
        ("a*", Star(Lit("a"))),
        ("(a+b)*", Star(Union(Lit("a"), Lit("b")))),
        ("b*a", Concat(Star(Lit("b")), Lit("a"))),
        ("a+eps", Union(Lit("a"), Eps())),
    ],
)
def test_parse_examples(text, expected):
    assert parse_regex(text, AB) == expected


def test_parse_renders_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        r = random_regex(rng, 3)
        again = parse_regex(str(r), AB)
        assert equivalent(compile_regex(again, AB), compile_regex(r, AB)), str(r)


@pytest.mark.parametrize("bad", ["", "a**", "(a", "a)", "+a", "a+", "d", "a(+b)"])
def test_parse_rejects(bad):
    with pytest.raises(RegexSyntaxError):
        parse_regex(bad, AB)


def test_parse_error_carries_position():
    try:
        parse_regex("ab)c", AB)
    except RegexSyntaxError as exc:
        assert exc.position == 2
    else:
        pytest.fail("no error raised")


def _depth(r) -> int:
    kids = [getattr(r, f) for f in ("left", "right", "body") if hasattr(r, f)]
    return 1 + max((_depth(k) for k in kids), default=0)


def test_long_concatenations_and_unions_parse_to_shallow_trees():
    for text in ("ab" * 300, "+".join("ab" * 300), "(" + "a(b+a)*" * 100 + ")*"):
        r = parse_regex(text, AB)
        assert str(r) == text
        assert _depth(r) <= 12
    assert compile_regex(parse_regex("a" * 600, AB), AB).n == 601


def test_parenthesis_nesting_is_limited():
    assert str(parse_regex("(" * 50 + "a" + ")" * 50, AB)) == "a"
    with pytest.raises(RegexSyntaxError, match="nested deeper than 50") as info:
        parse_regex("(" * 3000 + "a" + ")" * 3000, AB)
    assert info.value.position == 50


def test_eps_is_a_reserved_word():
    # 'eps' is one token, not e·p·s (those letters are not even in AB)
    assert parse_regex("eps*", AB) == Star(Eps())


# --- automaton algebra ---------------------------------------------------------


@given(st.integers(0, 2**8 - 1))
@settings(max_examples=40)
def test_complement_flips_membership(bits):
    w = format(bits, "b").replace("0", "a").replace("1", "b") if bits else ""
    a = compile_regex(parse_regex("(ab+b)*a", AB), AB)
    assert membership(complement(a), w) != membership(a, w)


def test_intersect_is_conjunction():
    a = compile_regex(parse_regex("a*b", AB), AB)
    b = compile_regex(parse_regex("(a+b)(a+b)", AB), AB)
    both = intersect(a, b)
    for w in words_over_ab(4):
        assert membership(both, w) == (membership(a, w) and membership(b, w))


def test_subset_with_witness_finds_least_difference():
    small = compile_regex(parse_regex("ab", AB), AB)
    big = compile_regex(parse_regex("a(a+b)", AB), AB)
    ok, witness = subset_with_witness(small, big)
    assert ok and witness is None
    ok, witness = subset_with_witness(big, small)
    assert not ok and witness == "aa"
    assert subset_language(small, big)


def test_subset_with_witness_matches_the_eager_product():
    """The lazy pair search finds the least word of the whole product of a
    with the complement of b, or none exactly when it is empty."""
    rng = random.Random(20261019)
    seen = {"a empty": 0, "b empty": 0, "a has eps": 0, "b has eps": 0,
            "b a power": 0, "included": 0, "not included": 0}

    def pick(right: bool) -> tuple[str, Automaton]:
        kind = rng.randrange(8)
        if kind == 0:
            return "empty", empty_automaton(AB)
        if kind == 1:
            return "eps", epsilon_automaton(AB)
        if kind == 2 and right:
            v = rng.choice(("a", "b", "ab", "ba", "aab"))
            return "power", power_automaton(v, rng.randrange(len(v)), rng.randrange(len(v)), AB)
        if kind < 5:
            return "regex", compile_regex(random_regex(rng, 3), AB)
        return "nfa", random_nfa(rng)

    for _ in range(600):
        (_, a), (kind, b) = pick(right=False), pick(right=True)
        ok, witness = subset_with_witness(a, b)
        assert witness == eager_difference_witness(a, b)
        assert ok == (witness is None)
        seen["a empty"] += is_empty_language(a)
        seen["b empty"] += is_empty_language(b)
        seen["a has eps"] += a.accepts_empty_word()
        seen["b has eps"] += b.accepts_empty_word()
        seen["b a power"] += kind == "power"
        seen["included" if ok else "not included"] += 1
    assert min(seen.values()) >= 30, seen


def test_shortest_word_is_least():
    a = compile_regex(parse_regex("ba+ab+bb", AB), AB)
    assert shortest_word(a) == "ab"
    starry = compile_regex(parse_regex("b*", AB), AB)
    assert shortest_word(starry) == ""
    assert shortest_nonempty_word(starry) == "b"
    assert shortest_word(empty_automaton(AB)) is None


def test_least_word_searches_match_the_breadth_first_reference():
    """``shortest_word`` and ``shortest_nonempty_word`` are the pair search
    of ``subset_with_witness`` against the empty language and against ε's;
    each gives the word of the breadth-first search over state sets that
    it replaced (``oracles.shortest_from``), or None with it."""
    rng = random.Random(20261020)
    subjects = [("nfa", random_nfa(rng)) for _ in range(600)]
    for _ in range(60):
        v = rng.choice(("a", "b", "ab", "ba", "aab", "abb"))
        subjects.append(("power", power_automaton(v, rng.randrange(len(v)),
                                                  rng.randrange(len(v)), AB)))
    subjects += [("empty", empty_automaton(AB)), ("eps", epsilon_automaton(AB))]
    seen = {"accepts eps": 0, "accepts nothing": 0, "accepts eps alone": 0,
            "least of length 2 or more": 0, "power": 0}
    for kind, a in subjects:
        least, nonempty = shortest_word(a), shortest_nonempty_word(a)
        assert least == shortest_from(a, allow_empty=True), (kind, a)
        assert nonempty == shortest_from(a, allow_empty=False), (kind, a)
        seen["accepts eps"] += least == ""
        seen["accepts nothing"] += least is None
        seen["accepts eps alone"] += least == "" and nonempty is None
        seen["least of length 2 or more"] += nonempty is not None and len(nonempty) > 1
        seen["power"] += kind == "power"
    assert min(seen.values()) >= 20, seen


def test_words_up_to_is_lex_sorted_and_complete():
    r = parse_regex("(a+b)*a", AB)
    a = compile_regex(r, AB)
    listed = words_up_to(a, 4)
    assert listed == sorted(listed, key=lambda w: tuple("ab".index(c) for c in w))
    assert set(listed) == {w for w in words_over_ab(4) if oracle_match(r, w)}


def recursive_words_up_to(a, max_len: int) -> list[str]:
    """The recursive walk ``words_up_to`` replaced, kept as its reference."""
    out: list[str] = []
    finals = frozenset(mask_bits(a.finals))

    def walk(s: frozenset[int], word: str) -> None:
        if s & finals:
            out.append(word)
        if len(word) == max_len:
            return
        for ch in a.alphabet.letters:
            t = frozenset(q2 for q in s for q2 in mask_bits(a.edges[q].get(ch, 0)))
            if t:
                walk(t, word + ch)

    walk(frozenset(mask_bits(a.initials)), "")
    return out


def random_nfa(rng: random.Random, max_states: int = 6) -> Automaton:
    """A small random ε-free NFA over {a, b}, loops and dead ends included."""
    n = rng.randint(1, max_states)
    edges: list[dict[str, int]] = [{} for _ in range(n)]
    for q in range(n):
        for ch in "ab":
            targets = frozenset(rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 2))))
            if targets:
                edges[q][ch] = sum(1 << t for t in targets)
    initials = sum(1 << q for q in rng.sample(range(n), rng.randint(1, min(2, n))))
    finals = sum(1 << q for q in rng.sample(range(n), rng.randint(0, n)))
    return Automaton(AB, n, edges, initials, finals)


def test_words_up_to_matches_the_recursive_walk():
    rng = random.Random(20261018)
    for _ in range(300):
        a = random_nfa(rng) if rng.random() < 0.5 else compile_regex(random_regex(rng, 3), AB)
        max_len = rng.randint(0, 7)
        assert words_up_to(a, max_len) == recursive_words_up_to(a, max_len)


def test_words_up_to_lists_words_longer_than_the_recursion_limit():
    a = compile_regex(parse_regex("a*", AB), AB)
    listed = words_up_to(a, 1500)
    assert listed == ["a" * k for k in range(1501)]


def test_has_word_longer_than():
    a = compile_regex(parse_regex("a*", AB), AB)
    assert has_word_longer_than(a, 1000)
    assert has_word_longer_than(a, 10**12)  # decided within a.n + 1 steps
    b = compile_regex(parse_regex("a+ab", AB), AB)
    assert not has_word_longer_than(b, 2)
    assert has_word_longer_than(b, 1)
    assert not has_word_longer_than(b, 10**12)


def test_trim_and_emptiness():
    e = trim(empty_automaton(AB))
    assert is_empty_language(e)
    assert e.n == 1 and not e.finals
    live = trim(determinize(nfa_of_regex(parse_regex("ab", AB), AB)))
    assert not is_empty_language(live)


def two_search_trim(a: Automaton) -> Automaton:
    """Trim as the reachable states met with the co-reachable ones, then
    renumbered by a BFS over those; the oracle for the one-walk trim."""

    def search(starts, step) -> set[int]:
        seen, todo = set(starts), list(starts)
        while todo:
            for t in step(todo.pop()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    def targets(q: int, ch: str | None = None) -> list[int]:
        masks = a.edges[q].values() if ch is None else [a.edges[q].get(ch, 0)]
        return [t for m in masks for t in mask_bits(m)]

    initials, finals = mask_bits(a.initials), mask_bits(a.finals)
    forward = search(initials, targets)
    backward = search(finals, lambda q: [p for p in range(a.n) if q in targets(p)])
    alive = forward & backward
    if not alive:
        return empty_automaton(AB)
    order = sorted(q for q in initials if q in alive)
    for q in order:  # grows while it is walked: a BFS
        for ch in AB.letters:
            order += [t for t in sorted(targets(q, ch)) if t in alive and t not in order]
    renum = {q: i for i, q in enumerate(order)}
    edges: list[dict[str, int]] = [{} for _ in order]
    for q in order:
        for ch in a.edges[q]:
            kept = frozenset(renum[t] for t in targets(q, ch) if t in renum)
            if kept:
                edges[renum[q]][ch] = sum(1 << t for t in kept)
    return Automaton(
        AB,
        len(order),
        edges,
        sum(1 << renum[q] for q in initials if q in renum),
        sum(1 << renum[q] for q in finals if q in renum),
    )


def test_trim_matches_the_two_search_oracle():
    rng = random.Random(20261018)
    dropped = 0
    for _ in range(600):
        a = random_nfa(rng, 8) if rng.random() < 0.7 else nfa_of_regex(random_regex(rng, 3), AB)
        trimmed = trim(a)
        assert trimmed == two_search_trim(a)
        dropped += trimmed.n < a.n
    assert dropped >= 200, dropped


# --- power languages -----------------------------------------------------------


def test_power_automaton_language():
    p = power_automaton("ab", 0, 0, AB)
    for w in words_over_ab(6):
        assert membership(p, w) == (w == "ab" * (len(w) // 2) and len(w) % 2 == 0)
    # W(i, j): the words that read v^ω from position i and stop at position j
    for v in ("ab", "aab"):
        for i in range(len(v)):
            for j in range(len(v)):
                window = power_automaton(v, i, j, AB)
                for w in words_over_ab(6):
                    reads = w == (v * 8)[i : i + len(w)] and (i + len(w)) % len(v) == j
                    assert membership(window, w) == reads, (v, i, j, w)
    with pytest.raises(ValueError):
        power_automaton("", 0, 0, AB)


def test_subset_of_power_sound_and_complete():
    rng = random.Random(99)
    for _ in range(80):
        r = random_regex(rng, 3)
        a = compile_regex(r, AB)
        for v in ("a", "ab", "ba"):
            claim, witness = subset_of_power_with_witness(a, v)
            # witness checking makes a False claim self-certifying; for a
            # True claim, pumping bounds the length of any counterexample:
            # the trimmed DFA's state count is a pumping length.
            if claim:
                bound = (a.n + 1) * len(v) + len(v)
                for w in words_up_to(a, bound):
                    assert w == v * (len(w) // len(v))
            else:
                assert witness is not None
                assert membership(a, witness)
                assert witness != v * (len(witness) // max(1, len(v)))


# --- graphs whose arcs carry automata ------------------------------------------------


def _lang(text: str) -> Automaton:
    return compile_regex(parse_regex(text, AB), AB)


def test_expand_graph_single_arc():
    a = expand_graph(["u", "v"], [("u", _lang("ab+b*a"), "v")], ["u"], ["v"], AB)
    assert equivalent(a, _lang("ab+b*a"))


def test_expand_graph_series_and_loop():
    arcs = [
        ("u", _lang("a"), "m"),
        ("m", _lang("bb"), "m"),
        ("m", _lang("a+b"), "v"),
    ]
    a = expand_graph(["u", "m", "v"], arcs, ["u"], ["v"], AB)
    assert equivalent(a, _lang("a(bb)*(a+b)"))


def test_expand_graph_no_path_is_empty():
    a = expand_graph(["u", "v"], [("v", _lang("a"), "v")], ["u"], ["v"], AB)
    assert is_empty_language(a)


def _reach(start, arcs) -> set:
    seen, todo = set(start), list(start)
    while todo:
        u = todo.pop()
        for x, _, y in arcs:
            if x == u and y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def test_expand_graph_matches_the_spliced_graph_and_is_trimmed():
    """The direct construction against arc_graph + ε-elimination + trim on
    random graphs: the same language, no dead state, and as many states."""
    rng = random.Random(20261019)
    pool = [_lang(text) for text in ("eps", "a*", "b*a", "ab", "a+b")]
    seen = dict.fromkeys(
        ("ε cycle", "unreachable node", "dead end", "arc into an initial node",
         "repeated initial", "several initials", "several finals", "empty"), 0
    )
    for _ in range(600):
        n = rng.randint(1, 7)
        nodes = [f"n{i}" for i in range(n)]
        arcs = [
            (rng.choice(nodes), rng.choice(pool), rng.choice(nodes))
            for _ in range(rng.randint(0, 2 * n))
        ]
        initials = [rng.choice(nodes) for _ in range(rng.randint(1, 3))]
        finals = [rng.choice(nodes) for _ in range(rng.randint(0, 3))]
        got = expand_graph(nodes, arcs, initials, finals, AB)
        spliced = spliced_expand_graph(nodes, arcs, initials, finals, AB)
        assert equivalent(got, spliced), (arcs, initials, finals)
        assert trim(got).n == got.n == spliced.n, (arcs, initials, finals)
        reached = _reach(initials, arcs)
        eps_arcs = [(u, a, v) for u, a, v in arcs if a.accepts_empty_word()]
        seen["ε cycle"] += any(u in _reach([v], eps_arcs) for u, _, v in eps_arcs)
        seen["unreachable node"] += len(reached) < n
        seen["dead end"] += any(not _reach([u], arcs) & set(finals) for u in reached)
        seen["arc into an initial node"] += any(v in initials for _, _, v in arcs)
        seen["repeated initial"] += len(set(initials)) < len(initials)
        seen["several initials"] += len(set(initials)) > 1
        seen["several finals"] += len(set(finals)) > 1
        seen["empty"] += is_empty_language(got)
    assert min(seen.values()) >= 20, seen


# --- scatteredness of a regular language ---------------------------------------


def bounded_quasi_density_oracle(a, max_len: int = 10) -> bool:
    """Dense iff some pair of same-length members share a long common stem.

    Criterion used: L is quasi-dense iff there is a reachable,
    co-reachable DFA state with two distinct cycle words whose roots
    differ; witnessed at word level by members u·x·s and u·y·s.  We check
    the word-level shadow: many members packed between two members of the
    same length is impossible for v*-shaped cycle languages.
    """
    d = trim(determinize(a))
    # enumerate cycle labels per state up to max_len and compare roots
    for q in range(d.n):
        labels = []
        stack = [(q, "")]
        while stack:
            s, w = stack.pop()
            if len(w) > max_len:
                continue
            if s == q and w:
                labels.append(w)
                continue
            for letter, targets in d.edges[s].items():
                for t in mask_bits(targets):
                    stack.append((t, w + letter))
        roots = {primitive_root(w) for w in labels}
        if len(roots) > 1:
            return True
    return False


def test_regular_scattered_against_cycle_oracle():
    rng = random.Random(4242)
    for _ in range(60):
        r = random_regex(rng, 3)
        a = compile_regex(r, AB)
        verdict = regular_scattered(a)
        assert isinstance(verdict, (Scattered, QuasiDense))
        expected_dense = bounded_quasi_density_oracle(a)
        assert bool(verdict) != expected_dense, str(r)


def dfa_cycle_language(d: Automaton, q: int) -> Automaton:
    """Words labelling nonempty closed paths q → q in the DFA ``d``.

    Built by splitting q into a source copy and a sink copy so the empty
    word is excluded while multi-visit loops still factor through single
    returns.  Independent of ``closed_walks``, as the per-anchor oracle's
    cycle language.
    """
    src = d.n
    snk = d.n + 1
    edges = [{} for _ in range(d.n + 2)]
    for p in range(d.n):
        for ch, targets in d.edges[p].items():
            for t in mask_bits(targets):
                p2 = src if p == q else p
                t2 = snk if t == q else t
                edges[p2][ch] = edges[p2].get(ch, 0) | 1 << t2
    return Automaton(d.alphabet, d.n + 2, edges, 1 << src, 1 << snk)


def per_anchor_cycle_roots(anchors, cycle_language):
    """One cycle language and one inclusion test per anchor: the loop that
    ``cycle_roots`` replaced, kept as its reference."""
    roots = {}
    for anchor in anchors:
        cycles = cycle_language(anchor)
        m = shortest_nonempty_word(cycles)
        if m is None:
            roots[anchor] = None
            continue
        roots[anchor] = root = primitive_root(m)
        ok, counterexample = subset_of_power_with_witness(cycles, root)
        if not ok:
            return anchor, m, counterexample
    return roots


def assert_cycle_roots_match(anchors, arcs, components, successors, alphabet, cycle_language):
    """``cycle_roots`` on ``arcs`` over ``components`` gives what the
    per-anchor loop on ``cycle_language`` and the labelling of the arc
    graph ``successors`` (anchors numbered first) give, key order
    included, and builds no cycle language.  On a clash it names the
    anchors of the arc graph's clashing component, and ``cycle_witness``
    on the single returns to its first node along its own nodes gives the
    loop's witness.  Returns the roots or the witness."""

    def no_cycle_language(*args):
        raise AssertionError("cycle_roots built a cycle language")

    want = per_anchor_cycle_roots(anchors, cycle_language)
    oracle = arc_graph_roots(anchors, successors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regular, "expand_graph", no_cycle_language)
        mp.setattr(regular, "cycle_witness", no_cycle_language)
        got = cycle_roots(arcs, components)
    if isinstance(got, dict):
        assert list(got) == [x for members in components for x in members]
        roots = {s: got[x] for x, s in enumerate(anchors)}
        assert isinstance(want, dict) and list(roots.items()) == list(want.items())
        assert list(roots.items()) == list(oracle.items())
        return roots
    members = got
    assert members in components
    assert members == [x for x in oracle if x < len(anchors)]
    cycles = closed_walks(successors, oracle[0], oracle, alphabet)
    got = anchors[members[0]], *cycle_witness(cycles)
    assert got == want
    return got


def arc_targets(successors) -> list[list[int]]:
    """Each node's successors in an arc graph, over every letter and ε."""
    return [sorted({y for m in row.values() for y in mask_bits(m)}) for row in successors]


def arc_components(successors, looping_only=False):
    """Components of an arc graph, optionally only those with a closed walk."""
    targets = arc_targets(successors)
    components = tarjan_sccs(len(successors), targets)
    if looping_only:
        components = [
            members for members in components
            if len(members) > 1 or members[0] in targets[members[0]]
        ]
    return components


def dfa_arcs(d: Automaton):
    """A DFA's rows as ``cycle_roots`` reads them: one letter per arc."""
    return [[(t, ch, None) for ch, m in row.items() for t in mask_bits(m)] for row in d.edges]


def test_cycle_roots_match_the_per_anchor_loop_on_random_dfas():
    rng = random.Random(20261018)
    outcomes = {"dense": 0, "dense after a passing component": 0,
                "scattered with cycles": 0, "scattered, several looping components": 0}
    checked = 0
    for i in range(720):
        a = random_nfa(rng) if i % 3 else compile_regex(random_regex(rng, 4), AB)
        d = trim(determinize(a))
        if not d.finals:
            continue
        checked += 1
        successors = d.edges  # a DFA is an arc graph without ε arcs
        components = sorted(arc_components(successors))
        got = assert_cycle_roots_match(
            range(d.n), dfa_arcs(d), components, successors, d.alphabet,
            lambda q: dfa_cycle_language(d, q),
        )
        built, searched = [], []

        def recorded(cycles):
            built.append(cycles)
            return cycle_witness(cycles)

        def recorded_search(n, targets):
            searched.append(n)
            return tarjan_sccs(n, targets)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regular, "cycle_witness", recorded)
            mp.setattr(regular, "tarjan_sccs", recorded_search)
            verdict = regular._decide_scattered(a)
        assert verdict == regular_scattered(a)
        assert searched == [d.n]  # one pass labels and ranks
        looping = arc_components(successors, looping_only=True)
        if isinstance(got, tuple):
            assert verdict == QuasiDense(*got)
            # one cycle language: the first member, then one state per arc between the members
            members = cycle_roots(dfa_arcs(d), components)
            [cycles] = built
            inside = [y for x in members for y, _, _ in dfa_arcs(d)[x] if y in members]
            assert cycles.n == 1 + len(inside)
            assert equivalent(cycles, closed_walks(successors, members[0], members, AB))
            outcomes["dense"] += 1
            outcomes["dense after a passing component"] += min(m[0] for m in looping) < got[0]
        else:
            assert isinstance(verdict, Scattered) and built == []
            outcomes["scattered with cycles"] += bool(looping)
            outcomes["scattered, several looping components"] += len(looping) > 1
    assert checked >= 500 and min(outcomes.values()) >= 10, (checked, outcomes)


def test_quasi_dense_witness_contents():
    a = compile_regex(parse_regex("(a+b)*", AB), AB)
    verdict = regular_scattered(a)
    assert isinstance(verdict, QuasiDense)
    assert primitive_root(verdict.x) != primitive_root(verdict.y)


def test_scattered_simple_cases():
    for text in ("a*", "a*b*", "(ab)*", "a+b", "eps"):
        a = compile_regex(parse_regex(text, AB), AB)
        assert isinstance(regular_scattered(a), Scattered), text


# --- finite rank bound -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("a*", 1), ("a+b", 0), ("a*ba*", 2), ("b*a", 1), ("eps", 0), ("(ab)*a*", 2)],
)
def test_finite_rank_bound_examples(text, expected):
    a = compile_regex(parse_regex(text, AB), AB)
    assert regular_scattered(a).rank == expected


def test_finite_rank_bound_rejects_dense_input():
    # a quasi-dense language has no rank: the analysis returns its witness
    a = compile_regex(parse_regex("(a+b)*", AB), AB)
    assert isinstance(regular_scattered(a), QuasiDense)


# --- SCC computation ---------------------------------------------------------------


def test_tarjan_matches_networkx_on_random_digraphs():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 9)
        edges = {
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
        }
        succ: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(edges):
            succ[u].append(v)
        ours = tarjan_sccs(n, succ)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        theirs = {frozenset(c) for c in nx.strongly_connected_components(g)}
        assert {frozenset(c) for c in ours} == theirs
        # reverse topological: an edge's target component never comes later
        index = {}
        for i, comp in enumerate(ours):
            for v in comp:
                index[v] = i
        for u, v in edges:
            if index[u] != index[v]:
                assert index[v] < index[u]
