"""The bitmask automata against the frozenset routines they replaced.

``regular`` keeps each state's successors on a letter as one int bitmask.
The routines below kept them as frozensets; they stay here as oracles.  On
seeded random NFAs the mask routines must build the same automata (state
count, numbering, finals and per-letter successor sets) and list the same
words.  The product and the complete subset construction, which only
tests use, live in ``oracles`` and are checked the same way.  The initial
and final sets are bitmasks too, on every automaton the package builds.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from conftest import mask_bits
from golden_cli import corpus_fixtures
from ocrank.cli import parse_fixture
from ocrank.rank import RocAtom, RocConcat, RocPlus, expr_automaton
from ocrank.regular import (
    Automaton,
    Concat,
    Star,
    Union,
    compile_regex,
    determinize,
    nfa_of_regex,
    power_automaton,
    trim,
    words_up_to,
)
from ocrank.transducer import bounded_language
from oracles import complete_determinize, epsilon_free, intersect
from ocrank.words import Alphabet
from test_lift import leveled
from test_regular import AB, random_nfa, random_regex


@dataclass
class SetAutomaton:
    """An NFA whose ``edges[q]`` maps a letter to a frozenset of successors."""

    alphabet: Alphabet
    n: int
    edges: list[dict[str, frozenset[int]]]
    initials: frozenset[int]
    finals: frozenset[int]

    def successors(self, q: int, ch: str) -> frozenset[int]:
        return self.edges[q].get(ch, frozenset())


def as_sets(a: Automaton) -> SetAutomaton:
    edges = [{ch: frozenset(mask_bits(m)) for ch, m in row.items()} for row in a.edges]
    initials, finals = frozenset(mask_bits(a.initials)), frozenset(mask_bits(a.finals))
    return SetAutomaton(a.alphabet, a.n, edges, initials, finals)


def set_determinize(a: SetAutomaton, complete: bool = False) -> SetAutomaton:
    letters = a.alphabet.letters
    start = frozenset(a.initials)
    index: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    out_edges: list[dict[str, frozenset[int]]] = []
    queue = deque([start])
    while queue:
        s = queue.popleft()
        row: dict[str, frozenset[int]] = {}
        for ch in letters:
            t = frozenset(q2 for q in s for q2 in a.successors(q, ch))
            if not t and not complete:
                continue
            if t not in index:
                index[t] = len(order)
                order.append(t)
                queue.append(t)
            row[ch] = frozenset({index[t]})
        out_edges.append(row)
    finals = frozenset(i for i, s in enumerate(order) if s & a.finals)
    return SetAutomaton(a.alphabet, len(order), out_edges, frozenset({0}), finals)


def set_intersect(a: SetAutomaton, b: SetAutomaton) -> SetAutomaton:
    """The product; it walks successor sets in CPython's set order, which
    is ascending for states below 8, so it is an oracle for such NFAs."""
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for p in sorted(a.initials):
        for q in sorted(b.initials):
            index[(p, q)] = len(order)
            order.append((p, q))
    edges: list[dict[str, frozenset[int]]] = []
    queue = deque(order)
    while queue:
        p, q = queue.popleft()
        row: dict[str, set[int]] = {}
        for ch in a.alphabet.letters:
            for t1 in a.successors(p, ch):
                for t2 in b.successors(q, ch):
                    key = (t1, t2)
                    if key not in index:
                        index[key] = len(order)
                        order.append(key)
                        queue.append(key)
                    row.setdefault(ch, set()).add(index[key])
        edges.append({ch: frozenset(ts) for ch, ts in row.items()})
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals
    )
    initials = frozenset(range(len(a.initials) * len(b.initials)))
    return SetAutomaton(a.alphabet, len(order), edges, initials, finals)


def set_epsilon_free(successors, initials, finals, alphabet) -> SetAutomaton:
    """ε-elimination on an arc graph whose rows list (letter, y), "" for ε."""
    final_set = set(finals)
    edges: list[dict[str, frozenset[int]]] = [{} for _ in successors]
    accepting = set()
    reached = set(initials)
    todo = list(reached)
    while todo:
        s = todo.pop()
        closure = {s}
        stack = [s]
        row: dict[str, set[int]] = {}
        while stack:
            x = stack.pop()
            if x in final_set:
                accepting.add(s)
            for ch, y in successors[x]:
                if ch:
                    row.setdefault(ch, set()).add(y)
                elif y not in closure:
                    closure.add(y)
                    stack.append(y)
        edges[s] = {ch: frozenset(ys) for ch, ys in row.items()}
        for ys in row.values():
            todo.extend(ys - reached)
            reached |= ys
    return SetAutomaton(alphabet, len(edges), edges, frozenset(initials), frozenset(accepting))


def set_words_up_to(a: SetAutomaton, max_len: int) -> list[str]:
    out: list[str] = []
    finals = set(a.finals)
    letters = a.alphabet.letters[::-1]
    stack = [(frozenset(a.initials), "")]
    while stack:
        s, word = stack.pop()
        if s & finals:
            out.append(word)
        if len(word) == max_len:
            continue
        for ch in letters:
            t = frozenset(q2 for q in s for q2 in a.successors(q, ch))
            if t:
                stack.append((t, word + ch))
    return out


def random_arc_graph(rng: random.Random, n: int) -> list[dict[str, int]]:
    """Rows of successor masks over a, b and ε (""), loops included."""
    graph = []
    for _ in range(n):
        row = {}
        for ch in ("", "a", "b"):
            targets = {rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2)))}
            if targets:
                row[ch] = sum(1 << y for y in targets)
        graph.append(row)
    return graph


def as_pairs(graph: list[dict[str, int]]) -> list[list[tuple[str, int]]]:
    return [[(ch, y) for ch, m in row.items() for y in mask_bits(m)] for row in graph]


def test_mask_routines_match_the_frozenset_routines():
    rng = random.Random(20261018)
    past_8 = 0
    for i in range(600):
        a = random_nfa(rng, 7)
        b = random_nfa(rng, 7)
        assert as_sets(intersect(a, b)) == set_intersect(as_sets(a), as_sets(b))
        if i % 2:  # the larger NFAs of regexes, whose numbers pass 8
            a = nfa_of_regex(random_regex(rng, 5), AB)
            past_8 += a.n > 8
        assert as_sets(determinize(a)) == set_determinize(as_sets(a))
        assert as_sets(complete_determinize(a)) == set_determinize(as_sets(a), complete=True)
        max_len = rng.randint(0, 6)
        assert words_up_to(a, max_len) == set_words_up_to(as_sets(a), max_len)
        n = rng.randint(1, 12)
        graph = random_arc_graph(rng, n)
        starts = rng.sample(range(n), rng.randint(1, min(2, n)))
        ends = rng.sample(range(n), rng.randint(0, n))
        assert as_sets(epsilon_free(graph, starts, ends, AB)) == set_epsilon_free(
            as_pairs(graph), starts, ends, AB
        )
    assert past_8 >= 30, past_8


def assert_masks(a: Automaton) -> None:
    """``initials``, ``finals`` and every successor are ints below 1 << n."""
    assert type(a.initials) is int and type(a.finals) is int, a
    every = 1 << a.n
    assert 0 <= a.initials < every and 0 <= a.finals < every, a
    for row in a.edges:
        for m in row.values():
            assert type(m) is int and 0 < m < every, a


def test_every_builder_keeps_its_state_sets_as_masks():
    rng = random.Random(20261020)
    for _ in range(200):
        r, s = random_regex(rng, 3), random_regex(rng, 3)
        built = [compile_regex(r, AB), compile_regex(s, AB)]
        built += [nfa_of_regex(node, AB) for node in (Union(r, s), Concat(r, s), Star(r))]
        for c in built[2:]:
            d = determinize(c)
            built += [d, trim(c), trim(d)]
        for c in built:
            assert_masks(c)
    for v, start, stop in (("a", 0, 0), ("ab", 1, 0), ("aab", 2, 1)):
        assert_masks(power_automaton(v, start, stop, AB))
    for text, _ in corpus_fixtures().values():
        machine = parse_fixture(text).value
        prime = leveled(machine)
        for m in (machine,) if prime is None else (machine, prime):
            assert_masks(bounded_language(m, 4))
        atom = RocAtom(machine)
        for e in (RocConcat(atom, atom), RocPlus(atom)):
            assert_masks(expr_automaton(e, lambda m: bounded_language(m, 4)))
