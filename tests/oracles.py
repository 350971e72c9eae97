"""Eager automaton constructions that only the tests use, kept as oracles.

``regular.subset_with_witness`` used to build ``intersect(a, complement(b))``
in full and take its least word; it now searches the pairs of state sets
lazily.  These are the eager routines it replaced, in the bitmask
representation of :class:`ocrank.regular.Automaton`, and the language
comparisons built on them.  ``regular.expand_graph`` used to splice every
arc's automaton into the graph, eliminate ε and trim the result; it now
builds the trimmed NFA directly, and :func:`spliced_expand_graph` is the
old composition.  :func:`cycle_outputs` builds one component's cycle
language per anchor, which the components layer no longer does.
"""

from __future__ import annotations

from ocrank import regular
from ocrank.components import Scc, internal_transitions
from ocrank.regular import Automaton, shortest_word
from ocrank.transducer import TransducerPrime, TypedState, TypedTransition
from ocrank.words import Alphabet, state_bits, state_mask


def complete_determinize(a: Automaton) -> Automaton:
    """The subset construction with the empty set kept as a sink, so every
    state has a successor on every letter; states are numbered in BFS
    order with letters in alphabet order, the sink where it is first met."""
    start = state_mask(a.initials)
    index = {start: 0}
    order = [start]
    out_edges: list[dict[str, int]] = []
    for s in order:  # grows while it is walked: a BFS
        row: dict[str, int] = {}
        for ch in a.alphabet.letters:
            t = a.step(s, ch)
            i = index.get(t)
            if i is None:
                i = index[t] = len(order)
                order.append(t)
            row[ch] = 1 << i
        out_edges.append(row)
    finals = state_mask(a.finals)
    accepting = frozenset(i for i, s in enumerate(order) if s & finals)
    return Automaton(a.alphabet, len(order), out_edges, frozenset({0}), accepting)


def complement(a: Automaton) -> Automaton:
    d = complete_determinize(a)
    finals = frozenset(range(d.n)) - d.finals
    return Automaton(d.alphabet, d.n, d.edges, d.initials, finals)


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Product automaton, built on the fly from the initial pairs."""
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for p in sorted(a.initials):
        for q in sorted(b.initials):
            index[(p, q)] = len(order)
            order.append((p, q))
    edges: list[dict[str, int]] = []
    for p, q in order:  # grows while it is walked: a BFS
        row: dict[str, int] = {}
        for ch in a.alphabet.letters:
            ma, mb = a.edges[p].get(ch, 0), b.edges[q].get(ch, 0)
            if not (ma and mb):
                continue
            targets = 0
            for t1 in state_bits(ma):
                for t2 in state_bits(mb):
                    key = (t1, t2)
                    i = index.get(key)
                    if i is None:
                        i = index[key] = len(order)
                        order.append(key)
                    targets |= 1 << i
            row[ch] = targets
        edges.append(row)
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals
    )
    initials = frozenset(range(len(a.initials) * len(b.initials)))
    return Automaton(a.alphabet, len(order), edges, initials, finals)


def eager_difference_witness(a: Automaton, b: Automaton) -> str | None:
    """The least word of L(a) ∖ L(b), from the whole product with the
    complement of b, or None when L(a) ⊆ L(b)."""
    return shortest_word(intersect(a, complement(b)))


def subset_language(a: Automaton, b: Automaton) -> bool:
    return eager_difference_witness(a, b) is None


def equivalent(a: Automaton, b: Automaton) -> bool:
    return subset_language(a, b) and subset_language(b, a)


def is_empty_language(a: Automaton) -> bool:
    return shortest_word(a) is None


def spliced_expand_graph(nodes, arcs, initials, finals, alphabet: Alphabet) -> Automaton:
    """``regular.expand_graph`` the long way: every arc's automaton spliced
    into the graph, ε eliminated, then trimmed."""
    index, successors = regular.arc_graph(nodes, arcs)
    starts, ends = [index[v] for v in initials], [index[v] for v in finals]
    return regular.trim(regular.epsilon_free(successors, starts, ends, alphabet))


def cycle_outputs(
    c: Scc,
    anchor: TypedState,
    prime: TransducerPrime,
    transitions: list[TypedTransition] | None = None,
) -> Automaton:
    """Outputs emitted along closed paths of the component through ``anchor``.

    The paths use ``transitions``, by default all internal transitions of
    the component.  The anchor is split into a source and a sink copy, so
    the language contains exactly the outputs of single returns; repeated
    returns are concatenations of these and add nothing to any
    power-inclusion check.  Trivial components give the empty language.
    """
    if anchor not in c.members:
        raise ValueError(f"{anchor} is not in the component")
    if c.trivial:
        return regular.empty_automaton(prime.alphabet)
    src = ("src", anchor)
    snk = ("snk", anchor)
    nodes: list[object] = [src, snk] + [s for s in sorted(c.members) if s != anchor]
    if transitions is None:
        transitions = internal_transitions(c, prime)
    arcs = []
    for tt in transitions:
        u = src if tt.source == anchor else tt.source
        v = snk if tt.target == anchor else tt.target
        arcs.append((u, prime.compiled_output(tt), v))
    return regular.expand_graph(nodes, arcs, [src], [snk], prime.alphabet)
