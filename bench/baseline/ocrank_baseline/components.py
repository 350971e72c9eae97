"""Strongly connected components of the leveled machine and their outputs.

Each nontrivial component is checked in stages: first whether every cycle
output through every anchor state stays inside a single primitive power
(then the component contributes a finite amount of order complexity), and
if not, whether at least the zero-weight cycles do (then it contributes one
level of accumulation).  Two cycle outputs with different primitive roots
at the same anchor are a quasi-density witness and kill scatteredness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from . import regular
from .regular import Automaton
from .transducer import TransducerPrime, TypedState, TypedTransition
from .words import Alphabet, primitive_root


@dataclass
class Scc:
    index: int
    members: frozenset[TypedState]
    phase: str
    trivial: bool


@dataclass(frozen=True)
class CycleProfile:
    has_zero: bool
    has_positive: bool
    has_negative: bool


@dataclass
class FullyCertified:
    """Every cycle output through each anchor lies in that anchor's root power."""

    roots: dict[TypedState, str | None]


@dataclass
class ZeroCertified:
    """Only the zero-weight cycles are certified single-rooted.

    ``band`` is the weight-excursion bound within which the certification
    automaton contains every zero-weight cycle (sufficient here: without
    positive cycles, zero-weight excursions cannot leave the band).
    """

    roots: dict[TypedState, str | None]
    band: int


@dataclass
class QuasiDenseWitness:
    """Two cycle outputs at one anchor with different primitive roots."""

    state: TypedState
    word1: str
    word2: str


ComponentVerdict = FullyCertified | ZeroCertified | QuasiDenseWitness


def condense(prime: TransducerPrime) -> list[Scc]:
    """Components of the leveled machine in topological order.

    The phase is constant on every component (phases only ever advance
    along transitions), which is asserted rather than trusted.
    """
    g = nx.DiGraph()
    g.add_nodes_from(prime.states)
    for tt in prime.transitions:
        g.add_edge(tt.source, tt.target)
    cond = nx.condensation(g)
    sccs: list[Scc] = []
    for pos, node in enumerate(nx.topological_sort(cond)):
        members = frozenset(cond.nodes[node]["members"])
        phases = {s.phase for s in members}
        if len(phases) != 1:
            raise AssertionError(f"component {sorted(members)} mixes phases {phases}")
        only = next(iter(members))
        trivial = len(members) == 1 and not g.has_edge(only, only)
        sccs.append(Scc(pos, members, phases.pop(), trivial))
    return sccs


def scc_index_of(sccs: list[Scc]) -> dict[TypedState, int]:
    out: dict[TypedState, int] = {}
    for c in sccs:
        for s in c.members:
            out[s] = c.index
    return out


def internal_transitions(c: Scc, prime: TransducerPrime) -> list[TypedTransition]:
    return [
        tt for tt in prime.transitions if tt.source in c.members and tt.target in c.members
    ]


# ---------------------------------------------------------------------------
# Cycle means (Karp) over ±1 edge weights


def _karp_max_mean(nodes: list, edges: list[tuple[object, int, object]]) -> Fraction | None:
    """Maximum cycle mean of a directed graph, None if it has no cycle.

    Karp's dynamic program: d_k(v) = best weight of any k-edge walk from a
    virtual source that reaches every node at k=0.  Exact with Fractions.
    """
    n = len(nodes)
    if n == 0:
        return None
    idx = {v: i for i, v in enumerate(nodes)}
    minus_inf = None
    d: list[list[int | None]] = [[minus_inf] * n for _ in range(n + 1)]
    for i in range(n):
        d[0][i] = 0
    for k in range(1, n + 1):
        for u, w, v in edges:
            du = d[k - 1][idx[u]]
            if du is None:
                continue
            j = idx[v]
            cand = du + w
            if d[k][j] is None or cand > d[k][j]:
                d[k][j] = cand
    best: Fraction | None = None
    for j in range(n):
        if d[n][j] is None:
            continue
        worst: Fraction | None = None
        for k in range(n):
            if d[k][j] is None:
                continue
            mean = Fraction(d[n][j] - d[k][j], n - k)
            if worst is None or mean < worst:
                worst = mean
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def cycle_profile(c: Scc, prime: TransducerPrime) -> CycleProfile:
    """Signs of cycle weights available inside a nontrivial component.

    A component holding both a positive and a negative cycle also holds a
    zero-weight closed walk (combine them in the right multiplicities), so
    zero detection reduces to the min/max cycle means.
    """
    if c.trivial:
        raise ValueError("cycle_profile needs a nontrivial component")
    nodes = sorted(c.members)
    edges = [
        (tt.source, 1 if tt.bit == 0 else -1, tt.target)
        for tt in internal_transitions(c, prime)
    ]
    max_mean = _karp_max_mean(nodes, edges)
    min_mean_neg = _karp_max_mean(nodes, [(u, -w, v) for u, w, v in edges])
    if max_mean is None or min_mean_neg is None:
        raise AssertionError(f"nontrivial component {nodes} has no cycle")
    min_mean = -min_mean_neg
    profile = CycleProfile(
        has_zero=min_mean <= 0 <= max_mean,
        has_positive=max_mean > 0,
        has_negative=min_mean < 0,
    )
    if c.phase in ("up", "down") and (profile.has_positive or profile.has_negative):
        raise AssertionError(
            f"{c.phase} component {nodes} has a nonzero-weight cycle"
        )
    return profile


# ---------------------------------------------------------------------------
# Expanding graphs whose edges carry whole automata


def expand_graph(
    nodes,
    arcs,
    initials,
    finals,
    alphabet: Alphabet,
) -> Automaton:
    """NFA for the words read along paths of a graph with automaton edges.

    ``arcs`` are (u, automaton, v): traversing the arc reads one member of
    the automaton's language.  Implemented with internal epsilon moves that
    are eliminated before returning.
    """
    index: dict[object, int] = {}
    for v in nodes:
        index[v] = len(index)
    letter_edges: list[tuple[int, str, int]] = []
    eps_edges: list[tuple[int, int]] = []
    total = len(index)
    for u, a, v in arcs:
        base = total
        total += a.n
        for q in range(a.n):
            for ch, targets in a.edges[q].items():
                for t in targets:
                    letter_edges.append((base + q, ch, base + t))
        for i in a.initials:
            eps_edges.append((index[u], base + i))
        for f in a.finals:
            eps_edges.append((base + f, index[v]))

    eps_succ: list[list[int]] = [[] for _ in range(total)]
    for x, y in eps_edges:
        eps_succ[x].append(y)
    closures: list[set[int]] = []
    for s in range(total):
        closure = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in eps_succ[x]:
                if y not in closure:
                    closure.add(y)
                    stack.append(y)
        closures.append(closure)

    edges: list[dict[str, frozenset[int]]] = [{} for _ in range(total)]
    by_source: dict[int, list[tuple[str, int]]] = {}
    for x, ch, y in letter_edges:
        by_source.setdefault(x, []).append((ch, y))
    final_set = {index[v] for v in finals}
    new_finals = set()
    for s in range(total):
        row: dict[str, set[int]] = {}
        for x in closures[s]:
            for ch, y in by_source.get(x, ()):
                row.setdefault(ch, set()).add(y)
        edges[s] = {ch: frozenset(ts) for ch, ts in row.items()}
        if closures[s] & final_set:
            new_finals.add(s)
    return regular.trim(
        Automaton(
            alphabet,
            total,
            edges,
            frozenset(index[v] for v in initials),
            frozenset(new_finals),
        )
    )


def cycle_outputs(c: Scc, anchor: TypedState, prime: TransducerPrime) -> Automaton:
    """Outputs emitted along closed paths of the component through ``anchor``.

    The anchor is split into a source and a sink copy, so the language
    contains exactly the outputs of single returns; repeated returns are
    concatenations of these and add nothing to any power-inclusion check.
    Trivial components give the empty language.
    """
    if anchor not in c.members:
        raise ValueError(f"{anchor} is not in the component")
    if c.trivial:
        return regular.empty_automaton(prime.alphabet)
    src = ("src", anchor)
    snk = ("snk", anchor)
    nodes: list[object] = [src, snk] + [s for s in sorted(c.members) if s != anchor]
    arcs = []
    for tt in internal_transitions(c, prime):
        u = src if tt.source == anchor else tt.source
        v = snk if tt.target == anchor else tt.target
        arcs.append((u, prime.compiled_output(tt), v))
    return expand_graph(nodes, arcs, [src], [snk], prime.alphabet)


def _zero_cycle_outputs(
    c: Scc, anchor: TypedState, prime: TransducerPrime, band: int
) -> Automaton:
    """Outputs of zero-weight closed paths through ``anchor``.

    Tracks the running weight in [-band, band]; for components without
    positive cycles every zero-weight closed path stays inside the band,
    so nothing is missed.
    """
    src = ("src", anchor, 0)
    snk = ("snk", anchor, 0)
    nodes: list[object] = [src, snk]
    for s in sorted(c.members):
        for w in range(-band, band + 1):
            if s == anchor and w == 0:
                continue
            nodes.append((s, w))
    arcs = []
    for tt in internal_transitions(c, prime):
        delta = 1 if tt.bit == 0 else -1
        a = prime.compiled_output(tt)
        for w in range(-band, band + 1):
            w2 = w + delta
            if not -band <= w2 <= band:
                continue
            u = src if (tt.source == anchor and w == 0) else (tt.source, w)
            v = snk if (tt.target == anchor and w2 == 0) else (tt.target, w2)
            arcs.append((u, a, v))
    return expand_graph(nodes, arcs, [src], [snk], prime.alphabet)


def certify_component(c: Scc, prime: TransducerPrime) -> ComponentVerdict:
    """Stagewise certification of one component's cycle outputs.

    Stage 1 checks all cycles; on failure, components that can pump the
    counter up yield a quasi-density witness immediately, while the rest
    fall back to stage 2, which checks the zero-weight cycles only (the
    ones whose outputs actually accumulate).
    """
    if c.trivial:
        return FullyCertified({})
    roots: dict[TypedState, str | None] = {}
    failures: list[tuple[TypedState, str, str]] = []
    for s in sorted(c.members):
        outputs = cycle_outputs(c, s, prime)
        m = regular.shortest_nonempty_word(outputs)
        if m is None:
            roots[s] = None
            continue
        v = primitive_root(m)
        roots[s] = v
        ok, counterexample = regular.subset_of_power_with_witness(outputs, v)
        if not ok:
            assert counterexample is not None
            failures.append((s, m, counterexample))
    if not failures:
        return FullyCertified(roots)

    profile = cycle_profile(c, prime)
    if profile.has_positive:
        s, m, x = failures[0]
        return QuasiDenseWitness(s, m, x)

    band = 2 * len(c.members) * prime.period
    zero_roots: dict[TypedState, str | None] = {}
    for s in sorted(c.members):
        outputs = _zero_cycle_outputs(c, s, prime, band)
        m = regular.shortest_nonempty_word(outputs)
        if m is None:
            zero_roots[s] = None
            continue
        v = primitive_root(m)
        zero_roots[s] = v
        ok, counterexample = regular.subset_of_power_with_witness(outputs, v)
        if not ok:
            assert counterexample is not None
            return QuasiDenseWitness(s, m, counterexample)
    return ZeroCertified(zero_roots, band)
