"""Strongly connected components of the leveled machine and their outputs.

Each nontrivial component is checked in stages: first whether every cycle
output through every anchor state stays inside a single primitive power
(then the component contributes a finite amount of order complexity), and
if not, whether at least the zero-weight cycles do (then it contributes one
level of accumulation).  The second stage is the first one run on the
component's tight transitions, which carry exactly its zero-weight cycles.
Two cycle outputs with different primitive roots at the same anchor are a
quasi-density witness and kill scatteredness.

Each stage takes its roots from one labelling per strongly connected
component of the arc graph (the component's states with every output
automaton spliced in, :func:`arc_graph`): one cycle language for the
component's first anchor, then one search that places every node at a
position of that anchor's root (:func:`regular.cycle_roots`), instead of
one cycle language and one inclusion test per anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import regular
from .regular import Automaton
from .transducer import TransducerPrime, TypedState, TypedTransition
from .words import Alphabet


@dataclass
class Scc:
    index: int
    members: frozenset[TypedState]
    phase: str
    trivial: bool


@dataclass
class FullyCertified:
    """Every cycle output through each anchor lies in that anchor's root power."""

    roots: dict[TypedState, str | None]


@dataclass
class ZeroCertified:
    """Only the zero-weight cycles are certified single-rooted."""

    roots: dict[TypedState, str | None]


@dataclass
class QuasiDenseWitness:
    """Two cycle outputs at one anchor with different primitive roots."""

    state: TypedState
    word1: str
    word2: str


ComponentVerdict = FullyCertified | ZeroCertified | QuasiDenseWitness


def condense(prime: TransducerPrime) -> list[Scc]:
    """Components of the leveled machine in topological order.

    States are searched in ``prime.states`` order and successors in the
    order of their first transition.  Components are then released in
    Kahn generations over the condensation: first those without incoming
    edges in the order Tarjan found them, then each generation's
    successors in the order their edges first appear.  The phase is
    constant on every component (phases only ever advance along
    transitions), which is asserted rather than trusted.
    """
    number = {s: i for i, s in enumerate(prime.states)}
    succ: list[dict[int, None]] = [{} for _ in prime.states]
    for tt in prime.transitions:
        succ[number[tt.source]][number[tt.target]] = None
    found = regular.tarjan_sccs(len(succ), [list(t) for t in succ])
    comp_of = {q: i for i, comp in enumerate(found) for q in comp}
    out: list[dict[int, None]] = [{} for _ in found]
    indegree = [0] * len(found)
    for q, targets in enumerate(succ):
        for t in targets:
            i, j = comp_of[q], comp_of[t]
            if i != j and j not in out[i]:
                out[i][j] = None
                indegree[j] += 1
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:  # grows while it is walked, one generation after another
        for j in out[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)

    sccs: list[Scc] = []
    for pos, i in enumerate(order):
        members = frozenset(prime.states[q] for q in found[i])
        phases = {s.phase for s in members}
        if len(phases) != 1:
            raise AssertionError(f"component {sorted(members)} mixes phases {phases}")
        only = found[i][0]
        trivial = len(found[i]) == 1 and only not in succ[only]
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
# Cycle weights over ±1 edge weights


def _weight(tt: TypedTransition) -> int:
    return 1 if tt.bit == 0 else -1


def tight_transitions(transitions: list[TypedTransition]) -> list[TypedTransition] | None:
    """The transitions on which a longest-path potential is tight.

    None when the graph has a positive cycle.  Otherwise
    :func:`regular.longest_potential` gives a potential with
    π(v) ≥ π(u) + w on every edge, so a closed walk weighs
    Σ (π(u) + w − π(v)) ≤ 0, with equality exactly when each of its edges
    is tight: π(u) + w = π(v).  The tight edges are the critical graph of
    max-plus algebra, and their closed walks are the zero-weight closed
    walks of the whole graph.
    """
    potential = regular.longest_potential(
        [(tt.source, _weight(tt), tt.target) for tt in transitions]
    )
    if not isinstance(potential, dict):
        return None
    return [
        tt for tt in transitions if potential[tt.source] + _weight(tt) == potential[tt.target]
    ]


# ---------------------------------------------------------------------------
# Expanding graphs whose edges carry whole automata


def arc_graph(nodes, arcs) -> tuple[dict[object, int], list[list[tuple[str, int]]]]:
    """The graph of ``nodes`` with each arc's automaton spliced in.

    ``arcs`` are (u, automaton, v).  The nodes are numbered first, in the
    given order, then a fresh copy of each arc's states, arc after arc.
    ``successors[x]`` lists (letter, y): the copies keep their letter
    edges, and ε arcs, with letter "", lead from u into the copy's initial
    states and from its final states to v.
    """
    index: dict[object, int] = {}
    for v in nodes:
        index[v] = len(index)
    successors: list[list[tuple[str, int]]] = [[] for _ in index]
    for u, a, v in arcs:
        base = len(successors)
        for q in range(a.n):
            successors.append(
                [(ch, base + t) for ch, targets in a.edges[q].items() for t in targets]
            )
        for i in a.initials:
            successors[index[u]].append(("", base + i))
        for f in a.finals:
            successors[base + f].append(("", index[v]))
    return index, successors


def expand_graph(
    nodes,
    arcs,
    initials,
    finals,
    alphabet: Alphabet,
) -> Automaton:
    """NFA for the words read along paths of a graph with automaton edges.

    ``arcs`` are (u, automaton, v): traversing the arc reads one member of
    the automaton's language.  The ε arcs of :func:`arc_graph` are
    eliminated before returning.
    """
    index, successors = arc_graph(nodes, arcs)
    total = len(successors)
    closures: list[set[int]] = []
    for s in range(total):
        closure = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for ch, y in successors[x]:
                if not ch and y not in closure:
                    closure.add(y)
                    stack.append(y)
        closures.append(closure)

    edges: list[dict[str, frozenset[int]]] = [{} for _ in range(total)]
    final_set = {index[v] for v in finals}
    new_finals = set()
    for s in range(total):
        row: dict[str, set[int]] = {}
        for x in closures[s]:
            for ch, y in successors[x]:
                if ch:
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
    return expand_graph(nodes, arcs, [src], [snk], prime.alphabet)


def certify_component(c: Scc, prime: TransducerPrime) -> ComponentVerdict:
    """Stagewise certification of one component's cycle outputs.

    Stage 1 checks all cycles; on failure, components that can pump the
    counter up yield a quasi-density witness immediately, while the rest
    fall back to stage 2, which checks the zero-weight cycles only (the
    ones whose outputs actually accumulate).  Without a positive cycle
    those are the closed walks on the tight transitions, so stage 2 is
    stage 1 run on those alone.  In a strongly connected component every
    edge lies on a cycle, so all transitions are tight exactly when every
    cycle weighs zero, which ``up`` and ``down`` components must.
    """
    if c.trivial:
        return FullyCertified({})
    anchors = sorted(c.members)
    internal = internal_transitions(c, prime)
    roots = _cycle_roots(c, prime, anchors, internal)
    if isinstance(roots, dict):
        return FullyCertified(roots)
    tight = tight_transitions(internal)
    if c.phase in ("up", "down") and tight != internal:
        raise AssertionError(
            f"{c.phase} component {anchors} has a nonzero-weight cycle"
        )
    if tight is None:
        return QuasiDenseWitness(*roots)
    roots = _cycle_roots(c, prime, anchors, tight)
    if isinstance(roots, dict):
        return ZeroCertified(roots)
    return QuasiDenseWitness(*roots)


def _cycle_roots(
    c: Scc,
    prime: TransducerPrime,
    anchors: list[TypedState],
    transitions: list[TypedTransition],
) -> dict[TypedState, str | None] | tuple[TypedState, str, str]:
    """:func:`regular.cycle_roots` on the closed walks along ``transitions``."""
    arcs = [(tt.source, prime.compiled_output(tt), tt.target) for tt in transitions]
    _, successors = arc_graph(anchors, arcs)
    return regular.cycle_roots(
        anchors, successors, lambda s: cycle_outputs(c, s, prime, transitions)
    )
