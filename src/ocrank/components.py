"""Strongly connected components of the leveled machine and their outputs.

Each nontrivial component is checked in stages: first whether every cycle
output through every anchor state stays inside a single primitive power
(then the component contributes a finite amount of order complexity), and
if not, whether at least the zero-weight cycles do (then it contributes one
level of accumulation).  The second stage is the first one run on the
component's tight transitions, which carry exactly its zero-weight cycles.
Two cycle outputs with different primitive roots at the same anchor are a
quasi-density witness and kill scatteredness.

Each stage takes its roots from the arc graph (the component's states with
every output automaton spliced in, :func:`regular.arc_graph`): one search
from a strongly connected component's first anchor gives every node a
potential, the length of a word read on the way to it, and the root is
read off the letters read at each potential modulo the gcd of the cycle
weights (:func:`regular.cycle_roots`).  Stage 1's arc graph is strongly
connected, so stage 1 labels it once from its first anchor with no SCC
search; stage 2's, on the tight transitions only, may fall apart, and it
keeps the search.  A cycle language is built only for the clash that
becomes the verdict, with the same ε-elimination as every other graph
whose arcs carry automata (:func:`regular.expand_graph`): on the arcs
between the clashing component's anchors, those into its first anchor
sent to a sink, from that anchor to the sink.  Its words are the outputs
of single returns, and :func:`regular.cycle_witness` reads the witness
off them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import regular
from .regular import Automaton
from .transducer import TransducerPrime, TypedState, TypedTransition


@dataclass
class Scc:
    """A component: its members, their numbers in ``prime.states``
    (ascending), and the indices in ``prime.arcs`` of its internal
    transitions."""

    index: int
    members: frozenset[TypedState]
    phase: str
    trivial: bool
    ids: list[int]
    internal: list[int]


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
    transitions), which is asserted rather than trusted.  A component is
    trivial when no transition stays inside it.
    """
    succ: list[dict[int, None]] = [{} for _ in prime.states]
    for source, target, _, _ in prime.arcs:
        succ[source][target] = None
    found = regular.tarjan_sccs(len(succ), [list(t) for t in succ])
    comp_of = [0] * len(succ)
    for i, comp in enumerate(found):
        for q in comp:
            comp_of[q] = i
    out: list[dict[int, None]] = [{} for _ in found]
    indegree = [0] * len(found)
    for q, targets in enumerate(succ):
        for t in targets:
            i, j = comp_of[q], comp_of[t]
            if i != j and j not in out[i]:
                out[i][j] = None
                indegree[j] += 1
    internal: list[list[int]] = [[] for _ in found]
    for k, (source, target, _, _) in enumerate(prime.arcs):
        if comp_of[source] == comp_of[target]:
            internal[comp_of[source]].append(k)
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
        sccs.append(Scc(pos, members, phases.pop(), not internal[i], found[i], internal[i]))
    return sccs


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
    if potential is None:
        return None
    return [
        tt for tt in transitions if potential[tt.source] + _weight(tt) == potential[tt.target]
    ]


def certify_component(c: Scc, prime: TransducerPrime) -> ComponentVerdict:
    """Stagewise certification of one component's cycle outputs.

    Stage 1 checks all cycles; on failure, components that can pump the
    counter up yield a quasi-density witness immediately, while the rest
    fall back to stage 2, which checks the zero-weight cycles only (the
    ones whose outputs actually accumulate).  Without a positive cycle
    those are the closed walks on the tight transitions, so stage 2 is
    stage 1 run on those alone.  In a strongly connected component every
    edge lies on a cycle, so all transitions are tight exactly when every
    cycle weighs zero, which ``up`` and ``down`` components must; stage 2
    would then repeat stage 1, and stage 1's clash is the verdict.  Only
    the clash that is returned gets its witness built.

    Stage 1's arc graph is strongly connected: the anchors reach each
    other inside the component, and every spliced node lies on a path
    u → v of its transition, as the output automata come trimmed and
    nonempty.  So stage 1 labels it as one component, with no SCC search.
    """
    if c.trivial:
        return FullyCertified({})
    anchors = sorted(c.members)
    internal = [prime.transition(k) for k in c.internal]
    automata: dict[int, Automaton] = {}  # by base transition, each looked up once
    arcs = []
    for k, tt in zip(c.internal, internal):
        b = prime.arcs[k][2]
        if b not in automata:
            automata[b] = prime.compiled_output(tt)
        arcs.append((tt.source, automata[b], tt.target))
    successors = regular.arc_graph(anchors, arcs)[1]
    roots = regular._component_roots(anchors, successors, list(range(len(successors))))
    if isinstance(roots, dict):
        return FullyCertified(roots)
    tight = tight_transitions(internal)
    if c.phase in ("up", "down") and tight != internal:
        raise AssertionError(
            f"{c.phase} component {anchors} has a nonzero-weight cycle"
        )
    if tight is not None and len(tight) < len(internal):
        kept = set(map(id, tight))  # tight is a sublist of internal
        arcs = [arc for tt, arc in zip(internal, arcs) if id(tt) in kept]
        roots = regular.cycle_roots(anchors, regular.arc_graph(anchors, arcs)[1])
        if isinstance(roots, dict):
            return ZeroCertified(roots)
    return _witness(anchors, arcs, roots, prime.alphabet)


def _witness(anchors: list[TypedState], arcs, members: list[int], alphabet) -> QuasiDenseWitness:
    """The witness of the clash :func:`regular.cycle_roots` reported on
    ``members``, a strongly connected component of the arc graph of
    ``arcs``.  Its cycle words are read along the single returns to its
    first anchor a: :func:`regular.expand_graph` on the arcs between the
    component's anchors, those into a sent to a sink, from a to the sink.
    """
    inside = dict.fromkeys(anchors[s] for s in members[: bisect_left(members, len(anchors))])
    first = anchors[members[0]]
    kept = [(u, a, None if v == first else v) for u, a, v in arcs if u in inside and v in inside]
    cycles = regular.expand_graph([*inside, None], kept, [first], [None], alphabet)
    return QuasiDenseWitness(first, *regular.cycle_witness(cycles))
