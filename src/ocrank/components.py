"""Strongly connected components of the leveled machine and their outputs.

Each nontrivial component is checked in stages: first whether every cycle
output through every anchor state stays inside a single primitive power
(then the component contributes a finite amount of order complexity), and
if not, whether at least the zero-weight cycles do (then it contributes one
level of accumulation).  The second stage is the first one run on the
component's tight transitions, which carry exactly its zero-weight cycles.
Two cycle outputs with different primitive roots at the same anchor are a
quasi-density witness and kill scatteredness.

Each stage labels the leveled states themselves
(:func:`regular.cycle_roots`): each transition reads one word of its
output, and one search from the least anchor gives every state a
potential, the length of the words read on the way to it.  The letters at
each potential modulo the gcd of the cycle weights spell a word whose
primitive root v is the root, and every transition's whole output must
read v^ω from its source's position to its target's.  Stage 1 labels the
component as one; stage 2's tight transitions may fall apart, and it
labels their components.  A cycle language is built only for the clash
that becomes the verdict, from the stage's own arc lists
(:func:`regular.single_returns`): its words are the outputs of the single
returns to the clashing component's first anchor, and
:func:`regular.cycle_witness` reads the witness off them.
"""

from __future__ import annotations

from typing import NamedTuple

from . import regular
from .regular import Automaton
from .transducer import TransducerPrime, TypedState
from .words import Record


class Scc(Record):
    """A component: its members' numbers in ``prime.states`` (ascending),
    and the indices in ``prime.arcs`` of the transitions out of its
    members, filed as ``internal`` (the target is a member too) or
    ``leaving`` (the target lies in a later component)."""

    __slots__ = _fields = ("index", "members", "phase", "trivial", "internal", "leaving")

    def __init__(self, index: int, members: list[int], phase: str, trivial: bool,
                 internal: list[int], leaving: list[int]) -> None:
        self.index, self.members, self.phase, self.trivial = index, members, phase, trivial
        self.internal, self.leaving = internal, leaving


class _Certified(Record):
    """A certified component's root per anchor, keyed by state number.  Of
    one layout, the two verdicts below differ by class, so they are
    records, not named tuples."""

    __slots__ = _fields = ("roots",)

    def __init__(self, roots: dict[int, str | None]) -> None:
        self.roots = roots


class FullyCertified(_Certified):
    """Every cycle output through each anchor lies in that anchor's root power."""

    __slots__ = ()


class ZeroCertified(_Certified):
    """Only the zero-weight cycles are certified single-rooted."""

    __slots__ = ()


class QuasiDenseWitness(NamedTuple):
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
    filed: list[tuple[list[int], list[int]]] = [([], []) for _ in found]  # internal, leaving
    for k, (source, target, _, _) in enumerate(prime.arcs):
        i = comp_of[source]
        filed[i][i != comp_of[target]].append(k)
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:  # grows while it is walked, one generation after another
        for j in out[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)

    sccs: list[Scc] = []
    for pos, i in enumerate(order):
        members = found[i]
        phases = {prime.states[q].phase for q in members}
        if len(phases) != 1:
            raise AssertionError(f"component {members} mixes phases {phases}")
        internal, leaving = filed[i]
        sccs.append(Scc(pos, members, phases.pop(), not internal, internal, leaving))
    return sccs


# ---------------------------------------------------------------------------
# Cycle weights over ±1 edge weights


def tight_transitions(arcs: list[tuple]) -> list[tuple] | None:
    """The arcs on which a longest-path potential is tight.

    Each arc starts (source, weight, target).  None when the graph has a
    positive cycle.  Otherwise :func:`regular.longest_potential` gives a
    potential with π(v) ≥ π(u) + w on every arc, so a closed walk weighs
    Σ (π(u) + w − π(v)) ≤ 0, with equality exactly when each of its arcs
    is tight: π(u) + w = π(v).  The tight arcs are the critical graph of
    max-plus algebra, and their closed walks are the zero-weight closed
    walks of the whole graph.
    """
    potential = regular.longest_potential([arc[:3] for arc in arcs])
    if potential is None:
        return None
    return [arc for arc in arcs if potential[arc[0]] + arc[1] == potential[arc[2]]]


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

    The anchors are the members, numbered in the order of their states.
    Each arc's word w is its output's shortest nonempty word, ε if it has
    none, read from the leveled machine's sample table (:func:`_samples`).
    The component is strongly connected, so stage 1 runs no SCC search.
    """
    if c.trivial:
        return FullyCertified({})
    anchors = sorted(c.members, key=prime.states.__getitem__)
    node = {k: x for x, k in enumerate(anchors)}
    samples = _samples(prime)
    arcs = []  # (x, weight, y, w, automaton)
    for k in c.internal:
        source, target, b, _ = prime.arcs[k]
        weight, w, a = samples[b]
        arcs.append((node[source], weight, node[target], w, a))
    out = _out_arcs(len(anchors), arcs)
    roots = regular.cycle_roots(out, [list(range(len(anchors)))])
    if isinstance(roots, dict):
        return FullyCertified({k: roots[x] for x, k in enumerate(anchors)})
    tight = tight_transitions(arcs)
    if c.phase in ("up", "down") and tight != arcs:
        raise AssertionError(f"{c.phase} component {anchors} has a nonzero-weight cycle")
    if tight is not None and len(tight) < len(arcs):
        out = _out_arcs(len(anchors), tight)
        targets = [[y for y, _, _ in row] for row in out]
        roots = regular.cycle_roots(out, sorted(regular.tarjan_sccs(len(anchors), targets)))
        if isinstance(roots, dict):
            return ZeroCertified({k: roots[x] for x, k in enumerate(anchors)})
    cycles = regular.single_returns(out, roots, prime.alphabet)
    return QuasiDenseWitness(prime.states[anchors[roots[0]]], *regular.cycle_witness(cycles))


def _samples(prime: TransducerPrime) -> list[tuple[int, str, Automaton]]:
    """Each base transition's (weight, shortest nonempty word or ε,
    automaton), made on the first call for a leveled machine and kept on
    it for its other components: one word search per distinct automaton."""
    if prime._samples is None:
        by_output: dict[int, tuple[str, Automaton]] = {}  # transitions share outputs
        words: dict[int, str] = {}  # and equal outputs share an automaton
        table = []
        for t in prime.base.transitions:
            sample = by_output.get(id(t.output))
            if sample is None:
                a = prime.base.compiled_output(t)
                if id(a) not in words:
                    words[id(a)] = regular.shortest_nonempty_word(a) or ""
                sample = by_output[id(t.output)] = words[id(a)], a
            table.append((1 - 2 * t.bit, *sample))
        prime._samples = table
    return prime._samples


def _out_arcs(n: int, arcs) -> list[list[tuple[int, str, Automaton]]]:
    """Each node's out-arcs (y, w, automaton), as :func:`regular.cycle_roots` takes them."""
    out: list[list[tuple[int, str, Automaton]]] = [[] for _ in range(n)]
    for x, _, y, w, a in arcs:
        out[x].append((y, w, a))
    return out
