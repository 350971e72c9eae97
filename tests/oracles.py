"""Eager automaton constructions that only the tests use, kept as oracles.

``regular.subset_with_witness`` used to build ``intersect(a, complement(b))``
in full and take its least word; it now searches the pairs of state sets
lazily.  These are the eager routines it replaced, in the bitmask
representation of :class:`ocrank.regular.Automaton`, and the language
comparisons built on them.  ``regular.expand_graph`` used to splice every
arc's automaton into the graph, eliminate ε and trim the result; it now
builds the trimmed NFA directly, and :func:`spliced_expand_graph` is the
old composition, with the ε-elimination :func:`epsilon_free` that
``regular`` no longer has, and :func:`arc_graph` is that splicing.
:func:`closed_walks` is how a density witness's cycle language was
built before it came from ``regular.expand_graph`` too.
:func:`arc_graph_roots` is ``regular.cycle_roots`` as it labelled an arc
graph, one node per automaton state, before it labelled a graph's own
nodes with one word per arc, and :func:`arc_graph_certify` is
``components.certify_component`` built on it: the reference for roots,
stages and witnesses.  :func:`tight_typed` runs
``components.tight_transitions`` on :class:`TypedTransition` objects.
:func:`cycle_outputs` builds one component's cycle language per anchor,
which the components layer no longer does.
:func:`build_by_sets` is how ``UPSet.build`` normalized sets of counters
before it worked on bitmasks, and :func:`reach_sets_by_upsets`
is ``counterset.reach_sets`` as it was before the sets were read off bit
rows: a Dyck closure per direction, :func:`build_by_sets` per state,
:func:`intersect_by_membership` for each meet and a membership test per
type candidate.  :func:`reach_sets_by_slices` is ``counterset.reach_sets``
as it was before it kept its counter sets as integer rows until read:
:func:`certified_slices` built each direction's sets and certificates,
``up_intersect`` each meet (here :func:`intersect_by_membership`), and
:func:`select_period` took P from the meets.  Both return a
:class:`SetReport`, every field built eagerly.
:func:`leveled_by_pairs` is ``transducer.build_mprime``
as it was before it generated each transition's copies from the rules:
every (source type, target type) pair tested against :func:`match_rule`.
:func:`internal_transitions` and :func:`scc_index_of` are the scans the
components and rank layers did before they read integer arcs.  The
package code never called the rest: :func:`step_language`,
:func:`language_of_input` and :func:`balanced_words_up_to` give the
outputs input word by input word, where ``transducer.bounded_outputs``
builds them all at once, and :func:`up_union` and
:func:`worked_close_image` are set arithmetic that the tests check.
The package makes a :class:`UPSet` only by folding a counter row; the
tests make them with :func:`build_by_sets`, test membership with
:func:`member` and take a set's row with :func:`upset_row`.
:func:`union_automata`, :func:`concat_automata` and
:func:`star_automaton` are the combinators that built regex nodes and
expression steps before ``regular.expand_graph`` built them:
:func:`nfa_by_combinators` and :func:`expr_by_combinators` fold a regex
and an expression with them, and the per-word oracles below use them, so
that they do not share the builder they check.
:func:`membership` tests one word against an automaton, and
:func:`project_run` forgets a lifted run's levels and phases; the package
had both, but only the tests called them.
:func:`typed_lift` is ``transducer.lift_run`` as it was before it read
``prime.arcs``: a :class:`TypedState` per step of the run, each step
looked up in :func:`by_ends`, a dict keyed by (TypedState, TypedState,
Transition), after :func:`check_run_by_word` had checked the run through
its input word.  :func:`bounded_outputs_by_transitions` is
``transducer.bounded_outputs`` on a leveled machine as it was before it
walked state numbers: the walk over ``prime.transitions``, with one
compiled-regex lookup per arc.  :func:`bounded_language_by_union` is
``transducer.bounded_language`` as it was before it made the initial
states final: the union with ε's automaton.
:func:`probe_machine_by_transitions` is ``harness.probe_density`` on a
machine atom as it was before it walked state numbers: each walk it pops
scans every leveled transition and takes the shortest word of the scanned
one's output.
:class:`Relation`, :func:`compare`, :func:`lex_less` and :func:`lex_key`
specify the lexicographic order that ``regular.words_up_to`` lists words
in, and :func:`open_depth`, :func:`is_dyck_prefix`, :func:`in_d1` and
:func:`run_input_word` read a run's input word; the package had them, but
only the tests called them.
:func:`parse_machine_text` is how ``cli.parse_fixture`` read a machine
fixture before it parsed in one pass: a pass over the lines, a second over
the ``trans`` lines, a regex parse per line, and ``make_transducer``.
:func:`argparse_front` is how ``cli.main`` read its command line before
it had a parser of its own: the ``argparse`` parser it built, and what
main made of its result, an error or the help.
:func:`shortest_from` is the breadth-first search that
``regular.shortest_word`` and ``regular.shortest_nonempty_word`` ran
before they became ``regular.subset_with_witness`` against the empty
language and against ε's, and :func:`live_states` is the live-path search
over transitions that ``transducer`` ran before ``_split`` and
``build_mprime`` shared one over (source, target) pairs.  The oracles
here use these copies, not the package's searches, so that a
differential test does not check the package against itself.  :func:`typed_members` and
:func:`typed_ends` give a component's members and a leveled machine's
initial and final states as :class:`TypedState` objects, where the
package names them by number.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import math
from collections import deque
from enum import Enum

from ocrank import counterset, regular
from ocrank.cli import FixtureError
from ocrank.components import (
    FullyCertified,
    QuasiDenseWitness,
    Scc,
    ZeroCertified,
    tight_transitions,
)
from ocrank.counterset import (
    CertificationError,
    SliceCertificate,
    UPSet,
    default_counter_cap,
    dyck_closure,
    level_cycle,
    reach_sets,
)
from ocrank.rank import NotScattered, RocAtom, RocConcat, RocExpr
from ocrank.regular import Automaton, Regex, RegexSyntaxError, parse_regex
from ocrank.transducer import (
    DOWN,
    EQ,
    UP,
    LevelingError,
    Transducer,
    TransducerPrime,
    Transition,
    TypedState,
    TypedTransition,
    TransducerError,
    bounded_outputs,
    build_mprime,
    make_transducer,
)
from ocrank.words import (
    BINARY,
    Alphabet,
    distinct_root_pair,
    primitive_root,
    state_bits,
    state_mask,
)


class Relation(Enum):
    """How two words relate under the prefix and first-divergence orders.

    Exactly one relation holds for any pair over a common alphabet.  The
    strict lexicographic order is ``PROPER_PREFIX_OF | STRICT_LESS``.
    """

    EQUAL = "equal"
    PROPER_PREFIX_OF = "proper-prefix-of"
    HAS_PROPER_PREFIX = "has-proper-prefix"
    STRICT_LESS = "strict-less"
    STRICT_GREATER = "strict-greater"


def compare(u: str, v: str, alphabet: Alphabet) -> Relation:
    """Classify the pair (u, v) into the unique :class:`Relation`."""
    alphabet.check_word(u)
    alphabet.check_word(v)
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            if alphabet.rank(u[i]) < alphabet.rank(v[i]):
                return Relation.STRICT_LESS
            return Relation.STRICT_GREATER
    if len(u) == len(v):
        return Relation.EQUAL
    if len(u) < len(v):
        return Relation.PROPER_PREFIX_OF
    return Relation.HAS_PROPER_PREFIX


def lex_less(u: str, v: str, alphabet: Alphabet) -> bool:
    """True iff u precedes v in the lexicographic order (prefixes first)."""
    return compare(u, v, alphabet) in (Relation.STRICT_LESS, Relation.PROPER_PREFIX_OF)


def lex_key(w: str, alphabet: Alphabet) -> tuple[int, ...]:
    """Sort key realizing the lexicographic order as Python tuple order.

    Tuple comparison puts a proper prefix before its extensions and
    otherwise compares the first diverging letter, which is exactly the
    order ``lex_less`` decides.
    """
    return tuple(alphabet.rank(ch) for ch in w)


def _check_binary(w: str) -> None:
    for ch in w:
        if ch not in ("0", "1"):
            raise ValueError(f"expected a binary word over 0/1, found {ch!r}")


def open_depth(w: str) -> int:
    """Number of 0s minus number of 1s (may be negative)."""
    _check_binary(w)
    return 2 * w.count("0") - len(w)


def is_dyck_prefix(w: str) -> bool:
    """True iff w extends to a balanced word: every prefix stays ≥ 0."""
    _check_binary(w)
    depth = 0
    for ch in w:
        depth += 1 if ch == "0" else -1
        if depth < 0:
            return False
    return True


def in_d1(w: str) -> bool:
    return is_dyck_prefix(w) and open_depth(w) == 0


def run_input_word(run: list[Transition]) -> str:
    return "".join(str(t.bit) for t in run)


def complete_determinize(a: Automaton) -> Automaton:
    """The subset construction with the empty set kept as a sink, so every
    state has a successor on every letter; states are numbered in BFS
    order with letters in alphabet order, the sink where it is first met."""
    start = a.initials
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
    accepting = state_mask(i for i, s in enumerate(order) if s & a.finals)
    return Automaton(a.alphabet, len(order), out_edges, 1, accepting)


def complement(a: Automaton) -> Automaton:
    d = complete_determinize(a)
    finals = ((1 << d.n) - 1) & ~d.finals
    return Automaton(d.alphabet, d.n, d.edges, d.initials, finals)


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Product automaton, built on the fly from the initial pairs."""
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for p in state_bits(a.initials):
        for q in state_bits(b.initials):
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
    finals = state_mask(
        i for i, (p, q) in enumerate(order) if a.finals >> p & b.finals >> q & 1
    )
    initials = (1 << a.initials.bit_count() * b.initials.bit_count()) - 1
    return Automaton(a.alphabet, len(order), edges, initials, finals)


def eager_difference_witness(a: Automaton, b: Automaton) -> str | None:
    """The least word of L(a) ∖ L(b), from the whole product with the
    complement of b, or None when L(a) ⊆ L(b)."""
    return shortest_from(intersect(a, complement(b)), allow_empty=True)


def subset_language(a: Automaton, b: Automaton) -> bool:
    return eager_difference_witness(a, b) is None


def equivalent(a: Automaton, b: Automaton) -> bool:
    return subset_language(a, b) and subset_language(b, a)


def is_empty_language(a: Automaton) -> bool:
    return shortest_from(a, allow_empty=True) is None


def shortest_from(a: Automaton, allow_empty: bool) -> str | None:
    """The length-then-lex least word of ``a``, of length ≥ 1 unless
    ``allow_empty``, or None: ``regular.shortest_word`` and
    ``regular.shortest_nonempty_word`` as they were before they became
    ``regular.subset_with_witness`` against the empty language and against
    ε's.  A breadth-first search over state sets, letters in alphabet
    order, that stops at the first accepting set it makes."""
    finals, start = a.finals, a.initials
    if allow_empty and start & finals:
        return ""
    seen = {start}
    queue: deque[tuple[int, str]] = deque([(start, "")])
    while queue:
        s, path = queue.popleft()
        for ch in a.alphabet.letters:
            t = a.step(s, ch)
            if not t:
                continue
            word = path + ch
            if t & finals:
                return word
            if t not in seen:
                seen.add(t)
                queue.append((t, word))
    return None


def membership(a: Automaton, w: str) -> bool:
    a.alphabet.check_word(w)
    current = a.initials
    for ch in w:
        current = a.step(current, ch)
        if not current:
            return False
    return bool(current & a.finals)


def spliced_expand_graph(nodes, arcs, initials, finals, alphabet: Alphabet) -> Automaton:
    """``regular.expand_graph`` the long way: every arc's automaton spliced
    into the graph, ε eliminated, then trimmed."""
    index, successors = arc_graph(nodes, arcs)
    starts, ends = [index[v] for v in initials], [index[v] for v in finals]
    return regular.trim(epsilon_free(successors, starts, ends, alphabet))


def _shifted(a: Automaton, offset: int) -> list[dict[str, int]]:
    """A copy of ``a``'s rows with every state moved up by ``offset``."""
    return [{ch: m << offset for ch, m in row.items()} for row in a.edges]


def _add_moves(row: dict[str, int], moves: dict[str, int]) -> None:
    for ch, m in moves.items():
        row[ch] = row.get(ch, 0) | m


def _initial_moves(a: Automaton) -> dict[str, int]:
    """The successors of ``a``'s initial states, per letter."""
    moves: dict[str, int] = {}
    for i in state_bits(a.initials):
        _add_moves(moves, a.edges[i])
    return moves


def union_automata(a: Automaton, b: Automaton) -> Automaton:
    edges = _shifted(a, 0) + _shifted(b, a.n)
    initials = a.initials | b.initials << a.n
    finals = a.finals | b.finals << a.n
    return Automaton(a.alphabet, a.n + b.n, edges, initials, finals)


def concat_automata(a: Automaton, b: Automaton) -> Automaton:
    edges = _shifted(a, 0) + _shifted(b, a.n)
    b_starts = {ch: m << a.n for ch, m in _initial_moves(b).items()}
    for f in state_bits(a.finals):
        _add_moves(edges[f], b_starts)
    finals = b.finals << a.n | (a.finals if b.initials & b.finals else 0)
    initials = a.initials | (b.initials << a.n if a.initials & a.finals else 0)
    return Automaton(a.alphabet, a.n + b.n, edges, initials, finals)


def star_automaton(a: Automaton) -> Automaton:
    # Fresh hub state so making the start accepting cannot leak extra words.
    hub = 1 << a.n
    starts = _initial_moves(a)
    edges = _shifted(a, 0) + [dict(starts)]
    for f in state_bits(a.finals):
        _add_moves(edges[f], starts)
    return Automaton(a.alphabet, a.n + 1, edges, hub, a.finals | hub)


def nfa_by_combinators(r: Regex, alphabet: Alphabet) -> Automaton:
    """``regular.nfa_of_regex`` as it was before it built through
    ``regular.expand_graph``: the regex's nodes folded by the combinators."""
    if isinstance(r, regular.Lit):
        return regular.literal_automaton(r.ch, alphabet)
    if isinstance(r, regular.Eps):
        return regular.epsilon_automaton(alphabet)
    if isinstance(r, regular.Union):
        return union_automata(nfa_by_combinators(r.left, alphabet),
                              nfa_by_combinators(r.right, alphabet))
    if isinstance(r, regular.Concat):
        return concat_automata(nfa_by_combinators(r.left, alphabet),
                               nfa_by_combinators(r.right, alphabet))
    return star_automaton(nfa_by_combinators(r.body, alphabet))


def expr_by_combinators(e: RocExpr, atom) -> Automaton:
    """``rank.expr_automaton`` as it was before it built through
    ``regular.expand_graph``: a concatenation of the factors' automata and
    an iteration as its body's joined to that one's star, each trimmed."""
    if isinstance(e, RocAtom):
        return atom(e.machine)
    if isinstance(e, RocConcat):
        left = expr_by_combinators(e.left, atom)
        return regular.trim(concat_automata(left, expr_by_combinators(e.right, atom)))
    a = expr_by_combinators(e.body, atom)
    return regular.trim(concat_automata(a, star_automaton(a)))


def scc_index_of(sccs: list[Scc]) -> dict[int, int]:
    """Each state number's component index."""
    out: dict[int, int] = {}
    for c in sccs:
        for q in c.members:
            out[q] = c.index
    return out


def typed_members(c: Scc, prime: TransducerPrime) -> frozenset[TypedState]:
    """The states of ``c``'s members."""
    return frozenset(prime.states[q] for q in c.members)


def typed_ends(prime: TransducerPrime) -> tuple[TypedState, frozenset[TypedState]]:
    """The states of ``prime``'s initial and final state numbers."""
    return prime.states[prime.initial], frozenset(prime.states[x] for x in prime.finals)


def internal_transitions(c: Scc, prime: TransducerPrime) -> list[TypedTransition]:
    """The transitions between members of ``c``, by a scan of them all."""
    members = typed_members(c, prime)
    return [tt for tt in prime.transitions if tt.source in members and tt.target in members]


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
    members = typed_members(c, prime)
    if anchor not in members:
        raise ValueError(f"{anchor} is not in the component")
    if c.trivial:
        return regular.empty_automaton(prime.alphabet)
    src = ("src", anchor)
    snk = ("snk", anchor)
    nodes: list[object] = [src, snk] + [s for s in sorted(members) if s != anchor]
    if transitions is None:
        transitions = internal_transitions(c, prime)
    arcs = []
    for tt in transitions:
        u = src if tt.source == anchor else tt.source
        v = snk if tt.target == anchor else tt.target
        arcs.append((u, prime.base.compiled_output(tt.base), v))
    return regular.expand_graph(nodes, arcs, [src], [snk], prime.alphabet)


def build_by_sets(threshold: int, finite, period: int, residues) -> UPSet:
    """The canonical form of ``finite ∪ {n ≥ threshold : n mod period ∈
    residues}``: least divisor period, then least threshold."""
    residues = frozenset(residues)
    if not residues:
        return UPSet(max(finite, default=-1) + 1, frozenset(finite), 1, frozenset())
    for d in range(1, period + 1):
        if period % d != 0:
            continue
        folded = {r % d for r in residues}
        if all((r in residues) == (r % d in folded) for r in range(period)):
            period, residues = d, frozenset(folded)
            break
    finite_set = set(finite)
    while threshold > 0:
        c = threshold - 1
        if ((c % period) in residues) != (c in finite_set):
            break
        finite_set.discard(c)
        threshold = c
    return UPSet(threshold, frozenset(finite_set), period, residues)


def member(s: UPSet, n: int) -> bool:
    """Whether the natural ``n`` is in ``s``, by the definition."""
    return n in s.finite if n < s.threshold else n % s.period in s.residues


def upset_row(s: UPSet, length: int) -> int:
    """The members of ``s`` below ``length`` as a bitmask."""
    return sum(1 << n for n in range(length) if member(s, n))


def intersect_by_membership(s1: UPSet, s2: UPSet) -> UPSet:
    """The meet of two sets by membership tests: every counter below the
    later threshold, then one representative of each residue class mod the
    lcm of the periods."""
    period = math.lcm(s1.period, s2.period)
    threshold = max(s1.threshold, s2.threshold)
    finite = {n for n in range(threshold) if member(s1, n) and member(s2, n)}
    residues = set()
    for r in range(period):
        n = threshold + ((r - threshold) % period)
        if member(s1, n) and member(s2, n):
            residues.add(r)
    return build_by_sets(threshold, finite, period, residues)


def slices_by_upsets(
    n: int, edges: list[tuple[int, int, int]], starts: list[int], cap: int
) -> tuple[list[UPSet], list[SliceCertificate]]:
    """``counterset.certified_slices`` with each set built by
    :func:`build_by_sets` from lists of the state's counters."""
    opens, closes = moves(n, edges)
    levels, start = level_cycle(opens, dyck_closure(opens, closes), starts, cap)
    period = len(levels) - start
    slices: list[UPSet] = []
    certificates: list[SliceCertificate] = []
    for q in range(n):
        counters = [c for c, level in enumerate(levels) if level >> q & 1]
        finite = [c for c in counters if c < start]
        residues = [c % period for c in counters if c >= start]
        mode = "periodic" if residues else "finite" if finite else "empty"
        slices.append(build_by_sets(start, finite, period, residues))
        certificates.append(SliceCertificate(q, mode, start, period))
    return slices, certificates


@dataclasses.dataclass
class SetReport:
    """The fields of ``counterset.NSetReport``, every one built eagerly."""

    minus: dict[str, UPSet]
    plus: dict[str, UPSet]
    meet: dict[str, UPSet]
    period: int
    types: dict[str, frozenset[int]]
    counter_cap: int
    certificates: dict[str, dict[str, SliceCertificate]]


def certified_slices(
    opens: list[int], closure: list[int], starts: list[int], cap: int
) -> tuple[list[UPSet], list[SliceCertificate]]:
    """Per-state reachability sets of a ±1 counter system with certificates.

    ``opens`` and ``closure`` give the system as ``counterset.level_cycle``
    takes it; the counter may never drop below zero.  Runs start at the
    ``starts`` with counter 0.  Each state's set is read off the levels:
    its row has bit c set when the state is in level c, below the loop's
    start and through one turn of the loop.  The sets are exact, as the
    levels repeat from there on.
    """
    n = len(opens)
    if cap < 2 * n + 6:
        raise CertificationError(
            f"counter cap {cap} is too small for {n} states; "
            f"pass --counter-cap {default_counter_cap(n)} or higher"
        )
    levels, start = level_cycle(opens, closure, starts, cap)
    period = len(levels) - start
    rows = counterset._transpose(levels, n)
    sets: dict[int, UPSet] = {}  # states often share a row
    slices: list[UPSet] = []
    certificates: list[SliceCertificate] = []
    for q, row in enumerate(rows):
        mode = "periodic" if row >> start else "finite" if row else "empty"
        s = sets.get(row)
        if s is None:
            s = sets[row] = counterset._row_upset(row, start, period)
        slices.append(s)
        certificates.append(SliceCertificate(q, mode, start, period))
    return slices, certificates


def select_period(meets) -> int:
    """Machine period: least multiple of every tail period that clears all
    finite members and tail starts, and is at least 2."""
    step = 1
    highest = -1
    for s in meets:
        if s.residues:
            step = math.lcm(step, s.period)
        highest = max(highest, *s.finite, *s.first_tail_values(), -1)
    need = max(2, highest + 1)
    return step * math.ceil(need / step)


def reach_sets_by_slices(machine, counter_cap: int | None = None) -> SetReport:
    """``counterset.reach_sets`` as it was before it kept its sets as
    integer rows: :func:`certified_slices` per direction, one
    :func:`intersect_by_membership` per distinct pair of sets,
    :func:`select_period` on the meets and each meet's members below 2P as
    the types."""
    states = list(machine.states)
    index = {q: i for i, q in enumerate(states)}
    n = len(states)
    cap = counter_cap if counter_cap is not None else default_counter_cap(n)
    forward = [
        (index[t.source], 1 if t.bit == 0 else -1, index[t.target])
        for t in machine.transitions
    ]
    opens, closes = moves(n, forward)
    z = dyck_closure(opens, closes)
    minus_slices, minus_certs = certified_slices(opens, z, [index[machine.initial]], cap)
    plus_slices, plus_certs = certified_slices(
        counterset._transpose(closes, n),
        counterset._transpose(z, n),
        [index[f] for f in sorted(machine.finals)],
        cap,
    )
    meets: dict[tuple[int, int], UPSet] = {}
    meet: dict[str, UPSet] = {}
    for q, s1, s2 in zip(states, minus_slices, plus_slices):
        pair = (id(s1), id(s2))
        if pair not in meets:
            meets[pair] = intersect_by_membership(s1, s2)
        meet[q] = meets[pair]
    period = select_period(meets.values())
    types = {q: frozenset(state_bits(upset_row(s, 2 * period))) for q, s in meet.items()}
    certificates = {
        q: {"minus": m, "plus": p} for q, m, p in zip(states, minus_certs, plus_certs)
    }
    return SetReport(
        dict(zip(states, minus_slices)), dict(zip(states, plus_slices)), meet,
        period, types, cap, certificates,
    )


def reach_sets_by_upsets(machine, counter_cap: int | None = None) -> SetReport:
    """The counter sets of a machine by :class:`UPSet` arithmetic, each
    direction with its own Dyck closure."""
    states = list(machine.states)
    index = {q: i for i, q in enumerate(states)}
    n = len(states)
    cap = counter_cap if counter_cap is not None else default_counter_cap(n)
    forward = [
        (index[t.source], 1 if t.bit == 0 else -1, index[t.target])
        for t in machine.transitions
    ]
    backward = [(q, -w, p) for p, w, q in forward]
    minus_slices, minus_certs = slices_by_upsets(n, forward, [index[machine.initial]], cap)
    plus_slices, plus_certs = slices_by_upsets(
        n, backward, [index[f] for f in sorted(machine.finals)], cap
    )
    minus = {q: minus_slices[index[q]] for q in states}
    plus = {q: plus_slices[index[q]] for q in states}
    meet = {q: intersect_by_membership(minus[q], plus[q]) for q in states}
    period = select_period(meet.values())
    types = {
        q: frozenset(c for c in range(2 * period) if member(meet[q], c))
        for q in states
    }
    certificates = {
        q: {"minus": minus_certs[index[q]], "plus": plus_certs[index[q]]}
        for q in states
    }
    return SetReport(minus, plus, meet, period, types, cap, certificates)


def moves(n: int, edges) -> tuple[list[int], list[int]]:
    """The +1 and −1 successor bitmasks of the (p, w, q) ``edges``."""
    opens, closes = [0] * n, [0] * n
    for p, w, q in edges:
        if w > 0:
            opens[p] |= 1 << q
        else:
            closes[p] |= 1 << q
    return opens, closes


def match_rule(period: int, bit: int, n: int, s1: str, m: int, s2: str) -> str | None:
    """The leveling rule that allows (n, s1) → (m, s2) on ``bit``, if any."""
    if bit == 0:
        if m == n + 1 and m < period and s1 == s2:
            return "i"
        if m >= period and n >= period - 1 and (n + 1 - m) % period == 0 and s2 == EQ and s1 != DOWN:
            return "iii"
        return None
    if m == n - 1 and m < period and s1 in (UP, DOWN) and s2 in (s1, DOWN):
        return "ii"
    if n >= period and m >= period - 1 and (n - 1 - m) % period == 0 and s1 == EQ and s2 != UP:
        return "iv"
    return None


def leveled_by_pairs(machine: Transducer, report: counterset.NSetReport):
    """The states, finals and transitions of the leveled machine, by testing
    every (source type, target type) pair of every transition, then
    trimming to the live states and the initial one."""
    period = report.period
    by_state: dict[str, list[TypedState]] = {}
    for q in machine.states:
        typed: list[TypedState] = []
        for n in sorted(report.types[q]):
            if n >= period:
                typed.append(TypedState(q, n, EQ))
            else:
                typed.append(TypedState(q, n, UP))
                typed.append(TypedState(q, n, DOWN))
        by_state[q] = typed
    initial = TypedState(machine.initial, 0, UP)
    finals = {TypedState(f, 0, DOWN) for f in machine.finals if 0 in report.types[f]}
    transitions: list[TypedTransition] = []
    for t in machine.transitions:
        for src in by_state[t.source]:
            for tgt in by_state[t.target]:
                rule = match_rule(period, t.bit, src.level, src.phase, tgt.level, tgt.phase)
                if rule is not None:
                    transitions.append(TypedTransition(src, t.bit, tgt, t.output, rule, t))
    alive = live_states(initial, finals, transitions) | {initial}
    states = tuple(s for q in machine.states for s in by_state[q] if s in alive)
    kept = tuple(tt for tt in transitions if tt.source in alive and tt.target in alive)
    return states, frozenset(f for f in finals if f in alive), kept


def live_states(initial, finals, transitions) -> set:
    """States on some path from ``initial`` to one of ``finals``, the
    forward search met with the backward one: ``transducer``'s search as it
    was before ``_split`` and ``build_mprime`` shared one over (source,
    target) pairs.  ``transitions`` need only ``source`` and ``target``."""
    succ: dict = {}
    pred: dict = {}
    for t in transitions:
        succ.setdefault(t.source, []).append(t.target)
        pred.setdefault(t.target, []).append(t.source)

    def search(starts, adj) -> set:
        seen = set(starts)
        frontier = list(seen)
        while frontier:
            for nxt in adj.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    return search([initial], succ) & search(finals, pred)


def replace_transitions(prime: TransducerPrime, transitions) -> TransducerPrime:
    """``prime`` with ``transitions`` as its leveled transitions.

    The arcs are derived from the transitions.  A transition whose base is
    not a transition of ``prime.base``, or that reads another bit than its
    base, has its base added to the machine, with its bit.
    """
    states = {s: i for i, s in enumerate(prime.states)}
    bases = {t: b for b, t in enumerate(prime.base.transitions)}
    arcs = []
    for tt in transitions:
        base = tt.base if tt.base.bit == tt.bit else tt.base._replace(bit=tt.bit)
        b = bases.setdefault(base, len(bases))
        arcs.append((states[tt.source], states[tt.target], b, tt.rule))
    base = prime.base
    machine = Transducer(base.states, base.initial, base.finals, tuple(bases), base.alphabet,
                         base.accepts_epsilon)
    return TransducerPrime(prime.period, prime.states, prime.initial, prime.finals,
                           tuple(arcs), prime.alphabet, prime.accepts_epsilon, machine)


def epsilon_free(
    successors: list[dict[str, int]],
    initials: list[int],
    finals: list[int],
    alphabet: Alphabet,
) -> Automaton:
    """The NFA of the words a graph with ε arcs ("") reads.

    State x keeps its number and reads on from its ε-closure: it has the
    letter arcs that leave the closure, and it is final when the closure
    meets ``finals``.  Only states reached from ``initials`` are filled in;
    the others are left without arcs, for ``regular.trim`` to drop.
    """
    final_mask = state_mask(finals)
    edges: list[dict[str, int]] = [{} for _ in successors]
    accepting = 0
    reached = todo = state_mask(initials)
    while todo:
        start = todo & -todo
        todo ^= start
        closure = frontier = start
        row: dict[str, int] = {}
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            for ch, m in successors[low.bit_length() - 1].items():
                if ch:
                    row[ch] = row.get(ch, 0) | m
                else:
                    frontier |= m & ~closure
                    closure |= m
        s = start.bit_length() - 1
        edges[s] = row
        if closure & final_mask:
            accepting |= start
        for m in row.values():
            todo |= m & ~reached
            reached |= m
    return Automaton(alphabet, len(edges), edges, state_mask(initials), accepting)


def closed_walks(
    successors: list[dict[str, int]], anchor: int, members: list[int], alphabet: Alphabet
) -> Automaton:
    """Words read along the closed walks at ``anchor`` that stay in ``members``.

    The arcs into the anchor are redirected to a fresh sink, so the walks
    are single returns, the empty walk is excluded, and longer walks
    factor through single returns.  When ``members`` is the anchor's
    strongly connected component, every state the NFA reaches also
    reaches the sink, so it is left untrimmed.
    """
    moved = {x: 1 << i for i, x in enumerate(members)}
    start, sink = members.index(anchor), len(members)
    moved[anchor] = 1 << sink  # a walk ends when it returns
    rows = []
    for x in members:
        rows.append(row := {})
        for ch, m in successors[x].items():
            kept = 0
            while m:
                low = m & -m
                m ^= low
                kept |= moved.get(low.bit_length() - 1, 0)
            if kept:
                row[ch] = kept
    return epsilon_free(rows + [{}], [start], [sink], alphabet)


def arc_graph(nodes, arcs) -> tuple[dict, list[dict[str, int]]]:
    """The graph of ``nodes`` with each arc's automaton spliced in.

    ``arcs`` are (u, automaton, v).  The nodes are numbered first, in the
    given order, then a fresh copy of each arc's states, arc after arc.
    ``successors[x]`` maps a letter to the bitmask of x's successors on
    it, as in :class:`Automaton`: the copies keep their letter edges, and
    ε arcs, under the letter "", lead from u into the copy's initial
    states and from its final states to v.
    """
    index = {v: i for i, v in enumerate(nodes)}
    successors: list[dict[str, int]] = [{} for _ in index]
    for u, a, v in arcs:
        base = len(successors)
        for row in a.edges:
            successors.append({ch: m << base for ch, m in row.items()})
        row = successors[index[u]]
        row[""] = row.get("", 0) | a.initials << base
        into = 1 << index[v]
        for f in state_bits(a.finals):
            row = successors[base + f]
            row[""] = row.get("", 0) | into
    return index, successors


def arc_graph_roots(anchors, successors: list[dict[str, int]]):
    """The one primitive root of each anchor's cycle words on an arc graph
    (:func:`arc_graph`, anchors numbered first), or a clash: the members
    of the first strongly connected component, by least node, whose
    letters disagree mod the gcd of its cycle weights.  This is how
    ``regular.cycle_roots`` labelled components before it labelled the
    graph's own nodes with one word per arc."""
    roots = dict.fromkeys(anchors)
    targets = [sorted({y for m in row.values() for y in state_bits(m)}) for row in successors]
    for members in sorted(regular.tarjan_sccs(len(successors), targets)):
        first = members[0]  # members come sorted, so anchors come first
        if first >= len(anchors):
            break
        if len(members) == 1 and first not in targets[first]:
            continue
        component = state_mask(members)
        depth = {first: 0}
        stack = [first]
        period = 0
        letters = []  # (d(x), c) per arc x → y reading c
        while stack:
            x = stack.pop()
            at = depth[x]
            for ch, m in successors[x].items():
                m &= component
                if not m:
                    continue
                if ch:
                    letters.append((at, ch))
                to = at + 1 if ch else at
                for y in state_bits(m):
                    if y in depth:
                        period = math.gcd(period, to - depth[y])
                    else:
                        depth[y] = to
                        stack.append(y)
        if not period:
            continue
        inside = [s for s in members if s < len(anchors)]
        word: dict[int, str] = {}
        for at, ch in letters:
            if word.setdefault(at % period, ch) != ch:
                return members
        root = primitive_root("".join(word[k] for k in range(period)))
        for s in inside:
            k = depth[s] % len(root)
            roots[anchors[s]] = root[k:] + root[:k]
    return roots


def tight_typed(transitions: list[TypedTransition]) -> list[TypedTransition] | None:
    """``components.tight_transitions`` on :class:`TypedTransition` objects."""
    tight = tight_transitions(
        [(tt.source, 1 if tt.bit == 0 else -1, tt.target, tt) for tt in transitions]
    )
    return None if tight is None else [arc[3] for arc in tight]


def arc_graph_certify(c: Scc, prime: TransducerPrime):
    """``components.certify_component`` as it was before it labelled the
    leveled states: each stage splices every transition's output automaton
    into an arc graph and labels it with :func:`arc_graph_roots`, and a
    clash's witness comes from the single returns to the clashing
    component's first node along its own nodes (:func:`closed_walks`).
    The roots are keyed by state number, as the package keys them."""
    if c.trivial:
        return FullyCertified({})
    anchors = sorted(typed_members(c, prime))
    number = {s: x for x, s in enumerate(prime.states)}
    internal = internal_transitions(c, prime)
    tight = tight_typed(internal)
    stages = [internal] if tight is None or len(tight) == len(internal) else [internal, tight]
    for verdict, transitions in zip((FullyCertified, ZeroCertified), stages):
        arcs = [(tt.source, prime.base.compiled_output(tt.base), tt.target) for tt in transitions]
        successors = arc_graph(anchors, arcs)[1]
        members = arc_graph_roots(anchors, successors)
        if isinstance(members, dict):
            return verdict({number[s]: root for s, root in members.items()})
    cycles = closed_walks(successors, members[0], members, prime.alphabet)
    return QuasiDenseWitness(anchors[members[0]], *regular.cycle_witness(cycles))


def step_language(machine: Transducer | TransducerPrime, w: str) -> dict:
    """Automata for the outputs produced while reading w, per ending state.

    Works on a machine and on its leveled form alike.
    """
    for ch in w:
        if ch not in ("0", "1"):
            raise ValueError(f"input words are binary, found {ch!r}")
    initial = machine.initial
    if isinstance(machine, TransducerPrime):  # its transitions name states, not numbers
        initial = machine.states[initial]
    current: dict = {initial: regular.epsilon_automaton(machine.alphabet)}
    for ch in w:
        bit = int(ch)
        nxt: dict = {}
        for t in machine.transitions:
            if t.bit != bit or t.source not in current:
                continue
            piece = concat_automata(
                current[t.source], regular.compile_regex(t.output, machine.alphabet))
            if t.target in nxt:
                nxt[t.target] = union_automata(nxt[t.target], piece)
            else:
                nxt[t.target] = piece
        current = {q: regular.trim(a) for q, a in nxt.items()}
        current = {q: a for q, a in current.items() if a.finals}
        if not current:
            break
    return current


def project_run(lifted: list[TypedTransition]) -> list[Transition]:
    """Forget levels and phases."""
    return [tt.base for tt in lifted]


def check_run_by_word(machine: Transducer, run: list[Transition]) -> None:
    """Raise ValueError unless ``run`` is an accepting run of ``machine``,
    testing the balance on its input word."""
    if not run:
        if not machine.accepts_epsilon:
            raise ValueError("empty run, but the machine does not accept the empty input")
        return
    if run[0].source != machine.initial:
        raise ValueError(f"run starts at {run[0].source!r}, not the initial state")
    for a, b in zip(run, run[1:]):
        if a.target != b.source:
            raise ValueError(f"run breaks between {a.target!r} and {b.source!r}")
    if run[-1].target not in machine.finals:
        raise ValueError(f"run ends at non-final state {run[-1].target!r}")
    if not in_d1(run_input_word(run)):
        raise ValueError("run input word is not balanced")


def by_ends(prime: TransducerPrime) -> dict:
    """Each leveled transition keyed by (source, target, base)."""
    return {(tt.source, tt.target, tt.base): tt for tt in prime.transitions}


def typed_lift(
    machine: Transducer, run: list[Transition], prime: TransducerPrime, ends: dict | None = None
) -> list[TypedTransition]:
    """The leveled copy of each step of an accepting run; ``ends`` is
    :func:`by_ends` of ``prime``, built here when not given."""
    check_run_by_word(machine, run)
    if not run:
        return []
    if ends is None:
        ends = by_ends(prime)
    period = prime.period

    opens = [0]
    for t in run:
        opens.append(opens[-1] + (1 if t.bit == 0 else -1))
    n = len(run)

    if max(opens) < period:
        levels = list(opens)
        phases = [UP] * n + [DOWN]
    else:
        i_up = next(i for i, o in enumerate(opens) if o >= period) - 1
        i_down = max(i for i, o in enumerate(opens) if o >= period) + 1
        levels = [
            o if i <= i_up or i >= i_down else (o % period) + period
            for i, o in enumerate(opens)
        ]
        phases = [
            UP if i <= i_up else (EQ if i < i_down else DOWN) for i in range(n + 1)
        ]

    states = [machine.initial] + [t.target for t in run]
    typed = [TypedState(states[i], levels[i], phases[i]) for i in range(n + 1)]

    lifted: list[TypedTransition] = []
    for i, t in enumerate(run):
        tt = ends.get((typed[i], typed[i + 1], t))
        if tt is None:
            raise LevelingError(
                f"no leveled transition {typed[i].render()} -{t.bit}-> "
                f"{typed[i + 1].render()} for {t.source}->{t.target}"
            )
        lifted.append(tt)
    return lifted


def probe_machine_by_transitions(machine: Transducer, output_cap: int):
    """Two distinct-root cycle outputs at one leveled state, or None: the
    walks over ``prime.transitions``, with one compiled-regex lookup and one
    shortest word per scanned transition."""
    try:
        prime = build_mprime(machine, reach_sets(machine))
    except LevelingError:
        return None
    walk_cap = max(2 * prime.period, 8)
    for s in prime.states:
        samples: list[str] = []
        stack = [(s, [])]
        while stack:
            at, outs = stack.pop()
            for tt in prime.transitions:
                if tt.source != at:
                    continue
                word = shortest_from(prime.base.compiled_output(tt.base), allow_empty=True)
                if word is None:
                    continue
                chain = outs + [word]
                if tt.target == s:
                    samples.append("".join(chain))
                if len(chain) < walk_cap:
                    stack.append((tt.target, chain))
        pair = distinct_root_pair(samples)
        if pair is not None:
            return NotScattered(
                pair[0],
                pair[1],
                f"cycle outputs at {s.render()} have distinct primitive roots",
                state=s,
            )
    return None


def bounded_outputs_by_transitions(prime: TransducerPrime, nmax: int) -> Automaton:
    """The NFA of the outputs over the nonempty balanced inputs of length
    ≤ nmax, from the configurations (typed state, counter, step)."""
    by_source: dict = {}
    for t in prime.transitions:
        by_source.setdefault(t.source, []).append((t, prime.base.compiled_output(t.base)))
    initial, prime_finals = typed_ends(prime)
    configs = [(initial, 0, 0)]
    seen = set(configs)
    arcs = []
    for q, c, i in configs:  # grows while it is walked
        for t, output in by_source.get(q, ()):
            c2 = c + 1 if t.bit == 0 else c - 1
            if 0 <= c2 <= nmax - i - 1:
                cfg = (t.target, c2, i + 1)
                if cfg not in seen:
                    seen.add(cfg)
                    configs.append(cfg)
                arcs.append(((q, c, i), output, cfg))
    finals = [(q, c, i) for q, c, i in configs if i > 0 and c == 0 and q in prime_finals]
    return regular.expand_graph(configs, arcs, configs[:1], finals, prime.alphabet)


def bounded_language_by_union(machine: Transducer | TransducerPrime, nmax: int) -> Automaton:
    """``transducer.bounded_language`` as it was before it added the empty
    input by making the initial states final: the union with ε's automaton."""
    a = bounded_outputs(machine, nmax)
    if not machine.accepts_epsilon:
        return a
    epsilon = regular.epsilon_automaton(machine.alphabet)
    return union_automata(a, epsilon) if a.finals else epsilon


def language_of_input(machine: Transducer, w: str) -> Automaton:
    """The output language L(machine, w): union over accepting end states."""
    per_state = step_language(machine, w)
    acc = regular.empty_automaton(machine.alphabet)
    for f in sorted(machine.finals):
        if f in per_state:
            acc = union_automata(acc, per_state[f])
    return regular.trim(acc)


def balanced_words_up_to(max_len: int) -> list[str]:
    """All balanced binary words of length ≤ max_len (0 opens, 1 closes)."""
    out: list[str] = [""]

    def walk(prefix: str, open_now: int, budget: int) -> None:
        if open_now == 0 and prefix:
            out.append(prefix)
        if budget == 0:
            return
        if budget >= open_now + 2:
            walk(prefix + "0", open_now + 1, budget - 1)
        if open_now > 0:
            walk(prefix + "1", open_now - 1, budget - 1)

    walk("", 0, max_len)
    return sorted(out, key=lambda w: (len(w), w))


def up_union(s1: UPSet, s2: UPSet) -> UPSet:
    """The union of two sets, read off their rows: both repeat from the
    later threshold on, with the lcm of their periods."""
    start = max(s1.threshold, s2.threshold)
    period = math.lcm(s1.period, s2.period)
    row = upset_row(s1, start + period) | upset_row(s2, start + period)
    return counterset._row_upset(row, start, period)


def worked_close_image(
    r: Regex | str, alphabet=BINARY, counter_cap: int | None = None
) -> UPSet:
    """Closing depths of the members of L(r) that some balanced word ends in.

    Reads words of L(r) back to front — 1 raises the pending-closings
    counter, 0 lowers it, and it may never go negative — so the counter on
    arrival at an original initial state is exactly the word's close depth.
    """
    if isinstance(r, str):
        r = regular.parse_regex(r, alphabet)
    d = regular.compile_regex(r, alphabet)
    if not d.finals:
        return build_by_sets(0, (), 1, ())
    reversed_edges = []
    for p in range(d.n):
        for ch, targets in d.edges[p].items():  # a DFA: one target bit per letter
            reversed_edges.append((targets.bit_length() - 1, 1 if ch == "1" else -1, p))
    cap = counter_cap if counter_cap is not None else default_counter_cap(d.n)
    opens, closes = moves(d.n, reversed_edges)
    slices, _ = certified_slices(opens, dyck_closure(opens, closes), state_bits(d.finals), cap)
    image = build_by_sets(0, (), 1, ())
    for q in state_bits(d.initials):
        image = up_union(image, slices[q])
    return image


def parse_machine_text(text: str, name: str = "<fixture>") -> Transducer:
    """A machine fixture's :class:`Transducer`, or its :class:`FixtureError`."""
    entries = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            entries.append((lineno, stripped.split()))
    alphabet: Alphabet | None = None
    states: list[str] | None = None
    initial: str | None = None
    finals: list[str] | None = None
    transitions: list[tuple[str, int, str, object]] = []
    seen_trans: set[tuple[str, int, str, str]] = set()

    def fail(lineno: int, msg: str):
        raise FixtureError(f"{name}:{lineno}: {msg}")

    for lineno, parts in entries:
        word, rest = parts[0], parts[1:]
        if word == "alphabet":
            if alphabet is not None:
                fail(lineno, "duplicate 'alphabet' line")
            if not rest:
                fail(lineno, "'alphabet' needs at least one letter")
            try:
                alphabet = Alphabet(tuple(rest))
            except ValueError as exc:
                fail(lineno, str(exc))
        elif word == "states":
            if states is not None:
                fail(lineno, "duplicate 'states' line")
            if not rest:
                fail(lineno, "'states' needs at least one state")
            if len(set(rest)) != len(rest):
                fail(lineno, "duplicate state names")
            states = rest
        elif word == "initial":
            if initial is not None:
                fail(lineno, "duplicate 'initial' line")
            if len(rest) != 1:
                fail(lineno, "'initial' needs exactly one state")
            initial = rest[0]
        elif word == "final":
            if finals is not None:
                fail(lineno, "duplicate 'final' line")
            if not rest:
                fail(lineno, "'final' needs at least one state")
            finals = rest
        elif word == "trans":
            if len(rest) != 4:
                fail(lineno, "'trans' needs: trans <src> <0|1> <tgt> <regex>")
            src, bit_text, tgt, regex_text = rest
            if bit_text not in ("0", "1"):
                fail(lineno, f"input bit must be 0 or 1, got {bit_text!r}")
            key = (src, int(bit_text), tgt, regex_text)
            if key in seen_trans:
                fail(lineno, f"duplicate transition {src} -{bit_text}-> {tgt}")
            seen_trans.add(key)
            transitions.append((src, int(bit_text), tgt, regex_text))
        else:
            fail(lineno, f"unknown directive {word!r}")

    for missing, value in (
        ("alphabet", alphabet), ("states", states),
        ("initial", initial), ("final", finals),
    ):
        if value is None:
            raise FixtureError(f"{name}: missing '{missing}' line")

    assert states is not None and alphabet is not None and finals is not None
    known = set(states)
    if initial not in known:
        raise FixtureError(f"{name}: initial state {initial!r} not declared")
    for f in finals:
        if f not in known:
            raise FixtureError(f"{name}: final state {f!r} not declared")
    parsed_transitions = []
    for (lineno, parts), (src, bit, tgt, regex_text) in zip(
        [e for e in entries if e[1][0] == "trans"], transitions
    ):
        if src not in known or tgt not in known:
            bad = src if src not in known else tgt
            fail(lineno, f"unknown state {bad!r}")
        try:
            output = parse_regex(regex_text, alphabet)
        except RegexSyntaxError as exc:
            fail(lineno, f"bad regex {regex_text!r}: {exc}")
        parsed_transitions.append((src, bit, tgt, output))
    try:
        return make_transducer(states, initial, finals, parsed_transitions, alphabet)
    except TransducerError as exc:
        raise FixtureError(f"{name}: {exc}") from exc


class _ArgparseUsageError(Exception):
    pass


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _ArgparseUsageError(message)


def _argparse_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, got {text!r}")
    return value


def argparse_parser() -> argparse.ArgumentParser:
    parser = _ArgparseParser(
        prog="ocrank",
        description="Order-type analysis of one-counter transductions.",
    )
    parser.add_argument(
        "command",
        choices=["nsets", "mprime", "dot", "rank", "enumerate", "check"],
    )
    parser.add_argument("fixture", help="path to a .oct fixture file")
    parser.add_argument("--input-cap", type=_argparse_cap, default=8, metavar="N")
    parser.add_argument("--output-cap", type=_argparse_cap, default=24, metavar="N")
    parser.add_argument("--counter-cap", type=_argparse_cap, default=None, metavar="N")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--dot", metavar="PATH", default=None)
    return parser


def argparse_front(argv: list[str]) -> dict | tuple[int, str, str]:
    """The parsed fields, or main's (exit code, stdout, stderr) when it stopped.

    The help is formatted for the terminal width, so set ``COLUMNS``.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = argparse_parser().parse_args(argv)
    except _ArgparseUsageError as exc:
        return 1, "", f"ocrank: error: {exc}\n"
    except SystemExit as exc:  # --help
        return int(exc.code or 0), out.getvalue(), ""
    return vars(args)
