"""Ordinal bounds on the order complexity of machine output languages.

Every bound lives below ω²: an :class:`Ordinal` is ω·a + b with naturals
a, b.  The machine analysis levels the input counter, splits the leveled
graph into components, certifies each component's cycle outputs, and then
propagates bounds along intercomponent edges — finite contributions for
fully certified components, one ω step for components certified only on
their zero-weight cycles, and an immediate non-scattered verdict when a
component witnesses quasi-density.

The expression layer combines machines by concatenation (bounds add, in
reverse order) and iteration (bounded by 1, refuted, or unknown).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

from . import components as comp
from . import regular
from .counterset import reach_sets
from .regular import Automaton
from .transducer import (
    LevelingError,
    Transducer,
    TransducerPrime,
    TypedState,
    bounded_language,
    build_mprime,
    minimal_normalize,
)
from .words import Record, distinct_root_pair, primitive_root


# ---------------------------------------------------------------------------
# Ordinals below ω²


class _OrdinalFields(NamedTuple):
    a: int
    b: int


class Ordinal(_OrdinalFields):
    """ω·a + b.

    A tuple underneath, so equality, hashing and the order (lexicographic
    on (a, b), which is the ordinal order below ω²) run as tuple
    operations: ordinal arithmetic sits in inner loops, where dataclass
    construction and Python-level comparisons dominated the cost.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Ordinal":
        if a < 0 or b < 0:
            raise ValueError("ordinal coefficients must be naturals")
        return tuple.__new__(cls, (a, b))

    def render(self) -> str:
        if self.a == 0:
            return str(self.b)
        head = "w" if self.a == 1 else f"w*{self.a}"
        return head if self.b == 0 else f"{head}+{self.b}"

    def __str__(self) -> str:
        return self.render()


ZERO = Ordinal(0, 0)
OMEGA = Ordinal(1, 0)


def ord_add(x: Ordinal, y: Ordinal) -> Ordinal:
    """Ordinal sum x + y (left addend absorbed into a right limit)."""
    xa, xb = x
    ya, yb = y
    # Sums of naturals are naturals: build past the validating constructor.
    if ya >= 1:
        return tuple.__new__(Ordinal, (xa + ya, yb))
    return tuple.__new__(Ordinal, (xa, xb + yb))


CERTIFIED = "Certified"
CONDITIONAL = "ConditionalOnScattered"


class RankBound(NamedTuple):
    value: Ordinal
    status: str
    derivation: tuple[str, ...] = ()


class NotScattered(NamedTuple):
    """The language embeds a dense order; no ordinal bound exists."""

    word1: str
    word2: str
    description: str
    state: TypedState | None = None


class Unknown(NamedTuple):
    reason: str


# ---------------------------------------------------------------------------
# Machine expressions


class RocExpr(Record):
    """Expression over restricted one-counter machine languages."""

    __slots__ = ()


class RocAtom(RocExpr):
    __slots__ = _fields = ("machine",)

    def __init__(self, machine: Transducer) -> None:
        self.machine = machine


class RocConcat(RocExpr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: RocExpr, right: RocExpr) -> None:
        self.left, self.right = left, right


class RocPlus(RocExpr):
    __slots__ = _fields = ("body",)

    def __init__(self, body: RocExpr) -> None:
        self.body = body


# ---------------------------------------------------------------------------
# Machine analysis


class MachineAnalysis(NamedTuple):
    """Everything the rank DP produced for one machine, for reporting."""

    machine: Transducer
    prime: TransducerPrime | None
    sccs: list[comp.Scc]
    verdicts: dict[int, comp.ComponentVerdict]
    edge_bound: dict[int, tuple[Ordinal, str]]  # (bound, status) per edge
    result: RankBound | NotScattered


def edge_bounds(
    prime: TransducerPrime,
    sccs: list[comp.Scc],
    verdicts: dict[int, comp.ComponentVerdict],
    regrank: Sequence[int],
) -> dict[int, tuple[Ordinal, str]]:
    """Push ordinal bounds along intercomponent edges in topological order.

    ``regrank[i]`` is the finite order bound of arc i's output language.
    The (bound, status) attached to an edge covers all outputs produced up
    to and including traversing that edge.  The status is Certified exactly
    when the bound is finite: only a zero-certified component adds ω, and
    ord_add never lowers the ω coefficient.  Each edge's bound is pushed to
    its target state, which keeps the greatest one fed into it; the
    initial state is fed 0.  A component takes the greatest entry of its
    members: ord_add(step, ·) is strictly increasing, so that entry gives
    each of its leaving edges its greatest sum.  A component nothing feeds
    is unreachable through certified edges and bounds no edge.
    """
    entry = {prime.initial: ZERO}
    bounds: dict[int, tuple[Ordinal, str]] = {}
    for c in sccs:  # already topologically ordered
        fed = max((entry[q] for q in c.members if q in entry), default=None)
        if fed is None or not c.leaving:
            continue
        verdict = verdicts.get(c.index)
        if c.trivial:
            finite = 0
        elif prime.initial in c.members:
            raise AssertionError("initial component must be trivial")
        elif isinstance(verdict, comp.FullyCertified):
            finite = len(c.members) * (1 + max(regrank[k] for k in c.internal))
        elif isinstance(verdict, comp.ZeroCertified):
            finite = None
        else:
            raise AssertionError("quasi-dense component reached the bound DP")
        for i in c.leaving:
            step = OMEGA if finite is None else Ordinal(0, finite + regrank[i])
            bound = ord_add(step, fed)
            bounds[i] = bound, CERTIFIED if bound.a == 0 else CONDITIONAL
            target = prime.arcs[i][1]
            held = entry.get(target)
            if held is None or held < bound:
                entry[target] = bound
    return bounds


def transducer_rank_bound(
    machine: Transducer, counter_cap: int | None = None
) -> RankBound | NotScattered:
    return analyze_machine(machine, counter_cap).result


def analyze_machine(
    machine: Transducer, counter_cap: int | None = None
) -> MachineAnalysis:
    """Full rank pipeline for one machine, keeping intermediate artifacts."""
    m = minimal_normalize(machine)
    try:
        prime = build_mprime(m, reach_sets(m, counter_cap))
    except LevelingError:
        result = RankBound(ZERO, CERTIFIED, ("no accepted input; bound 0",))
        return MachineAnalysis(m, None, [], {}, {}, result)

    # The leveled arcs copy exactly the transitions of accepted runs, so
    # only their outputs bear on the language.  A quasi-dense one poisons
    # everything downstream of it; the whole language is then quasi-dense.
    # Each distinct output is analysed once, for this and for its finite
    # rank; the automata stay held while their ids key the table.
    used = sorted({b for _, _, b, _ in prime.arcs})
    outputs = [m.compiled_output(m.transitions[b]) for b in used]
    languages: dict[int, regular.Scattered] = {}
    ranks = [0] * len(m.transitions)  # per transition of m, its output's finite rank
    for b, output in zip(used, outputs):
        verdict = languages.get(id(output))
        if verdict is None:
            verdict = regular.regular_scattered(output)
            if isinstance(verdict, regular.QuasiDense):
                t = m.transitions[b]
                where = f"output language of {t.source} -{t.bit}-> {t.target}"
                result = NotScattered(verdict.x, verdict.y, f"{where} is itself quasi-dense")
                return MachineAnalysis(m, prime, [], {}, {}, result)
            languages[id(output)] = verdict
        ranks[b] = verdict.rank

    sccs = comp.condense(prime)
    verdicts: dict[int, comp.ComponentVerdict] = {}
    for c in sccs:
        verdict = comp.certify_component(c, prime)
        verdicts[c.index] = verdict
        if isinstance(verdict, comp.QuasiDenseWitness):
            result = NotScattered(
                verdict.word1,
                verdict.word2,
                f"cycle outputs at {verdict.state.render()} have distinct "
                f"primitive roots {primitive_root(verdict.word1)!r} and "
                f"{primitive_root(verdict.word2)!r}",
                state=verdict.state,
            )
            return MachineAnalysis(m, prime, sccs, verdicts, {}, result)

    regrank = [ranks[b] for _, _, b, _ in prime.arcs]

    bounds = edge_bounds(prime, sccs, verdicts, regrank)
    best: tuple[Ordinal, str] | None = None
    lines: list[str] = []
    for i, (source, target, _, _) in enumerate(prime.arcs):
        if target in prime.finals and i in bounds:
            value, status = bounds[i]
            lines.append(
                f"accepting edge {prime.states[source].render()} -> "
                f"{prime.states[target].render()}: {value} [{status}]"
            )
            if best is None or best[0] < value:
                best = value, status
    if best is None:
        result = RankBound(ZERO, CERTIFIED, ("no live accepting edge; bound 0",))
    else:
        result = RankBound(*best, tuple(lines))
    return MachineAnalysis(m, prime, sccs, verdicts, bounds, result)


# ---------------------------------------------------------------------------
# Expression bounds


def expr_automaton(e: RocExpr, atom: Callable[[Transducer], Automaton]) -> Automaton:
    """The expression's language, built from ``atom(machine)`` for each atom.

    A concatenation is the path 0 → 1 → 2 whose arcs carry its factors'
    automata, an iteration the arc 0 → 1 and the loop at 1 that carry its
    body's; :func:`regular.expand_graph` builds each step, which is then
    trimmed.  The machines must share one alphabet: the result keeps the
    left factor's.
    """
    if isinstance(e, RocAtom):
        return atom(e.machine)
    if isinstance(e, RocConcat):
        left, right = expr_automaton(e.left, atom), expr_automaton(e.right, atom)
        arcs = [(0, left, 1), (1, right, 2)]
        return regular.trim(regular.expand_graph([0, 1, 2], arcs, [0], [2], left.alphabet))
    if isinstance(e, RocPlus):
        a = expr_automaton(e.body, atom)
        arcs = [(0, a, 1), (1, a, 1)]
        return regular.trim(regular.expand_graph([0, 1], arcs, [0], [1], a.alphabet))
    raise TypeError(f"not an expression: {e!r}")


def _counter_blind(m: Transducer) -> Automaton:
    """A regular superset of a machine's outputs: its graph, input discipline dropped."""
    arcs = [(t.source, m.compiled_output(t), t.target) for t in m.transitions]
    return regular.expand_graph(list(m.states), arcs, [m.initial], sorted(m.finals), m.alphabet)


def enumerate_expr(e: RocExpr, input_cap: int, output_cap: int) -> list[str]:
    """Members of length ≤ output_cap, atoms over inputs up to input_cap, lex-sorted."""
    language = expr_automaton(e, lambda m: bounded_language(m, input_cap))
    return regular.words_up_to(language, output_cap)


def expr_rank_bound(
    e: RocExpr, counter_cap: int | None = None
) -> RankBound | NotScattered | Unknown:
    """Ordinal bound for an expression's language, if one can be certified.

    Concatenation bounds add with the right factor first; iteration is
    certified (bound 1) when even the regular over-approximation of the
    body stays inside a single primitive power, refuted by two enumerated
    members with distinct roots, and otherwise handed back as Unknown.
    """
    return _expr_bound(e, counter_cap)[0]


def _expr_bound(
    e: RocExpr, counter_cap: int | None
) -> tuple[RankBound | NotScattered | Unknown, bool]:
    """:func:`expr_rank_bound`, and whether the language is empty.

    Each atom is analysed once: its language is empty when it has no
    leveled machine and does not accept the empty input.  A concatenation
    analyses its left factor first and stops at an empty one.
    """
    if isinstance(e, RocAtom):
        analysis = analyze_machine(e.machine, counter_cap)
        return analysis.result, analysis.prime is None and not e.machine.accepts_epsilon

    if isinstance(e, RocConcat):
        left, empty = _expr_bound(e.left, counter_cap)
        if not empty:
            right, empty = _expr_bound(e.right, counter_cap)
        if empty:
            return RankBound(ZERO, CERTIFIED, ("concatenation with empty factor",)), True
        for side in (left, right):
            if not isinstance(side, RankBound):
                return side, False
        value = ord_add(right.value, left.value)
        status = CERTIFIED if left.status == right.status == CERTIFIED else CONDITIONAL
        derivation = right.derivation + left.derivation
        derivation += (f"concat: {right.value} + {left.value} = {value}",)
        return RankBound(value, status, derivation), False

    if isinstance(e, RocPlus):
        inner, empty = _expr_bound(e.body, counter_cap)
        if empty:
            return RankBound(ZERO, CERTIFIED, ("iteration of the empty language",)), True
        if isinstance(inner, NotScattered):
            return inner, False
        over = expr_automaton(e.body, _counter_blind)
        m = regular.shortest_nonempty_word(over)
        if m is None:
            return RankBound(ZERO, CERTIFIED, ("iteration of {empty word}",)), False
        v = primitive_root(m)
        if regular.subset_of_power_with_witness(over, v)[0]:
            derivation = (f"all members are powers of {v!r}; iteration bound 1",)
            return RankBound(Ordinal(0, 1), CERTIFIED, derivation), False
        witness = distinct_root_pair(enumerate_expr(e.body, input_cap=8, output_cap=24))
        if witness is not None:
            u, w = witness
            return NotScattered(
                u,
                w,
                f"{{{u}{w}{u}{w},{w}{u}{w}{u}}}*{u}{w}{w}{u} embeds a dense order "
                f"in the iteration (roots {primitive_root(u)!r} vs {primitive_root(w)!r})",
            ), False
        return Unknown(
            f"iteration body exceeds {v!r}* in over-approximation, but no "
            "distinct-root member pair was found within the search caps"
        ), False

    raise TypeError(f"not an expression: {e!r}")
