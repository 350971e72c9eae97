"""Counter transducers over the balanced input language and their leveling.

A machine reads binary input (0 opens, 1 closes; prefixes never close more
than they opened) and emits, per transition, a nonempty regular language
over an ordered output alphabet.  ``build_mprime`` refines such a machine
with counter levels and phases so that order-theoretic analysis can work on
a finite graph: levels below the machine period are tracked exactly in an
ascending (``up``) or descending (``down``) phase, levels at or above it
only modulo the period (``eq``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from . import regular
from .counterset import NSetReport
from .regular import Automaton, Regex, parse_regex
from .words import Alphabet, Record


class TransducerError(ValueError):
    """Structural problem with a machine definition."""


class LevelingError(RuntimeError):
    """The leveled construction cannot represent the machine.

    The usual cause is an input language that is empty (no counter value at
    the initial state is both reachable and closable), which downstream
    analyses treat as the trivial zero-rank case.
    """


class Transition(NamedTuple):
    """One machine transition.  A tuple: build a changed copy with
    ``t._replace(...)``; it compares equal to ``(source, bit, target, output)``."""

    source: str
    bit: int
    target: str
    output: Regex


class Transducer(Record):
    __slots__ = _fields = ("states", "initial", "finals", "transitions", "alphabet",
                           "accepts_epsilon")

    def __init__(self, states: tuple[str, ...], initial: str, finals: frozenset[str],
                 transitions: tuple[Transition, ...], alphabet: Alphabet,
                 accepts_epsilon: bool) -> None:
        self.states, self.initial, self.finals = states, initial, finals
        self.transitions, self.alphabet = transitions, alphabet
        self.accepts_epsilon = accepts_epsilon

    def compiled_output(self, t: Transition) -> Automaton:
        return regular.compile_regex(t.output, self.alphabet)


def make_transducer(states, initial, finals, transitions, alphabet: Alphabet) -> Transducer:
    """Assemble and structurally check a machine.

    ``transitions`` entries are (source, bit, target, output) where the
    output may be a regex string or an already parsed :class:`Regex`.
    Exact duplicate transitions are dropped.
    """
    states = tuple(states)
    finals = frozenset(finals)
    parsed = [
        Transition(
            source,
            int(bit),
            target,
            parse_regex(output, alphabet) if isinstance(output, str) else output,
        )
        for source, bit, target, output in transitions
    ]
    unique = tuple(dict.fromkeys(parsed))  # the first of each duplicate, in order
    machine = Transducer(
        states, initial, finals, unique, alphabet, accepts_epsilon=initial in finals
    )
    check_structure(machine)
    return machine


def check_structure(machine: Transducer) -> None:
    """Raise :class:`TransducerError` on malformed machines (no rewriting)."""
    if not machine.states:
        raise TransducerError("machine has no states")
    if len(set(machine.states)) != len(machine.states):
        raise TransducerError("duplicate state names")
    known = set(machine.states)
    if machine.initial not in known:
        raise TransducerError(f"initial state {machine.initial!r} is not a state")
    if not machine.finals:
        raise TransducerError("machine has no final states")
    if not machine.finals <= known:
        raise TransducerError(f"final states {sorted(machine.finals - known)} are not states")
    for t in machine.transitions:
        if t.source not in known or t.target not in known:
            raise TransducerError(f"transition {t.source}->{t.target} uses unknown states")
        if t.bit not in (0, 1):
            raise TransducerError(f"transition bit must be 0 or 1, got {t.bit}")


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _split(
    machine: Transducer,
    split_initial: bool,
    finals_to_split: set[str],
) -> Transducer:
    """Copy the machine, detaching the initial source and/or final sinks.

    The new initial keeps only outgoing copies; each split final receives
    only incoming copies.  The empty word, if accepted, survives in the
    ``accepts_epsilon`` flag rather than in the graph.
    """
    states = list(machine.states)
    taken = set(states)
    transitions = list(machine.transitions)
    initial = machine.initial
    finals = set(machine.finals)

    if split_initial:
        src = _fresh_name(f"{initial}_src", taken)
        taken.add(src)
        states.insert(0, src)
        transitions += [
            Transition(src, t.bit, t.target, t.output)
            for t in machine.transitions
            if t.source == initial
        ]
        initial = src

    for f in sorted(finals_to_split):
        snk = _fresh_name(f"{f}_snk", taken)
        taken.add(snk)
        states.append(snk)
        transitions += [
            Transition(t.source, t.bit, snk, t.output)
            for t in transitions
            if t.target == f
        ]
        finals.discard(f)
        finals.add(snk)

    # Keep only states that lie on some initial → final path.
    alive = _live(initial, finals, ((t.source, t.target) for t in transitions)) | {initial}
    states = [q for q in states if q in alive]
    transitions = [t for t in transitions if t.source in alive and t.target in alive]

    out = Transducer(
        tuple(states),
        initial,
        frozenset(f for f in finals if f in alive),
        tuple(dict.fromkeys(transitions)),
        machine.alphabet,
        machine.accepts_epsilon,
    )
    return out


def _live(initial, finals, pairs) -> set:
    """The nodes on some path from ``initial`` to one of ``finals``: the
    forward search from ``initial`` met with the backward one from
    ``finals``.  ``pairs`` holds each arc's (source, target)."""
    succ: defaultdict = defaultdict(list)
    pred: defaultdict = defaultdict(list)
    for x, y in pairs:
        succ[x].append(y)
        pred[y].append(x)

    def search(starts, adj) -> set:
        seen = set(starts)
        frontier = list(seen)
        while frontier:
            for nxt in adj[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    return search([initial], succ) & search(finals, pred)


def minimal_normalize(machine: Transducer) -> Transducer:
    """Split only where leveling discipline actually demands it.

    The initial typed state must not lie on a cycle — possible only via a
    closing transition back into the initial — and the accepting typed
    states must have no outgoing edges, which only opening transitions out
    of a final state create.
    """
    check_structure(machine)
    split_init = any(
        t.target == machine.initial and t.bit == 1 for t in machine.transitions
    )
    split_finals = {
        f
        for f in machine.finals
        if any(t.source == f and t.bit == 0 for t in machine.transitions)
    }
    if not split_init and not split_finals:
        return machine
    return _split(machine, split_init, split_finals)


# ---------------------------------------------------------------------------
# The leveled machine


UP = "up"
EQ = "eq"
DOWN = "down"


class TypedState(NamedTuple):
    state: str
    level: int
    phase: str

    def render(self) -> str:
        return f"({self.state},{self.level},{self.phase})"


class TypedTransition(Record):
    __slots__ = _fields = ("source", "bit", "target", "output", "rule", "base")

    def __init__(self, source: TypedState, bit: int, target: TypedState, output: Regex,
                 rule: str, base: Transition) -> None:
        self.source, self.bit, self.target = source, bit, target
        self.output, self.rule, self.base = output, rule, base


class TransducerPrime(Record):
    """The leveled machine.

    ``states[i]`` is state i, and the machine names its states by these
    numbers: ``initial`` is one, ``finals`` a set of them, and ``arcs``
    holds the transitions as (source, target, base, rule): two state
    numbers, the index in ``base.transitions`` of the machine transition
    copied, and the rule that made the copy.  ``transitions`` is the same
    list as :class:`TypedTransition` objects, built on first use.
    ``_samples`` is the components layer's table of one sample per base
    transition, and ``_lift`` the tables of :meth:`_lift_tables`, each
    built on first use too.
    """

    _fields = ("period", "states", "initial", "finals", "arcs", "alphabet", "accepts_epsilon",
               "base")
    __slots__ = _fields + ("_transitions", "_lift", "_samples")

    def __init__(self, period: int, states: tuple[TypedState, ...], initial: int,
                 finals: frozenset[int], arcs: tuple[tuple[int, int, int, str], ...],
                 alphabet: Alphabet, accepts_epsilon: bool, base: Transducer) -> None:
        self.period, self.states, self.initial, self.finals = period, states, initial, finals
        self.arcs, self.alphabet, self.base = arcs, alphabet, base
        self.accepts_epsilon = accepts_epsilon
        self._transitions = self._lift = self._samples = None

    @property
    def transitions(self) -> tuple[TypedTransition, ...]:
        if self._transitions is None:
            states, base = self.states, self.base.transitions
            self._transitions = tuple(
                TypedTransition(states[x], base[b].bit, states[y], base[b].output, rule, base[b])
                for x, y, b, rule in self.arcs
            )
        return self._transitions

    def _lift_tables(self) -> tuple[dict[int, int], dict[tuple, int]]:
        """The index in ``base.transitions`` of each base transition, keyed
        by its ``id``, and the step table: the index of each arc, keyed by
        (base, source level, source phase, target level, target phase).  The
        base transition names both ends' states."""
        if self._lift is None:
            states, steps = self.states, {}
            for k, (x, y, b, _) in enumerate(self.arcs):
                _, source_level, source_phase = states[x]
                _, target_level, target_phase = states[y]
                steps[b, source_level, source_phase, target_level, target_phase] = k
            self._lift = {id(t): b for b, t in enumerate(self.base.transitions)}, steps
        return self._lift


def build_mprime(machine: Transducer, report: NSetReport) -> TransducerPrime:
    """Level a machine using its certified counter sets.

    States are (q, n, phase) with n in the machine's type window; the four
    transition rules keep exact levels below the period P and mod-period
    levels above it.  From (q, n, phase), a transition q → r opening has
    the copy (r, n + 1, phase) while n + 1 < P (rule i), then
    (r, P + (n + 1) mod P, eq) unless the phase is down (iii); closing, it
    has (r, n − 1, up) from up and (r, n − 1, down) from up or down (ii),
    and from eq (r, P − 1, down) when n = P and (r, P + (n − 1) mod P, eq)
    (iv), each where the level is a type of r.  States are numbered state
    by state, by level, up before down; the copies come transition by
    transition, source by source, by target.  The result is trimmed to the
    states on a live path, and the initial state.  Raises
    :class:`LevelingError` when 0 is not a type of the initial state (the
    machine accepts no input).
    """
    period = report.period
    if 0 not in report.types.get(machine.initial, frozenset()):
        raise LevelingError(
            f"level 0 is not a type of the initial state {machine.initial!r}; "
            "the machine accepts no input word"
        )

    # number[q][n] is the number of (q, n, up), or of (q, n, eq) when n ≥ P;
    # (q, n, down) comes right after (q, n, up).
    states: list[TypedState] = []
    number: dict[str, dict[int, int]] = {}
    for q in machine.states:
        levels = number[q] = {}
        for n in sorted(report.types[q]):
            levels[n] = len(states)
            if n >= period:
                states.append(TypedState(q, n, EQ))
            else:
                states += (TypedState(q, n, UP), TypedState(q, n, DOWN))

    arcs: list[tuple[int, int, int, str]] = []
    for b, t in enumerate(machine.transitions):
        at = number[t.target]
        for n, i in number[t.source].items():
            sources = ((i, EQ),) if n >= period else ((i, UP), (i + 1, DOWN))
            for s, phase in sources:
                if t.bit == 0:
                    if n + 1 < period:
                        j = at.get(n + 1)
                        if j is not None:
                            arcs.append((s, j + (phase == DOWN), b, "i"))
                    elif phase != DOWN:
                        j = at.get(period + (n + 1) % period)
                        if j is not None:
                            arcs.append((s, j, b, "iii"))
                elif phase != EQ:
                    j = at.get(n - 1)
                    if j is not None:
                        if phase == UP:
                            arcs.append((s, j, b, "ii"))
                        arcs.append((s, j + 1, b, "ii"))
                else:
                    if n == period and period - 1 in at:
                        arcs.append((s, at[period - 1] + 1, b, "iv"))
                    j = at.get(period + (n - 1) % period)
                    if j is not None:
                        arcs.append((s, j, b, "iv"))

    initial = number[machine.initial][0]
    finals = [number[f][0] + 1 for f in machine.finals if 0 in number[f]]
    alive = _live(initial, finals, ((s, t) for s, t, _, _ in arcs)) | {initial}
    kept = sorted(alive)
    renumber = {old: new for new, old in enumerate(kept)}
    return TransducerPrime(
        period=period,
        states=tuple(states[i] for i in kept),
        initial=renumber[initial],
        finals=frozenset(renumber[f] for f in finals if f in alive),
        arcs=tuple(
            (renumber[s], renumber[t], b, rule)
            for s, t, b, rule in arcs
            if s in alive and t in alive
        ),
        alphabet=machine.alphabet,
        accepts_epsilon=machine.accepts_epsilon,
        base=machine,
    )


# ---------------------------------------------------------------------------
# Runs and their leveled images


def check_run(machine: Transducer, run: list[Transition]) -> list[int]:
    """Check that ``run`` is an accepting run of ``machine`` and return its
    open depths: entry i is the input's open depth after i steps.

    Raises :class:`ValueError` for the first of these rules the run breaks:
    it starts at the initial state, each step starts where the last one
    ended, it ends at a final state, and its input is balanced.
    """
    if not run:
        if not machine.accepts_epsilon:
            raise ValueError("empty run, but the machine does not accept the empty input")
        return [0]
    at = run[0].source
    if at != machine.initial:
        raise ValueError(f"run starts at {at!r}, not the initial state")
    depths = [0]
    depth = low = 0
    for t in run:
        if t.source != at:
            raise ValueError(f"run breaks between {at!r} and {t.source!r}")
        at = t.target
        depth += 1 if t.bit == 0 else -1
        if depth < low:
            low = depth
        depths.append(depth)
    if at not in machine.finals:
        raise ValueError(f"run ends at non-final state {at!r}")
    if low < 0 or depth:
        raise ValueError("run input word is not balanced")
    return depths


def lift_run(
    machine: Transducer,
    run: list[Transition],
    prime: TransducerPrime,
) -> list[int]:
    """Replay an accepting run of the machine inside its leveled form: the
    index in ``prime.arcs`` of each step's leveled copy.

    Levels follow the input's open depth: exactly while it stays below the
    period (ascending, then descending once it never returns there), and
    shifted into the mod-period window in between.  Each step is one probe
    of the step table of :meth:`TransducerPrime._lift_tables`.  Raises
    :class:`LevelingError` at the first step with no leveled copy.
    """
    depths = check_run(machine, run)
    n = len(run)
    if not n:
        return []
    period = prime.period
    bases, steps = prime._lift_tables()
    # The phase is up before the first position at the period, down after
    # the last, and eq in between.  The depth moves by one per step, so
    # these are the positions where it equals the period.
    if period in depths:
        first, last = depths.index(period), n + 1 - depths[::-1].index(period)
    else:
        first = last = n

    lifted: list[int] = []
    level, phase = 0, UP
    for i, t in enumerate(run, 1):
        to_level = depths[i]
        if i < first:
            to_phase = UP
        elif i < last:
            to_level, to_phase = to_level % period + period, EQ
        else:
            to_phase = DOWN
        b = bases.get(id(t))
        if b is None:  # not the machine's own object: find an equal one
            b = next((k for k, u in enumerate(prime.base.transitions) if u == t), None)
        k = steps.get((b, level, phase, to_level, to_phase))
        if k is None:
            raise LevelingError(
                f"no leveled transition {TypedState(t.source, level, phase).render()} "
                f"-{t.bit}-> {TypedState(t.target, to_level, to_phase).render()} "
                f"for {t.source}->{t.target}"
            )
        lifted.append(k)
        level, phase = to_level, to_phase
    return lifted


# ---------------------------------------------------------------------------
# Bounded comparison of a machine with its leveled form


def bounded_outputs(machine: Transducer | TransducerPrime, nmax: int) -> Automaton:
    """One NFA for the outputs over all nonempty balanced inputs of length ≤ nmax.

    Works on a machine and on its leveled form alike; :func:`bounded_language`
    adds the empty input.  The NFA is :func:`regular.expand_graph` on the
    configurations (state, counter c, step i) with 0 ≤ c ≤ nmax − i that
    the initial one reaches, with an arc per transition that reads its
    output language.  The size is polynomial in nmax, where stepping each
    input word is exponential.  The arcs carry the trimmed DFAs of
    :meth:`Transducer.compiled_output`, so the NFA comes out trimmed, with
    no search.  A leveled machine's configurations hold state numbers, and
    its arcs share one DFA per base transition.
    """
    by_source: dict = {}
    if isinstance(machine, TransducerPrime):
        base = machine.base.transitions
        outputs = [machine.base.compiled_output(t) for t in base]
        for x, y, b, _ in machine.arcs:
            by_source.setdefault(x, []).append((base[b].bit, y, outputs[b]))
    else:
        for t in machine.transitions:
            by_source.setdefault(t.source, []).append(
                (t.bit, t.target, machine.compiled_output(t)))
    configs = [(machine.initial, 0, 0)]
    seen = set(configs)
    arcs = []
    for q, c, i in configs:  # grows while it is walked
        for bit, target, output in by_source.get(q, ()):
            c2 = c + 1 if bit == 0 else c - 1
            if 0 <= c2 <= nmax - i - 1:
                cfg = (target, c2, i + 1)
                if cfg not in seen:
                    seen.add(cfg)
                    configs.append(cfg)
                arcs.append(((q, c, i), output, cfg))
    finals = [(q, c, i) for q, c, i in configs if i > 0 and c == 0 and q in machine.finals]
    return regular.expand_graph(configs, arcs, configs[:1], finals, machine.alphabet)


def bounded_language(machine: Transducer | TransducerPrime, nmax: int) -> Automaton:
    """The outputs over all balanced inputs of length ≤ nmax, the empty one
    included when the machine accepts it; trimmed, as :func:`bounded_outputs`."""
    a = bounded_outputs(machine, nmax)
    if not machine.accepts_epsilon:
        return a
    # No letter edge enters an initial state of expand_graph's result: the
    # states it copies are numbered after them.  So making the initial
    # states final adds exactly ε, and the empty automaton becomes ε's.
    return Automaton(a.alphabet, a.n, a.edges, a.initials, a.finals | a.initials)


def bounded_language_equal(
    machine: Transducer,
    prime: TransducerPrime,
    nmax: int,
    output_cap: int,
) -> tuple[bool, str | None, bool]:
    """Compare output unions over all balanced inputs of length ≤ nmax.

    Both unions are truncated to words of length ≤ output_cap before the
    comparison.  Returns (equal, witness, truncated): the witness is the
    shortest (then lexicographically first) word in exactly one union, and
    ``truncated`` reports whether either union went beyond the cap.
    """
    a = bounded_language(machine, nmax)
    b = bounded_language(prime, nmax)
    truncated = regular.has_word_longer_than(a, output_cap) or regular.has_word_longer_than(
        b, output_cap
    )

    alphabet = machine.alphabet
    a_finals, b_finals = a.finals, b.finals
    start = (a.initials, b.initials)
    seen = {start}
    queue: list[tuple[tuple[int, int], str]] = [(start, "")]
    head = 0
    while head < len(queue):
        (sa, sb), word = queue[head]
        head += 1
        if bool(sa & a_finals) != bool(sb & b_finals):
            return False, word, truncated
        if len(word) == output_cap:
            continue
        for ch in alphabet.letters:
            ta = a.step(sa, ch)
            tb = b.step(sb, ch)
            if not ta and not tb:
                continue
            key = (ta, tb)
            if key not in seen:
                seen.add(key)
                queue.append((key, word + ch))
    return True, None, truncated
