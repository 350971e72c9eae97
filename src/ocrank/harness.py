"""Bounded evidence: enumeration, accepting runs, density probes, a counter oracle.

``enumerate`` lists a machine's outputs over short inputs for the
``enumerate`` command, and ``accepting_runs`` gives ``check`` the runs it
lifts.  ``probe_density`` and ``upset_oracle`` recompute facts by
elementary means (sampled cycle outputs, plain breadth-first search over
configurations), so that tests and the benchmark can confront the
certified analyses with independent evidence.  Note this module
deliberately exports ``enumerate`` per its interface contract; the
shadowed builtin is not used inside.
"""

from __future__ import annotations

from typing import NamedTuple

from . import regular
from .rank import RocAtom, RocConcat, RocExpr, RocPlus, enumerate_expr
from .transducer import (
    LevelingError,
    Transducer,
    Transition,
    bounded_language,
    build_mprime,
)
from .counterset import reach_sets
from .words import distinct_root_pair, primitive_root


class EnumerationResult(NamedTuple):
    words: list[str]
    input_cap: int
    output_cap: int
    truncated: bool


def enumerate(machine: Transducer, input_cap: int, output_cap: int) -> EnumerationResult:  # noqa: A001
    """All outputs over balanced inputs of length ≤ input_cap, in lex order.

    Words longer than ``output_cap`` are dropped and flagged via
    ``truncated`` instead.
    """
    lang = bounded_language(machine, input_cap)
    words = regular.words_up_to(lang, output_cap)
    truncated = regular.has_word_longer_than(lang, output_cap)
    return EnumerationResult(words, input_cap, output_cap, truncated)


# ---------------------------------------------------------------------------
# Density probing


class DensityWitness(NamedTuple):
    word1: str
    word2: str
    description: str
    state: object | None = None


def probe_density(
    e: RocExpr, input_cap: int = 8, output_cap: int = 24
) -> DensityWitness | None:
    """Search for bounded evidence that the expression's order is not scattered.

    For an iteration, two members of the body with different primitive
    roots suffice.  For a machine, two differently rooted cycle outputs at
    the same leveled state do.  Returns None when nothing surfaced within
    the caps — which is evidence of absence only, not proof.
    """
    if isinstance(e, RocPlus):
        pair = distinct_root_pair(enumerate_expr(e.body, input_cap, output_cap))
        if pair is None:
            return None
        u, v = pair
        return DensityWitness(
            u,
            v,
            f"{{{u}{v}{u}{v},{v}{u}{v}{u}}}*{u}{v}{v}{u} orders densely: body members "
            f"{u!r} and {v!r} have roots {primitive_root(u)!r} and {primitive_root(v)!r}",
        )
    if isinstance(e, RocConcat):
        left = probe_density(e.left, input_cap, output_cap)
        if left is not None and enumerate_expr(e.right, input_cap, output_cap):
            return left
        right = probe_density(e.right, input_cap, output_cap)
        if right is not None and enumerate_expr(e.left, input_cap, output_cap):
            return right
        return None
    if isinstance(e, RocAtom):
        return _probe_machine(e.machine, output_cap)
    raise TypeError(f"not an expression: {e!r}")


def _probe_machine(machine: Transducer, output_cap: int) -> DensityWitness | None:
    """Look for two distinct-root cycle outputs at one leveled state.

    Each arc reads the shortest word of its base transition's output; the
    walks run over state numbers, on the arcs filed by source in arc order.
    Each (state, word read, length) is expanded once, when first popped: a
    repeat would only sample its first expansion's words again.
    """
    try:
        prime = build_mprime(machine, reach_sets(machine))
    except LevelingError:
        return None  # no accepted input, nothing to order
    walk_cap = max(2 * prime.period, 8)
    words = [regular.shortest_word(machine.compiled_output(t)) for t in machine.transitions]
    out_of: list[list[tuple[int, str]]] = [[] for _ in prime.states]
    for x, y, b, _ in prime.arcs:  # every output language is nonempty
        out_of[x].append((y, words[b]))
    for s in range(len(prime.states)):
        samples: list[str] = []
        # Depth-first over closed walks at s, sampling one output word each.
        stack, expanded = [(s, "", 0)], set()
        while stack:
            node = stack.pop()
            if node not in expanded:
                expanded.add(node)
                at, read, steps = node
                for y, word in out_of[at]:
                    if y == s:
                        samples.append(read + word)
                    if steps + 1 < walk_cap:
                        stack.append((y, read + word, steps + 1))
        pair = distinct_root_pair(samples)
        if pair is not None:
            state = prime.states[s]
            return DensityWitness(
                pair[0],
                pair[1],
                f"cycle outputs at {state.render()} have distinct primitive roots",
                state=state,
            )
    return None


# ---------------------------------------------------------------------------
# Independent counter-set oracle


class OracleSlices(NamedTuple):
    minus: dict[str, frozenset[int]]
    plus: dict[str, frozenset[int]]
    meet: dict[str, frozenset[int]]
    bound: int


def upset_oracle(machine: Transducer, counter_bound: int) -> OracleSlices:
    """Exact counter slices on [0, counter_bound] by plain configuration BFS.

    Explores far enough beyond the bound that no value below it can be
    missed for lack of headroom.
    """
    n = len(machine.states)
    horizon = max(3 * counter_bound + n, counter_bound + n * n + 2)

    def explore(edges, starts) -> dict[str, frozenset[int]]:
        reached: dict[str, set[int]] = {q: set() for q in machine.states}
        seen = set(starts)
        queue = list(starts)
        head = 0
        while head < len(queue):
            q, c = queue[head]
            head += 1
            reached[q].add(c)
            for src, w, tgt in edges:
                if src != q:
                    continue
                c2 = c + w
                if 0 <= c2 <= horizon and (tgt, c2) not in seen:
                    seen.add((tgt, c2))
                    queue.append((tgt, c2))
        return {
            q: frozenset(c for c in vals if c <= counter_bound)
            for q, vals in reached.items()
        }

    forward = [
        (t.source, 1 if t.bit == 0 else -1, t.target) for t in machine.transitions
    ]
    backward = [(tgt, -w, src) for src, w, tgt in forward]
    minus = explore(forward, [(machine.initial, 0)])
    plus = explore(backward, [(f, 0) for f in sorted(machine.finals)])
    meet = {q: minus[q] & plus[q] for q in machine.states}
    return OracleSlices(minus, plus, meet, counter_bound)


# ---------------------------------------------------------------------------
# Run enumeration (for lift/project round-trips)


def accepting_runs(machine: Transducer, max_len: int) -> list[list[Transition]]:
    """Every accepting run whose input is balanced and at most max_len long."""
    runs: list[list[Transition]] = []
    by_source: dict[str, list[Transition]] = {}
    for t in machine.transitions:
        by_source.setdefault(t.source, []).append(t)

    def dfs(state: str, open_now: int, path: list[Transition]) -> None:
        if open_now == 0 and path and state in machine.finals:
            runs.append(list(path))
        budget = max_len - len(path)
        if budget <= 0:
            return
        for t in by_source.get(state, ()):
            if t.bit == 0:
                if open_now + 1 <= budget - 1:
                    path.append(t)
                    dfs(t.target, open_now + 1, path)
                    path.pop()
            elif 0 < open_now <= budget:
                path.append(t)
                dfs(t.target, open_now - 1, path)
                path.pop()

    dfs(machine.initial, 0, [])
    if machine.accepts_epsilon:
        runs.insert(0, [])
    return runs
