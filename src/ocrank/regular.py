"""Regular expressions and finite automata over ordered alphabets.

The regex dialect is deliberately small: single-letter literals, ``eps``
for the empty word, ``+`` for union, juxtaposition for concatenation,
postfix ``*``, and parentheses.  No regex of the dialect denotes the
empty language.

Automata are epsilon-free NFAs with integer states; a state's successors
on a letter are one int bitmask, and every walk over state sets works on
such masks, lowest state first.  Every composite automaton, from a
regex's unions, concatenations and stars to the graphs that the layers
above build, comes from one ε-elimination, ``expand_graph``.
``compile_regex`` returns the trimmed subset-construction DFA, which is
what every decision procedure in this module works on.

Machines draw their outputs from few regexes, so ``parse_regex`` and
``compile_regex`` keep their results in process-wide tables, as :mod:`re`
keeps compiled patterns, and ``regular_scattered`` keeps its verdict on
the automaton it analysed.  Compiled automata are shared and read-only.
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import NamedTuple, TypeVar

from .words import Alphabet, Record, mask_image, primitive_root, state_bits, state_mask

_Node = TypeVar("_Node")


# ---------------------------------------------------------------------------
# Regex syntax trees


class Regex(Record):
    """Base class for regex nodes.  A node hashes as its fields' tuple, so
    ``Union(a, b)`` and ``Concat(a, b)`` hash alike; they are not equal."""

    __slots__ = ()


class Lit(Regex):
    __slots__ = _fields = ("ch",)

    def __init__(self, ch: str) -> None:
        self.ch = ch

    def __hash__(self) -> int:
        return hash((self.ch,))

    def __str__(self) -> str:
        return self.ch


class Eps(Regex):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(())

    def __str__(self) -> str:
        return "eps"


class Union(Regex):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left, self.right = left, right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __str__(self) -> str:
        return f"{self.left}+{self.right}"


class Concat(Regex):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left, self.right = left, right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __str__(self) -> str:
        return f"{_wrap_for_concat(self.left)}{_wrap_for_concat(self.right)}"


class Star(Regex):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Regex) -> None:
        self.body = body

    def __hash__(self) -> int:
        return hash((self.body,))

    def __str__(self) -> str:
        return f"{_wrap_for_star(self.body)}*"


def _wrap_for_concat(r: Regex) -> str:
    if isinstance(r, Union):
        return f"({r})"
    return str(r)


def _wrap_for_star(r: Regex) -> str:
    if isinstance(r, (Union, Concat)) or isinstance(r, Star):
        return f"({r})"
    return str(r)


class RegexSyntaxError(ValueError):
    """Parse failure carrying the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Deepest parenthesis nesting ``parse_regex`` accepts.  Concatenations and
# unions fold into balanced trees, so this bounds the syntax tree's depth
# and with it the recursion of everything that walks the tree.
MAX_NESTING = 50


def _balanced(node: type[Concat] | type[Union], parts: list[Regex]) -> Regex:
    """Fold ``parts`` into a tree of ``node`` of logarithmic depth (left-deep
    up to three parts, as a left-to-right fold would give)."""
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return node(_balanced(node, parts[:mid]), _balanced(node, parts[mid:]))


# Most entries each table below keeps, as ``re._MAXCACHE`` does for
# compiled patterns.  Past it the oldest entry, in insertion order, goes.
# An alphabet is keyed by its letters, which are all its equality compares
# and which hash without a call into Python.
_MAXCACHE = 512

_parsed: dict[tuple[str, tuple[str, ...]], Regex] = {}
_compiled: dict[tuple[Regex, tuple[str, ...]], Automaton] = {}


def _remember(table: dict, key, value):
    """Store ``value`` under ``key``, evicting the oldest entry when full."""
    if len(table) >= _MAXCACHE:
        del table[next(iter(table))]
    table[key] = value
    return value


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse the package's regex dialect.

    Grammar::

        expr   := term ('+' term)*
        term   := factor factor*
        factor := base '*'?
        base   := letter | 'eps' | '(' expr ')'

    ``eps`` is a reserved token: it always denotes the empty word, even if
    e, p, s are themselves letters of the alphabet.  Whitespace is not
    allowed (fixture files split on it).  Parentheses may nest at most
    ``MAX_NESTING`` deep.  Each (text, alphabet) is parsed once per
    process; a syntax error is raised anew on every call.
    """
    key = (text, alphabet.letters)
    node = _parsed.get(key)
    if node is None:
        node = _remember(_parsed, key, _parse(text, alphabet))
    return node


def _parse(text: str, alphabet: Alphabet) -> Regex:
    pos = 0
    depth = 0
    n = len(text)

    def peek() -> str | None:
        return text[pos] if pos < n else None

    def parse_expr() -> Regex:
        nonlocal pos
        terms = [parse_term()]
        while peek() == "+":
            pos += 1
            terms.append(parse_term())
        return _balanced(Union, terms)

    def parse_term() -> Regex:
        factors = [parse_factor()]
        while peek() is not None and peek() not in ("+", ")", "*"):
            factors.append(parse_factor())
        return _balanced(Concat, factors)

    def parse_factor() -> Regex:
        nonlocal pos
        node = parse_base()
        if peek() == "*":
            pos += 1
            node = Star(node)
            if peek() == "*":
                raise RegexSyntaxError("repeated '*' is not allowed", pos)
        return node

    def parse_base() -> Regex:
        nonlocal pos, depth
        ch = peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of expression", pos)
        if ch == "(":
            open_at = pos
            depth += 1
            if depth > MAX_NESTING:
                raise RegexSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", open_at
                )
            pos += 1
            node = parse_expr()
            if peek() != ")":
                raise RegexSyntaxError("unclosed '('", open_at)
            pos += 1
            depth -= 1
            return node
        if text.startswith("eps", pos):
            pos += 3
            return Eps()
        if ch in alphabet:
            pos += 1
            return Lit(ch)
        raise RegexSyntaxError(f"unexpected character {ch!r}", pos)

    if not text:
        raise RegexSyntaxError("empty expression", 0)
    node = parse_expr()
    if pos != n:
        raise RegexSyntaxError(f"trailing input {text[pos:]!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Epsilon-free NFAs


def _targets(row: dict[str, int]) -> int:
    """The bitmask of a row's successors on every letter."""
    targets = 0
    for m in row.values():
        targets |= m
    return targets


class Automaton(Record):
    """An epsilon-free NFA.  States are 0..n-1.

    ``edges[q]`` maps a letter to the successors of q on it as one int
    bitmask (bit t set when q → t); letters without successors are absent.
    ``initials`` and ``finals`` are state bitmasks in the same encoding.

    Automata are read-only once built: those from :func:`compile_regex`
    are shared by every caller in the process, :func:`regular_scattered`
    keeps its verdict on them, and :func:`expand_graph` the states that a
    letter enters.  No caller may mutate ``edges``, ``initials`` or
    ``finals``.
    """

    _fields = ("alphabet", "n", "edges", "initials", "finals")
    __slots__ = _fields + ("_scattered", "_entered")

    def __init__(self, alphabet: Alphabet, n: int, edges: list[dict[str, int]],
                 initials: int, finals: int) -> None:
        self.alphabet, self.n, self.edges = alphabet, n, edges
        self.initials, self.finals = initials, finals
        self._scattered = self._entered = None  # kept on first use, see above

    def step(self, states: int, ch: str) -> int:
        """The successors on ``ch`` of the state bitmask ``states``."""
        edges = self.edges
        out = 0
        while states:
            low = states & -states
            out |= edges[low.bit_length() - 1].get(ch, 0)
            states ^= low
        return out


def literal_automaton(ch: str, alphabet: Alphabet) -> Automaton:
    alphabet.rank(ch)
    return Automaton(alphabet, 2, [{ch: 0b10}, {}], 0b1, 0b10)


def epsilon_automaton(alphabet: Alphabet) -> Automaton:
    return Automaton(alphabet, 1, [{}], 1, 1)


def empty_automaton(alphabet: Alphabet) -> Automaton:
    return Automaton(alphabet, 1, [{}], 1, 0)


def _add_moves(row: dict[str, int], moves: dict[str, int]) -> None:
    for ch, m in moves.items():
        row[ch] = row.get(ch, 0) | m


def nfa_of_regex(r: Regex, alphabet: Alphabet) -> Automaton:
    """The regex's position (Glushkov) automaton.

    A union, a concatenation and a star are graphs of two, three and one
    nodes whose arcs carry the parts' automata, built by
    :func:`expand_graph`.  Each state that a letter enters stands for one
    letter occurrence, and no initial state is ever re-entered.  So after
    each nonempty word the NFA reaches the occurrences that can end it, as
    the NFA of the usual union, concatenation and star combinators does,
    and :func:`determinize`, which numbers its states by words
    breadth-first, gives the same DFA from both.
    """
    if isinstance(r, Lit):
        return literal_automaton(r.ch, alphabet)
    if isinstance(r, Eps):
        return epsilon_automaton(alphabet)
    if isinstance(r, Star):
        return expand_graph([0], [(0, nfa_of_regex(r.body, alphabet), 0)], [0], [0], alphabet)
    if isinstance(r, Union):
        left, right = nfa_of_regex(r.left, alphabet), nfa_of_regex(r.right, alphabet)
        return expand_graph([0, 1], [(0, left, 1), (0, right, 1)], [0], [1], alphabet)
    if isinstance(r, Concat):
        left, right = nfa_of_regex(r.left, alphabet), nfa_of_regex(r.right, alphabet)
        return expand_graph([0, 1, 2], [(0, left, 1), (1, right, 2)], [0], [2], alphabet)
    raise TypeError(f"not a regex node: {r!r}")


# ---------------------------------------------------------------------------
# Subset construction, trimming, inclusion


def determinize(a: Automaton) -> Automaton:
    """Subset construction on state bitmasks, numbered in BFS order with
    letters in alphabet order.  The result is partial: a letter that leads
    to the empty set has no edge."""
    letters = a.alphabet.letters
    start = a.initials
    index = {start: 0}
    order = [start]
    out_edges: list[dict[str, int]] = []
    for s in order:  # grows while it is walked: a BFS
        row: dict[str, int] = {}
        for ch in letters:
            t = a.step(s, ch)
            if not t:
                continue
            i = index.get(t)
            if i is None:
                i = index[t] = len(order)
                order.append(t)
            row[ch] = 1 << i
        out_edges.append(row)
    accepting = state_mask(i for i, s in enumerate(order) if s & a.finals)
    return Automaton(a.alphabet, len(order), out_edges, 1, accepting)


def _reach(mask: int, successors: list[int]) -> int:
    """The bitmask of the states that ``successors`` leads to from ``mask``,
    in any number of steps, ``mask`` included."""
    seen = new = mask
    while new:
        new = mask_image(new, successors) & ~seen
        seen |= new
    return seen


def _coreachable(a: Automaton) -> int:
    """The bitmask of the states from which a final state can be reached."""
    before = [0] * a.n
    for q, row in enumerate(a.edges):
        bit = 1 << q
        for t in state_bits(_targets(row)):
            before[t] |= bit
    return _reach(a.finals, before)


def trim(a: Automaton) -> Automaton:
    """Drop states that are unreachable or cannot reach a final state.

    The result's states are renumbered in BFS order from the initial set,
    expanding letters in alphabet order and targets in ascending order, so
    equal inputs give identical outputs.
    """
    co = _coreachable(a)
    # One forward BFS through co-reachable states visits exactly the live
    # ones: a state it reaches is reachable and co-reachable, and every state
    # on a path from an initial state to a live state q reaches q, hence a
    # final state.  Each state it meets is reachable, so it is live exactly
    # when it is co-reachable, and the order is that of a BFS over the live
    # states.
    live = a.initials & co
    if not live:
        return empty_automaton(a.alphabet)
    order = state_bits(live)
    for q in order:  # grows while it is walked: a BFS
        row = a.edges[q]
        for ch in a.alphabet.letters:
            new = row.get(ch, 0) & co & ~live
            if new:
                live |= new
                order.extend(state_bits(new))
    moved = [0] * a.n  # each live state's bit in the result, 0 for the others
    for i, q in enumerate(order):
        moved[q] = 1 << i
    edges = []
    for q in order:
        row = {}
        for ch, m in a.edges[q].items():
            m = mask_image(m, moved)
            if m:
                row[ch] = m
        edges.append(row)
    initials, finals = mask_image(a.initials, moved), mask_image(a.finals, moved)
    return Automaton(a.alphabet, len(order), edges, initials, finals)


def compile_regex(r: Regex, alphabet: Alphabet) -> Automaton:
    """Regex → trimmed DFA (possibly partial: dead transitions are absent).

    Each (regex, alphabet) is compiled once per process and the automaton
    is shared by every caller: it is read-only, see :class:`Automaton`.
    """
    key = (r, alphabet.letters)
    a = _compiled.get(key)
    if a is None:
        a = _remember(_compiled, key, trim(determinize(nfa_of_regex(r, alphabet))))
    return a


def shortest_word(a: Automaton) -> str | None:
    """Length-then-lex least accepted word, or None for the empty language."""
    return subset_with_witness(a, empty_automaton(a.alphabet))[1]


def shortest_nonempty_word(a: Automaton) -> str | None:
    """Least accepted word of length ≥ 1 (length-then-lex), or None."""
    return subset_with_witness(a, epsilon_automaton(a.alphabet))[1]


def words_up_to(a: Automaton, max_len: int) -> list[str]:
    """All accepted words of length ≤ max_len, in lexicographic order.

    Depth-first over subset states with letters in alphabet order yields
    exactly the lexicographic order (a prefix is visited before its
    extensions).  The walk keeps its own stack, children pushed in reverse
    alphabet order, so long words do not deepen the call stack.
    """
    out: list[str] = []
    finals = a.finals
    letters = a.alphabet.letters[::-1]
    children: dict[int, list[tuple[str, int]]] = {}  # per subset, built once
    stack = [(a.initials, "")]
    while stack:
        s, word = stack.pop()
        if s & finals:
            out.append(word)
        if len(word) == max_len:
            continue
        moves = children.get(s)
        if moves is None:
            moves = children[s] = [(ch, t) for ch in letters if (t := a.step(s, ch))]
        for ch, t in moves:
            stack.append((t, word + ch))
    return out


def has_word_longer_than(a: Automaton, length: int) -> bool:
    """True iff some accepted word is strictly longer than ``length``.

    ``a`` must be trimmed, as :func:`trim` returns it and as
    :func:`expand_graph` builds it from trimmed arcs: then every walk from
    an initial state extends to an accepted word, so a walk of
    ``length`` + 1 steps decides.  A walk of more than ``a.n`` steps
    repeats a state, whose loop pumps words past any length, so no more
    than ``a.n`` + 1 steps are taken.
    """
    successors = [_targets(row) for row in a.edges]
    current = a.initials
    for _ in range(min(length, a.n) + 1):
        if not current:
            return False
        current = mask_image(current, successors)
    return bool(current)


def subset_with_witness(a: Automaton, b: Automaton) -> tuple[bool, str | None]:
    """Decide L(a) ⊆ L(b); on failure also return the least word in L(a)∖L(b).

    One breadth-first search over pairs (state set of a, state set of b),
    letters in alphabet order, stops at the first word that a accepts and
    b rejects, which is the length-then-lex least.  Only the pairs that
    some word reaches are built, and b is never completed.
    """
    finals_a, finals_b = a.finals, b.finals
    start = (a.initials, b.initials)
    seen = {start}
    queue: deque[tuple[tuple[int, int], str]] = deque([(start, "")])
    while queue:
        (s, t), word = queue.popleft()
        if s & finals_a and not t & finals_b:
            return False, word
        for ch in a.alphabet.letters:
            s2 = a.step(s, ch)
            if s2:
                pair = (s2, b.step(t, ch))
                if pair not in seen:
                    seen.add(pair)
                    queue.append((pair, word + ch))
    return True, None


def power_automaton(v: str, start: int, stop: int, alphabet: Alphabet) -> Automaton:
    """W(start, stop): the |v|-state cyclic DFA of the words that read v^ω
    from position ``start`` and stop at position ``stop`` (partial: wrong
    letters die).  W(0, 0) accepts v*."""
    if not v:
        raise ValueError("v must be nonempty")
    alphabet.check_word(v)
    n = len(v)
    edges = [{ch: 1 << (i + 1) % n} for i, ch in enumerate(v)]
    return Automaton(alphabet, n, edges, 1 << start, 1 << stop)


def subset_of_power_with_witness(a: Automaton, v: str) -> tuple[bool, str | None]:
    return subset_with_witness(a, power_automaton(v, 0, 0, a.alphabet))


# ---------------------------------------------------------------------------
# Graphs whose arcs carry automata


def _entered_states(a: Automaton) -> tuple[list[tuple[dict[str, int], bool]], dict[str, int]]:
    """The states of ``a`` that some letter edge enters, renumbered from 0
    in ascending order, each with its row and whether it is final, and the
    moves out of ``a``'s initial states.  For a DFA from
    :func:`compile_regex` that is every state but 0, unless an edge
    re-enters state 0.  Kept on ``a``."""
    if a._entered is None:
        entered = 0
        for row in a.edges:
            entered |= _targets(row)
        kept = list(state_bits(entered))
        moved = [0] * a.n
        for i, q in enumerate(kept):
            moved[q] = 1 << i

        def renumber(row: dict[str, int]) -> dict[str, int]:
            return {ch: mask_image(m, moved) for ch, m in row.items()}

        moves: dict[str, int] = {}
        for i in state_bits(a.initials):
            _add_moves(moves, a.edges[i])
        rows = [(renumber(a.edges[q]), bool(a.finals >> q & 1)) for q in kept]
        a._entered = rows, renumber(moves)
    return a._entered


def expand_graph(nodes, arcs, initials, finals, alphabet: Alphabet) -> Automaton:
    """NFA for the words read along paths of a graph with automaton edges.

    ``arcs`` are (u, automaton, v): traversing the arc reads one member of
    the automaton's language.  Only the live nodes are kept: those on a
    path from an initial node to a final one along arcs whose automaton has
    a final state.  The states are the live initial nodes, each once, then,
    arc after live arc, the states of its automaton that a letter edge
    enters, each with its own row.  A live node's ε-closure, computed once,
    is the node and the nodes that arcs accepting ε lead to from it; it
    gives the node a row, the moves out of the initial states of the arcs
    leaving the closure, and it accepts when the closure meets ``finals``.
    An initial node reads on with its row and accepts with it, and so does
    a copied state that is final in its automaton, with the row of the
    arc's target.

    When every arc carries a trimmed automaton, as :func:`compile_regex`
    returns, the result is trimmed without a search: a copied state is
    entered along a word from its automaton's initial state, which the
    arc's live source reaches, and reads on to a final state of the
    automaton, from which the arc's live target reads on to a final node.
    Otherwise the language is the same, but dead states may be left.
    """
    index = {v: i for i, v in enumerate(nodes)}
    counted = [(index[u], a, index[v]) for u, a, v in arcs if a.finals]
    after, before = [0] * len(index), [0] * len(index)
    for i, _, j in counted:
        after[i] |= 1 << j
        before[j] |= 1 << i
    starts = [index[v] for v in initials]
    final_mask = state_mask(index[v] for v in finals)
    live = _reach(state_mask(starts), after) & _reach(final_mask, before)
    # Each state's own row, and the node whose row it adds (None for none).
    states: list[tuple[dict[str, int], int | None]] = [
        ({}, x) for x in dict.fromkeys(starts) if live >> x & 1
    ]
    if not states:
        return empty_automaton(alphabet)
    initial_states = (1 << len(states)) - 1
    leaving: list[list[dict[str, int]]] = [[] for _ in index]
    eps = [0] * len(index)  # the ε arcs between live nodes
    for i, a, j in counted:
        if live >> i & 1 and live >> j & 1:
            rows, moves = _entered_states(a)
            base = len(states)
            leaving[i].append({ch: m << base for ch, m in moves.items()})
            if a.initials & a.finals:
                eps[i] |= 1 << j
            for own, final in rows:
                states.append(({ch: m << base for ch, m in own.items()}, j if final else None))
    closed: dict[int, tuple[dict[str, int], int]] = {}
    edges, accepting = [], 0
    for row, x in states:
        if x is not None:
            if x not in closed:
                closure = _reach(1 << x, eps) if eps[x] else 1 << x
                moves = {}
                for y in state_bits(closure):
                    for out in leaving[y]:
                        _add_moves(moves, out)
                closed[x] = moves, closure & final_mask
            moves, accepts = closed[x]
            _add_moves(row, moves)
            if accepts:
                accepting |= 1 << len(edges)
        edges.append(row)
    return Automaton(alphabet, len(edges), edges, initial_states, accepting)


def cycle_roots(
    arcs: list[list[tuple[int, str, Automaton | None]]], components: list[list[int]]
) -> dict[int, str | None] | list[int]:
    """The one primitive root of each node's cycle words, or a clash.

    ``arcs[x]`` lists the arcs out of node x as (y, w, language): the arc
    reads the words of ``language``, a trimmed automaton, or exactly w when
    ``language`` is None, and w is one word it reads, nonempty if it reads
    one.  A node's cycle words are those read along closed walks at it.
    ``components`` are strongly connected sets of nodes, each sorted, each
    labelled in turn on the arcs between its own nodes.  Returns the roots
    of their nodes, component by component (None where no cycle reads a
    letter), or, when some node's cycle words are not all powers of one
    word, the members of the first such component, for
    :func:`cycle_witness`.  No cycle language is built.

    One search from a component's least node a gives each node x a
    potential d(x), the length of the words w read along one path a → x.
    Let g be the gcd of d(x) + |w| − d(y) over the component's arcs
    x → y: it divides the weight of each closed walk on the words w, the
    sum of these terms, and each term is the difference of two such
    weights.  If g = 0, every w is ε, so every arc reads only ε and no
    cycle reads a letter.  Otherwise the letters of the words w at the
    positions ≡ k (mod g) must all be one letter u[k] (a closed walk at a
    that reads a letter weighs a positive multiple of g, so it meets every
    k), and v = primitive_root(u).  Then every arc with a language must
    pass L ⊆ W(d(x) mod |v|, d(y) mod |v|) (:func:`power_automaton`); an
    arc that reads only w passes with the labelling, as |v| divides g.

    The words w are read along real closed walks, so a clash among them
    is a real clash.  If every cycle word at a lies in the powers of one
    primitive root, the closed walks on the words w read u^m in them, so
    that root is v.  Each path a → x closes to a cycle word along a fixed
    path back, so its length is d(x) mod |v|, and every arc x → y reads a
    factor of v^ω from position d(x) mod |v| to d(y) mod |v|: the
    labelling and every test pass.  Conversely, when they pass, every arc
    reads such a factor, so every closed walk at a reads a word of v*.
    Every node s lies on a closed walk through a, so it reads v from
    position d(s): its root is v rotated by d(s) mod |v|, and the nodes of
    a component pass or fail together.  Each test is made once per
    (language, v, d(x) mod |v|, d(y) mod |v|) in a call: on a complete
    machine every arc shares one language.
    """
    roots: dict[int, str | None] = {}
    tested: dict[tuple[int, str, int, int], bool] = {}
    for members in components:
        inside = state_mask(members)
        depth = {members[0]: 0}
        stack = [members[0]]
        period = 0
        kept = []  # (d(x), w, language, y) per arc x → y inside the component
        while stack:
            x = stack.pop()
            at = depth[x]
            for y, w, language in arcs[x]:
                if not inside >> y & 1:
                    continue
                kept.append((at, w, language, y))
                seen = depth.get(y)
                if seen is None:
                    depth[y] = at + len(w)
                    stack.append(y)
                else:
                    period = gcd(period, at + len(w) - seen)
        if not period:
            roots.update(dict.fromkeys(members))
            continue
        word: dict[int, str] = {}
        for at, w, _, _ in kept:
            for k, ch in enumerate(w, at):
                if word.setdefault(k % period, ch) != ch:
                    return members
        root = primitive_root("".join(word[k] for k in range(period)))
        n = len(root)
        for at, _, language, y in kept:
            if language is not None:
                key = (id(language), root, at % n, depth[y] % n)
                if key not in tested:
                    window = power_automaton(root, key[2], key[3], language.alphabet)
                    tested[key] = subset_with_witness(language, window)[0]
                if not tested[key]:
                    return members
        for x in members:
            k = depth[x] % n
            roots[x] = root[k:] + root[:k]
    return roots


def single_returns(arcs, members: list[int], alphabet: Alphabet) -> Automaton:
    """The words read along the single returns to ``members[0]``.

    ``arcs`` are :func:`cycle_roots`' arc lists and ``members`` the
    component it reported.  :func:`expand_graph` runs on the arcs between
    the members, those into the first member sent to a sink, from the first
    member to the sink; an arc without a language reads its letter w.
    """
    first, inside = members[0], state_mask(members)
    kept = [
        (x, language or literal_automaton(w, alphabet), None if y == first else y)
        for x in members
        for y, w, language in arcs[x]
        if inside >> y & 1
    ]
    return expand_graph([*members, None], kept, [first], [None], alphabet)


def cycle_witness(cycles: Automaton) -> tuple[str, str]:
    """The witness ``(m, x)`` of a clash that :func:`cycle_roots` reported.

    ``cycles`` accepts the words read along the single returns to the
    clashing component's first anchor, m is its shortest nonempty word and
    x its least word outside primitive_root(m)*.  Longer closed walks
    concatenate single returns and add no witness.
    """
    m = shortest_nonempty_word(cycles)
    root = primitive_root(m)
    _, counterexample = subset_of_power_with_witness(cycles, root)
    if counterexample is None:
        raise AssertionError(f"no labelling, yet the cycle words are in {root}*")
    return m, counterexample


# ---------------------------------------------------------------------------
# Order-theoretic analysis of regular languages


class Scattered(NamedTuple):
    """The language is scattered; ``rank`` is a finite bound on its rank."""

    rank: int

    def __bool__(self) -> bool:
        return True


class QuasiDense(NamedTuple):
    """Witness that the language embeds a dense suborder.

    ``state`` is a state of the trimmed DFA that carries two cycle words
    ``x`` and ``y`` with different primitive roots; pumping them in all
    interleavings produces a dense set of words of the language's prefixes.
    """

    state: int
    x: str
    y: str

    def __bool__(self) -> bool:
        return False


def regular_scattered(a: Automaton) -> Scattered | QuasiDense:
    """Decide whether L(a) is scattered in the lexicographic order.

    Works on the trimmed DFA: the language is quasi-dense exactly when some
    state admits two cycle words with distinct primitive roots.  Since runs
    of a DFA are unique, per-state cycle roots capture all pumping.  A
    scattered language's rank is bounded by the most looping components met
    along one path of that DFA: each loop on a path contributes one level of
    condensation.

    The verdict is kept on ``a``, so a shared automaton from
    :func:`compile_regex` is analysed once per process.
    """
    if a._scattered is None:
        a._scattered = _decide_scattered(a)
    return a._scattered


def _decide_scattered(a: Automaton) -> Scattered | QuasiDense:
    d = trim(determinize(a))
    if not d.finals:
        return Scattered(0)
    targets = [list(state_bits(_targets(row))) for row in d.edges]
    components = tarjan_sccs(d.n, targets)
    arcs = [[(t, ch, None) for ch, m in row.items() for t in state_bits(m)] for row in d.edges]
    roots = cycle_roots(arcs, sorted(components))
    if isinstance(roots, list):
        return QuasiDense(roots[0], *cycle_witness(single_returns(arcs, roots, d.alphabet)))
    # Longest path in the condensation counting only looping components.
    # Tarjan lists them in reverse topological order, so successors come first.
    comp_of = [0] * d.n
    best: list[int] = []
    for i, members in enumerate(components):
        for q in members:
            comp_of[q] = i
        below = max(
            (best[comp_of[t]] for q in members for t in targets[q] if comp_of[t] != i),
            default=0,
        )
        looping = len(members) > 1 or members[0] in targets[members[0]]
        best.append(below + 1 if looping else below)
    return Scattered(max(best))


def tarjan_sccs(n: int, successors: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order.

    Roots are tried in index order and successors in the order given, so
    the order of the components follows the caller's order.  Members come
    sorted.
    """
    index_counter = 0
    stack: list[int] = []
    on_stack = [False] * n
    index = [-1] * n
    low = [0] * n
    result: list[list[int]] = []
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, object]] = [(root, iter(successors[root]))]
        index[root] = low[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:  # type: ignore[union-attr]
                if index[w] == -1:
                    index[w] = low[w] = index_counter
                    index_counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                result.append(sorted(comp))
    return result


def longest_potential(edges: list[tuple[_Node, int, _Node]]) -> dict[_Node, int] | None:
    """Bellman–Ford for longest paths from a virtual source.

    ``edges`` are (u, w, v).  Every endpoint starts at 0 and the edges are
    relaxed in the given order.  Without a positive cycle a longest path
    has fewer than |V| edges, so by round |V| + 1 at the latest a round
    changes nothing, and the potential returned has π(v) ≥ π(u) + w on
    every edge.  Otherwise a positive cycle exists and the result is None.
    O(|V|·|E|).
    """
    potential = {x: 0 for u, _, v in edges for x in (u, v)}
    for _ in range(len(potential) + 1):
        relaxed = False
        for u, w, v in edges:
            if potential[u] + w > potential[v]:
                potential[v] = potential[u] + w
                relaxed = True
        if not relaxed:
            return potential
    return None

