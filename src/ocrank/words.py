"""Core word combinatorics over ordered alphabets.

Words are plain Python strings whose characters are letters of an
:class:`Alphabet`.  The alphabet's *declared* order — not character-code
order — drives every comparison in the package, so ``Alphabet(("b", "a"))``
really does make ``"b"`` smaller than ``"a"``.  The module also holds the
helpers for sets of states kept as int bitmasks, which the automata and
the counter levels share.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum


@dataclass(frozen=True)
class Alphabet:
    """A finite, totally ordered set of single-character letters."""

    letters: tuple[str, ...]
    _rank: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet must not be empty")
        for ch in self.letters:
            if len(ch) != 1:
                raise ValueError(f"alphabet letters must be single characters, got {ch!r}")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in alphabet {self.letters!r}")
        object.__setattr__(self, "_rank", {ch: i for i, ch in enumerate(self.letters)})

    def rank(self, ch: str) -> int:
        try:
            return self._rank[ch]
        except KeyError:
            raise ValueError(f"symbol {ch!r} is not in alphabet {''.join(self.letters)!r}") from None

    def __contains__(self, ch: str) -> bool:
        return ch in self._rank

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def check_word(self, w: str) -> str:
        for ch in w:
            if ch not in self._rank:
                raise ValueError(f"symbol {ch!r} is not in alphabet {''.join(self.letters)!r}")
        return w


#: The input alphabet of every counter machine in this package: 0 opens, 1 closes.
BINARY = Alphabet(("0", "1"))


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


def primitive_root(w: str) -> str:
    """Shortest word v with w ∈ v*, via the classic border (failure) table.

    Runs in O(|w|).  Raises on the empty word, which has every root.
    """
    if not w:
        raise ValueError("the empty word has no primitive root")
    n = len(w)
    border = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and w[i] != w[k]:
            k = border[k]
        if w[i] == w[k]:
            k += 1
        border[i + 1] = k
    p = n - border[n]
    if n % p == 0:
        return w[:p]
    return w


def distinct_root_pair(words) -> tuple[str, str] | None:
    """The first nonempty word and the first later one with another root."""
    first_word: str | None = None
    first_root: str | None = None
    for w in words:
        if not w:
            continue
        r = primitive_root(w)
        if first_root is None:
            first_word, first_root = w, r
        elif r != first_root:
            assert first_word is not None
            return first_word, w
    return None


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


# ---------------------------------------------------------------------------
# Sets of states as int bitmasks: bit q is set when state q is in the set


def state_mask(states: Iterable[int]) -> int:
    """The bitmask of a set of states."""
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


_ONE = re.compile("1")


def state_bits(mask: int) -> list[int]:
    """The states of a bitmask, lowest first.

    Peeling off the lowest bit copies the int at each member, which is
    quadratic on the counter rows of long level cycles, so a mask of more
    than 32 members, about where the two cost the same, is read in one
    pass over its binary digits instead.
    """
    if mask.bit_count() > 32:
        return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def mask_image(mask: int, table) -> int:
    """Union of ``table[q]`` over the states q of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out
