"""Core word combinatorics over ordered alphabets.

Words are plain Python strings whose characters are letters of an
:class:`Alphabet`.  The alphabet's *declared* order — not character-code
order — drives every comparison in the package, so ``Alphabet(("b", "a"))``
really does make ``"b"`` smaller than ``"a"``.  The module also holds the
helpers for sets of states kept as int bitmasks, which the automata and
the counter levels share, and :class:`Record`, the base of the package's
records that are not named tuples.
"""

from __future__ import annotations

import re
from collections.abc import Iterable


class Record:
    """Base of the package's records that are not named tuples.

    These are the records that mutate, cache or need equality by class, and
    those whose fields each call reads many times (machines, leveled
    transitions, components): on Python 3.11 a named tuple's field read
    costs about three times a slot's.

    ``_fields`` names a record's fields, as on a named tuple: two records
    are equal when they are of one class with equal fields, and the repr
    shows the fields by name, but for those whose names begin with ``_``.
    Records are unhashable unless a class defines ``__hash__``, as the hash
    of its fields' tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = [f"{f}={getattr(self, f)!r}" for f in self._fields if f[0] != "_"]
        return f"{type(self).__name__}({', '.join(shown)})"


class Alphabet(Record):
    """A finite, totally ordered set of single-character letters."""

    __slots__ = ("letters", "_rank")
    _fields = ("letters",)

    def __init__(self, letters: tuple[str, ...]) -> None:
        if not letters:
            raise ValueError("alphabet must not be empty")
        for ch in letters:
            if len(ch) != 1:
                raise ValueError(f"alphabet letters must be single characters, got {ch!r}")
        if len(set(letters)) != len(letters):
            raise ValueError(f"duplicate letters in alphabet {letters!r}")
        self.letters = letters
        self._rank = {ch: i for i, ch in enumerate(letters)}

    def __hash__(self) -> int:
        return hash((self.letters,))

    def rank(self, ch: str) -> int:
        try:
            return self._rank[ch]
        except KeyError:
            raise ValueError(f"symbol {ch!r} is not in alphabet {''.join(self.letters)!r}") from None

    def __contains__(self, ch: str) -> bool:
        return ch in self._rank

    def check_word(self, w: str) -> str:
        for ch in w:
            if ch not in self._rank:
                raise ValueError(f"symbol {ch!r} is not in alphabet {''.join(self.letters)!r}")
        return w


#: The input alphabet of every counter machine in this package: 0 opens, 1 closes.
BINARY = Alphabet(("0", "1"))


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
