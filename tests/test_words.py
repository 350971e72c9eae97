"""Word-level primitives against independent oracles.

The oracles below recompute everything from first principles (cancelling
matched brackets, trying every candidate root) so they share no code with
the implementations they check.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, strategies as st

from conftest import mask_bits
from ocrank.words import BINARY, Alphabet, primitive_root, state_bits
from oracles import Relation, compare, in_d1, is_dyck_prefix, lex_key, lex_less, open_depth

ABC = Alphabet(("a", "b", "c"))


# --- oracles ---------------------------------------------------------------


def cancel_matched(w: str) -> str:
    """Erase matched '01' bracket pairs until none remain."""
    while "01" in w:
        w = w.replace("01", "")
    return w


def oracle_in_d1(w: str) -> bool:
    return cancel_matched(w) == ""


def oracle_is_prefix(w: str) -> bool:
    # leftover after cancellation must be all unmatched opens
    return set(cancel_matched(w)) <= {"0"}


def oracle_root(w: str) -> str:
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    raise AssertionError("unreachable")


def all_binary_words(max_len: int):
    for length in range(max_len + 1):
        for bits in range(1 << length):
            yield format(bits, f"0{length}b") if length else ""


# --- bracket classification -------------------------------------------------


def test_dyck_class_matches_cancellation_oracle_exhaustively():
    for w in all_binary_words(14):
        assert in_d1(w) == oracle_in_d1(w), w
        assert is_dyck_prefix(w) == oracle_is_prefix(w), w


def test_open_and_close_depth():
    assert open_depth("0010") == 2
    assert open_depth("") == 0
    with pytest.raises(ValueError):
        open_depth("0a1")


# --- lexicographic comparison ----------------------------------------------


def test_compare_examples():
    assert compare("", "", BINARY) == Relation.EQUAL
    assert compare("0", "01", BINARY) == Relation.PROPER_PREFIX_OF
    assert compare("01", "0", BINARY) == Relation.HAS_PROPER_PREFIX
    assert compare("01", "10", BINARY) == Relation.STRICT_LESS
    assert compare("10", "01", BINARY) == Relation.STRICT_GREATER


words_abc = st.text(alphabet="abc", max_size=8)


@given(words_abc, words_abc)
def test_compare_is_antisymmetric(u, v):
    flipped = {
        Relation.EQUAL: Relation.EQUAL,
        Relation.PROPER_PREFIX_OF: Relation.HAS_PROPER_PREFIX,
        Relation.HAS_PROPER_PREFIX: Relation.PROPER_PREFIX_OF,
        Relation.STRICT_LESS: Relation.STRICT_GREATER,
        Relation.STRICT_GREATER: Relation.STRICT_LESS,
    }
    assert compare(v, u, ABC) == flipped[compare(u, v, ABC)]


@given(words_abc, words_abc)
def test_lex_less_agrees_with_key_order(u, v):
    assert lex_less(u, v, ABC) == (lex_key(u, ABC) < lex_key(v, ABC))


@given(st.lists(words_abc, max_size=12))
def test_lex_key_sorting_is_stable_total_order(ws):
    ordered = sorted(ws, key=lambda w: lex_key(w, ABC))
    for a, b in zip(ordered, ordered[1:]):
        assert not lex_less(b, a, ABC)


def test_lex_key_respects_declaration_order_not_codepoints():
    weird = Alphabet(("z", "a"))
    assert lex_less("z", "a", weird)
    assert not lex_less("a", "z", weird)


def test_compare_rejects_foreign_letters():
    with pytest.raises(ValueError):
        compare("a", "d", ABC)


# --- primitive roots ---------------------------------------------------------


def test_primitive_root_exhaustive_small():
    for w in all_binary_words(12):
        if w:
            assert primitive_root(w) == oracle_root(w), w


@given(st.text(alphabet="ab", min_size=1, max_size=10), st.integers(1, 4))
def test_root_of_a_power_is_root_of_base(w, k):
    assert primitive_root(w * k) == primitive_root(w)


@given(st.text(alphabet="abc", min_size=1, max_size=18))
def test_root_tiles_and_is_primitive(w):
    r = primitive_root(w)
    assert len(w) % len(r) == 0
    assert r * (len(w) // len(r)) == w
    assert primitive_root(r) == r


def test_primitive_root_rejects_empty():
    with pytest.raises(ValueError):
        primitive_root("")


def test_is_primitive_examples():
    for w in ("a", "ab", "aab"):
        assert primitive_root(w) == w
    assert primitive_root("abab") == "ab"
    assert primitive_root("aaa") == "a"


# --- alphabets ----------------------------------------------------------------


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ab",))


def test_check_word():
    ABC.check_word("abcabc")
    with pytest.raises(ValueError):
        ABC.check_word("abd")


def test_state_bits_lists_the_members_bit_by_bit():
    rng = random.Random(20261019)
    rows = [0, 1, 2, 1 << 200, (1 << 300) - 1]
    for _ in range(400):
        bits = rng.choice((3, 20, 64, 500, 5000))
        density = rng.choice((0.02, 0.5, 0.98))
        rows.append(sum(1 << i for i in range(bits) if rng.random() < density))
    for row in rows:
        assert state_bits(row) == mask_bits(row)


def test_state_bits_reads_a_long_row_in_one_pass():
    # Peeling off one bit at a time copies the int at each member: about
    # 2 s on this row.
    rng = random.Random(7)
    row = rng.getrandbits(1 << 18) | 1 << (1 << 18)
    start = time.perf_counter()
    members = state_bits(row)
    elapsed = time.perf_counter() - start
    assert len(members) == row.bit_count() and members[-1] == 1 << 18
    assert elapsed < 0.5, elapsed
