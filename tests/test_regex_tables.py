"""The process-wide regex tables in ``regular``.

``parse_regex`` and ``compile_regex`` keep what they returned, keyed by
their arguments, in tables of at most ``regular._MAXCACHE`` entries, and
``regular_scattered`` keeps its verdict on the automaton it analysed.
Each test here starts from empty tables and puts the process's back.
"""

from __future__ import annotations

import itertools

import pytest

from ocrank import regular
from ocrank.regular import (
    Concat,
    Lit,
    RegexSyntaxError,
    Scattered,
    Star,
    Union,
    compile_regex,
    determinize,
    nfa_of_regex,
    parse_regex,
    regular_scattered,
    trim,
)
from ocrank.words import Alphabet

AB = Alphabet(("a", "b"))


@pytest.fixture(autouse=True)
def empty_tables(monkeypatch):
    monkeypatch.setattr(regular, "_parsed", {})
    monkeypatch.setattr(regular, "_compiled", {})


def fresh(r, alphabet):
    return trim(determinize(nfa_of_regex(r, alphabet)))


def test_an_equal_key_returns_the_identical_object():
    node = parse_regex("(a+b)*a", AB)
    assert parse_regex("(a+b)*a", Alphabet(("a", "b"))) is node
    a = compile_regex(node, AB)
    assert compile_regex(parse_regex("(a+b)*a", AB), Alphabet(("a", "b"))) is a
    assert a == fresh(node, AB)
    # Nodes of two classes with equal fields hash alike; they are two keys.
    union, concat = Union(Lit("a"), Lit("b")), Concat(Lit("a"), Lit("b"))
    assert union != concat
    assert compile_regex(union, AB) is not compile_regex(concat, AB)


def test_one_regex_over_two_alphabets_gives_two_automata():
    abc = Alphabet(("a", "b", "c"))
    over_ab, over_abc = compile_regex(Lit("a"), AB), compile_regex(Lit("a"), abc)
    assert over_ab is not over_abc
    assert over_ab.alphabet == AB and over_abc.alphabet == abc
    assert len(regular._compiled) == 2
    # The parse depends on the alphabet too: "c" is a letter of one only.
    with pytest.raises(RegexSyntaxError):
        parse_regex("ac", AB)
    assert parse_regex("ac", abc) == Concat(Lit("a"), Lit("c"))


def test_a_syntax_error_is_raised_on_every_call_and_never_stored():
    for _ in range(3):
        with pytest.raises(RegexSyntaxError, match="unclosed"):
            parse_regex("(ab", AB)
    assert regular._parsed == {}


def test_a_full_table_evicts_its_oldest_entries():
    limit, extra = regular._MAXCACHE, 3
    words = ["".join(w) for n in range(1, 11) for w in itertools.product("ab", repeat=n)]
    texts = words[: limit + extra]
    nodes = [parse_regex(text, AB) for text in texts]
    automata = [compile_regex(node, AB) for node in nodes]
    for table, keys in ((regular._parsed, texts), (regular._compiled, nodes)):
        assert len(table) == limit
        assert list(table) == [(key, AB.letters) for key in keys[extra:]]
    # An evicted entry is built again, equal to the one it replaced.
    again = compile_regex(nodes[0], AB)
    assert again is not automata[0] and again == automata[0]
    assert (nodes[0], AB.letters) in regular._compiled
    assert (nodes[extra], AB.letters) not in regular._compiled


def test_a_failed_compile_leaves_no_entry(monkeypatch):
    r = Star(Concat(Lit("a"), Lit("b")))

    def broken(a, complete=False):
        raise RuntimeError("subset construction interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(regular, "determinize", broken)
        with pytest.raises(RuntimeError, match="interrupted"):
            compile_regex(r, AB)
    assert regular._compiled == {}
    assert compile_regex(r, AB) == fresh(r, AB)


def test_the_order_verdict_is_kept_on_the_automaton(monkeypatch):
    a = compile_regex(parse_regex("(ab)*a", AB), AB)
    verdict = regular_scattered(a)
    assert verdict == Scattered(1)

    def unused(*args, **kwargs):
        raise AssertionError("the verdict was computed again")

    monkeypatch.setattr(regular, "determinize", unused)
    assert regular_scattered(a) is verdict
    assert regular_scattered(compile_regex(parse_regex("(ab)*a", AB), AB)) is verdict
