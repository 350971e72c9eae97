"""Ultimately-periodic counter sets and their certified computation.

The package makes a set only by folding a counter row
(``counterset._row_upset``); the tests build sets with
``oracles.build_by_sets``.  The arithmetic oracle is pointwise: realize
both operands as plain integer sets on a long window and apply Python's
set operators.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import pytest

from ocrank import counterset, harness
from ocrank.counterset import (
    CertificationError,
    UPSet,
    default_counter_cap,
    dyck_closure,
    reach_sets,
    render_upset,
)
from ocrank.cli import parse_fixture
from ocrank.regular import compile_regex, parse_regex, words_up_to
from ocrank.transducer import make_transducer, minimal_normalize
from ocrank.words import BINARY, Alphabet
from conftest import M138, OUTPUT_POOL, mask_bits, random_machine
from oracles import (
    build_by_sets,
    certified_slices,
    intersect_by_membership,
    member,
    moves,
    reach_sets_by_slices,
    reach_sets_by_upsets,
    select_period,
    up_union,
    upset_row,
    worked_close_image,
)


# --- oracle helpers ------------------------------------------------------------


def realize(s: UPSet, bound: int) -> set[int]:
    """The set's members on [0, bound], straight from the definition."""
    return {c for c in range(bound + 1) if member(s, c)}


def random_upset(rng: random.Random) -> UPSet:
    threshold = rng.randint(0, 12)
    finite = frozenset(
        c for c in range(threshold) if rng.random() < 0.4
    )
    period = rng.randint(1, 6)
    residues = frozenset(r for r in range(period) if rng.random() < 0.35)
    return build_by_sets(threshold, finite, period, residues)


def random_loop(rng: random.Random) -> tuple[int, int, int]:
    """A random counter row with its loop start and period."""
    start, period = rng.randint(0, 12), rng.randint(1, 6)
    return rng.getrandbits(start + period) & rng.getrandbits(start + period), start, period


def row_meet(s1: UPSet, s2: UPSet) -> UPSet:
    """The meet as ``reach_sets`` takes it: each set's row extended to the
    later threshold plus the lcm of the periods, ANDed and folded."""
    start, turn = max(s1.threshold, s2.threshold), math.lcm(s1.period, s2.period)
    row1, row2 = (
        counterset._extend(
            upset_row(s, s.threshold + s.period), s.threshold, s.period, start + turn
        )
        for s in (s1, s2)
    )
    return counterset._row_upset(row1 & row2, start, turn)


# --- normalization ----------------------------------------------------------------


def test_build_preserves_membership():
    # A folded counter row holds its own bits below start + period, and
    # repeats the last period of them from there on.
    rng = random.Random(5)
    for _ in range(300):
        row, start, period = random_loop(rng)
        s = counterset._row_upset(row, start, period)
        for c in range(start + 4 * period + 4):
            bit = c if c < start else start + (c - start) % period
            assert member(s, c) == bool(row >> bit & 1), (row, start, period, c)


def test_build_is_idempotent_and_minimal():
    rng = random.Random(6)
    for _ in range(200):
        row, start, period = random_loop(rng)
        s = counterset._row_upset(row, start, period)
        # the same set, read with a later start and a multiple of its
        # period, folds back to it
        later, turn = s.threshold + rng.randint(0, 3), s.period * rng.randint(1, 3)
        assert counterset._row_upset(upset_row(s, later + turn), later, turn) == s
        # the threshold is least: the tail pattern misses the counter below it
        if s.threshold:
            c = s.threshold - 1
            assert (c in s.finite) != (c % s.period in s.residues), s
        # no proper divisor of the period describes the same tail
        for d in range(1, s.period):
            if s.period % d:
                continue
            folded = frozenset(r % d for r in s.residues)
            t = UPSet(s.threshold, s.finite, d, folded)
            window = range(s.threshold, s.threshold + 3 * s.period * d + 1)
            if all(member(t, c) == member(s, c) for c in window):
                pytest.fail(f"period {s.period} not minimal: {d} works for {s}")


def test_first_tail_values_and_finiteness():
    s = build_by_sets(4, {1}, 3, {0, 2})
    assert s.first_tail_values() == [5, 6]
    assert build_by_sets(10, {2, 9}, 1, ()).first_tail_values() == []  # a finite set


# --- arithmetic ----------------------------------------------------------------------


def test_up_arithmetic_against_pointwise_oracle():
    rng = random.Random(20250819)
    for _ in range(400):
        s1, s2 = random_upset(rng), random_upset(rng)
        bound = 10 * math.lcm(s1.period, s2.period) + max(s1.threshold, s2.threshold)
        r1, r2 = realize(s1, bound), realize(s2, bound)
        meet = row_meet(s1, s2)
        join = up_union(s1, s2)
        assert realize(meet, bound) == (r1 & r2), (s1, s2)
        assert realize(join, bound) == (r1 | r2), (s1, s2)
        assert intersect_by_membership(s1, s2) == meet, (s1, s2)


def test_arithmetic_identities():
    rng = random.Random(8)
    naturals, empty = build_by_sets(0, (), 1, {0}), build_by_sets(0, (), 1, ())
    for _ in range(80):
        s = random_upset(rng)
        assert row_meet(s, naturals) == s
        assert up_union(s, empty) == s
        assert row_meet(s, empty).is_empty()


# --- rendering -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "s,text",
    [
        (build_by_sets(0, (), 1, ()), "∅"),
        (build_by_sets(0, (), 1, {0}), "{t}"),
        (build_by_sets(1, (), 1, {0}), "{1+t}"),
        (build_by_sets(0, (), 2, {0}), "{2t}"),
        (build_by_sets(1, (), 2, {1}), "{1+2t}"),
        (build_by_sets(5, (), 6, {5}), "{5+6t}"),
        (build_by_sets(0, (), 3, {0}), "{3t}"),
        (build_by_sets(1, (), 3, {1}), "{1+3t}"),
        (build_by_sets(2, (), 3, {2}), "{2+3t}"),
        (build_by_sets(1, {0}, 1, ()), "{0}"),
        (build_by_sets(2, {1}, 1, ()), "{1}"),
        (build_by_sets(3, {2}, 1, ()), "{2}"),
        (build_by_sets(3, {1, 2}, 2, {1}), "{2} ∪ {1+2t}"),
        (build_by_sets(3, {2}, 2, {1}), "{2} ∪ {3+2t}"),
        (build_by_sets(3, {2}, 6, {5}), "{2} ∪ {5+6t}"),
        (build_by_sets(4, {1, 3}, 1, ()), "{1,3}"),
    ],
)
def test_render_canonical(s, text):
    assert render_upset(s) == text


def test_render_extends_tails_down_through_the_finite_part():
    # 5 and 7 belong to the {1+2t} class and must fold into it, leaving 2 out
    s = build_by_sets(9, {2, 5, 7}, 2, {1})
    assert render_upset(s) == "{2} ∪ {5+2t}"


# --- close-image computation ------------------------------------------------------------


def oracle_close_image(regex_text: str, word_cap: int, value_cap: int) -> set[int]:
    """Values #1(w) − #0(w) over members whose every suffix closes ≥ 0."""
    a = compile_regex(parse_regex(regex_text, BINARY), BINARY)
    values = set()
    for w in words_up_to(a, word_cap):
        drop = 0
        ok = True
        for ch in reversed(w):
            drop += 1 if ch == "1" else -1
            if drop < 0:
                ok = False
                break
        if ok and 0 <= drop <= value_cap:
            values.add(drop)
    return values


@pytest.mark.parametrize(
    "regex_text,expected",
    [
        ("11", "{2}"),
        ("01", "{0}"),
        ("1", "{1}"),
        ("0", "∅"),
        ("(000+01)*0(1(11)*+11)", "{t}"),
    ],
)
def test_worked_close_image_examples(regex_text, expected):
    assert render_upset(worked_close_image(regex_text)) == expected


def test_worked_close_image_against_word_oracle():
    for regex_text in ("11", "01", "(01)*1", "0*1*", "(000+01)*0(1(11)*+11)"):
        s = worked_close_image(regex_text)
        brute = oracle_close_image(regex_text, word_cap=14, value_cap=6)
        for c in range(7):
            if c in brute:
                assert member(s, c), (regex_text, c)
        # completeness of the brute side only holds for small values
        for c in range(4):
            assert member(s, c) == (c in brute), (regex_text, c)


# --- certified reachability -----------------------------------------------------------


def test_default_counter_cap_formula():
    assert default_counter_cap(2) == 20
    assert default_counter_cap(9) == 202


def test_cap_floor_is_enforced():
    machine = random_machine(random.Random(0))
    with pytest.raises(CertificationError) as err:
        reach_sets(machine, counter_cap=3)
    assert "counter-cap" in str(err.value) or "counter cap" in str(err.value)


def test_select_period_examples():
    two = build_by_sets(0, (), 2, {0})
    three = build_by_sets(1, (), 3, {1})
    assert select_period([two, three]) == 6
    assert select_period([build_by_sets(1, {0}, 1, ())]) == 2
    # the period must clear every finite member and the first tail values
    assert select_period([build_by_sets(6, {5}, 1, ())]) == 6
    assert select_period([build_by_sets(0, (), 1, {0})]) == 2


def test_reach_sets_carries_certificates(fig2):
    report = reach_sets(fig2)
    assert report.period == 6
    assert set(report.certificates) == set(fig2.states)
    for q, sides in report.certificates.items():
        for side in ("minus", "plus"):
            cert = sides[side]
            s = getattr(report, side)[q]
            assert cert.state == fig2.states.index(q)
            if s.is_empty():
                assert cert.mode == "empty"
            elif not s.residues:
                assert cert.mode == "finite"
            else:
                assert cert.mode == "periodic"
                assert cert.period % s.period == 0
            assert s.threshold <= cert.start


def test_reach_sets_duck_types_counter_cap(fig1):
    report = reach_sets(fig1, counter_cap=40)
    assert report.counter_cap == 40
    default = reach_sets(fig1)
    assert default.counter_cap == default_counter_cap(2)
    for q in fig1.states:
        for c in range(20):
            assert member(report.meet[q], c) == member(default.meet[q], c)


# --- machines and their counter systems ---------------------------------------------


def complete_machine(n: int):
    states = [f"s{i}" for i in range(n)]
    trans = [(p, b, q, "a") for p in states for q in states for b in (0, 1)]
    return make_transducer(states, states[0], [states[0]], trans, Alphabet(("a",)))


def dense_machine(rng: random.Random):
    n = rng.randint(4, 8)
    states = [f"s{i}" for i in range(n)]
    arcs = [(p, b, q) for p in states for q in states for b in (0, 1)]
    trans = [(*arc, "a") for arc in rng.sample(arcs, rng.randint(n, n * n))]
    finals = rng.sample(states, rng.randint(1, 2))
    return make_transducer(states, states[0], finals, trans, Alphabet(("a",)))


def counter_systems(machine):
    """The forward and backward ±1 systems that ``reach_sets`` certifies."""
    index = {q: i for i, q in enumerate(machine.states)}
    forward = [
        (index[t.source], 1 if t.bit == 0 else -1, index[t.target])
        for t in machine.transitions
    ]
    backward = [(q, -w, p) for p, w, q in forward]
    yield forward, [index[machine.initial]]
    yield backward, [index[f] for f in sorted(machine.finals)]


def test_counts_only_cycles_a_pumped_run_can_enter():
    # m138 from the benchmark's check-enum soup: the s0 self-loop closes,
    # so no run can take it, yet it made the period candidate 1 and the
    # window check refused s1's even numbers at every cap.
    machine = parse_fixture(M138).value
    for cap in (default_counter_cap(4), 100, 1000):
        report = reach_sets(machine, counter_cap=cap)
        assert render_upset(report.minus["s1"]) == "{2t}"
        assert render_upset(report.minus["s3"]) == "{1+2t}"
        assert report.period == 2


# --- level-by-level counters against a configuration search ------------------------


def search_counters(n: int, edges, starts, cap: int) -> list[set[int]]:
    """Per-state counters on [0, cap] by breadth-first search over the
    (state, counter) configurations reached from the starts at counter 0.

    Explores up to cap + n²: any value up to the cap that is reachable at
    all is reachable by a run whose peak stays below that horizon.
    """
    horizon = cap + n * n
    adj: dict[int, list[tuple[int, int]]] = {}
    for p, w, q in edges:
        adj.setdefault(p, []).append((w, q))
    seen = {(q, 0) for q in starts}
    queue = deque(sorted(seen))
    reached: list[set[int]] = [set() for _ in range(n)]
    while queue:
        q, c = queue.popleft()
        if c <= cap:
            reached[q].add(c)
        for w, t in adj.get(q, ()):
            c2 = c + w
            if 0 <= c2 <= horizon and (t, c2) not in seen:
                seen.add((t, c2))
                queue.append((t, c2))
    return reached


def bits_of(mask: int) -> set[int]:
    return {c for c in range(mask.bit_length()) if mask >> c & 1}


def random_system(rng: random.Random):
    """A random ±1 system of 1–9 states, with up to three start states and
    a self-loop on up to two states."""
    n = rng.randint(1, 9)
    edges = [
        (rng.randrange(n), rng.choice((1, -1)), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    ]
    edges += [(q, rng.choice((1, -1)), q) for q in rng.sample(range(n), min(n, rng.randint(0, 2)))]
    return n, edges, rng.sample(range(n), rng.randint(1, min(3, n)))


CLOSE_IMAGE_REGEXES = (
    "11", "01", "1", "0", "(01)*1", "0*1*", "(000+01)*0(1(11)*+11)",
    "(1(11)*0)*1", "(110+1)*(0+11)*", "((11)*0(111)*)*1", "(0(1+00)*1)*11",
)


def close_image_system(regex_text: str):
    """The reversed DFA of ``worked_close_image``: 1 opens, 0 closes."""
    d = compile_regex(parse_regex(regex_text, BINARY), BINARY)
    edges = [
        (t, 1 if ch == "1" else -1, p)
        for p in range(d.n)
        for ch, targets in d.edges[p].items()
        for t in mask_bits(targets)
    ]
    return d.n, edges, mask_bits(d.finals)


def kernel_systems(fig1, fig2):
    rng = random.Random(20261019)
    machines = [fig1, fig2] + [complete_machine(n) for n in range(1, 9)]
    machines += [dense_machine(rng) for _ in range(100)]
    for machine in machines:
        for edges, starts in counter_systems(machine):
            yield len(machine.states), edges, starts
    for text in CLOSE_IMAGE_REGEXES:
        yield close_image_system(text)
    for _ in range(2000):
        yield random_system(rng)


def test_level_counters_match_configuration_search(fig1, fig2):
    # The sets are read off one turn of the level cycle, so on [0, cap]
    # they must list exactly the counters a configuration search reaches,
    # at the default cap and at any other cap that does not refuse.
    rng = random.Random(7)
    systems = 0
    for n, edges, starts in kernel_systems(fig1, fig2):
        systems += 1
        default = default_counter_cap(n)
        opens, closes = moves(n, edges)
        closure = dyck_closure(opens, closes)
        for cap in (default, rng.randint(2 * n + 6, 4 * n + 12)):
            try:
                slices, _ = certified_slices(opens, closure, starts, cap)
            except CertificationError:
                assert cap != default, (n, edges, starts)
                continue
            got = [realize(s, cap) for s in slices]
            assert got == search_counters(n, edges, starts, cap), (n, edges, starts, cap)
    assert systems >= 2200, systems


def bench_style_machines(rng: random.Random, count: int):
    """Random machines drawn as the benchmark's soup draws them.

    State and transition counts cycle through 1..6 and 2..12, a short
    open/close path into a final state is planted, and repeated
    transitions are dropped.
    """
    for i in range(count):
        n, size = 1 + i % 6, 2 + (i // 6) % 11
        states = [f"s{j}" for j in range(n)]
        finals = sorted(rng.sample(states, rng.randint(1, n)))
        mid = rng.choice(states)
        trans = [
            (states[0], 0, mid, rng.choice(OUTPUT_POOL)),
            (mid, 1, rng.choice(finals), rng.choice(OUTPUT_POOL)),
        ]
        while len(trans) < size:
            trans.append(
                (rng.choice(states), rng.choice((0, 1)), rng.choice(states), rng.choice(OUTPUT_POOL))
            )
        yield make_transducer(
            states, states[0], finals, list(dict.fromkeys(trans)), Alphabet(("a", "b"))
        )


def test_no_refusals_at_the_default_cap_on_bench_style_machines():
    # Seed 5 holds a machine that was refused at the default cap while
    # cycles that no pumped run can enter still counted toward the period.
    machines = [m for seed in range(8) for m in bench_style_machines(random.Random(seed), 300)]
    for machine in machines:
        report = reach_sets(machine)
        oracle = harness.upset_oracle(machine, 60)
        for q in machine.states:
            for name in ("minus", "plus", "meet"):
                got = realize(getattr(report, name)[q], 60)
                assert got == getattr(oracle, name)[q], (machine.transitions, q, name)
    assert len(machines) == 2400


# --- counter sets read off bit rows ------------------------------------------------


def test_backward_closure_is_the_transpose_of_the_forward_one():
    rng = random.Random(15)
    for _ in range(2500):
        n, edges, _ = random_system(rng)
        forward = dyck_closure(*moves(n, edges))
        backward = dyck_closure(*moves(n, [(q, -w, p) for p, w, q in edges]))
        transpose = [sum(1 << p for p in range(n) if forward[p] >> q & 1) for q in range(n)]
        assert backward == transpose, (n, edges)


def test_sets_from_bitmasks_are_the_canonical_sets():
    # The counter rows of every start and period against the normalization
    # on sets of counters, and against the rows' own bits.
    rng = random.Random(16)
    for _ in range(5000):
        start, period = rng.randint(0, 9), rng.randint(1, 12)
        row = rng.getrandbits(start + period) & rng.getrandbits(start + period)
        counters = [c for c in range(start + period) if row >> c & 1]
        finite = [c for c in counters if c < start]
        residues = [c % period for c in counters if c >= start]
        s = counterset._row_upset(row, start, period)
        assert s == build_by_sets(start, finite, period, residues), (row, start, period)
        assert upset_row(s, start + period) == row, (row, start, period)


REPORT_FIELDS = ("minus", "plus", "meet", "period", "types", "counter_cap", "certificates")


def test_reach_sets_matches_upset_arithmetic(fig1, fig2):
    from test_components import ladder  # it imports this module

    machines = [fig1, fig2] + [random_machine(random.Random(seed)) for seed in range(650)]
    machines += [ladder(k, j) for k in range(1, 6) for j in range(1, 6)]
    machines += [complete_machine(n) for n in range(1, 8)]
    for machine in machines:
        try:
            want = reach_sets_by_upsets(machine)
        except CertificationError:
            with pytest.raises(CertificationError):
                reach_sets(machine)
            continue
        got = reach_sets(machine)
        for name in REPORT_FIELDS:
            assert getattr(got, name) == getattr(want, name), (machine.transitions, name)


def test_reach_sets_matches_the_certified_slices_path(fig1, fig2):
    # The sets kept as integer rows until read against the path that built
    # every set, meet and certificate: the same report and the same refusal
    # text, raw and normalized, at the default cap, at the floor and below.
    from test_cli import disjoint_rings
    from test_components import ladder

    rng = random.Random(22)
    machines = [fig1, fig2]
    machines += [random_machine(rng, max_states=7, max_transitions=13) for _ in range(2000)]
    machines += [ladder(k, j) for k in range(1, 7) for j in range(1, 7)]
    machines += [complete_machine(n) for n in range(1, 9)]
    # Rings of opens whose levels cycle with the lcm of the ring lengths:
    # from (5, 7) on, the level walk refuses at the floor cap.
    rings = [(2, 3), (4, 5), (5, 7), (5, 8), (6, 7), (5, 9), (7, 8)]
    rings += [(2, 5, 7), (3, 4, 5), (3, 5, 7)]
    machines += [parse_fixture(disjoint_rings(lengths)).value for lengths in rings]
    compared = refused = 0
    for machine in machines:
        normal = minimal_normalize(machine)
        for m in (machine, normal) if normal is not machine else (machine,):
            n = len(m.states)
            for cap in (None, 2 * n + 6, 2 * n + 5):
                try:
                    want = reach_sets_by_slices(m, cap)
                except CertificationError as exc:
                    with pytest.raises(CertificationError) as err:
                        reach_sets(m, cap)
                    assert str(err.value) == str(exc), (m.transitions, cap)
                    refused += "no counter level repeats" in str(exc)
                    continue
                got = reach_sets(m, cap)
                for name in REPORT_FIELDS:
                    assert getattr(got, name) == getattr(want, name), (m.transitions, cap, name)
                compared += 1
    assert compared >= 7000 and refused >= 8, (compared, refused)


def test_report_sets_are_built_once_on_first_read(fig2):
    report = reach_sets(fig2)
    names = ("minus", "plus", "meet", "certificates")
    assert not set(names) & set(vars(report))
    minus = report.minus  # builds the three sets together, not the certificates
    assert "certificates" not in vars(report)
    assert report.minus is minus
    for name in names:
        assert getattr(report, name) is getattr(report, name), name


def test_report_reads_build_each_set_and_certificate_once(fig1, fig2, monkeypatch):
    # Whichever of the three sets is read first builds all three in one
    # pass, one UPSet per distinct set of each; later reads return the same
    # dicts and build nothing.  The certificates are built once, apart.
    from test_components import ladder

    sets, certificates = [], []

    def counted_upset(*form):
        sets.append(form)
        return upset(*form)

    def counted_certificate(*args):
        certificates.append(args)
        return certificate(*args)

    upset, certificate = counterset._upset, counterset.SliceCertificate
    monkeypatch.setattr(counterset, "_upset", counted_upset)
    monkeypatch.setattr(counterset, "SliceCertificate", counted_certificate)
    names = ("minus", "plus", "meet")
    for machine in (fig1, fig2, ladder(2, 3), complete_machine(3)):
        for order in itertools.permutations(names):
            report = reach_sets(machine)
            sets.clear()
            first = {name: getattr(report, name) for name in order}
            distinct = {name: set(first[name].values()) for name in names}
            assert len(sets) == sum(map(len, distinct.values()))
            for name in names:  # equal sets of one dict are one object
                assert len({id(s) for s in first[name].values()}) == len(distinct[name])
            sets.clear()
            for name in order[::-1] + order:
                assert getattr(report, name) is first[name], name
            assert not sets and not certificates
            made = report.certificates
            assert report.certificates is made
            assert len(certificates) == 2 * len(machine.states) and not sets
            certificates.clear()


def test_reach_sets_runs_one_dyck_closure(fig1, fig2, monkeypatch):
    from test_components import ladder

    calls = []

    def counted(opens, closes):
        calls.append(len(opens))
        return dyck_closure(opens, closes)

    monkeypatch.setattr(counterset, "dyck_closure", counted)
    machines = [fig1, fig2, ladder(3, 2), complete_machine(4)]
    machines += [random_machine(random.Random(seed)) for seed in range(50)]
    for machine in machines:
        calls.clear()
        reach_sets(machine)
        assert calls == [len(machine.states)]
