"""Ultimately periodic sets of naturals and certified counter reachability.

The counter systems analyzed here move a nonnegative counter by ±1 along
the edges of a finite graph (0-labelled input opens, 1-labelled closes).
Their per-state reachability sets are ultimately periodic; this module
computes them exactly, level by level, rather than by unverified
exploration.  A run to counter c splits, at its last visit to each lower
level, into c single opens joined by Dyck paths (weight 0, never below
their start), so level c, the set of states reached with counter c, is
the Dyck closure of the open-image of level c − 1.  Level c depends on
level c − 1 alone, so the first level that repeats an earlier one proves
every later level: the levels cycle from there on, and each state's set
is read off one turn of the cycle.  That repeat is the certificate.

A machine's forward system (counters of input prefixes) and backward
system (counters still closable) share one Dyck closure: the backward
one's is the transpose of the forward one's (see :func:`reach_sets`).
Each level cycle is read by state as one integer row, bit c set when the
state is in level c.  The meets, the machine period and the types come off
such rows with integer operations; the :class:`UPSet` of a set and the
certificates are a report, built from the rows only when read.

If no level repeats within the counter cap the analysis aborts with a
:class:`CertificationError` suggesting a larger ``--counter-cap`` instead
of guessing.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .words import Record, mask_image, state_bits, state_mask


class CertificationError(RuntimeError):
    """Raised when counter analysis cannot certify its result."""


# ---------------------------------------------------------------------------
# Ultimately periodic sets


class UPSet(NamedTuple):
    """An ultimately periodic subset of the naturals.

    The set is ``finite ∪ {n ≥ threshold : n mod period ∈ residues}`` with
    ``finite ⊆ [0, threshold)`` and ``residues ⊆ [0, period)``.  Every
    ``UPSet`` comes from :func:`reach_sets`, folded from a counter row to
    the canonical representative (:func:`_canonical`): minimal period, then
    the least threshold at which the set agrees with its periodic pattern.
    Equal sets compare equal.
    """

    threshold: int
    finite: frozenset[int]
    period: int
    residues: frozenset[int]

    def is_empty(self) -> bool:
        return not self.finite and not self.residues

    def first_tail_values(self) -> list[int]:
        """Least tail member of each residue class, threshold-aligned."""
        return sorted(
            self.threshold + ((r - self.threshold) % self.period) for r in self.residues
        )


def _repeat(pattern: int, period: int, length: int) -> int:
    """The ``period``-bit ``pattern`` repeated over bits 0 … length − 1."""
    turns = -(-length // period)
    repunit = ((1 << period * turns) - 1) // ((1 << period) - 1)
    return pattern * repunit & ((1 << length) - 1)


def _canonical(
    finite: int, threshold: int, period: int, residues: int
) -> tuple[int, int, int, int]:
    """The canonical form of ``finite`` ∪ {n ≥ threshold : bit n mod
    period of ``residues`` is set}, both given as bitmasks: fold the
    residues to their least divisor period, then lower the threshold past
    every counter below it whose membership the residues already give.
    Returns ``(finite, threshold, period, residues)``, the masks trimmed."""
    full = (1 << period) - 1
    for d in range(1, period):  # the least rotation that maps the residues onto themselves
        if period % d == 0 and (residues << d | residues >> (period - d)) & full == residues:
            period, residues = d, residues & ((1 << d) - 1)
            break
    threshold = (finite ^ _repeat(residues, period, threshold)).bit_length()
    return finite & ((1 << threshold) - 1), threshold, period, residues


def _upset(finite: int, threshold: int, period: int, residues: int) -> UPSet:
    """The :class:`UPSet` of a canonical form from :func:`_canonical`."""
    return UPSet(threshold, frozenset(state_bits(finite)), period, frozenset(state_bits(residues)))


def _fold_row(row: int, start: int, period: int) -> tuple[int, int, int, int]:
    """The canonical form of a counter row: bit c of ``row`` is set when c
    is in the set, for c < start + period, and the set repeats bits
    start … start + period − 1 from there on."""
    full = (1 << period) - 1
    turn = row >> start & full
    shift = start % period  # bit i of the turn is counter start + i
    residues = (turn << shift | turn >> (period - shift)) & full
    return _canonical(row & ((1 << start) - 1), start, period, residues)


def _row_upset(row: int, start: int, period: int) -> UPSet:
    """The canonical :class:`UPSet` of a counter row (see :func:`_fold_row`)."""
    return _upset(*_fold_row(row, start, period))


def render_upset(s: UPSet) -> str:
    """Canonical human-readable form, e.g. ``"{2} ∪ {5+6t}"`` or ``"{3t}"``.

    Each residue class is printed from the least member m such that the
    class is exactly m, m+p, m+2p, … from there on; finite members absorbed
    that way disappear from the leading exception list.
    """
    if s.is_empty():
        return "∅"
    consumed: set[int] = set()
    tails: list[int] = []
    for start in s.first_tail_values():
        m = start
        while m - s.period >= 0 and (m - s.period) in s.finite:
            m -= s.period
            consumed.add(m)
        tails.append(m)
    parts: list[str] = []
    leftovers = sorted(set(s.finite) - consumed)
    if leftovers:
        parts.append("{" + ",".join(str(c) for c in leftovers) + "}")
    step = "t" if s.period == 1 else f"{s.period}t"
    for m in sorted(tails):
        parts.append("{" + (step if m == 0 else f"{m}+{step}") + "}")
    return " ∪ ".join(parts)


# ---------------------------------------------------------------------------
# Certified slice analysis of ±1 counter systems


def default_counter_cap(n_states: int) -> int:
    return 2 * n_states * n_states + 4 * n_states + 4


class SliceCertificate(NamedTuple):
    """Evidence backing one state's claimed reachability set.

    The levels of the system (:func:`level_cycle`) repeat from ``start``
    on with period ``period``; the set was read off the levels before
    ``start + period``.
    """

    state: int
    mode: str  # "empty" | "finite" | "periodic"
    start: int
    period: int


def dyck_closure(opens: list[int], closes: list[int]) -> list[int]:
    """The Dyck relation Z of a ±1 system, one state bitmask per state.

    ``opens[p]`` and ``closes[p]`` are the targets of p's +1 and −1 edges.
    p Z q when some path from p to q weighs 0 and never goes below its
    start.  Such a path is empty or a sequence of blocks open · Z · close,
    so Z is the least reflexive, transitive relation closed under that
    rule; saturating from the identity reaches it.
    """
    z = [1 << p for p in range(len(opens))]
    changed = True
    while changed:
        changed = False
        for p, row in enumerate(z):
            grown = mask_image(row | mask_image(mask_image(opens[p], z), closes), z)
            if grown != row:
                z[p] = grown
                changed = True
    return z


def _transpose(rows: list[int], width: int) -> list[int]:
    """Rows of bitmasks read by column: bit i of ``out[j]`` is bit j of
    ``rows[i]``, for the ``width`` columns."""
    out = [0] * width
    for p, row in enumerate(rows):
        bit = 1 << p
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def level_cycle(
    opens: list[int], closure: list[int], starts: list[int], cap: int
) -> tuple[list[int], int]:
    """The levels of a ±1 system up to their first repeat, and where the
    repeated loop begins.

    ``opens[p]`` is the bitmask of the targets of p's +1 edges, and
    ``closure`` is the system's Dyck relation Z (:func:`dyck_closure`).
    Runs start at the ``starts`` with counter 0.  Level c, the bitmask of
    the states reached with counter c, is Z(open-image(level c − 1)), and
    level 0 is Z(starts): a run to (q, c) splits at its last visit to each
    of the levels 0 … c − 1 into Dyck paths joined by c single opens, and
    every such chain is a run.  Level c depends on level c − 1 alone, so
    when level ``len(levels)`` equals level ``start``, level c equals level
    ``start + (c − start) mod period`` for every c ≥ start, with
    ``period = len(levels) − start``.  Raises :class:`CertificationError`
    when levels 0 … cap + 1 are all distinct.
    """
    level = mask_image(state_mask(starts), closure)
    first: dict[int, int] = {}
    levels: list[int] = []
    while level not in first:
        if len(levels) > cap:
            raise CertificationError(
                f"no counter level repeats up to {cap}; rerun with a larger "
                f"--counter-cap (currently {cap})"
            )
        first[level] = len(levels)
        levels.append(level)
        level = mask_image(mask_image(level, opens), closure)
    return levels, first[level]


def _cycle_rows(
    opens: list[int], closure: list[int], starts: list[int], cap: int
) -> tuple[list[int], int, int]:
    """The level cycle of a ±1 system read by state: one row per state,
    bit c set when the state is in level c, for c below the loop's start
    plus one turn; then the start and the period of the loop
    (:func:`level_cycle` takes the same arguments)."""
    levels, start = level_cycle(opens, closure, starts, cap)
    return _transpose(levels, len(opens)), start, len(levels) - start


def _extend(row: int, start: int, period: int, length: int) -> int:
    """A counter row of a loop from ``start`` with ``period`` as the
    members below ``length``: bits start … start + period − 1 repeated."""
    return row & ((1 << start) - 1) | _repeat(row >> start, period, length - start) << start


# ---------------------------------------------------------------------------
# Per-state reachability report for counter transducers


class NSetReport(Record):
    """Forward, backward and combined counter sets of a machine's states.

    ``minus`` holds the counter values of input prefixes reaching each
    state, ``plus`` the values closable to 0 by some accepted suffix, and
    ``meet`` their intersection.  ``period`` is the machine-wide window
    period; ``types`` restricts each meet to [0, 2·period), which is all
    the leveled construction downstream needs.

    :func:`reach_sets` builds the report from integer rows; the sets and
    the certificates are only a report, so they are built from those rows
    on first read and kept.  The first read of ``minus``, ``plus`` or
    ``meet`` builds all three in one pass (``_sets``); ``certificates``,
    which no command prints, are built apart on their own.  ``_minus`` and
    ``_plus`` are each direction's (rows by state, loop start, loop
    period), and ``_meets`` is each state's meet in canonical form,
    ``(finite, threshold, period, residues)`` with the two sets as
    bitmasks.  The report has no ``__slots__``: ``cached_property`` keeps
    what it builds in the instance dictionary.
    """

    _fields = ("period", "types", "counter_cap", "_states", "_minus", "_plus", "_meets")

    def __init__(self, period: int, types: dict[str, frozenset[int]], counter_cap: int,
                 _states: list[str], _minus: tuple[list[int], int, int],
                 _plus: tuple[list[int], int, int],
                 _meets: list[tuple[int, int, int, int]]) -> None:
        self.period, self.types, self.counter_cap = period, types, counter_cap
        self._states, self._minus, self._plus, self._meets = _states, _minus, _plus, _meets

    minus = property(lambda self: self._sets[0])  # dict[str, UPSet]
    plus = property(lambda self: self._sets[1])  # dict[str, UPSet]
    meet = property(lambda self: self._sets[2])  # dict[str, UPSet]

    @functools.cached_property
    def _sets(self) -> tuple[dict[str, UPSet], dict[str, UPSet], dict[str, UPSet]]:
        (minus_rows, start1, period1), (plus_rows, start2, period2) = self._minus, self._plus
        built: dict = {}  # states share their sets: by row, and by canonical form
        minus, plus, meet = {}, {}, {}
        for q, a, b, form in zip(self._states, minus_rows, plus_rows, self._meets):
            if (1, a) not in built:
                built[1, a] = _row_upset(a, start1, period1)
            if (2, b) not in built:
                built[2, b] = _row_upset(b, start2, period2)
            if form not in built:
                built[form] = _upset(*form)
            minus[q], plus[q], meet[q] = built[1, a], built[2, b], built[form]
        return minus, plus, meet

    @functools.cached_property
    def certificates(self) -> dict[str, dict[str, SliceCertificate]]:
        return {
            q: {"minus": m, "plus": p}
            for q, m, p in zip(
                self._states, _certificates(*self._minus), _certificates(*self._plus)
            )
        }


def _certificates(rows: list[int], start: int, period: int) -> list[SliceCertificate]:
    return [
        SliceCertificate(q, "periodic" if row >> start else "finite" if row else "empty",
                         start, period)
        for q, row in enumerate(rows)
    ]


def reach_sets(machine, counter_cap: int | None = None) -> NSetReport:
    """Certified forward/backward counter analysis of a transducer.

    Works on the machine as given.  ``counter_cap`` overrides the default
    number of counter levels computed before the analysis refuses (see
    :func:`default_counter_cap`).

    One Dyck closure serves both directions: the backward system's is the
    transpose of the forward one's.  A backward path p → q of weight 0
    that never dips below its start is a forward path q → p read in
    reverse, each of whose suffixes weighs at most 0; its total is 0, so
    each of its prefixes weighs at least 0, which makes it a forward Dyck
    path, and the converse holds the same way.

    Each state's meet row is the AND of its two rows, both extended to
    the later loop start plus the lcm of the loop periods, from where the
    meets repeat with that lcm.  Each distinct meet row is folded once to
    its canonical form.  The period P is the least multiple of every tail
    period that clears all finite members and tail starts and is at least
    2; the types are each meet's members below 2P.
    """
    states = list(machine.states)
    index = {q: i for i, q in enumerate(states)}
    n = len(states)
    cap = counter_cap if counter_cap is not None else default_counter_cap(n)
    if cap < 2 * n + 6:
        raise CertificationError(
            f"counter cap {cap} is too small for {n} states; "
            f"pass --counter-cap {default_counter_cap(n)} or higher"
        )

    # The backward system's +1 edges are the forward −1 edges reversed.
    opens, closes, reopens = [0] * n, [0] * n, [0] * n
    for t in machine.transitions:
        p, q = index[t.source], index[t.target]
        if t.bit == 0:
            opens[p] |= 1 << q
        else:
            closes[p] |= 1 << q
            reopens[q] |= 1 << p
    z = dyck_closure(opens, closes)
    minus = _cycle_rows(opens, z, [index[machine.initial]], cap)
    plus = _cycle_rows(reopens, _transpose(z, n), [index[f] for f in sorted(machine.finals)], cap)

    (minus_rows, start1, period1), (plus_rows, start2, period2) = minus, plus
    start, turn = max(start1, start2), math.lcm(period1, period2)
    wide_minus = {row: _extend(row, start1, period1, start + turn) for row in set(minus_rows)}
    wide_plus = {row: _extend(row, start2, period2, start + turn) for row in set(plus_rows)}
    forms: dict[int, tuple[int, int, int, int]] = {}  # by meet row: states share their meets
    meets = []
    for a, b in zip(minus_rows, plus_rows):
        row = wide_minus[a] & wide_plus[b]
        if row not in forms:
            forms[row] = _fold_row(row, start, turn)
        meets.append(forms[row])

    step, highest = 1, 1  # P clears highest ≥ 1, so P ≥ 2
    for finite, threshold, p, residues in forms.values():
        highest = max(highest, finite.bit_length() - 1)
        if residues:
            step = math.lcm(step, p)
            tail = _repeat(residues, p, threshold + p) >> threshold  # one turn from threshold
            highest = max(highest, threshold + tail.bit_length() - 1)
    period = -(-(highest + 1) // step) * step
    types_of = {}  # each meet's members below 2P
    for finite, threshold, p, residues in forms.values():
        tail = _repeat(residues, p, 2 * period) >> threshold << threshold
        types_of[finite, threshold, p, residues] = frozenset(state_bits(finite | tail))
    types = {q: types_of[form] for q, form in zip(states, meets)}
    return NSetReport(period, types, cap, states, minus, plus, meets)
