"""Ultimately periodic sets of naturals and certified counter reachability.

The counter systems analyzed here move a nonnegative counter by ±1 along
the edges of a finite graph (0-labelled input opens, 1-labelled closes).
Their per-state reachability sets are ultimately periodic; this module
computes them *with certificates* rather than by unverified exploration:

* the states reached with counter c are computed level by level: a run
  to counter c splits, at its last visit to each lower level, into c
  single opens joined by Dyck paths (weight 0, never below their start),
  so level c is the Dyck closure of the open-image of level c − 1; once a
  level repeats the rest is copied, and the sets are exact on [0, cap];
* the candidate period is the gcd of the weights of the cycles that can
  occur on a run into the state in question after its counter was first
  pumped up, taken per strongly connected component from a potential in
  linear time, not by listing cycles;
* the claimed tail is accepted once the computed slice is periodic on a
  closing window and every claimed residue class exhibits a pumping
  witness (a window member together with a positive-weight cycle that can
  reach the state).

If any of this fails the analysis aborts with a :class:`CertificationError`
suggesting a larger ``--counter-cap`` instead of guessing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .regular import Regex, compile_regex, longest_potential, parse_regex, tarjan_sccs
from .words import BINARY


class CertificationError(RuntimeError):
    """Raised when counter analysis cannot certify its result."""


# ---------------------------------------------------------------------------
# Ultimately periodic sets


@dataclass(frozen=True)
class UPSet:
    """An ultimately periodic subset of the naturals.

    The set is ``finite ∪ {n ≥ threshold : n mod period ∈ residues}`` with
    ``finite ⊆ [0, threshold)`` and ``residues ⊆ [0, period)``.  Use
    :meth:`build` (or the other factories), which normalizes to a canonical
    representative: minimal period, then the least threshold at which the
    set agrees with its periodic pattern.  Equal sets compare equal.
    """

    threshold: int
    finite: frozenset[int]
    period: int
    residues: frozenset[int]

    @staticmethod
    def build(threshold: int, finite, period: int, residues) -> "UPSet":
        finite = frozenset(finite)
        residues = frozenset(residues)
        if threshold < 0 or period < 1:
            raise ValueError("threshold must be ≥ 0 and period ≥ 1")
        if any(c < 0 or c >= threshold for c in finite):
            raise ValueError(f"finite part {sorted(finite)} not within [0, {threshold})")
        if any(r < 0 or r >= period for r in residues):
            raise ValueError(f"residues {sorted(residues)} not within [0, {period})")
        if not residues:
            return UPSet._canonical_finite(finite)
        # Minimal divisor period.
        for d in range(1, period + 1):
            if period % d != 0:
                continue
            folded = {r % d for r in residues}
            if all((r in residues) == (r % d in folded) for r in range(period)):
                period, residues = d, frozenset(folded)
                break
        # Least threshold at which the set matches its tail pattern.
        finite_set = set(finite)
        while threshold > 0:
            c = threshold - 1
            in_tail = (c % period) in residues
            if in_tail != (c in finite_set):
                break
            finite_set.discard(c)
            threshold = c
        return UPSet(threshold, frozenset(finite_set), period, residues)

    @staticmethod
    def _canonical_finite(members: frozenset[int]) -> "UPSet":
        threshold = max(members) + 1 if members else 0
        return UPSet(threshold, members, 1, frozenset())

    @staticmethod
    def empty() -> "UPSet":
        return UPSet(0, frozenset(), 1, frozenset())

    @staticmethod
    def from_finite(members) -> "UPSet":
        members = frozenset(members)
        if any(c < 0 for c in members):
            raise ValueError("members must be naturals")
        return UPSet._canonical_finite(members)

    @staticmethod
    def naturals() -> "UPSet":
        return UPSet(0, frozenset(), 1, frozenset({0}))

    @staticmethod
    def progression(offset: int, step: int) -> "UPSet":
        """The arithmetic progression offset, offset+step, offset+2·step, …"""
        if offset < 0 or step < 1:
            raise ValueError("need offset ≥ 0 and step ≥ 1")
        return UPSet.build(offset, frozenset(), step, frozenset({offset % step}))

    def is_empty(self) -> bool:
        return not self.finite and not self.residues

    def is_finite(self) -> bool:
        return not self.residues

    def first_tail_values(self) -> list[int]:
        """Least tail member of each residue class, threshold-aligned."""
        return sorted(
            self.threshold + ((r - self.threshold) % self.period) for r in self.residues
        )

    def values_up_to(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if up_membership(self, n)]


def up_membership(s: UPSet, n: int) -> bool:
    if n < 0:
        raise ValueError("naturals only")
    if n < s.threshold:
        return n in s.finite
    return (n % s.period) in s.residues


def _pointwise(s1: UPSet, s2: UPSet, keep) -> UPSet:
    period = math.lcm(s1.period, s2.period)
    threshold = max(s1.threshold, s2.threshold)
    finite = {n for n in range(threshold) if keep(up_membership(s1, n), up_membership(s2, n))}
    residues = set()
    for r in range(period):
        # One tail representative decides the whole class: membership above
        # the joint threshold depends only on the residue mod each period.
        n = threshold + ((r - threshold) % period)
        if keep(up_membership(s1, n), up_membership(s2, n)):
            residues.add(r)
    return UPSet.build(threshold, finite, period, residues)


def up_intersect(s1: UPSet, s2: UPSet) -> UPSet:
    return _pointwise(s1, s2, lambda a, b: a and b)


def up_union(s1: UPSet, s2: UPSet) -> UPSet:
    return _pointwise(s1, s2, lambda a, b: a or b)


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


@dataclass
class SliceCertificate:
    """Evidence backing one state's claimed reachability set."""

    state: int
    mode: str  # "empty" | "finite" | "lcm-window" | "gcd-window"
    period: int | None = None
    cycle_lcm: int | None = None  # λ: lcm of the relevant pumping components' g_S
    window: tuple[int, int] | None = None
    pump_witnesses: dict[int, tuple[int, int]] = field(default_factory=dict)
    # residue -> (window member, positive cycle weight usable from there)


def _bit_list(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _image(mask: int, table: list[int]) -> int:
    """Union of ``table[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


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
            grown = _image(row | _image(_image(opens[p], z), closes), z)
            if grown != row:
                z[p] = grown
                changed = True
    return z


def level_counters(
    n: int, edges: list[tuple[int, int, int]], starts: list[int], cap: int
) -> list[int]:
    """The counters each state takes on [0, cap], as bitmasks (bit c: c).

    Runs start at the ``starts`` with counter 0.  Level c, the states
    reached with counter c, is Z(open-image(level c − 1)), and level 0 is
    Z(starts): a run to (q, c) splits at its last visit to each of the
    levels 0 … c − 1 into Dyck paths (:func:`dyck_closure`) joined by c
    single opens, and every such chain is a run.  Level c depends on
    level c − 1 alone, so once a level repeats the rest cycles and is
    copied up to the cap instead of computed.
    """
    opens = [0] * n
    closes = [0] * n
    for p, w, q in edges:
        if w > 0:
            opens[p] |= 1 << q
        else:
            closes[p] |= 1 << q
    z = dyck_closure(opens, closes)
    level = _image(sum(1 << s for s in set(starts)), z)
    first: dict[int, int] = {}
    levels: list[int] = []
    while level not in first and len(levels) <= cap:
        first[level] = len(levels)
        levels.append(level)
        level = _image(_image(level, opens), z)
    counters = [0] * n
    for c, states in enumerate(levels):
        for q in _bit_list(states):
            counters[q] |= 1 << c
    if len(levels) <= cap:
        start = first[level]
        length = len(levels) - start
        copies = (cap - start) // length + 1
        # A one every `length` bits: multiplying lays copies of the loop's
        # block side by side.
        spread = ((1 << (length * copies)) - 1) // ((1 << length) - 1)
        keep = (1 << (cap + 1)) - 1
        counters = [(bits | ((bits >> start) * spread) << start) & keep for bits in counters]
    return counters


def _cycle_summary(n: int, edges, reached: set[int]) -> list[tuple[int, int, int] | None]:
    """Per state q, the cycle data ``(p, λ, w)`` of the runs into q.

    Works on the condensation of the reached states.  Each strongly
    connected component S with a cycle has g_S, the gcd of its cycle
    weights: with π(v) the weight of a breadth-first path from one state
    to v, every edge value π(u) + w − π(v) is the difference of two closed
    walks' weights, and a cycle's weight is the sum of its edge values, so
    both gcds agree.  S may also have a simple positive cycle, the one
    :func:`~ocrank.regular.longest_potential` returns, O(|S|·|E|).

    S counts toward q when it lies among q's ancestors and has a positive
    cycle or lies downstream of a component that has one.  p is the gcd of
    g_S over those S, λ the lcm of g_S over the ones with a positive cycle,
    and w the positive cycle weight of the first of these in the
    condensation's order.  The entry is None when no component with a
    positive cycle lies among q's ancestors.  One pass over the
    condensation in topological order carries all three, since gcd, lcm and
    "first" ignore repeats.
    """
    inside = [(p, w, q) for p, w, q in edges if p in reached and q in reached]
    successors: list[set[int]] = [set() for _ in range(n)]
    adj: dict[int, list[tuple[int, int]]] = {}
    for p, w, q in inside:
        successors[p].add(q)
        adj.setdefault(p, []).append((w, q))
    components = tarjan_sccs(n, [sorted(s) for s in successors])
    component_of = [0] * n
    for i, comp in enumerate(components):
        for s in comp:
            component_of[s] = i
    inner: list[list[tuple[int, int, int]]] = [[] for _ in components]
    later: list[set[int]] = [set() for _ in components]
    for p, w, q in inside:
        a, b = component_of[p], component_of[q]
        if a == b:
            inner[a].append((p, w, q))
        else:
            later[a].add(b)

    k = len(components)
    period = [0] * k  # gcd of g_S over the counted components so far
    lam = [1] * k
    first = [k] * k  # first component with a positive cycle, k for none
    positive: dict[int, int] = {}
    # Tarjan lists sinks first, so walking it backwards meets every
    # component after all of its ancestors.
    for i in reversed(range(k)):
        if inner[i]:
            comp = components[i]
            potential = {comp[0]: 0}
            dq = deque([comp[0]])
            while dq:
                x = dq.popleft()
                for w, t in adj[x]:
                    if t not in potential and component_of[t] == i:
                        potential[t] = potential[x] + w
                        dq.append(t)
            g = 0
            for p, w, q in inner[i]:
                g = math.gcd(g, potential[p] + w - potential[q])
            cycle = longest_potential(inner[i])
            if not isinstance(cycle, dict):
                positive[i] = sum(w for _, w, _ in cycle)
                lam[i] = math.lcm(lam[i], g)
                first[i] = min(first[i], i)
            if first[i] < k:
                period[i] = math.gcd(period[i], g)
        for j in later[i]:
            period[j] = math.gcd(period[j], period[i])
            lam[j] = math.lcm(lam[j], lam[i])
            first[j] = min(first[j], first[i])
    return [
        None if first[i] == k else (period[i], lam[i], positive[first[i]])
        for i in component_of
    ]


def certified_slices(
    n: int,
    edges: list[tuple[int, int, int]],
    starts: list[int],
    cap: int,
) -> tuple[list[UPSet], list[SliceCertificate]]:
    """Per-state reachability sets of a ±1 counter system with certificates.

    ``edges`` are (source, weight, target) with weight ±1; the counter may
    never drop below zero.  Runs start at the ``starts`` with counter 0.
    The returned sets are exact on [0, cap] (:func:`level_counters`) and
    certified beyond.

    Cycle data comes per strongly connected component S of the reached
    states (:func:`_cycle_summary`): g_S, the gcd of S's cycle weights, and
    one positive cycle if S has any.  The candidate period p is the gcd of
    g_S over the S that count for q: those among q's ancestors that have a
    positive cycle or lie downstream of one.  It is the same number as the
    gcd over those components' simple cycles, since closed walks decompose
    into simple cycles.  The slice is finite unless a counted S has a
    positive cycle; that cycle is the pump witness.

    Leaving out the other components loses nothing.  A run can only be in
    such an S before it enters any component with a positive cycle, so up
    to there it has walked a graph without positive cycles and its counter
    stays below n.  Their cycles only decide which of the finitely many
    configurations with counter below n the pumping part of a run starts
    from: they shape the finite part, not the tail.  Counting them could
    only make p a smaller divisor of the tail's period, which fails the
    window check at every cap.

    When the cap allows, the window checked for p-periodicity is widened
    by 2λ ("lcm-window"), with λ the lcm of g_S over the counted S that
    have a positive cycle.  This is sound:

    * g_S divides every cycle weight in S, so λ divides the lcm of the
      counted positive simple-cycle weights: the window is never wider
      than one sized by listing those cycles;
    * a branch of runs that pumps through S has a tail period dividing
      g_S, so the true tail period of the slice divides λ;
    * a window that passes yields the set on [0, cap] extended
      p-periodically, whose canonical :class:`UPSet` does not depend on the
      window's width.  Widening can turn a pass into a refusal, never
      change the set claimed.
    """
    if cap < 2 * n + 6:
        raise CertificationError(
            f"counter cap {cap} is too small for {n} states; "
            f"pass --counter-cap {default_counter_cap(n)} or higher"
        )
    counters = level_counters(n, edges, starts, cap)
    summary = _cycle_summary(n, edges, {q for q in range(n) if counters[q]})

    slices: list[UPSet] = []
    certificates: list[SliceCertificate] = []
    for q, bits in enumerate(counters):
        if not bits:
            slices.append(UPSet.empty())
            certificates.append(SliceCertificate(q, "empty"))
            continue

        if summary[q] is None:
            # Nothing can pump the counter up on the way to q, so any value
            # at q is bounded by the longest simple path: the slice is the
            # whole set.
            if bits >> (n + 1):
                raise CertificationError(
                    f"state {q}: counter {bits.bit_length() - 1} reached without any "
                    "positive cycle — analysis inconsistent"
                )
            slices.append(UPSet.from_finite(_bit_list(bits)))
            certificates.append(SliceCertificate(q, "finite"))
            continue

        p, lam, weight = summary[q]
        base_width = max(2 * p, n + 2)
        mode = "gcd-window"
        width = base_width
        if 2 * lam + base_width <= cap - (n + 2):
            width = base_width + 2 * lam
            mode = "lcm-window"
        threshold = max(0, cap - width)

        # Bit c of ``shifted`` is set when c and c + p disagree.
        shifted = (bits >> p) ^ bits
        compared = ((1 << max(0, cap - p - threshold)) - 1) << threshold
        if shifted & compared:
            raise CertificationError(
                f"state {q}: explored counters are not {p}-periodic on "
                f"[{threshold}, {cap}); rerun with a larger --counter-cap "
                f"(currently {cap})"
            )

        # Least window member above n of each residue class met in the
        # window, or None while the class has none.
        pumpable: dict[int, int | None] = {}
        for c in _bit_list(bits & ((1 << cap) - (1 << threshold))):
            if pumpable.get(c % p) is None:
                pumpable[c % p] = c if c > n else None
        if not pumpable:
            # The window is empty, and any member beyond the cap could be
            # pulled back into it, so there is none: the set is finite.
            slices.append(UPSet.from_finite(_bit_list(bits)))
            certificates.append(
                SliceCertificate(q, "finite", period=p, window=(threshold, cap))
            )
            continue

        witnesses: dict[int, tuple[int, int]] = {}
        for r in sorted(pumpable):
            member = pumpable[r]
            if member is None:
                raise CertificationError(
                    f"state {q}: residue class {r} (mod {p}) has no pumpable "
                    f"window member; rerun with a larger --counter-cap"
                )
            witnesses[r] = (member, weight)

        # Below the window the set follows its tail down to the last
        # disagreement, which is where the canonical threshold lies.
        start = (shifted & ((1 << threshold) - 1)).bit_length()
        finite = _bit_list(bits & ((1 << start) - 1))
        slices.append(UPSet.build(start, finite, p, pumpable))
        certificates.append(
            SliceCertificate(
                q,
                mode,
                period=p,
                cycle_lcm=lam,
                window=(threshold, cap),
                pump_witnesses=witnesses,
            )
        )
    return slices, certificates


# ---------------------------------------------------------------------------
# Per-state reachability report for counter transducers


@dataclass
class NSetReport:
    """Forward, backward and combined counter sets of a machine's states.

    ``minus`` holds the counter values of input prefixes reaching each
    state, ``plus`` the values closable to 0 by some accepted suffix, and
    ``meet`` their intersection.  ``period`` is the machine-wide window
    period; ``types`` restricts each meet to [0, 2·period), which is all
    the leveled construction downstream needs.
    """

    minus: dict[str, UPSet]
    plus: dict[str, UPSet]
    meet: dict[str, UPSet]
    period: int
    types: dict[str, frozenset[int]]
    counter_cap: int
    certificates: dict[str, dict[str, SliceCertificate]]


def select_period(meets) -> int:
    """Machine period: least multiple of every tail period that clears all
    finite members and tail starts, and is at least 2."""
    step = 1
    highest = -1
    for s in meets:
        if s.residues:
            step = math.lcm(step, s.period)
        highest = max(highest, *s.finite, *s.first_tail_values(), -1)
    need = max(2, highest + 1)
    return step * math.ceil(need / step)


def reach_sets(machine, counter_cap: int | None = None) -> NSetReport:
    """Certified forward/backward counter analysis of a transducer.

    Works on the machine as given.  ``counter_cap`` overrides the default
    end of the certified window (see :func:`default_counter_cap`).
    """
    states = list(machine.states)
    index = {q: i for i, q in enumerate(states)}
    n = len(states)
    cap = counter_cap if counter_cap is not None else default_counter_cap(n)

    forward = [
        (index[t.source], 1 if t.bit == 0 else -1, index[t.target])
        for t in machine.transitions
    ]
    backward = [(q, -w, p) for p, w, q in forward]

    minus_slices, minus_certs = certified_slices(
        n, forward, [index[machine.initial]], cap
    )
    plus_slices, plus_certs = certified_slices(
        n, backward, [index[f] for f in sorted(machine.finals)], cap
    )

    minus = {q: minus_slices[index[q]] for q in states}
    plus = {q: plus_slices[index[q]] for q in states}
    meet = {q: up_intersect(minus[q], plus[q]) for q in states}
    period = select_period(meet.values())
    types = {
        q: frozenset(c for c in range(2 * period) if up_membership(meet[q], c))
        for q in states
    }
    certificates = {
        q: {"minus": minus_certs[index[q]], "plus": plus_certs[index[q]]}
        for q in states
    }
    return NSetReport(minus, plus, meet, period, types, cap, certificates)


def worked_close_image(
    r: Regex | str, alphabet=BINARY, counter_cap: int | None = None
) -> UPSet:
    """Closing depths of the members of L(r) that some balanced word ends in.

    Reads words of L(r) back to front — 1 raises the pending-closings
    counter, 0 lowers it, and it may never go negative — so the counter on
    arrival at an original initial state is exactly the word's close depth.
    """
    if isinstance(r, str):
        r = parse_regex(r, alphabet)
    d = compile_regex(r, alphabet)
    if d.finals == frozenset():
        return UPSet.empty()
    reversed_edges = []
    for p in range(d.n):
        for ch, targets in d.edges[p].items():
            for t in targets:
                reversed_edges.append((t, 1 if ch == "1" else -1, p))
    cap = counter_cap if counter_cap is not None else default_counter_cap(d.n)
    slices, _ = certified_slices(d.n, reversed_edges, sorted(d.finals), cap)
    image = UPSet.empty()
    for q in sorted(d.initials):
        image = up_union(image, slices[q])
    return image
