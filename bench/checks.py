"""Independent checks of what the ``ocrank`` command line printed.

Nothing here reuses the code under test to recompute a verdict: rank
outputs are checked against facts that hold for the generated families,
density witnesses by non-commutation, counter sets against the brute-force
configuration search in ``ocrank.harness``, and enumerations against a
small regex evaluator of this file.  Every function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import re

from workloads import Call, Spec

# The counter-set table of fig2, drawn by hand, as `nsets` must print it.
FIG2_PERIOD = 6
FIG2_NSET_TABLE = [
    "q0: N- = {3t} | N+ = {t} | N = {3t}",
    "q1: N- = {1+3t} | N+ = {t} | N = {1+3t}",
    "q2: N- = {2+3t} | N+ = {t} | N = {2+3t}",
    "q3: N- = {2+3t} | N+ = {1+t} | N = {2+3t}",
    "q4: N- = {2+3t} | N+ = {2} ∪ {1+2t} | N = {2} ∪ {5+6t}",
    "q5: N- = {t} | N+ = {2t} | N = {2t}",
    "q6: N- = {t} | N+ = {1+2t} | N = {1+2t}",
    "q7: N- = {1+3t} | N+ = {1} | N = {1}",
    "q8: N- = {3t} | N+ = {0} | N = {0}",
]

ORACLE_BOUND = 20


# ---------------------------------------------------------------------------
# Parsing what the command line printed


def parse_rank(code: int, out: str) -> tuple:
    """("RankBound", bound, status) | ("NotScattered", w1, w2) | ("Unknown",)
    | ("Refused",) for exit 4, when the analysis could not certify itself."""
    lines = out.splitlines()
    if code == 0 and len(lines) >= 2 and lines[0].startswith("bound: ") \
            and lines[1].startswith("status: "):
        return ("RankBound", lines[0][7:], lines[1][8:])
    if code == 2 and len(lines) >= 3 and lines[0] == "not scattered" \
            and lines[1].startswith("  word1: ") and lines[2].startswith("  word2: "):
        return ("NotScattered", lines[1][9:], lines[2][9:])
    if code == 3 and lines and lines[0].startswith("unknown: "):
        return ("Unknown",)
    if code == 4 and not out:
        return ("Refused",)
    return ("Malformed", code, out[:200])


def verdict_kind(call: Call, code: int, out: str) -> str:
    """The kind of result one call produced, for the verdict-share table."""
    if call.command == "rank":
        return parse_rank(code, out)[0]
    if call.command == "check":
        if code == 0:
            return "AllChecksOk"
        return "Refused" if check_refused(code, out) else "CheckFailed"
    return "Result" if code == 0 else f"Exit{code}"


def decided(call: Call, code: int, out: str) -> bool:
    """A definite result: a bound or a witness, every check ok, or a listing."""
    return verdict_kind(call, code, out) in ("RankBound", "NotScattered", "AllChecksOk", "Result")


def upset_member(rendered: str, n: int) -> bool:
    """Membership in an ultimately periodic set as `nsets` renders it."""
    if rendered == "∅":
        return False
    for part in rendered.split(" ∪ "):
        body = part.strip("{}")
        if "t" not in body:
            if n in {int(x) for x in body.split(",")}:
                return True
            continue
        offset, _, step = body.rpartition("+") if "+" in body else ("0", "", body)
        step = step[:-1] or "1"
        m, p = int(offset), int(step)
        if n >= m and (n - m) % p == 0:
            return True
    return False


_NSET_LINE = re.compile(r"^(\S+): N- = (.+) \| N\+ = (.+) \| N = (.+)$")
_TAU_LINE = re.compile(r"^tau\((\S+)\) = \{(.*)\}$")


def parse_nsets(out: str) -> tuple[int, dict[str, tuple[str, str, str]], dict[str, set[int]]]:
    lines = out.splitlines()
    period = int(lines[0].removeprefix("P = "))
    sets: dict[str, tuple[str, str, str]] = {}
    types: dict[str, set[int]] = {}
    for line in lines[1:]:
        m = _NSET_LINE.match(line)
        if m:
            sets[m.group(1)] = (m.group(2), m.group(3), m.group(4))
            continue
        m = _TAU_LINE.match(line)
        if m:
            types[m.group(1)] = {int(x) for x in m.group(2).split(",") if x.strip()}
    return period, sets, types


# ---------------------------------------------------------------------------
# An independent enumerator: regexes over the fixture grammar, by word sets


def regex_words(text: str, max_len: int) -> set[str]:
    """Words of length ≤ max_len in the language of a fixture regex.

    Grammar: ``+`` union, juxtaposition concatenation, postfix ``*``,
    parentheses, ``eps`` for the empty word, single letters otherwise.
    """
    pos = 0

    def concat(xs: set[str], ys: set[str]) -> set[str]:
        return {x + y for x in xs for y in ys if len(x) + len(y) <= max_len}

    def expr() -> set[str]:
        nonlocal pos
        words = term()
        while pos < len(text) and text[pos] == "+":
            pos += 1
            words = words | term()
        return words

    def term() -> set[str]:
        words = {""}
        while pos < len(text) and text[pos] not in "+)":
            words = concat(words, factor())
        return words

    def factor() -> set[str]:
        nonlocal pos
        words = base()
        while pos < len(text) and text[pos] == "*":
            pos += 1
            star = {""}
            frontier = {""}
            while frontier:
                frontier = concat(frontier, words) - star
                star |= frontier
            words = star
        return words

    def base() -> set[str]:
        nonlocal pos
        if text.startswith("eps", pos):
            pos += 3
            return {""}
        if text[pos] == "(":
            pos += 1
            words = expr()
            pos += 1  # ")"
            return words
        pos += 1
        return {text[pos - 1]}

    return expr()


def enumerate_spec(spec: Spec, input_cap: int, output_cap: int) -> set[str]:
    """Outputs over balanced inputs of length ≤ input_cap, words ≤ output_cap."""
    langs = {r: regex_words(r, output_cap) for _, _, _, r in spec.transitions}
    by_source: dict[str, list] = {}
    for s, b, t, r in spec.transitions:
        by_source.setdefault(s, []).append((b, t, langs[r]))
    finals = set(spec.finals)
    found: set[str] = set()
    if spec.initial in finals:
        found.add("")

    def walk(state: str, depth: int, length: int, outputs: set[str]) -> None:
        if length and depth == 0 and state in finals:
            found.update(outputs)
        if length == input_cap:
            return
        for b, t, lang in by_source.get(state, ()):
            d2 = depth + 1 if b == 0 else depth - 1
            if d2 < 0 or d2 > input_cap - length - 1:
                continue
            nxt = {x + y for x in outputs for y in lang if len(x) + len(y) <= output_cap}
            if nxt:
                walk(t, d2, length + 1, nxt)

    walk(spec.initial, 0, 0, {""})
    return found


def fig1_closed_form(input_cap: int, output_cap: int) -> set[str]:
    """c^n (b*a)^n for 1 ≤ n ≤ input_cap/2, words of length ≤ output_cap."""
    words: set[str] = set()
    for n in range(1, input_cap // 2 + 1):
        tails = {""}
        for _ in range(n):
            tails = {
                t + "b" * k + "a"
                for t in tails
                for k in range(output_cap)
                if n + len(t) + k + 1 <= output_cap
            }
        words |= {"c" * n + t for t in tails}
    return words


# ---------------------------------------------------------------------------
# Checks per call


def check_rank(call: Call, code: int, out: str) -> list[str]:
    case = call.case
    verdict = parse_rank(code, out)
    kind = verdict[0]
    if kind == "Malformed":
        return [f"unreadable rank output (exit {code}): {out[:120]!r}"]
    problems = []
    if case.family == "fig1" and verdict[1:] != ("w+3", "ConditionalOnScattered"):
        problems.append(f"fig1 must rank w+3 ConditionalOnScattered, got {verdict[1:]}")
    if case.family == "ladder" and kind != "RankBound":
        # Its language is a subset of fig1's, and suborders of scattered
        # orders are scattered.
        problems.append(f"ladder machine must get a RankBound, got {kind}")
    if case.spec is not None and len(case.spec.alphabet) == 1 and kind != "RankBound":
        # Every subset of a* is well ordered.
        problems.append(f"single-letter output must get a RankBound, got {kind}")
    if case.spec is not None and kind == "Unknown":
        problems.append("a machine (not an expression) got Unknown")
    if kind == "NotScattered":
        u, v = verdict[1], verdict[2]
        letters = set(case.spec.alphabet) if case.spec is not None else {"a", "b"}
        if not u or not v or not set(u + v) <= letters:
            problems.append(f"witness words {u!r}, {v!r} are empty or off the alphabet")
        elif u + v == v + u:
            # uv = vu exactly when u and v are powers of one word.
            problems.append(f"witness words {u!r} and {v!r} commute")
    return problems


def check_nsets(call: Call, code: int, out: str, oracle) -> list[str]:
    if code != 0:
        return [f"nsets exited {code}"]
    lines = out.splitlines()
    if call.case.family == "fig2":
        if lines[:1] != [f"P = {FIG2_PERIOD}"] or lines[1:10] != FIG2_NSET_TABLE:
            return ["fig2 counter sets differ from the hand-drawn table"]
    try:
        period, sets, types = parse_nsets(out)
    except (ValueError, IndexError):
        return [f"unreadable nsets output: {out[:120]!r}"]
    problems = []
    for q in call.case.spec.states:
        if q not in sets or q not in types:
            problems.append(f"state {q} missing from nsets output")
            continue
        minus, plus, meet = sets[q]
        try:
            for n in range(ORACLE_BOUND + 1):
                for rendered, truth, side in (
                    (minus, oracle.minus[q], "N-"),
                    (plus, oracle.plus[q], "N+"),
                    (meet, oracle.meet[q], "N"),
                ):
                    if upset_member(rendered, n) != (n in truth):
                        problems.append(f"{side}({q}) disagrees with search at counter {n}")
            expected_types = {c for c in range(2 * period) if upset_member(meet, c)}
        except ValueError:
            problems.append(f"unreadable counter set for {q}")
            continue
        if types[q] != expected_types:
            problems.append(f"tau({q}) does not match N({q}) on [0, 2P)")
    return problems[:5]


def check_refused(code: int, out: str) -> bool:
    """`check` stopped where `rank` exits 4: the structure is fine, but the
    counter sets could not be certified within the counter cap, so nothing
    after them was checked.  Nothing wrong was printed; like a refused
    `rank`, this is undecided rather than failed, on a random machine."""
    lines = out.splitlines()
    return (code == 4 and len(lines) == 2 and lines[0].startswith("ok   structure: ")
            and lines[1].startswith("FAIL counter-sets: ")
            and "rerun with a larger --counter-cap" in lines[1])


def check_check(call: Call, code: int, out: str) -> list[str]:
    if check_refused(code, out) and call.case.family == "random":
        return []
    lines = out.splitlines()
    names = [line[5:].split(":", 1)[0] for line in lines]
    expected = ["structure", "counter-sets", "leveling", "bounded-equality", "lift-project"]
    if code != 0 or names != expected or not all(line.startswith("ok   ") for line in lines):
        return [f"check did not pass every self-check (exit {code}): {out[:160]!r}"]
    return []


def lex_sorted(words: list[str], alphabet: tuple[str, ...]) -> bool:
    rank = {ch: i for i, ch in enumerate(alphabet)}
    keys = [tuple(rank[ch] for ch in w) for w in words]
    return all(a < b for a, b in zip(keys, keys[1:]))


def check_enumerate(call: Call, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"enumerate exited {code}"]
    flags = dict(zip(call.flags[::2], call.flags[1::2]))
    input_cap, output_cap = int(flags["--input-cap"]), int(flags["--output-cap"])
    words = out.split("\n")[:-1] if out else []
    spec = call.case.spec
    if not set("".join(words)) <= set(spec.alphabet):
        return ["enumeration holds letters outside the alphabet"]
    if not lex_sorted(words, spec.alphabet):
        return ["enumeration is not strictly increasing in lexicographic order"]
    if call.case.family == "fig1":
        expected = fig1_closed_form(input_cap, output_cap)
    else:
        expected = enumerate_spec(spec, input_cap, output_cap)
    if set(words) != expected:
        missing = sorted(expected - set(words))[:3]
        extra = sorted(set(words) - expected)[:3]
        return [f"enumeration differs: missing {missing}, unexpected {extra}"]
    return []
