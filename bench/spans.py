"""Span tracing of ocrank's layers, done from outside the package.

:class:`Tracer` wraps every public function of the seven layer modules and
rebinds each wrapper wherever the original function is bound, so names
brought in with ``from .x import f`` (``rank.reach_sets``,
``harness.build_mprime``, ``cli.reach_sets`` …) are traced too.  No source
file changes; :meth:`Tracer.uninstall` puts the originals back.

A span is (function, start, end, parent span, call).  Spans are kept in
flat arrays in memory and only folded into totals after the run.  A span's
self time is its duration minus the durations of its direct children;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("regular", "counterset", "transducer", "components", "rank", "harness", "cli")


def _observe_normalize(args, result, sizes):
    sizes.put("Q", len(result.states))
    sizes.put("T", len(result.transitions))
    sizes.max("counterset.states", len(result.states))


def _observe_reach_sets(args, result, sizes):
    sizes.put("P", result.period)
    sizes.max("counterset.period", result.period)
    for pair in result.certificates.values():
        for cert in pair.values():
            if cert.mode in ("lcm-window", "gcd-window"):
                sizes.add("counterset.windows", 1)
                sizes.add("counterset.lcm_windows", cert.mode == "lcm-window")


def _observe_build_mprime(args, result, sizes):
    sizes.put("leveled_states", len(result.states))
    sizes.put("leveled_transitions", len(result.transitions))
    sizes.add("transducer.leveled_states", len(result.states))
    sizes.add("transducer.leveled_transitions", len(result.transitions))


def _observe_condense(args, result, sizes):
    largest = max((len(c.members) for c in result), default=0)
    sizes.put("largest_scc", largest)
    sizes.max("components.largest_scc", largest)


def _observe_certify(args, result, sizes):
    if not args[0].trivial:
        sizes.add("components.stage1_tried", 1)
        sizes.add("components.stage1_passed", type(result).__name__ == "FullyCertified")


def _observe_cycle_profile(args, result, sizes):
    sizes.add("components.stage2_components", not result.has_positive)


def _observe_expand_graph(args, result, sizes):
    sizes.add("components.expand_graph_states", result.n)


def _observe_determinize(args, result, sizes):
    sizes.add("regular.determinize_states", result.n)
    sizes.max("regular.automaton_states_max", result.n)


def _observe_automaton(args, result, sizes):
    sizes.max("regular.automaton_states_max", result.n)


def _observe_enumerate(args, result, sizes):
    sizes.add("harness.words_enumerated", len(result.words))


# Size drivers read from return values: |Q| and |T| after normalization,
# the period P, leveled sizes, the largest component, automaton sizes.
OBSERVERS = {
    "transducer.minimal_normalize": _observe_normalize,
    "counterset.reach_sets": _observe_reach_sets,
    "transducer.build_mprime": _observe_build_mprime,
    "components.condense": _observe_condense,
    "components.certify_component": _observe_certify,
    "components.cycle_profile": _observe_cycle_profile,
    "components.expand_graph": _observe_expand_graph,
    "regular.determinize": _observe_determinize,
    "regular.concat_automata": _observe_automaton,
    "regular.union_automata": _observe_automaton,
    "regular.trim": _observe_automaton,
    "regular.compile_regex": _observe_automaton,
    "harness.enumerate": _observe_enumerate,
}


class Sizes:
    """Size drivers: per-call values for the rows, run totals and maxima."""

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.rows: dict[int, dict] = {}
        self.call = -1

    def put(self, key: str, value: int) -> None:
        row = self.rows.setdefault(self.call, {})
        row[key] = max(row.get(key, value), value)

    def add(self, key: str, value) -> None:
        self.totals[key] += int(value)

    def max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)


class Tracer:
    """Records a span for every call of a wrapped ocrank function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fn: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.call_of: array = array("i")
        self.outer: array = array("b")  # 1 when no ancestor span is the same function
        self.failed: Counter = Counter()
        self.sizes = Sizes()
        self._stack: list[int] = []
        self._depth: list[int] = []  # per function, its spans now open
        self._index: dict[int, list[int]] = {}  # per function, its spans
        self._index_len = -1  # number of spans when _index was built
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._discover()

    # -- installing -------------------------------------------------------

    def _discover(self) -> dict[int, tuple[object, object]]:
        """Public functions of each layer module, keyed by id(original)."""
        targets: dict[int, tuple[object, object]] = {}
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"ocrank.{layer}")
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{attr}")
                self.layer_of.append(layer_index)
                self._depth.append(0)
                targets[id(obj)] = (obj, self._wrap(fid, obj))
        return targets

    def _wrap(self, fid: int, original):
        fn, start, end, parent, call_of = self.fn, self.start, self.end, self.parent, self.call_of
        outer, stack, depth, failed = self.outer, self._stack, self._depth, self.failed
        sizes = self.sizes
        observer = OBSERVERS.get(self.names[fid])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            call_of.append(sizes.call)
            outer.append(depth[fid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            depth[fid] += 1
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                failed[fid] += 1
                raise
            finally:
                end[index] = clock()
                start[index] = t0
                depth[fid] -= 1
                stack.pop()
            if observer is not None:
                observer(args, result, sizes)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        return wrapper

    def install(self) -> None:
        """Rebind every binding of a wrapped function in every ocrank module."""
        for name, module in list(sys.modules.items()):
            if name != "ocrank" and not name.startswith("ocrank."):
                continue
            for attr, obj in list(vars(module).items()):
                target = self._targets.get(id(obj))
                if target is not None and target[0] is obj:
                    setattr(module, attr, target[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def recover(self) -> None:
        """Make the records whole after a call was stopped by a signal.

        The signal may land inside a wrapper's own bookkeeping, between two
        appends or before a pop; drop the half-written span and close the
        open ones.
        """
        n = min(len(a) for a in (self.fn, self.start, self.end, self.parent,
                                 self.call_of, self.outer))
        for a in (self.fn, self.start, self.end, self.parent, self.call_of, self.outer):
            del a[n:]
        self._stack.clear()
        self._depth[:] = [0] * len(self._depth)

    # -- folding ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_totals(self) -> tuple[list[float], list[float], list[int]]:
        """Per layer: self time, time spent inside it, and spans recorded.

        Time inside a layer counts each outermost span of that layer once,
        so a layer calling into itself is not counted twice.
        """
        n_layers = len(LAYERS)
        self_by = [0.0] * n_layers
        inside = [0.0] * n_layers
        spans = [0] * n_layers
        masks = array("i")  # layers present among each span's ancestors
        for i, (f, p) in enumerate(zip(self.fn, self.parent)):
            mask = 0 if p < 0 else masks[p] | (1 << self.layer_of[self.fn[p]])
            masks.append(mask)
            layer = self.layer_of[f]
            spans[layer] += 1
            if not mask & (1 << layer):
                inside[layer] += self.end[i] - self.start[i]
        for i, t in enumerate(self.self_times()):
            self_by[self.layer_of[self.fn[i]]] += t
        return self_by, inside, spans

    def group_time(self, names) -> tuple[float, int]:
        """Time inside the named functions and number of calls into them.

        Only outermost spans count, so a function called from another one
        of the group (or from itself) is neither timed nor counted twice.
        """
        wanted = {i for i, n in enumerate(self.names) if n in names}
        total = 0.0
        calls = 0
        for i in sorted(i for f in wanted for i in self._spans_of().get(f, ())):
            p = self.parent[i]
            while p >= 0 and self.fn[p] not in wanted:
                p = self.parent[p]
            if p < 0:
                calls += 1
                total += self.end[i] - self.start[i]
        return total, calls

    def _spans_of(self) -> dict[int, list[int]]:
        """Span indices per function, rebuilt when spans were added."""
        if self._index_len != len(self.fn):
            self._index = {}
            for i, f in enumerate(self.fn):
                self._index.setdefault(f, []).append(i)
            self._index_len = len(self.fn)
        return self._index

    def failed_by_layer(self) -> list[int]:
        out = [0] * len(LAYERS)
        for fid, n in self.failed.items():
            out[self.layer_of[fid]] += n
        return out

    def function_table(self) -> list[tuple[str, int, float, float]]:
        """(function, calls, time inside, self time) for every traced function."""
        calls: Counter = Counter(self.fn)
        self_t: Counter = Counter()
        inside: Counter = Counter()
        for i, t in enumerate(self.self_times()):
            f = self.fn[i]
            self_t[f] += t
            if self.outer[i]:
                inside[f] += self.end[i] - self.start[i]
        return [
            (self.names[f], calls[f], inside[f], self_t[f])
            for f in sorted(calls, key=lambda f: -self_t[f])
        ]

    def write(self, path: str) -> None:
        """Dump every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tfunction\tstart\tend\tparent\tcall\n")
            for i in range(len(self.fn)):
                fh.write(
                    f"{i}\t{self.names[self.fn[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.call_of[i]}\n"
                )


# Per-layer metrics: (name, unit, how to read it).  Times and counts are per
# traced pass.  "fn" is time inside the named functions and "calls" the
# number of calls into them (outermost spans only), "per_input" those calls
# per call of the pass, "size" a total and "max" a maximum read from return
# values, "ratio" a quotient of two such totals.
_SUBSET = ("regular.subset_of_power", "regular.subset_of_power_with_witness")
PER_LAYER = [
    ("counterset.reach_sets_s", "s", "fn", ("counterset.reach_sets",)),
    ("counterset.reach_sets_calls", "count", "calls", ("counterset.reach_sets",)),
    ("counterset.certified_slices_s", "s", "fn", ("counterset.certified_slices",)),
    ("counterset.reach_sets_per_input", "1/input", "per_input", ("counterset.reach_sets",)),
    ("counterset.states", "count", "max", "counterset.states"),
    ("counterset.period", "count", "max", "counterset.period"),
    ("counterset.lcm_window_share", "fraction", "ratio",
     ("counterset.lcm_windows", "counterset.windows")),
    ("transducer.normalize_s", "s", "fn", ("transducer.minimal_normalize",)),
    ("transducer.build_mprime_s", "s", "fn", ("transducer.build_mprime",)),
    ("transducer.leveled_states", "count", "size", "transducer.leveled_states"),
    ("transducer.leveled_transitions", "count", "size", "transducer.leveled_transitions"),
    ("transducer.language_of_input_s", "s", "fn", ("transducer.language_of_input",)),
    ("transducer.language_of_input_calls", "count", "calls", ("transducer.language_of_input",)),
    ("transducer.bounded_equal_s", "s", "fn", ("transducer.bounded_language_equal",)),
    ("components.certify_s", "s", "fn", ("components.certify_component",)),
    ("components.certify_calls", "count", "calls", ("components.certify_component",)),
    ("components.cycle_outputs_s", "s", "fn", ("components.cycle_outputs",)),
    ("components.expand_graph_s", "s", "fn", ("components.expand_graph",)),
    ("components.expand_graph_states", "count", "size", "components.expand_graph_states"),
    ("components.largest_scc", "count", "max", "components.largest_scc"),
    ("components.cycle_profile_s", "s", "fn", ("components.cycle_profile",)),
    ("components.stage1_pass_ratio", "fraction", "ratio",
     ("components.stage1_passed", "components.stage1_tried")),
    ("components.stage2_components", "count", "size", "components.stage2_components"),
    ("components.condense_s", "s", "fn", ("components.condense",)),
    ("regular.compile_s", "s", "fn", ("regular.compile_regex",)),
    ("regular.compile_calls", "count", "calls", ("regular.compile_regex",)),
    ("regular.scattered_s", "s", "fn", ("regular.regular_scattered",)),
    ("regular.scattered_calls", "count", "calls", ("regular.regular_scattered",)),
    ("regular.finite_rank_s", "s", "fn", ("regular.finite_rank_bound",)),
    ("regular.determinize_s", "s", "fn", ("regular.determinize",)),
    ("regular.determinize_states", "count", "size", "regular.determinize_states"),
    ("regular.subset_of_power_s", "s", "fn", _SUBSET),
    ("regular.subset_of_power_calls", "count", "calls", _SUBSET),
    ("regular.concat_s", "s", "fn", ("regular.concat_automata",)),
    ("regular.union_s", "s", "fn", ("regular.union_automata",)),
    ("regular.trim_s", "s", "fn", ("regular.trim",)),
    ("regular.automaton_states_max", "count", "max", "regular.automaton_states_max"),
    ("rank.analyze_s", "s", "fn", ("rank.analyze_machine",)),
    ("rank.edge_bounds_s", "s", "fn", ("rank.edge_bounds",)),
    ("rank.expr_s", "s", "fn", ("rank.expr_rank_bound",)),
    ("harness.enumerate_s", "s", "fn", ("harness.enumerate",)),
    ("harness.accepting_runs_s", "s", "fn", ("harness.accepting_runs",)),
    ("harness.words_enumerated", "count", "size", "harness.words_enumerated"),
    ("harness.enumerate_expr_s", "s", "fn", ("harness.enumerate_expr",)),
    ("cli.load_fixture_s", "s", "fn", ("cli.load_fixture_file",)),
    ("cli.main_s", "s", "fn", ("cli.main",)),
]


def layer_metrics(tracer, traced_passes: int, calls_per_pass: int, overhead: float) -> dict:
    """The per-layer metrics of a traced run, by name: (value, unit)."""
    sizes = tracer.sizes
    metrics: dict[str, tuple[float, str]] = {}
    for name, unit, how, key in PER_LAYER:
        if how in ("fn", "calls", "per_input"):
            inside, calls = tracer.group_time(set(key))
            value = {"fn": inside, "calls": calls, "per_input": calls / calls_per_pass}[how]
            value /= traced_passes
        elif how == "size":
            value = sizes.totals[key] / traced_passes
        elif how == "max":
            value = sizes.maxima.get(key, 0)
        else:
            num, den = sizes.totals[key[0]], sizes.totals[key[1]]
            value = num / den if den else 0.0
        metrics[name] = (value, unit)
    self_by, inside_by, _ = tracer.layer_totals()
    failed_by = tracer.failed_by_layer()
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = (self_by[i] / traced_passes, "s")
        metrics[f"{layer}.inside_s"] = (inside_by[i] / traced_passes, "s")
        metrics[f"{layer}.failed"] = (failed_by[i], "count")
    metrics["trace.spans"] = (len(tracer) / traced_passes, "count")
    metrics["trace.overhead"] = (overhead, "fraction")
    return metrics
