"""Tests of the benchmark itself, run on tiny versions of its workloads."""

import contextlib
import json
import os
import shutil
import signal

import pytest

import checks
import run
import workloads
from spans import LAYERS, Tracer

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny_run(capsys, workload: str, trace: int):
    args = run.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    )
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGALRM, signal.SIGTERM)}
    try:
        code = run.run(args, scale=0.02, setup_pairs=1)
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[-1]), out


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_emits_every_named_metric(capsys, declared, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, _ = tiny_run(capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))


@contextlib.contextmanager
def tiny(name: str, passes: int = 1, tracer: Tracer | None = None, limit_s: float | None = None):
    """A tiny workload after some plain passes and, given a tracer, one
    traced pass: yields (workload, records, directory of its fixtures)."""
    run.import_ocrank()
    from ocrank import cli

    previous = signal.signal(signal.SIGALRM, run._alarm)
    directory = run.work_directory()
    try:
        workload = workloads.build(name, 7, 0.02)
        if limit_s is not None:
            workload.limit_s = limit_s
        workloads.write_fixtures(workload, directory)
        records = {}
        for _ in range(passes):
            run.run_pass(cli, workload, directory, records)
        if tracer is not None:
            tracer.install()
            try:
                run.run_pass(cli, workload, directory, records, tracer=tracer)
            finally:
                tracer.uninstall()
        yield workload, records, directory
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(directory, ignore_errors=True)


def traced_pass(name: str) -> Tracer:
    tracer = Tracer()
    with tiny(name, tracer=tracer) as (_, records, _):
        assert all(r.mismatches == 0 for r in records.values())
    return tracer


def test_spans_nest_and_self_times_are_not_negative():
    tracer = traced_pass("soup")
    assert len(tracer) > 100
    for i, p in enumerate(tracer.parent):
        assert tracer.start[i] <= tracer.end[i]
        if p >= 0:
            assert p < i
            assert tracer.start[p] <= tracer.start[i] and tracer.end[i] <= tracer.end[p]
    assert min(tracer.self_times()) >= -1e-9
    self_by, inside_by, _ = tracer.layer_totals()
    assert all(s <= t + 1e-9 for s, t in zip(self_by, inside_by))


# The workload that stresses each layer, and a function it must reach there
# through a binding made by ``from .module import name``.
STRESSED = {
    "components": ("ladder", "components.certify_component"),
    "counterset": ("complete", "counterset.reach_sets"),
    "regular": ("soup", "regular.regular_scattered"),
    "rank": ("soup", "rank.analyze_machine"),
    "transducer": ("check-enum", "transducer.build_mprime"),
    "harness": ("check-enum", "harness.accepting_runs"),
    "cli": ("check-enum", "cli.load_fixture_file"),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_records_spans_on_the_workload_that_stresses_it(layer):
    workload, function = STRESSED[layer]
    tracer = traced_pass(workload)
    _, _, spans_by = tracer.layer_totals()
    assert spans_by[LAYERS.index(layer)] > 0
    assert tracer.group_time({function})[1] > 0


def test_wrappers_replace_names_imported_from_other_modules():
    run.import_ocrank()
    import ocrank.cli
    import ocrank.counterset
    import ocrank.harness
    import ocrank.rank
    import ocrank.transducer

    bindings = [
        (ocrank.rank, "reach_sets", ocrank.counterset.reach_sets),
        (ocrank.cli, "reach_sets", ocrank.counterset.reach_sets),
        (ocrank.harness, "build_mprime", ocrank.transducer.build_mprime),
        (ocrank.rank, "build_mprime", ocrank.transducer.build_mprime),
        (ocrank.rank, "minimal_normalize", ocrank.transducer.minimal_normalize),
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for module, name, original in bindings:
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
    finally:
        tracer.uninstall()
    for module, name, original in bindings:
        assert getattr(module, name) is original


def test_a_corrupted_verdict_is_counted_as_failed():
    with tiny("ladder", passes=2) as (workload, records, directory):
        fig1 = next(i for i, c in enumerate(workload.calls) if c.case.family == "fig1")
        records[fig1].reference.out = records[fig1].reference.out.replace("w+3", "w+2")
        problems = run.check_outputs(workload, records, directory)
    assert list(problems) == [fig1]
    assert "fig1 must rank w+3 ConditionalOnScattered" in problems[fig1][0]
    summary = run.summarize(workload, records, problems)
    assert summary.failed == 2 and summary.attempted == 2 * len(workload.calls)
    measured = ("setup_s", "throughput_per_s", "verdict_p50_ms", "verdict_tail_ms",
                "peak_rss_mb")
    metrics = run.end_to_end(summary, {name: (1.0, "") for name in measured})
    assert metrics["passed_share"][0] < 1


def test_a_call_over_the_limit_is_failed_and_not_run_again():
    with tiny("complete", passes=2, limit_s=1e-4) as (workload, records, directory):
        problems = run.check_outputs(workload, records, directory)
    slow = [i for i, r in records.items() if r.over_limit]
    assert slow and all(records[i].runs == 1 for i in slow)
    assert all("limit" in problems[i][0] for i in slow)
    summary = run.summarize(workload, records, problems)
    assert summary.failed >= len(slow) and summary.decided < summary.attempted


def test_timings_follow_the_program_not_the_host():
    outcome = run.Outcome(0, "")
    records = {
        0: run.Record(outcome, times=[0.2, 0.6, 0.1], base_times=[0.1, 0.3, 0.05]),
        1: run.Record(outcome, times=[0.3, 0.9], base_times=[0.3, 0.9]),
        2: run.Record(outcome, times=[0.5]),  # no baseline run: no pair
    }
    program, base = run.paired_times(records)
    # Call 0 took twice as long as the baseline in every pass, call 1 as long.
    assert base == pytest.approx({0: 0.1, 1: 0.6})
    assert program == pytest.approx({0: 0.2, 1: 0.6})
    # A host three times slower slows both alike and changes no ratio.
    slow = {i: run.Record(outcome, times=[3 * t for t in r.times],
                          base_times=[3 * t for t in r.base_times])
            for i, r in records.items()}
    def reported(records):
        program, base = run.paired_times(records)
        metrics = run.relative("soup", run.timing_metrics(program, {})[0],
                               run.timing_metrics(base, {})[0])
        return {name: value for name, (value, _) in metrics.items()}

    assert reported(slow) == pytest.approx(reported(records))
    reference = run.BASELINE_REFERENCE["soup"]
    # 2 calls in 0.8 s against 2 in 0.7 s; the slower call took 0.6 s on both.
    assert reported(records)["throughput_per_s"] == pytest.approx(
        reference["throughput_per_s"] * 0.7 / 0.8)
    # The median of two calls is the lower one: 0.2 s against 0.1 s.
    assert reported(records)["verdict_p50_ms"] == pytest.approx(
        reference["verdict_p50_ms"] * 2)


def test_percentiles_average_the_neighbouring_calls():
    times = [float(i) for i in range(1, 201)]  # 5 points of 200 calls: 10 each side
    assert run.median(times) == pytest.approx(100.0)
    assert run.tail(times) == (95.0, pytest.approx(190.0), 10)
    assert run.median([3.0, 1.0, 2.0]) == 2.0


def test_baseline_is_a_separate_copy_of_ocrank():
    run.import_ocrank()
    baseline = run.import_baseline()
    import ocrank

    assert baseline is not ocrank
    assert baseline.load_fixture_file is not ocrank.load_fixture_file
    assert os.path.dirname(os.path.dirname(baseline.__file__)) == run.BASELINE


def test_checks_reject_wrong_outputs():
    spec = workloads.Spec(("a", "b"), ("s0",), "s0", ("s0",), ((("s0", 0, "s0", "a")),))
    machine = workloads.Case("m", "random", spec.render(), spec)
    call = workloads.Call(machine, "rank")
    commuting = "not scattered\n  word1: ab\n  word2: abab\n  x\n"
    assert checks.check_rank(call, 2, commuting)
    assert not checks.check_rank(call, 2, "not scattered\n  word1: ab\n  word2: ba\n  x\n")
    assert checks.check_rank(call, 3, "unknown: caps\n")  # machines never get Unknown
    assert checks.check_nsets(workloads.Call(machine, "nsets"), 0, "P = x\n", None)
    enum = workloads.Call(machine, "enumerate", ("--input-cap", "4", "--output-cap", "6"))
    assert not checks.check_enumerate(enum, 0, "\n")  # the language is {""}
    assert checks.check_enumerate(enum, 0, "\na\n")
    fig1 = workloads.Case("fig1", "fig1", "", workloads.parse_spec(
        workloads.packaged_fixture("fig1.oct")))
    assert checks.fig1_closed_form(4, 6) == checks.enumerate_spec(fig1.spec, 4, 6)
    # `check` stopping at uncertified counter sets is a refusal: undecided on
    # a random machine, a failure where the verdict is known.
    refused = ("ok   structure: 1 states, 1 transitions\nFAIL counter-sets: state s0: "
               "explored counters are not 1-periodic on [42, 52); rerun with a larger "
               "--counter-cap (currently 52)\n")
    assert not checks.check_check(workloads.Call(machine, "check"), 4, refused)
    assert checks.verdict_kind(workloads.Call(machine, "check"), 4, refused) == "Refused"
    assert not checks.decided(workloads.Call(machine, "check"), 4, refused)
    assert checks.check_check(workloads.Call(fig1, "check"), 4, refused)
    other = refused.replace("FAIL counter-sets", "FAIL structure")
    assert checks.check_check(workloads.Call(machine, "check"), 4, other)


def test_rendered_counter_sets_are_read_back():
    assert checks.upset_member("{2} ∪ {5+6t}", 2)
    assert checks.upset_member("{2} ∪ {5+6t}", 11)
    assert not checks.upset_member("{2} ∪ {5+6t}", 5 + 3)
    assert checks.upset_member("{3t}", 0) and not checks.upset_member("{3t}", 4)
    assert checks.upset_member("{1,4}", 4) and not checks.upset_member("∅", 0)
