"""The ocrank benchmark: seeded workloads through the ``ocrank`` command line.

Run from the root of a source checkout::

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

One process, one caller, a closed loop: each call (one command on one
fixture) starts only after the previous one returned, as a user waiting on
each verdict would run them.  A first pass runs every call once; its
outputs are checked by code that did not produce them (``checks.py``), and
every later pass must print exactly the same.  Timed passes then repeat
while the next one still fits into ``--seconds``.

Timings are paired.  The host this was built on runs ~30% faster or ~40%
slower for spells of a few seconds and drifts by tens of percent over
minutes, so a wall-clock time alone says more about the host than about
the program.  In the timed passes every call of the program is therefore
followed (or, in every other pass, preceded) by the same call on a frozen
copy of ocrank, ``bench/baseline/ocrank_baseline``: the version at which
the benchmark was defined.  The two run milliseconds apart in one process,
so they meet the same host speed, and the ratio of their times measures
the program alone.  Reported times (and the peak memory, measured the
same way in two forked processes) are the program's at the speed of the
host the benchmark was defined on (see ``relative``); the readable report
prints the raw values beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead, whose traced passes alternate with untraced ones
so that the tracing overhead is measured in the same process.  The exit
code is 0 when every output passed its checks, 1 when one did not, and 2
when the benchmark could not run at all.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(BENCH_DIR, "baseline")

# Pairs of fresh processes measured for setup_s: one sets up the program,
# the other the baseline.  They start between passes, so that the samples
# are spread over the run.
SETUP_PAIRS = 4

# The baseline's own timings and peak memory on the host the benchmark was
# defined on (2 cores of a shared Intel Xeon at 2.0 GHz), medians over five
# seeds taken while the workloads were sized.  They only fix the scale in
# which the program's values are reported; see `relative`.
BASELINE_REFERENCE = {
    "ladder": {"setup_s": 0.4071, "throughput_per_s": 16.41, "verdict_p50_ms": 16.77,
               "verdict_tail_ms": 86.59, "peak_rss_mb": 38.69},
    "complete": {"setup_s": 0.4553, "throughput_per_s": 24.93, "verdict_p50_ms": 11.29,
                 "verdict_tail_ms": 47.37, "peak_rss_mb": 33.78},
    "soup": {"setup_s": 0.6421, "throughput_per_s": 212.0, "verdict_p50_ms": 4.071,
             "verdict_tail_ms": 10.35, "peak_rss_mb": 35.11},
    "check-enum": {"setup_s": 0.4467, "throughput_per_s": 221.3, "verdict_p50_ms": 2.765,
                   "verdict_tail_ms": 14.16, "peak_rss_mb": 34.34},
}
# Soup machines whose RankBound is confronted with a bounded density probe.
PROBED_MACHINES = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


class OverLimit(Exception):
    """A call ran past the workload's per-call wall limit."""


def import_ocrank():
    """Import ocrank from this checkout's ``src``, and from nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "ocrank")):
        raise BenchError(f"no ocrank sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ocrank

    if os.path.dirname(os.path.dirname(os.path.abspath(ocrank.__file__))) != SRC:
        raise BenchError(f"ocrank was imported from {ocrank.__file__}, not from {SRC}")
    return ocrank


def import_baseline():
    """Import the frozen baseline copy of ocrank that ships with the benchmark."""
    if BASELINE not in sys.path:
        sys.path.insert(0, BASELINE)
    import ocrank_baseline

    return ocrank_baseline


def work_directory() -> str:
    base = os.path.join(ROOT, ".bench_build")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="ocrank-", dir=base)


def set_up(workload_name: str, seed: int, scale: float, directory: str, package=None,
           write: bool = True):
    """Import ocrank (or ``package``), build the inputs, write them (unless
    they are in ``directory`` already) and parse each once."""
    package = package or import_ocrank()
    workload = workloads.build(workload_name, seed, scale)
    if write:
        workloads.write_fixtures(workload, directory)
    for case in workload.cases:
        package.load_fixture_file(os.path.join(directory, case.name + ".oct"))
    return workload


def setup_probe(args) -> None:
    """Child process: print the seconds from start to inputs parsed.  The
    fixture files are the parent's, so that no disk writes are timed."""
    package = import_baseline() if args.setup_probe == "baseline" else import_ocrank()
    set_up(args.workload, args.seed, args.scale, args.fixtures, package, write=False)
    print(f"{time.perf_counter() - T_PROCESS:.6f}")


def measure_setup(args, which: str, directory: str, scale: float) -> float:
    """Set-up time of one fresh child process, of the program or the baseline."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", which,
         "--workload", args.workload, "--seed", str(args.seed), "--fixtures", directory,
         "--scale", str(scale)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure_setup_pair(args, directory: str, scale: float,
                       baseline_first: bool) -> tuple[float, float]:
    """(program, baseline) set-up times of two fresh processes in a row."""
    if baseline_first:
        base = measure_setup(args, "baseline", directory, scale)
        return measure_setup(args, "program", directory, scale), base
    program = measure_setup(args, "program", directory, scale)
    return program, measure_setup(args, "baseline", directory, scale)


# ---------------------------------------------------------------------------
# Running calls


@dataclass
class Outcome:
    code: int | None  # None: raised or went over the limit
    out: str
    error: str = ""  # what was raised, or "over-limit"
    err: str = ""  # what ocrank wrote to stderr


@dataclass
class Record:
    """One call across passes: its first output, how later ones compared,
    and the seconds of its paired runs.  ``times[k]`` and ``base_times[k]``
    are a pair, the program's and the baseline's run in the same pass."""

    reference: Outcome
    runs: int = 0
    mismatches: int = 0  # later runs that raised or printed something else
    over_limit: bool = False  # some run went over the limit; no more runs
    times: list[float] = field(default_factory=list)
    base_times: list[float] = field(default_factory=list)


def _alarm(signum, frame):
    raise OverLimit()


def run_call(cli, call, directory: str, limit: float) -> tuple[float, Outcome]:
    out, err = io.StringIO(), io.StringIO()
    # Each call starts with an empty young generation, as in a fresh
    # process, so that the collections it triggers do not depend on the
    # calls before it; the two runs of a pair then collect alike.
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv(directory))
        outcome = Outcome(code, out.getvalue(), err=err.getvalue())
    except OverLimit:
        outcome = Outcome(None, out.getvalue(), "over-limit")
    except Exception as exc:  # a traceback from ocrank is a failed call
        outcome = Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, outcome


def run_pass(cli, workload, directory, records: dict, *, tracer=None, baseline=None,
             baseline_first: bool = False) -> float:
    """Run every call once and return the seconds taken.

    The first outcome of a call becomes its record, and the pass that makes
    it is not timed; a call that went over the limit once is not run again.
    Given the baseline's ``cli``, each call of the program is paired with
    the same call on the baseline, run right after it or, with
    ``baseline_first``, right before it.
    """
    t0 = time.perf_counter()
    for index, call in enumerate(workload.calls):
        record = records.get(index)
        if record is not None and record.over_limit:
            continue
        if tracer is not None:
            tracer.sizes.call = index
        base = None
        if baseline is not None and baseline_first:
            base = run_call(baseline, call, directory, workload.limit_s)
        elapsed, outcome = run_call(cli, call, directory, workload.limit_s)
        if baseline is not None and not baseline_first:
            base = run_call(baseline, call, directory, workload.limit_s)
        if record is None:
            records[index] = Record(outcome, runs=1, over_limit=outcome.error == "over-limit")
            continue
        record.runs += 1
        if outcome.error == "over-limit":
            record.over_limit = True
            if tracer is not None:
                tracer.recover()
            continue
        if outcome != record.reference:
            record.mismatches += 1
        if base is not None and base[1].code is not None:  # one that raised makes no pair
            record.times.append(elapsed)
            record.base_times.append(base[0])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Checking


def check_outputs(workload, records, directory) -> dict[int, list[str]]:
    """Problems per call index, found by code independent of the call."""
    from ocrank import harness, load_fixture_file
    from ocrank.rank import RocAtom

    def machine(case):
        return load_fixture_file(os.path.join(directory, case.name + ".oct")).value

    problems: dict[int, list[str]] = {}
    oracles: dict[str, object] = {}
    bounds: list[int] = []
    for index, call in enumerate(workload.calls):
        ref = records[index].reference
        if records[index].over_limit:
            problems[index] = [f"over the {workload.limit_s:g} s limit"]
            continue
        if ref.code is None:
            problems[index] = [ref.error]
            continue
        if call.command == "rank":
            found = checks.check_rank(call, ref.code, ref.out)
            if not found and call.case.family == "random" \
                    and checks.parse_rank(ref.code, ref.out)[0] == "RankBound":
                bounds.append(index)
        elif call.command == "nsets":
            name = call.case.name
            if name not in oracles:
                oracles[name] = harness.upset_oracle(machine(call.case), checks.ORACLE_BOUND)
            found = checks.check_nsets(call, ref.code, ref.out, oracles[name])
        elif call.command == "check":
            found = checks.check_check(call, ref.code, ref.out)
        else:
            found = checks.check_enumerate(call, ref.code, ref.out)
        if found:
            problems[index] = found
    # A certified bound must never meet bounded density evidence.  The probe
    # is slow, so it runs on a seeded handful of machines only.
    rng = random.Random(f"probe:{workload.seed}")
    for index in rng.sample(bounds, min(PROBED_MACHINES, len(bounds))):
        witness = harness.probe_density(RocAtom(machine(workload.calls[index].case)))
        if witness is not None:
            problems[index] = [
                f"RankBound, yet the probe found distinct roots {witness.word1!r}, {witness.word2!r}"
            ]
    return problems


# ---------------------------------------------------------------------------
# Metrics


PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# A percentile is the mean of the per-call times ranked within this many
# percentile points of it: one call's time moves more from run to run than
# the mean of its neighbours does.
QUANTILE_HALF_WINDOW = 5


def at_rank(ordered: list[float], rank: int) -> float:
    """The mean of the sorted times around 1-based ``rank``."""
    half = math.floor(QUANTILE_HALF_WINDOW / 100 * len(ordered))
    return statistics.fmean(ordered[max(0, rank - 1 - half):rank + half])


def median(times: list[float]) -> float:
    ordered = sorted(times)
    return at_rank(ordered, math.ceil(len(ordered) / 2))


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest usual percentile with at least 10 samples beyond it.

    Returns (percentile, value, samples beyond).  With fewer than 40
    samples no such percentile exists and the median stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, at_rank(ordered, rank), n - rank
    rank = math.ceil(n / 2)
    return 50.0, at_rank(ordered, rank), n - rank


@dataclass
class Summary:
    attempted: int
    failed: int
    decided: int
    kinds: Counter


def summarize(workload, records, problems) -> Summary:
    """Counts over every call of every pass.

    A call with a problem (its first output failed a check, it raised or it
    went over the limit) counts as failed in every pass; otherwise a later
    run that raised or printed something else than the first counts as
    failed once.
    """
    attempted = failed = decided = 0
    kinds: Counter = Counter()
    for index, record in records.items():
        call, ref = workload.calls[index], record.reference
        attempted += record.runs
        kind = ref.error.split(":")[0] or checks.verdict_kind(call, ref.code, ref.out)
        kinds[kind] += record.runs
        if index in problems:
            failed += record.runs
        else:
            failed += record.mismatches
            if checks.decided(call, ref.code, ref.out):
                decided += record.runs - record.mismatches
    return Summary(attempted, failed, decided, kinds)


def raw_times(records) -> dict[int, float]:
    """Each call's median wall-clock time over its paired runs."""
    return {i: statistics.median(r.times) for i, r in records.items() if r.times}


def paired_times(records) -> tuple[dict[int, float], dict[int, float]]:
    """Each call's time on the program and on the baseline, at the same
    host speed.

    The baseline's is its median over the paired passes.  The program's is
    that times the median, over the same passes, of the program's time
    over the baseline's in the same pass: the two runs of a pair are
    milliseconds apart, so a spell of a slow or fast host moves both.
    """
    pairs = {i: (r.times, r.base_times) for i, r in records.items() if r.base_times}
    base = {i: statistics.median(b) for i, (_, b) in pairs.items()}
    program = {
        i: statistics.median(t / b for t, b in zip(*pairs[i])) * base[i] for i in pairs
    }
    return program, base


def relative(workload_name: str, program: dict, baseline: dict) -> dict:
    """The program's timings and peak memory, as on the host the benchmark
    was defined on: each is the program's value over the baseline's in this
    run, times the baseline's value there (`BASELINE_REFERENCE`).

    At the commit that froze the baseline every ratio is about 1, whatever
    the host's speed and whichever inputs the seed drew (the largest
    automaton one of them builds sets the peak memory); a change to the
    program moves the ratio of each metric it moves.
    """
    reference = BASELINE_REFERENCE[workload_name]
    return {
        name: (value / baseline[name][0] * reference[name], unit)
        for name, (value, unit) in program.items()
    }


def timing_metrics(times: dict[int, float], problems) -> tuple[dict, float, int]:
    """throughput_per_s, verdict_p50_ms and verdict_tail_ms of per-call times;
    also the tail's percentile and the number of calls beyond it."""
    good = sum(1 for i in times if i not in problems)
    pct, tail_s, beyond = tail(list(times.values()))
    return {
        "throughput_per_s": (good / sum(times.values()), "inputs/s"),
        "verdict_p50_ms": (1000 * median(list(times.values())), "ms"),
        "verdict_tail_ms": (1000 * tail_s, "ms"),
    }, pct, beyond


def end_to_end(summary, measured: dict) -> dict:
    """Every end-to-end metric, given the measured ones: the four timings
    and peak_rss_mb."""
    return {
        "setup_s": measured["setup_s"],
        "throughput_per_s": measured["throughput_per_s"],
        "verdict_p50_ms": measured["verdict_p50_ms"],
        "verdict_tail_ms": measured["verdict_tail_ms"],
        "decided_share": (summary.decided / summary.attempted, "fraction"),
        "passed_share": ((summary.attempted - summary.failed) / summary.attempted, "fraction"),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


# ---------------------------------------------------------------------------
# Reporting


def print_traced_report(tracer, workload, records, traced_time: float) -> None:
    self_by, inside_by, spans_by = tracer.layer_totals()
    print(f"# layers over {traced_time:.3f} s of traced passes "
          "(inside: time within the layer's outermost spans; self: minus callees)")
    for i, layer in enumerate(LAYERS):
        print(f"  {layer:<11} inside {inside_by[i] / traced_time:7.1%}  "
              f"self {self_by[i] / traced_time:7.1%}  spans {spans_by[i]}")
    print("# functions: calls, time inside, self time (seconds, all traced passes)")
    for name, calls, inside, self_t in tracer.function_table():
        print(f"  {name:<42} {calls:>9} {inside:10.4f} {self_t:10.4f}")
    print("# size drivers per call: |Q| |T| after normalization, P, leveled states "
          "and transitions, largest SCC, verdict kind")
    for index, call in enumerate(workload.calls):
        row = tracer.sizes.rows.get(index, {})
        ref = records[index].reference
        kind = ref.error.split(":")[0] or checks.verdict_kind(call, ref.code, ref.out)
        cells = " ".join(f"{k}={row[k]}" for k in
                         ("Q", "T", "P", "leveled_states", "leveled_transitions", "largest_scc")
                         if k in row)
        print(f"  {call.label:<28} {cells} verdict={kind}")


def emit(correct: bool, summary: Summary, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ladder, complete, soup, check-enum, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH", help="with --trace 1, dump every span here")
    parser.add_argument("--setup-probe", choices=("program", "baseline"), help=argparse.SUPPRESS)
    parser.add_argument("--fixtures", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fork_memory_pass(cli, workload, directory) -> tuple[int, int]:
    """Start a forked copy of this process that runs every call once, on the
    program or the baseline (``cli``), and then writes its peak resident
    memory to a pipe.  A forked process's peak starts from its resident
    memory at the fork, so copies forked together start alike and nothing
    this process does later counts.  Returns (pid, read end of the pipe)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            run_pass(cli, workload, directory, {})
            os.write(write, str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss).encode())
            code = 0
        except BaseException as exc:
            os.write(2, f"bench: forked memory pass: {type(exc).__name__}: {exc}\n".encode())
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def memory_pass_peak_kb(child: tuple[int, int], kill: bool = False) -> int:
    """Wait for a forked memory pass (killing it first with ``kill``) and
    return its peak resident memory in KiB."""
    pid, read = child
    if kill:
        os.kill(pid, signal.SIGKILL)
    with os.fdopen(read) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise BenchError("a forked memory pass failed")
    return int(text)


def timed_passes(args, cli, baseline, workload, directory, records, scale: float,
                 setup_pairs: int):
    """Paired passes of the program and the baseline until ``--seconds``
    have gone by, with the set-up pairs between them.  Returns the seconds
    of each pass and the (program, baseline) set-up time pairs."""
    passes: list[float] = []
    setups: list[tuple[float, float]] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Which of the two runs first alternates from pass to pass, so that
        # neither always meets caches the other just warmed.
        passes.append(run_pass(cli, workload, directory, records, baseline=baseline,
                               baseline_first=len(passes) % 2 == 1))
        if len(setups) < setup_pairs:
            setups.append(measure_setup_pair(args, directory, scale, len(setups) % 2 == 1))
        # Stop where the next pass would end past the deadline.
        if time.perf_counter() + passes[-1] > deadline:
            break
    while len(setups) < setup_pairs:
        setups.append(measure_setup_pair(args, directory, scale, len(setups) % 2 == 1))
    return passes, setups


def traced_passes(args, cli, workload, directory, records, tracer):
    """Untraced and traced passes of the program in turn until ``--seconds``
    have gone by; returns the seconds of each."""
    passes: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(cli, workload, directory, records))
        tracer.install()
        try:
            traced.append(run_pass(cli, workload, directory, records, tracer=tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() + passes[-1] + traced[-1] > deadline:
            break
    return passes, traced


def print_failures(workload, records, problems) -> None:
    for index, found in sorted(problems.items()):
        call = workload.calls[index]
        print(f"# FAILED {call.label}: {'; '.join(found)}")
        if records[index].over_limit:
            print("#   fixture text: " + call.case.text.replace("\n", " | "))
    for index, record in sorted(records.items()):
        call, ref = workload.calls[index], record.reference
        if index not in problems and ref.code is not None \
                and checks.verdict_kind(call, ref.code, ref.out) == "Refused":
            reason = ref.err.strip() or ref.out.splitlines()[-1].strip()
            print(f"# REFUSED {call.label}: {reason}")
            print("#   fixture text: " + call.case.text.replace("\n", " | "))
        if record.mismatches:
            print(f"# FAILED {call.label}: {record.mismatches} later "
                  "runs raised or printed something else than the first")


def run(args, scale: float = 1.0, setup_pairs: int = SETUP_PAIRS) -> int:
    """Run one workload and print its report; returns the exit code.

    ``scale`` below 1 shrinks the workload, for the benchmark's tests.
    """
    signal.signal(signal.SIGALRM, _alarm)
    # On SIGTERM unwind through the finally below, which removes the files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_ocrank()
    directory = work_directory()
    try:
        workload = set_up(args.workload, args.seed, scale, directory)
        from ocrank import cli

        tracer = Tracer() if args.trace else None
        baseline = None if tracer else import_baseline().cli
        # Every object alive now (imported modules, both copies of ocrank,
        # the workload, its fixture texts) is moved out of the collector's
        # reach: otherwise each full collection during the passes scans the
        # benchmark's own heap too, which took ~25% of a ladder pass and
        # varied from pass to pass.  Objects the program allocates are
        # collected as usual.
        gc.collect()
        gc.freeze()

        # The memory passes are forked before any call has grown this
        # process's heap, and run while this process makes the first pass,
        # which makes each call's reference output and is not timed.
        children = [] if tracer else [
            fork_memory_pass(c, workload, directory) for c in (cli, baseline)]
        records: dict[int, Record] = {}
        try:
            run_pass(cli, workload, directory, records)
        except BaseException:
            for child in children:
                with contextlib.suppress(BenchError):
                    memory_pass_peak_kb(child, kill=True)
            raise
        peaks = [memory_pass_peak_kb(child) for child in children]
        if tracer is None:
            passes, setups = timed_passes(
                args, cli, baseline, workload, directory, records, scale, setup_pairs)
        else:
            passes, traced = traced_passes(args, cli, workload, directory, records, tracer)

        problems = check_outputs(workload, records, directory)
        summary = summarize(workload, records, problems)
        # Going over the time limit is slow, not wrong; anything else is wrong.
        correct = all(records[i].over_limit for i in problems) and not any(
            r.mismatches for r in records.values())

        kind = "paired passes of program and baseline" if tracer is None else "untraced passes"
        print(f"# workload {workload.name}, seed {workload.seed}: {len(workload.calls)} calls "
              f"per pass, closed loop with one caller; {len(passes)} {kind} "
              f"({', '.join(f'{t:.3f}' for t in passes)} s)")
        print(f"  failed_share       {summary.failed / summary.attempted:.6g} fraction")
        print("# verdict kinds: " + ", ".join(
            f"{k} {v / summary.attempted:.1%}" for k, v in sorted(summary.kinds.items())))
        print_failures(workload, records, problems)

        if tracer is None:
            program, base = paired_times(records)
            program_timings, pct, beyond = timing_metrics(program, problems)
            base_timings, *_ = timing_metrics(base, {})
            # The set-up ratio is taken within each pair of processes.
            program_timings["setup_s"] = (statistics.median(
                p / b for p, b in setups) * statistics.median(b for _, b in setups), "s")
            base_timings["setup_s"] = (statistics.median(b for _, b in setups), "s")
            program_timings["peak_rss_mb"] = (peaks[0] / 1024, "MB")
            base_timings["peak_rss_mb"] = (peaks[1] / 1024, "MB")
            metrics = end_to_end(summary, relative(workload.name, program_timings, base_timings))
            raw, *_ = timing_metrics(raw_times(records), problems)
            raw["setup_s"] = (statistics.median(p for p, _ in setups), "s")
            raw["peak_rss_mb"] = program_timings["peak_rss_mb"]
            print("# end-to-end metrics at the defining host's speed; beside them the "
                  "program's raw wall clock and the baseline's, paired, in this run")
            for name, (value, unit) in metrics.items():
                beside = (f"  (raw {raw[name][0]:.6g}, baseline {base_timings[name][0]:.6g})"
                          if name in raw else "")
                print(f"  {name:<18} {value:<12.6g} {unit}{beside}")
            print(f"  verdict_tail_ms is p{pct:g} of {len(records)} calls, {beyond} beyond it"
                  f"{'' if beyond >= 10 else ' (fewer than 10)'}")
            print("  setup pairs (program, baseline): " + ", ".join(
                f"({p:.3f}, {b:.3f})" for p, b in setups) + " s")
            emit(correct, summary, metrics)
        else:
            # Each traced pass follows an untraced one; the ratio within a
            # pair is taken before the median, so drift between pairs cancels.
            overhead = statistics.median(t / p for p, t in zip(passes, traced)) - 1
            print(f"# tracing overhead {overhead:+.1%}: median over adjacent pairs of passes "
                  "of traced time over untraced time")
            print_traced_report(tracer, workload, records, sum(traced))
            if args.spans:
                tracer.write(args.spans)
            calls_per_pass = len(workload.calls) - sum(r.over_limit for r in records.values())
            emit(correct, summary, layer_metrics(tracer, len(traced), calls_per_pass, overhead))
        return 0 if correct else 1
    finally:
        gc.unfreeze()
        shutil.rmtree(directory, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of their metrics."""
    code = 0
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        code = max(code, done.returncode)
        if done.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print(f"# {'metric':<34}" + "".join(f"{name:>14}" for name in results))
    first = next(iter(results.values()), {"metrics": {}})
    for metric, m in first["metrics"].items():
        cells = "".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in results.values())
        print(f"  {metric + ' (' + m['unit'] + ')':<34}{cells}")
    print("# correct: " + ", ".join(f"{n} {r['correct']}" for n, r in results.items()))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except (BenchError, ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
