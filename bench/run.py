#!/usr/bin/env python3
"""Benchmark of cltlbound's command line queries, end to end and per layer.

    python3 bench/run.py --workload sup-gap --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from `src/`.
One process, one caller, a closed loop: the workload's pass of queries
(see workloads.py) runs through `cltlbound.cli.main` in-process, whole
passes at a time, until `--seconds` have gone by.  Every answer is
checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
one untraced pass runs first, then wrappers go in (tracing.py) and the
metrics are the per-layer ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402
import workloads  # noqa: E402

# A query that runs longer than this is stopped and counted as failed.
DEADLINE_S = 5.0
# Set-up is repeated this many times per run; setup_s is the median.
SETUP_ROUNDS = 9
SHARED_FLAGS = ("--json", "--witness", "--oracle-check")
# What the speed probe takes on an unloaded core of the machine the
# benchmark was sized on; query times are reported at this speed.
PROBE_REFERENCE_S = 0.0008
# Candidate tail percentiles; the tail is the highest one with at least
# ten samples beyond it in TAIL_PASSES passes, about what a 20 s run makes.
# Counting the run's own passes instead would move the tail to another
# percentile whenever the machine ran faster or slower.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_PASSES = 3


class DeadlineExceeded(BaseException):
    """Raised into a running query by the deadline timer.  A BaseException,
    so that no `except Exception` in the program can swallow it."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# set-up


def probe() -> float:
    """Time a fixed piece of pure-Python work (tuples, dicts, frozensets; no
    cltlbound code), with the garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(1500):
            key = (i % 61, i % 17)
            table[key] = table.get(key, 0) + 1
            frozenset((i % 7, i % 11, i % 13))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _import_program():
    """Import cltlbound afresh and return its cli module."""
    for name in [m for m in sys.modules if m == "cltlbound" or m.startswith("cltlbound.")]:
        del sys.modules[name]
    importlib.import_module("cltlbound")
    return importlib.import_module("cltlbound.cli")


def _write_files(pass_: workloads.Pass, directory: str) -> None:
    os.makedirs(directory)
    for name, text in pass_.files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def setup(workload: str, seed: int, workdir: str):
    """Import the program, generate the pass and write its model files,
    SETUP_ROUNDS times.  Returns the cli module, the pass, the directory of
    its files and the set-up times."""
    times = []
    before = probe()
    for r in range(SETUP_ROUNDS):
        start = time.perf_counter()
        cli = _import_program()
        pass_ = workloads.generate(workload, seed)
        directory = os.path.join(workdir, f"round{r}")
        _write_files(pass_, directory)
        elapsed = time.perf_counter() - start
        after = probe()
        times.append(elapsed / ((before + after) / 2 / PROBE_REFERENCE_S))
        before = after
    return cli, pass_, directory, times


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class Outcome:
    """How one query ended: `status` is "ok", "no-answer" (raised or passed
    the deadline) or "wrong"; `charged_s` is its time, the deadline if it
    failed."""

    query: workloads.Query
    status: str
    reason: str | None
    charged_s: float
    # Slowdown of the machine around the query: the speed probes before and
    # after it, over PROBE_REFERENCE_S.
    slowdown: float = 1.0

    @property
    def reference_s(self) -> float:
        """The query's time at the reference speed; a failed query is
        charged the deadline as it is."""
        return self.charged_s / self.slowdown if self.status == "ok" else self.charged_s


def _argv(query: workloads.Query, directory: str) -> list[str]:
    argv = list(query.argv)
    if query.model is not None:
        argv += ["-m", os.path.join(directory, query.model)]
    return argv + list(SHARED_FLAGS)


def _verdict(query: workloads.Query, code: int, text: str) -> str | None:
    """None when the report carries the known answer, else the reason."""
    try:
        report = json.loads(text)
    except ValueError:
        return f"exit {code} without a JSON report"
    if report.get("oracle") != "ok":
        return f"oracle check: {report.get('oracle')}"
    if code != query.want_code:
        return f"exit {code}, expected {query.want_code}"
    for key, want in query.want:
        if report.get(key) != want:
            return f"{key} {report.get(key)!r}, expected {want!r}"
    return None


def run_query(main, query: workloads.Query, directory: str) -> Outcome:
    """One call of `main` under the deadline, its answer checked."""
    out = io.StringIO()
    code = None
    reason = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(_argv(query, directory))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        reason = f"passed the {DEADLINE_S:g} s deadline"
    except Exception as exc:  # any crash of the program is a failed query
        reason = f"raised {type(exc).__name__}"
    elapsed = time.perf_counter() - start
    if reason is not None:
        return Outcome(query, "no-answer", reason, DEADLINE_S)
    reason = _verdict(query, code, out.getvalue())
    if reason is not None:
        return Outcome(query, "wrong", reason, DEADLINE_S)
    return Outcome(query, "ok", None, elapsed)


def run_pass(main, pass_: workloads.Pass, directory: str) -> list[Outcome]:
    outcomes = []
    before = probe()
    for query in pass_.queries:
        # Start every query from a collected heap, as a fresh CLI process
        # would, so that no query pays for the garbage of the one before.
        gc.collect()
        outcome = run_query(main, query, directory)
        after = probe()
        outcomes.append(dataclasses.replace(
            outcome, slowdown=(before + after) / 2 / PROBE_REFERENCE_S))
        before = after
    return outcomes


def run_passes(main, pass_, directory, seconds: float):
    """Whole passes until `seconds` have gone by; (outcomes per pass, pass
    walls)."""
    passes: list[list[Outcome]] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(main, pass_, directory))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return passes, walls


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of n samples
    beyond it; 100 (the maximum) when there are too few samples."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 100.0


def end_to_end(passes: list[list[Outcome]], setup_times: list[float]):
    outcomes = [o for p in passes for o in p]
    answered = sum(o.status == "ok" for o in outcomes)
    tail_p = tail_percentile(TAIL_PASSES * len(passes[0]))
    # Every pass runs the same queries.  Each query's time is its median
    # over the passes, at the reference speed; the percentiles are then
    # ranks among the queries of one pass.
    per_query = sorted(statistics.median(p[i].reference_s for p in passes)
                       for i in range(len(passes[0])))
    metrics = {
        "queries_per_s": (answered / len(passes) / sum(per_query), "1/s"),
        "query_s.p50": (percentile(per_query, 50), "s"),
        "query_s.tail": (percentile(per_query, tail_p), "s"),
        "answered_share": (answered / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "query_s.tail": f"p{tail_p:g}, {len(outcomes)} samples",
        "passes": f"{len(passes)} of {len(passes[0])} queries, median slowdown "
                  f"{statistics.median(o.slowdown for o in outcomes):.3f}",
    }
    return metrics, notes


def correct(outcomes: list[Outcome]) -> bool:
    """No wrong answer, and no failure except the known ones failing the
    way they are known to fail."""
    return all(
        o.status == "ok" or (o.status == "no-answer" and o.query.known_failure)
        for o in outcomes
    )


def report_failures(outcomes: list[Outcome]) -> None:
    failed = [o for o in outcomes if o.status != "ok"]
    print(f"failed_share {len(failed)}/{len(outcomes)}")
    seen: dict[tuple[str, str, bool], int] = {}
    for o in failed:
        key = (o.query.label, o.reason, o.query.known_failure is not None)
        seen[key] = seen.get(key, 0) + 1
    for (label, reason, known), times in seen.items():
        note = " (known failure)" if known else ""
        print(f"  failed x{times}: {label}: {reason}{note}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "cltlbound")):
        print(f"error: no cltlbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_deadline)
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        cli, pass_, directory, setup_times = setup(args.workload, args.seed, workdir)
        if args.trace:
            outcomes, metrics, notes = _traced(cli, pass_, directory, args)
        else:
            passes, _ = run_passes(cli.main, pass_, directory, args.seconds)
            outcomes = [o for p in passes for o in p]
            metrics, notes = end_to_end(passes, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {unit}{note}")
    if "passes" in notes:
        print(f"  passes {notes['passes']}")
    report_failures(outcomes)
    result = {
        "correct": correct(outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(cli, pass_, directory, args):
    """One untraced pass, then traced passes for the rest of the time."""
    start = time.perf_counter()
    outcomes = run_pass(cli.main, pass_, directory)
    untraced_wall = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, walls = run_passes(
            lambda argv: tracer.query(cli.main, argv), pass_, directory,
            max(0.0, args.seconds - untraced_wall))
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer.spans, len(walls))
    metrics["trace.overhead_s"] = (statistics.median(walls) - untraced_wall, "s/pass")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    return outcomes + [o for p in traced for o in p], metrics, {}


if __name__ == "__main__":
    sys.exit(main())
