"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Checks that inputs are a pure function of the seed, that the tracer puts
back every function it wrapped, and that two traced runs of the same
queries count exactly the same work.
"""

from __future__ import annotations

import importlib
import signal
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

# Counts that README.md promises to repeat exactly.
REPEATED_COUNTS = (
    "cegar.passes",
    "translate.build.states",
    "automaton.product.states",
    "automaton.lasso_configs",
    "oracle.eval.calls",
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = workloads.generate(workload, 11)
    again = workloads.generate(workload, 11)
    other = workloads.generate(workload, 12)
    assert first == again
    assert first.files == again.files
    assert first != other
    # The seed changes how inputs are written, not how many there are.
    assert len(first.queries) == len(other.queries)
    assert sorted(q.label for q in first.queries) == sorted(q.label for q in other.queries)


def test_tracer_restores_every_original():
    modules = {name: importlib.import_module(name) for name, *_ in tracing.TARGETS}
    originals = {(name, attr): getattr(modules[name], attr)
                 for name, attr, *_ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, attr), original in originals.items():
            assert getattr(modules[name], attr) is not original, (name, attr)
    finally:
        tracer.restore()
    for (name, attr), original in originals.items():
        assert getattr(modules[name], attr) is original, (name, attr)


def _small_pass(seed: int) -> workloads.Pass:
    """A few quick queries of every workload, none near the deadline."""
    files: dict[str, str] = {}
    queries: list[workloads.Query] = []
    keep = {
        "sup-gap": lambda q: q.model in ("L3.model", "L6.model", "universal.model"),
        "inf-lead": lambda q: q.model.split("-")[0] in ("lead1", "lead3", "a_only.model"),
        "value-corpus": lambda q: int(q.label.rsplit("/", 1)[1]) < 6,
        "value-cap": lambda q: q.label.endswith("at cap 50"),
    }
    for workload, wanted in keep.items():
        pass_ = workloads.generate(workload, seed)
        picked = [q for q in pass_.queries if wanted(q)]
        assert picked, workload
        queries += picked
        files.update({q.model: pass_.files[q.model] for q in picked if q.model})
    return workloads.Pass(files, tuple(queries))


def test_traced_counts_repeat_exactly(tmp_path):
    pass_ = _small_pass(5)
    directory = str(tmp_path / "models")
    run._write_files(pass_, directory)
    cli = importlib.import_module("cltlbound.cli")
    previous = signal.signal(signal.SIGALRM, run._on_deadline)
    try:
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                outcomes = run.run_pass(
                    lambda argv: tracer.query(cli.main, argv), pass_, directory)
            finally:
                tracer.restore()
            assert [o.reason for o in outcomes if o.status != "ok"] == []
            metrics = tracing.layer_metrics(tracer.spans, 1)
            counts.append({name: value for name, (value, unit) in metrics.items()
                           if not unit.startswith("s/")})
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert counts[0] == counts[1]
    for name in REPEATED_COUNTS:
        assert name in counts[0], name
    assert counts[0]["cegar.passes"] > 0
    assert counts[0]["automaton.lasso_configs"] > 0
    assert counts[0]["oracle.eval.calls"] > 0


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(60) == 75.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(5) == 100.0
