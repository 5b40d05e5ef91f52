"""Per-layer tracing from outside the program.

A Tracer replaces functions at the import sites their callers use with
wrappers that record a span per call: name, start, end, parent span and
query id, plus a few sizes read off the arguments or the result.  Spans
stay in memory; `layer_metrics` folds them into the per-layer figures and
`write_spans` dumps them once, at the end of a run.  `restore` puts every
original function back.

Only the traced run creates a Tracer; the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _automaton_size(span, args, result):
    span[5] = (result.num_states, len(result.transitions), result.num_acc_sets)


def _prune_size(span, args, result):
    span[5] = (args[0].num_states, result.num_states)


def _found(span, args, result):
    span[5] = result is not None


def _graph_size(span, args, result):
    span[5] = (args[0], len(args[1]))


def _passes(span, args, result):
    span[5] = len(result.trace)


# (module, attribute, span name, size probe).  Each function is wrapped
# where its caller looks it up, so a call is seen from the module that makes
# it: cegar's product, cli's value_on_lasso, and accepting_components once
# from automaton (threshold tests) and once from emptiness.
TARGETS = (
    ("cltlbound.cli", "parse_formula", "formula.parse", None),
    ("cltlbound.cli", "negate_dual", "formula.negate_dual", None),
    ("cltlbound.cli", "load_model", "model.load", None),
    ("cltlbound.cli", "parse_lasso", "words.parse", None),
    ("cltlbound.cli", "compute_sup_bound", "cegar.compute_sup_bound", _passes),
    ("cltlbound.cli", "compute_inf_bound", "cegar.compute_inf_bound", _passes),
    ("cltlbound.cli", "build_counter_automaton", "translate.build", _automaton_size),
    ("cltlbound.cli", "prune_dominated", "translate.prune", _prune_size),
    ("cltlbound.cli", "value_on_lasso", "automaton.value_on_lasso", None),
    ("cltlbound.cegar", "instantiate", "formula.instantiate", None),
    ("cltlbound.cegar", "negate_dual", "formula.negate_dual", None),
    ("cltlbound.cegar", "build_counter_automaton", "translate.build", _automaton_size),
    ("cltlbound.cegar", "prune_dominated", "translate.prune", _prune_size),
    ("cltlbound.cegar", "synchronized_product", "automaton.product", _automaton_size),
    ("cltlbound.cegar", "find_accepting_lasso", "emptiness.find_lasso", _found),
    ("cltlbound.cegar", "check_lasso_run", "emptiness.check_run", None),
    ("cltlbound.cegar", "run_value", "cegar.run_value", None),
    ("cltlbound.cegar", "_sup_direct", "cegar.sup_direct", None),
    ("cltlbound.cegar", "_sup_via_dual", "cegar.sup_via_dual", None),
    ("cltlbound.cegar", "_pruned", "cegar.pruned", None),
    ("cltlbound.cegar", "_fish_word", "cegar.fish_word", None),
    ("cltlbound.oracle", "value_sup", "oracle.value_sup", None),
    ("cltlbound.oracle", "value_inf", "oracle.value_inf", None),
    ("cltlbound.oracle", "eval_ltl_on_lasso", "oracle.eval", None),
    ("cltlbound.oracle", "instantiate", "formula.instantiate", None),
    ("cltlbound.automaton", "accepting_components", "graphs.scc.automaton", _graph_size),
    ("cltlbound.emptiness", "accepting_components", "graphs.scc.emptiness", _graph_size),
)

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        # A span is [name, start, end, parent index, query id, sizes].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._query = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, probe in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, probe))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def query(self, call, *args):
        """Run one query as a root span with its own query id."""
        self._query += 1
        # A deadline can land between a wrapper's end and its pop.
        self._open.clear()
        return self._wrap(call, ROOT_SPAN, None)(*args)

    def _wrap(self, func, name, probe):
        spans, stack = self.spans, self._open

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._query, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe(span, args, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, query, sizes in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "query": query, "sizes": sizes,
                }) + "\n")


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per pass of the workload, as name -> (value, unit).

    Self time is a span's duration minus the time its child spans cover.
    Ratios whose denominator is zero (a layer that did no work) read 0.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child: list[float] = [0.0] * len(spans)
    for span in spans:
        name, start, end, parent = span[0], span[1], span[2], span[3]
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = {}
    for i, span in enumerate(spans):
        layer = span[0]
        self_time[layer] = self_time.get(layer, 0.0) + (span[2] - span[1]) - child[i]

    def sizes(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    built = sizes("translate.build")
    pruned = sizes("translate.prune")
    products = sizes("automaton.product")
    found = sizes("emptiness.find_lasso")
    scc = {caller: sizes(f"graphs.scc.{caller}") for caller in ("automaton", "emptiness")}

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value / passes if unit != "ratio" else value, unit)

    def secs(name):  # "<span>.s"
        put(name, total.get(name[:-2], 0.0), "s/pass")

    def count(name):  # "<span>.calls"
        put(name, calls.get(name[:-6], 0), "calls/pass")

    secs("formula.parse.s")
    count("formula.instantiate.calls")
    secs("formula.instantiate.s")
    secs("formula.negate_dual.s")
    secs("model.load.s")
    secs("words.parse.s")
    count("translate.build.calls")
    secs("translate.build.s")
    put("translate.build.states", sum(b[0] for b in built), "states/pass")
    put("translate.build.transitions", sum(b[1] for b in built), "edges/pass")
    put("translate.build.acc_sets", sum(b[2] for b in built), "sets/pass")
    secs("translate.prune.s")
    put("translate.prune.kept_states_ratio",
        ratio(sum(p[1] for p in pruned), sum(p[0] for p in pruned)), "ratio")
    put("cegar.passes", sum(sizes("cegar.compute_sup_bound"))
        + sum(sizes("cegar.compute_inf_bound")), "count/pass")
    secs("cegar.run_value.s")
    put("cegar.self.s", sum(v for k, v in self_time.items() if k.startswith("cegar.")),
        "s/pass")
    count("automaton.product.calls")
    secs("automaton.product.s")
    put("automaton.product.states", sum(p[0] for p in products), "states/pass")
    put("automaton.product.transitions", sum(p[1] for p in products), "edges/pass")
    count("automaton.value_on_lasso.calls")
    secs("automaton.value_on_lasso.s")
    put("automaton.threshold_tests", len(scc["automaton"]), "calls/pass")
    put("automaton.lasso_configs", sum(g[0] for g in scc["automaton"]), "nodes/pass")
    put("automaton.lasso_edges", sum(g[1] for g in scc["automaton"]), "edges/pass")
    count("emptiness.find_lasso.calls")
    secs("emptiness.find_lasso.s")
    put("emptiness.nonempty_ratio", ratio(sum(found), len(found)), "ratio")
    count("emptiness.check_run.calls")
    secs("emptiness.check_run.s")
    for caller in ("emptiness", "automaton"):
        span_name = f"graphs.scc.{caller}"
        count(f"{span_name}.calls")
        secs(f"{span_name}.s")
        put(f"{span_name}.nodes", sum(g[0] for g in scc[caller]), "nodes/pass")
        put(f"{span_name}.edges", sum(g[1] for g in scc[caller]), "edges/pass")
    secs("oracle.value_sup.s")
    secs("oracle.value_inf.s")
    count("oracle.eval.calls")
    secs("oracle.eval.s")
    put("cli.self.s", self_time.get(ROOT_SPAN, 0.0), "s/pass")
    return out
