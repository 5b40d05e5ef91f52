#!/usr/bin/env python3
"""Print one JSON report per line for a fixed matrix of CLI queries.

    python3 scripts/report_matrix.py > reports.jsonl

Each line holds the query's argv, its exit code, its standard error and
every field of its `--json` report except `seconds`, which differs from
run to run.  The queries are the README examples, five with a user
`--cutoff` (four over L3, whose values past the cutoff prove nothing, and
`G> a` over every word at cutoff 1, where a run proves the sup
infinite), 8 sup formulas over every fixture model and 4 inf formulas
over every fixture (the plain `F a` is among both, so each fixture's
plain sup and inf show side by side), all but the README examples with
`--witness --trace --oracle-check`, then value mode with
`--oracle-check`:

- 4 formulas, each on words of value 0, 1 and above the default cap;
- `G> a` on a^m | {} {a} (value m - 1) and `F<= b` on a^m | {b} (value
  m) at caps 50 and 200, with m putting each value just below, at and
  just above the cap: the automaton route's check starts from the
  oracle's value, and these lie far from 1, where a search with no
  guess starts;
- the first 20 pairs of each value-corpus stream (the R> stream of
  criterion 3 and the U<= stream of criterion 1, drawn by
  `tests/corpus.py` with criterion 3's rule of redrawing formulas with
  more than four cost operators) at cap 10;

and last the 8 sup and 4 inf formulas over L12 and L21, models of the
sizes the benchmark's `sup-gap` workload draws, with `--witness --trace
--oracle-check`.  They are rendered by `scripts/make_lk_models.py` into
a temporary directory, and the queries run from inside it, so that their
model path reads `L12.model` and `L21.model` in every checkout.

The script imports the package from the `src` directory next to it and
runs from the repository root, so running the copy in another checkout
and diffing the two outputs compares the two trees' behaviour query by
query.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))  # also when imported, as a test does

from corpus import random_formula, random_lasso  # noqa: E402
from make_lk_models import render  # noqa: E402

from cltlbound.cli import main  # noqa: E402
from cltlbound.formula import cost_operator_count, format_formula  # noqa: E402

README = [
    ["--mode", "sup", "-f", "G (F<= !a)", "-m", "models/L3.model", "--witness"],
    ["--mode", "sup", "-f", "G (F<= !a)", "-m", "models/universal.model"],
    ["--mode", "inf", "-f", "F<= !a", "-m", "models/three_leading_a.model", "--witness"],
    ["--mode", "value", "-f", "F<= b", "--word", "{a} {a} | {b}", "--oracle-check"],
    ["--mode", "sup", "-f", "G (F<= !a)", "-m", "models/L8.model", "--trace"],
]

CUTOFFS = [
    ["--mode", "sup", "-f", "G> a", "-m", "models/L3.model", "--cutoff", "0"],
    ["--mode", "sup", "-f", "G> a", "-m", "models/L3.model", "--cutoff", "1"],
    ["--mode", "sup", "-f", "G (F<= !a)", "-m", "models/L3.model", "--cutoff", "1"],
    ["--mode", "inf", "-f", "F<= a", "-m", "models/L3.model", "--cutoff", "0"],
    ["--mode", "sup", "-f", "G> a", "-m", "models/universal.model", "--cutoff", "1"],
]

SUP_FORMULAS = [
    "G (F<= !a)", "G> a", "G> !a", "F<= !a", "F a", "X (G> a)",
    "(F<= !a) | G a", "(G> a) & F (G> !a)",
]
INF_FORMULAS = ["F<= a", "F<= !a", "a U<= b", "F a"]
FLAGS = ["--witness", "--trace", "--oracle-check"]
VALUE_WORDS = {  # words of value 0, 1 and above the default cap
    "F<= b": ["| {b}", "{} | {b}", "| {a}"],
    "a U<= b": ["{a} | {b}", "{} | {b}", "| {a}"],
    "G> a": ["| {}", "{a} {a} | {}", "| {a}"],
    "G (F<= !a)": ["| {}", "{a} | {}", "| {a}"],
}
# L_k models beyond the fixtures' L0-L8, run from a temporary directory.
LARGE_MODELS = (12, 21)
# Values just below, at and just above each cap: value m - 1 for G> a on
# a^m | {} {a}, and m for F<= b on a^m | {b}.
LARGE_CAPS = (50, 200)


def large_value_queries() -> list[list[str]]:
    out = []
    for cap in LARGE_CAPS:
        for phi, word, shift in [("G> a", "| {} {a}", 1), ("F<= b", "| {b}", 0)]:
            for value in (cap - 1, cap, cap + 1):
                text = "{a} " * (value + shift) + word
                out.append(["--mode", "value", "-f", phi, "--word", text,
                            "--cutoff", str(cap), "--oracle-check"])
    return out


# (fragment, seed) of the two value-corpus streams, the pairs taken from
# each and their cap.
CORPUS_STREAMS = [("CostGT", 3), ("CostLE", 20260819)]
CORPUS_PAIRS = 20
CORPUS_CAP = 10


def corpus_queries() -> list[list[str]]:
    out = []
    for fragment, seed in CORPUS_STREAMS:
        rng = random.Random(seed)
        for _ in range(CORPUS_PAIRS):
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment=fragment)
            while cost_operator_count(phi) > 4:
                phi = random_formula(rng, depth=4, props=("a", "b"), fragment=fragment)
            word = random_lasso(rng, props=("a", "b"))
            out.append(["--mode", "value", "-f", format_formula(phi), "--word", str(word),
                        "--cutoff", str(CORPUS_CAP), "--oracle-check"])
    return out


def queries() -> list[list[str]]:
    models = sorted(f"models/{name}" for name in os.listdir(os.path.join(ROOT, "models")))
    out = README + [[*argv, *FLAGS] for argv in CUTOFFS]
    for phi in SUP_FORMULAS:
        out += [["--mode", "sup", "-f", phi, "-m", m, *FLAGS] for m in models]
    for phi in INF_FORMULAS:
        out += [["--mode", "inf", "-f", phi, "-m", m, *FLAGS] for m in models]
    for phi, words in VALUE_WORDS.items():
        out += [["--mode", "value", "-f", phi, "--word", w, "--oracle-check"] for w in words]
    return out + large_value_queries() + corpus_queries()


def large_model_queries() -> list[list[str]]:
    out = []
    for k in LARGE_MODELS:
        out += [["--mode", "sup", "-f", phi, "-m", f"L{k}.model", *FLAGS] for phi in SUP_FORMULAS]
        out += [["--mode", "inf", "-f", phi, "-m", f"L{k}.model", *FLAGS] for phi in INF_FORMULAS]
    return out


def report(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    fields = json.loads(out.getvalue()) if out.getvalue() else {}
    fields.pop("seconds", None)
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), **fields}


def run() -> None:
    os.chdir(ROOT)
    for argv in queries():
        print(json.dumps(report(argv)), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for k in LARGE_MODELS:
            with open(os.path.join(tmp, f"L{k}.model"), "w", encoding="utf-8") as handle:
                handle.write(render(k))
        os.chdir(tmp)
        try:
            for argv in large_model_queries():
                print(json.dumps(report(argv)), flush=True)
        finally:
            os.chdir(ROOT)


if __name__ == "__main__":
    run()
