#!/usr/bin/env python3
"""Print one JSON report per line for a fixed matrix of CLI queries.

    python3 scripts/report_matrix.py > reports.jsonl

Each line holds the query's argv, its exit code, its standard error and
every field of its `--json` report except `seconds`, which differs from
run to run.  The queries are the README examples, four queries over L3
with a user `--cutoff` below the sound one, 8 sup formulas over every
fixture model and 3 inf formulas over every fixture, all but the README
examples with `--witness --trace --oracle-check`.  The script imports
the package from the `src` directory next to it and runs from the
repository root, so running the copy in another checkout and diffing the
two outputs compares the two trees' behaviour query by query.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cltlbound.cli import main  # noqa: E402

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
]

SUP_FORMULAS = [
    "G (F<= !a)", "G> a", "G> !a", "F<= !a", "F a", "X (G> a)",
    "(F<= !a) | G a", "(G> a) & F (G> !a)",
]
INF_FORMULAS = ["F<= a", "F<= !a", "a U<= b"]
FLAGS = ["--witness", "--trace", "--oracle-check"]


def queries() -> list[list[str]]:
    models = sorted(f"models/{name}" for name in os.listdir(os.path.join(ROOT, "models")))
    out = README + [[*argv, *FLAGS] for argv in CUTOFFS]
    for phi in SUP_FORMULAS:
        out += [["--mode", "sup", "-f", phi, "-m", m, *FLAGS] for m in models]
    for phi in INF_FORMULAS:
        out += [["--mode", "inf", "-f", phi, "-m", m, *FLAGS] for m in models]
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


if __name__ == "__main__":
    run()
