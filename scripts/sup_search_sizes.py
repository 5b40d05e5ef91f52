#!/usr/bin/env python3
"""Measure the sup search on the ROADMAP's large models.

    python3 scripts/sup_search_sizes.py

Two families of models, written to a temporary directory:

- L_k for k = 40, 160 and 640 (`scripts/make_lk_models.py`), under
  `G> a` (sup k - 1), `G (F<= !a)` (sup k) and `G> (a & X (G> a))`;
- ring models for m = 20, 80 and 160: m states on a `true` cycle, each
  with a `!a&!b` edge into an accepting sink that loops on `true`, under
  `G> a`, `(G> a) & (G> b)` and `G> (a & X (G> b))`, all unbounded.

Then `G (F<= !a)` on the fixtures `models/three_leading_a.model` and
`models/universal.model`, both unbounded.

Each query is one in-process `cli.main` call with `--json --trace
--witness --oracle-check`, run three times.  A row prints the outcome,
the bound, the threshold tests (the report's `iterations`), the
configurations summed over the trace rows (`product_states`) and the
least of the three reports' `seconds`.

The script imports the package from the `src` directory next to it, so
running the copy in another checkout measures that tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from make_lk_models import render  # noqa: E402

from cltlbound.cli import main as cli_main  # noqa: E402

LK_FORMULAS = ("G> a", "G (F<= !a)", "G> (a & X (G> a))")
LK_SIZES = (40, 160, 640)
RING_FORMULAS = ("G> a", "(G> a) & (G> b)", "G> (a & X (G> b))")
RING_SIZES = (20, 80, 160)
FIXTURE_FORMULAS = ("G (F<= !a)",)
FIXTURES = ("three_leading_a", "universal")
RUNS = 3


def render_ring(m: int) -> str:
    sink = m
    lines = [
        f"# a cycle of {m} states, each with a way out into an accepting sink",
        "ap: a b",
        f"states: {m + 1}",
        "init: 0",
        "accsets: 1",
    ]
    for i in range(m):
        lines.append(f"trans: {i} {(i + 1) % m} true {{}}")
        lines.append(f"trans: {i} {sink} !a&!b {{}}")
    lines.append(f"trans: {sink} {sink} true {{0}}")
    return "\n".join(lines) + "\n"


def measure(formula: str, path: str) -> str:
    argv = ["--mode", "sup", "-f", formula, "-m", path,
            "--json", "--trace", "--witness", "--oracle-check"]
    reports = []
    for _ in range(RUNS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(argv)
        reports.append(json.loads(out.getvalue()))
    report = reports[0]
    configs = sum(row["product_states"] for row in report["trace"])
    seconds = min(r["seconds"] for r in reports)
    bound = "-" if report["bound"] is None else report["bound"]
    return (
        f"{report['outcome']:>9} {bound!s:>5} {report['iterations']:4d} tests "
        f"{configs:10,d} configs {seconds:9.4f} s  oracle {report['oracle']}"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        models = [(f"L{k}", render(k), LK_FORMULAS) for k in LK_SIZES] + [
            (f"ring{m}", render_ring(m), RING_FORMULAS) for m in RING_SIZES
        ]
        for name, text, formulas in models:
            path = os.path.join(tmp, f"{name}.model")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for formula in formulas:
                print(f"{formula:>19} on {name:<7} {measure(formula, path)}", flush=True)
    for name in FIXTURES:
        path = os.path.join(ROOT, "models", f"{name}.model")
        for formula in FIXTURE_FORMULAS:
            print(f"{formula:>19} on {name:<7} {measure(formula, path)}", flush=True)


if __name__ == "__main__":
    main()
