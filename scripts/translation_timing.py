#!/usr/bin/env python3
"""Time the translation of the heaviest criterion-1 formulas, and their
inf queries.

    python3 scripts/translation_timing.py

The pairs are drawn as criterion 1 draws them (`tests/corpus.py`, seed
20260819, depth 4, props a and b, pairs numbered from 0, no redraw):
pairs 90, 109 and 173 carry 5, 6 and 5 U<= operators, pair 195 carries
10.  For pairs 90, 109 and 173 the script times the U<= formula three
ways, and for pair 195 the first and the last:

- lazily along the pair's word: a `Tableau` read as value mode reads it,
  by walking its whole product with the word (`graphs.reachable_part`);
  it prints the seconds, the tableau states reached and the product's
  nodes and edges;
- whole: `build_counter_automaton`, as `--dot` writes it; it prints
  the seconds and the automaton's states and transitions after live
  slicing;
- inf: `cegar.compute_inf_bound` over the pair's one-word model
  (`tests/corpus.word_model`); it prints the seconds, the outcome and
  bound, and the sizes on the search's `streett` trace row: formula
  states, and the product's reachable nodes and edges.

Each figure comes from one run in this process, so the first row also
pays for warming up the interpreter.  The script imports the package
from the `src` directory next to it, so running the copy in another
checkout times that tree.
"""

from __future__ import annotations

import os
import random
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from corpus import random_formula, random_lasso, word_model  # noqa: E402

from cltlbound.automaton import _ModelProduct  # noqa: E402
from cltlbound.cegar import compute_inf_bound  # noqa: E402
from cltlbound.graphs import reachable_part  # noqa: E402
from cltlbound.translate import Tableau, build_counter_automaton  # noqa: E402

PAIRS = (90, 109, 173, 195)
WHOLE_TOO = (90, 109, 173)


def criterion_1_pairs(count: int) -> list:
    """The first count (formula, word) pairs of criterion 1's stream."""
    rng = random.Random(20260819)
    out = []
    for _ in range(count):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostLE")
        out.append((phi, random_lasso(rng, props=("a", "b"))))
    return out


def lazy(phi, word) -> str:
    start = time.perf_counter()
    tab = Tableau(phi)
    nodes, edges = reachable_part(_ModelProduct(tab, word))
    seconds = time.perf_counter() - start
    return (
        f"lazy  {seconds:7.2f} s  {tab.num_states:6d} tableau states  "
        f"{nodes:6d} lasso nodes  {len(edges):7d} lasso edges"
    )


def whole(phi) -> str:
    start = time.perf_counter()
    aut = build_counter_automaton(phi)
    seconds = time.perf_counter() - start
    return (
        f"whole {seconds:7.2f} s  {aut.num_states:6d} states          "
        f"{len(aut.transitions):6d} transitions"
    )


def inf(phi, word) -> str:
    start = time.perf_counter()
    r = compute_inf_bound(word_model(word, ("a", "b")), phi)
    seconds = time.perf_counter() - start
    streett = r.trace[0]
    return (
        f"inf   {seconds:7.2f} s  {r.outcome} {r.bound}  streett: "
        f"{streett.automaton_states} formula states  {streett.product_states} nodes  "
        f"{streett.product_transitions} edges"
    )


def main() -> None:
    pairs = criterion_1_pairs(max(PAIRS) + 1)
    for i in PAIRS:
        phi, word = pairs[i]
        print(f"pair {i:3d} {lazy(phi, word)}", flush=True)
        if i in WHOLE_TOO:
            print(f"pair {i:3d} {whole(phi)}", flush=True)
        print(f"pair {i:3d} {inf(phi, word)}", flush=True)


if __name__ == "__main__":
    main()
