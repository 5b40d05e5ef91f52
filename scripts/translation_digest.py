#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed set of formula translations, as the
queries read them.

    python3 scripts/translation_digest.py

Each translation is dumped canonically.  A whole automaton, as the sup
and inf searches build it (`cegar._pruned`), gives its header and its
transitions in order.  A lazy `Tableau` read along one lasso word, as
value mode reads it, gives the word's lasso graph (its product with the
word, `automaton._product_edges`): the number of nodes, the edges in
order, and the number of tableau states reached.  One line per stream
gives the stream's number of dumps and digest, and the last line the
digest of all of them.  The streams, drawn by `tests/corpus.py` with
criterion 3's rule of redrawing formulas with more than four cost
operators:

- `criterion-3`: the first 400 formula/word pairs of criterion 3's R>
  stream, each translated whole and read lazily along its word;
- `criterion-4`: the first 300 formulas of criterion 4's R> stream;
- `criterion-1`: the first 200 pairs of criterion 1's U<= stream, each
  formula and its R> dual translated whole, and the dual read lazily
  along the word (what value mode's check reads);
- `ltl`: 300 plain LTL formula/word pairs, translated whole and lazily.

That is 1,400 whole translations and 900 lazy ones.  The script imports
the package from the `src` directory next to it, so running the copy in
another checkout compares the two trees' automata: equal digests mean
identical automata and lasso graphs, state numbering and edge order
included.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from corpus import random_formula, random_lasso  # noqa: E402

from cltlbound.automaton import _product_edges, _word_rows  # noqa: E402
from cltlbound.cegar import _pruned  # noqa: E402
from cltlbound.formula import cost_operator_count, negate_dual  # noqa: E402
from cltlbound.translate import Tableau  # noqa: E402

PROPS = ("a", "b")


def _draw(rng: random.Random, fragment: str):
    phi = random_formula(rng, depth=4, props=PROPS, fragment=fragment)
    while cost_operator_count(phi) > 4:
        phi = random_formula(rng, depth=4, props=PROPS, fragment=fragment)
    return phi


def _transition(t) -> str:
    return f"{t.src} {t.cube.to_text()} {','.join(t.actions)} {sorted(t.acc)} {t.dst}"


def whole(phi) -> str:
    aut = _pruned(phi)
    head = f"aut {aut.num_states} {aut.init} {aut.num_counters} {aut.num_acc_sets} {aut.ap}"
    return "\n".join([head, *map(_transition, aut.transitions)])


def lasso_graph(tab, word):
    return _product_edges(tab, 0, _word_rows(word, tab.ap))


def lazy(phi, word) -> str:
    tab = Tableau(phi)
    num_nodes, edges = lasso_graph(tab, word)
    lines = [f"nodes {num_nodes}"]
    lines += [f"{e[0]} {e[1]} {sorted(e[2])} {','.join(e[3])}" for e in edges]
    lines.append(f"reached {tab.num_states}")
    return "\n".join(lines)


def streams():
    """(name, list of dump thunks) per stream."""
    rng = random.Random(3)
    c3 = []
    for _ in range(400):
        phi = _draw(rng, "CostGT")
        word = random_lasso(rng, props=PROPS)
        c3 += [lambda phi=phi: whole(phi), lambda phi=phi, w=word: lazy(phi, w)]
    rng = random.Random(4)
    c4 = [lambda phi=_draw(rng, "CostGT"): whole(phi) for _ in range(300)]
    rng = random.Random(20260819)
    c1 = []
    for _ in range(200):
        phi = _draw(rng, "CostLE")
        dual = negate_dual(phi)
        word = random_lasso(rng, props=PROPS)
        c1 += [
            lambda phi=phi: whole(phi),
            lambda dual=dual: whole(dual),
            lambda dual=dual, w=word: lazy(dual, w),
        ]
    rng = random.Random(5)
    ltl = []
    for _ in range(300):
        phi = _draw(rng, "LTL")
        word = random_lasso(rng, props=PROPS)
        ltl += [lambda phi=phi: whole(phi), lambda phi=phi, w=word: lazy(phi, w)]
    return [("criterion-3", c3), ("criterion-4", c4), ("criterion-1", c1), ("ltl", ltl)]


def main() -> None:
    total = hashlib.sha256()
    for name, dumps in streams():
        digest = hashlib.sha256()
        for dump in dumps:
            digest.update(dump().encode() + b"\n\n")
        total.update(digest.digest())
        print(f"{name}: {len(dumps)} dumps {digest.hexdigest()}", flush=True)
    print(f"all: {total.hexdigest()}")


if __name__ == "__main__":
    main()
