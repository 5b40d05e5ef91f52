#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed set of formula translations, and of
value mode's answers, as the queries read them.

    python3 scripts/translation_digest.py

Each translation is dumped canonically.  A whole automaton, as `--dot`
writes it (`cegar._pruned`), gives its
header and its transitions in order.  A lazy `Tableau` read along one
lasso word gives its whole product with the word, the one-path model
(`automaton._ModelProduct`, walked by `graphs.reachable_part` as value
mode's threshold-0 test walks it; its positive tests expand only the
nodes they reach): the number of nodes, the edges in BFS order, and the
number of tableau states reached.
One line per stream gives the stream's number of dumps and digest, and
the last line the digest of all of them.  The streams, drawn by
`tests/corpus.py` with criterion 3's rule of redrawing formulas with
more than four cost operators:

- `criterion-3`: the first 400 formula/word pairs of criterion 3's R>
  stream, each translated whole and read lazily along its word;
- `criterion-4`: the first 300 formulas of criterion 4's R> stream;
- `criterion-1`: the first 200 pairs of criterion 1's U<= stream, each
  formula and its R> dual translated whole, and the dual read lazily
  along the word (what value mode's check reads);
- `ltl`: 300 plain LTL formula/word pairs, translated whole and lazily;
- `values`: value mode's answer (`automaton.value_on_lasso`) on each of
  the 900 formula/word pairs above at cap 10, read as its check reads it
  (`cli._check_value`: an R> formula itself, any other formula's R>
  dual), once with no guess and once with the guess the check passes;
  every bracket starts at -1, where the check starts an R> formula's at
  0, so an answer reads -1 where no run accepts.

That is 1,400 whole translations, 900 lazy ones and 900 value pairs.
The script imports the package from the `src` directory next to it, so
running the copy in another checkout compares the two trees: equal
digests mean identical automata, lasso graphs and values, state
numbering and edge order included.
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

from cltlbound import oracle  # noqa: E402
from cltlbound.automaton import _ModelProduct, value_on_lasso  # noqa: E402
from cltlbound.cegar import _pruned  # noqa: E402
from cltlbound.formula import (  # noqa: E402
    COST_GT,
    COST_LE,
    classify_fragment,
    cost_operator_count,
    negate_dual,
)
from cltlbound.graphs import reachable_part  # noqa: E402
from cltlbound.translate import Tableau  # noqa: E402
from cltlbound.words import ABOVE_CAP  # noqa: E402

PROPS = ("a", "b")
CAP = 10


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
    return reachable_part(_ModelProduct(tab, word))


def lazy(phi, word) -> str:
    tab = Tableau(phi)
    num_nodes, edges = lasso_graph(tab, word)
    lines = [f"nodes {num_nodes}"]
    lines += [f"{e[0]} {e[1]} {sorted(e[2])} {','.join(e[3])}" for e in edges]
    lines.append(f"reached {tab.num_states}")
    return "\n".join(lines)


def values(phi, word) -> str:
    """Value mode's answer for phi on word at cap 10, read as
    `cli._check_value` reads it, with no guess and then with the guess the
    check passes.  An R> formula's own Tableau is read, and the guess is
    the oracle's value; any other formula's R> dual is read, and the guess
    is the dual value the oracle's value implies."""
    frag = classify_fragment(phi)
    if frag == COST_GT:
        source, guess = phi, oracle.value_sup(phi, word, CAP)
    else:
        if frag == COST_LE:
            val = oracle.value_inf(phi, word, CAP)
        else:
            val = 0 if oracle.eval_ltl_on_lasso(phi, word) else ABOVE_CAP
        source = negate_dual(phi)
        guess = val if val is ABOVE_CAP else val - 1
    plain = value_on_lasso(Tableau(source), word, CAP)
    guessed = value_on_lasso(Tableau(source), word, CAP, guess)
    return f"{plain!r} {guessed!r}"


def streams():
    """(name, list of dump thunks) per stream."""
    pairs = []  # the lazily read formula/word pairs, for the values stream
    rng = random.Random(3)
    c3 = []
    for _ in range(400):
        phi = _draw(rng, "CostGT")
        word = random_lasso(rng, props=PROPS)
        pairs.append((phi, word))
        c3 += [lambda phi=phi: whole(phi), lambda phi=phi, w=word: lazy(phi, w)]
    rng = random.Random(4)
    c4 = [lambda phi=_draw(rng, "CostGT"): whole(phi) for _ in range(300)]
    rng = random.Random(20260819)
    c1 = []
    for _ in range(200):
        phi = _draw(rng, "CostLE")
        dual = negate_dual(phi)
        word = random_lasso(rng, props=PROPS)
        pairs.append((phi, word))
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
        pairs.append((phi, word))
        ltl += [lambda phi=phi: whole(phi), lambda phi=phi, w=word: lazy(phi, w)]
    vals = [lambda phi=phi, w=word: values(phi, w) for phi, word in pairs]
    return [
        ("criterion-3", c3), ("criterion-4", c4), ("criterion-1", c1), ("ltl", ltl),
        ("values", vals),
    ]


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
