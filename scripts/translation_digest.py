#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed set of formula translations.

    python3 scripts/translation_digest.py

Each translation is dumped canonically.  A whole automaton
(`build_counter_automaton`) gives its header, its transitions in order,
and the positions of the transitions `prune_dominated` keeps under the
sup rule and under the inf rule.  A lazy `Tableau` read along one lasso
word gives, for each (state, letter) pair the word reaches in
breadth-first order, the transitions its `successors` returns and the
rows the lasso front end keeps of them (`automaton._letter_rows`), then
the number of states it reached.  One line per
stream gives the stream's number of dumps and digest, and the last line the digest
of all of them.  The streams, drawn by `tests/corpus.py` with criterion
3's rule of redrawing formulas with more than four cost operators:

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
identical automata, state numbering and transition order included.
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

from cltlbound.automaton import _letter_rows  # noqa: E402
from cltlbound.formula import cost_operator_count, negate_dual  # noqa: E402
from cltlbound.translate import Tableau, build_counter_automaton, prune_dominated  # noqa: E402

PROPS = ("a", "b")


def _draw(rng: random.Random, fragment: str):
    phi = random_formula(rng, depth=4, props=PROPS, fragment=fragment)
    while cost_operator_count(phi) > 4:
        phi = random_formula(rng, depth=4, props=PROPS, fragment=fragment)
    return phi


def _transition(t) -> str:
    return f"{t.src} {t.cube.to_text()} {','.join(t.actions)} {sorted(t.acc)} {t.dst}"


def whole(phi) -> str:
    aut = build_counter_automaton(phi)
    head = f"aut {aut.num_states} {aut.init} {aut.num_counters} {aut.num_acc_sets} {aut.ap}"
    position = {t: i for i, t in enumerate(aut.transitions)}
    kept = [
        "kept " + " ".join(str(position[t]) for t in prune_dominated(aut, inf).transitions)
        for inf in (False, True)
    ]
    return "\n".join([head, *map(_transition, aut.transitions), *kept])


def lazy(phi, word) -> str:
    tab = Tableau(phi)
    pre, total = len(word.prefix), len(word.prefix) + len(word.cycle)
    order = [(tab.init, 0)]
    seen = set(order)
    lines = []
    for state, pos in order:
        succ = tab.successors(state, word.letter(pos))
        lines.append(f"at {state} {pos}: " + "; ".join(map(_transition, succ)))
        lines.append(f"rows {_letter_rows(succ)}")
        nxt = pos + 1 if pos + 1 < total else pre
        for t in succ:
            if (t.dst, nxt) not in seen:
                seen.add((t.dst, nxt))
                order.append((t.dst, nxt))
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
