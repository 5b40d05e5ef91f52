"""Seeded inputs for the four benchmark workloads.

Each workload is one pass: a list of CLI queries plus the model files they
read.  The benchmark repeats the pass until its time is up, so every run
measures whole passes of identical inputs.

The seed decides how the inputs are written down: proposition names,
state numbering, transition order, the order of the queries and a small
offset of some value-cap word lengths.
It does not decide their sizes.  The p50 and tail metrics each pick one
query out of a pass, so a seed that drew the sizes (the k of an L_k model,
or which random formulas enter the corpus) moved them by tens of percent
from seed to seed; renaming and reordering keep the work per pass fixed
while still giving every seed different bytes.

Nothing here imports cltlbound: the program only ever sees the generated
model files, formula texts and words.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("sup-gap", "inf-lead", "value-corpus", "value-cap")


@dataclass(frozen=True)
class Query:
    """One `cltlbound` call and the answer it must give.

    `model` names a file of the pass (None in value mode).  `want` lists
    JSON report fields and their known values.  `known_failure` is set on
    the queries that fail at the commit that defined the benchmark; they
    stay in the pass so that a fix shows.
    """

    label: str
    argv: tuple[str, ...]
    model: str | None
    want_code: int
    want: tuple[tuple[str, object], ...]
    known_failure: str | None = None


@dataclass(frozen=True)
class Pass:
    files: dict[str, str]
    queries: tuple[Query, ...]


def generate(workload: str, seed: int) -> Pass:
    """The pass of `workload` for `seed`; equal seeds give equal passes."""
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng)


# ---------------------------------------------------------------------------
# models


def _fixture(name: str) -> str:
    with open(os.path.join(ROOT, "models", name), encoding="utf-8") as handle:
        return handle.read()


def _render_lk(k: int) -> str:
    scripts = os.path.join(ROOT, "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    from make_lk_models import render

    return render(k)


def _render_lead(k: int) -> str:
    """k steps of `a`, one `!a`, then anything: every word's first `!a`
    comes after exactly k steps."""
    lines = ["ap: a", f"states: {k + 2}", "init: 0", "accsets: 1"]
    lines += [f"trans: {i} {i + 1} a {{}}" for i in range(k)]
    lines.append(f"trans: {k} {k + 1} !a {{}}")
    lines.append(f"trans: {k + 1} {k + 1} true {{0}}")
    return "\n".join(lines) + "\n"


def _scramble(text: str, rng: random.Random, names: dict[str, str]) -> str:
    """The same automaton with propositions renamed, states renumbered by a
    seeded permutation and transition lines in seeded order."""
    head, trans = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, rest = line.partition(":")
            (trans if key == "trans" else head).append((key, rest.split()))
    (num_states,) = (int(v[0]) for k, v in head if k == "states")
    perm = list(range(num_states))
    rng.shuffle(perm)
    rng.shuffle(trans)

    def cube(text: str) -> str:
        if text == "true":
            return text
        lits = []
        for lit in text.split("&"):
            neg = lit.startswith("!")
            lits.append(("!" if neg else "") + names[lit.lstrip("!")])
        return "&".join(lits)

    out = []
    for key, fields in head:
        if key == "ap":
            fields = [names[p] for p in fields]
        elif key == "init":
            fields = [str(perm[int(fields[0])])]
        out.append(f"{key}: {' '.join(fields)}")
    for _, (src, dst, cub, acc) in trans:
        out.append(f"trans: {perm[int(src)]} {perm[int(dst)]} {cube(cub)} {acc}")
    return "\n".join(out) + "\n"


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct proposition names that cannot be read as keywords."""
    picked: list[str] = []
    while len(picked) < count:
        name = rng.choice("pqsvwxyz") + str(rng.randrange(1000))
        if name not in picked:
            picked.append(name)
    return picked


# ---------------------------------------------------------------------------
# sup-gap

# Sizes of the L_k models.  L_k costs about k^3: one translation and one
# product per threshold, k thresholds.  L21 keeps the costliest query near
# 1.5 s, well inside the deadline; L40 needs 10 s alone, more than a whole
# run can spend on one query.
SUP_GAP_K = (3, 6, 9, 12, 15, 18, 21)


def _sup_gap(rng: random.Random) -> Pass:
    files: dict[str, str] = {}
    queries: list[Query] = []
    for k in SUP_GAP_K:
        (p,) = _names(rng, 1)
        name = f"L{k}.model"
        files[name] = _scramble(_render_lk(k), rng, {"a": p})
        queries.append(Query(
            f"sup G (F<= !a) on L{k}", ("--mode", "sup", "-f", f"G (F<= !{p})"),
            name, 0, (("outcome", "finite"), ("bound", k))))
        queries.append(Query(
            f"sup G> a on L{k}", ("--mode", "sup", "-f", f"G> {p}"),
            name, 0, (("outcome", "finite"), ("bound", k - 1))))
    (p,) = _names(rng, 1)
    files["universal.model"] = _scramble(_fixture("universal.model"), rng, {"a": p})
    queries.append(Query(
        "sup G (F<= !a) on universal", ("--mode", "sup", "-f", f"G (F<= !{p})"),
        "universal.model", 2, (("outcome", "unbounded"), ("bound", None))))
    rng.shuffle(queries)
    return Pass(files, tuple(queries))


# ---------------------------------------------------------------------------
# inf-lead

# a^k then !a for k = 3..9, each under two seeded renamings.  Cost grows
# about threefold per unit of k: k = 9 takes about 0.7 s, k = 10 about 2 s,
# too close to the deadline on a busy machine.
INF_LEAD_K = tuple(range(3, 10)) * 2

L2_FAILURE = (
    "passes the deadline: one retranslation of a deeper instantiation per "
    "threshold, up to the sound cutoff of 32"
)


def _inf_lead(rng: random.Random) -> Pass:
    files: dict[str, str] = {}
    queries: list[Query] = []
    for i, k in enumerate(INF_LEAD_K):
        (p,) = _names(rng, 1)
        name = f"lead{k}-{i}.model"
        files[name] = _scramble(_render_lead(k), rng, {"a": p})
        queries.append(Query(
            f"inf F<= !a on a^{k} !a", ("--mode", "inf", "-f", f"F<= !{p}"),
            name, 0, (("outcome", "finite"), ("bound", k))))
    (p,) = _names(rng, 1)
    files["a_only.model"] = _scramble(_fixture("a_only.model"), rng, {"a": p})
    queries.append(Query(
        "inf F<= !a on a_only", ("--mode", "inf", "-f", f"F<= !{p}"),
        "a_only.model", 3, (("outcome", "infinite-inf"), ("bound", None))))
    (p,) = _names(rng, 1)
    files["L2.model"] = _scramble(_fixture("L2.model"), rng, {"a": p})
    # Every L2 word has infinitely many !a, so G a never holds and every
    # value is infinite.
    queries.append(Query(
        "inf F<= (G a) on L2", ("--mode", "inf", "-f", f"F<= (G {p})"),
        "L2.model", 3, (("outcome", "infinite-inf"), ("bound", None)),
        known_failure=L2_FAILURE))
    rng.shuffle(queries)
    return Pass(files, tuple(queries))


# ---------------------------------------------------------------------------
# value-corpus

# (operator, base seed, pairs).  Seed 3 with R> is criterion 3's own
# stream; seed 20260819 with U<= is criterion 1's.  The pairs are the first
# ones those streams draw, with criterion 3's rule of redrawing formulas
# with more than four cost operators (its stated reason: a nine-operator
# draw exhausts memory).
CORPUS = (("R>", 3, 60), ("U<=", 20260819, 60))
CORPUS_CAP = 10


def _draw_formula(rng: random.Random, depth: int):
    """A random formula tree over propositions a, b, drawn exactly as the
    test corpus draws one (same random calls, same order)."""
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.85:
            return ("lit", rng.choice(("a", "b")), rng.random() < 0.5)
        return ("true",) if roll < 0.93 else ("false",)
    op = rng.choice(["and", "or", "next", "until", "release", "cost", "cost"])
    left = _draw_formula(rng, depth - 1)
    if op == "next":
        return ("next", left)
    return (op, left, _draw_formula(rng, depth - 1))


def _cost_ops(tree) -> int:
    return (tree[0] == "cost") + sum(
        _cost_ops(t) for t in tree[1:] if isinstance(t, tuple))


def _draw_word(rng: random.Random):
    def letter():
        return frozenset(p for p in ("a", "b") if rng.random() < 0.4)

    prefix = [letter() for _ in range(rng.randrange(7))]
    cycle = [letter() for _ in range(1, rng.randrange(1, 7) + 1)]
    return prefix, cycle


_BINARY = {"and": "&", "or": "|", "until": "U", "release": "R"}


def _formula_text(tree, cost_op: str, names: dict[str, str]) -> str:
    kind = tree[0]
    if kind in ("true", "false"):
        return kind
    if kind == "lit":
        return ("" if tree[2] else "!") + names[tree[1]]
    if kind == "next":
        return f"X ({_formula_text(tree[1], cost_op, names)})"
    sym = cost_op if kind == "cost" else _BINARY[kind]
    left = _formula_text(tree[1], cost_op, names)
    right = _formula_text(tree[2], cost_op, names)
    return f"({left}) {sym} ({right})"


def _word_text(word, names: dict[str, str]) -> str:
    def letter(props) -> str:
        return "{" + ",".join(sorted(names[p] for p in props)) + "}"

    prefix, cycle = word
    return " ".join([letter(x) for x in prefix] + ["|"] + [letter(x) for x in cycle])


def _corpus_pairs(cost_op: str, base_seed: int, count: int):
    """The first `count` (formula tree, word) pairs of a base stream."""
    rng = random.Random(base_seed)
    pairs = []
    for _ in range(count):
        tree = _draw_formula(rng, 4)
        while _cost_ops(tree) > 4:
            tree = _draw_formula(rng, 4)
        pairs.append((tree, _draw_word(rng)))
    return pairs


def _value_corpus(rng: random.Random) -> Pass:
    # Renaming a and b in both the formula and the word keeps every value
    # and every automaton size.  (Swapping a proposition's polarity would
    # too, but it changes how much of the automaton the lasso product
    # indexes, and with it the time.)
    queries: list[Query] = []
    for cost_op, base_seed, count in CORPUS:
        for i, (tree, word) in enumerate(_corpus_pairs(cost_op, base_seed, count)):
            names = dict(zip(("a", "b"), _names(rng, 2)))
            queries.append(Query(
                f"value {cost_op} pair {base_seed}/{i}",
                ("--mode", "value", "-f", _formula_text(tree, cost_op, names),
                 "--word", _word_text(word, names), "--cutoff", str(CORPUS_CAP)),
                None, 0, ()))
    rng.shuffle(queries)
    return Pass({}, tuple(queries))


# ---------------------------------------------------------------------------
# value-cap

# The oracle scans instantiations up to the cap or the value: O(cap^2) for
# F<= b above the cap, more for F<= b just below it on a long prefix.  The
# sweep ends at 600, where both formulas of the ROADMAP raise RecursionError
# at the commit that defined the benchmark.
VALUE_CAPS = (50, 100, 150, 200)
FAILING_CAP = 600

CAP_FAILURE = "raises RecursionError: the formula passes recurse once per unfolding"


def _value_cap(rng: random.Random) -> Pass:
    queries: list[Query] = []

    def value(label, formula, word, cap, want, known=None):
        queries.append(Query(
            f"value {label} at cap {cap}",
            ("--mode", "value", "-f", formula, "--word", word, "--cutoff", str(cap)),
            None, 0, (("value", want),), known))

    def a_run(a, m):
        return " ".join([f"{{{a}}}"] * m)

    for cap in VALUE_CAPS + (FAILING_CAP,):
        a, b = _names(rng, 2)
        known = CAP_FAILURE if cap == FAILING_CAP else None
        # b never holds, so the value is infinite: above every cap.
        value("F<= b on {a} | {a}", f"F<= {b}", f"{{{a}}} | {{{a}}}", cap, "above-cap", known)
        # G> a on a^m | {} {a} has value m - 1: just below the cap, then
        # just above it.
        for side, m in (("below", cap - rng.randrange(3)), ("above", cap + 1 + rng.randrange(3))):
            want = m - 1 if m - 1 < cap else "above-cap"
            value(f"G> a on a^m | {{}} {{a}}, value {side} the cap", f"G> {a}",
                  a_run(a, m) + f" | {{}} {{{a}}}", cap, want, known)
        if cap != FAILING_CAP:
            # F<= b on a^m | {b} has value m: b first holds after m steps.
            value("F<= b on a^m | {b}", f"F<= {b}", a_run(a, cap - 2) + f" | {{{b}}}",
                  cap, cap - 2)
    rng.shuffle(queries)
    return Pass({}, tuple(queries))


_GENERATORS = {
    "sup-gap": _sup_gap,
    "inf-lead": _inf_lead,
    "value-corpus": _value_corpus,
    "value-cap": _value_cap,
}
