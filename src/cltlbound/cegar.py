"""Iterated bound search: sup and inf of a cost formula over a model.

Both sides read the formula's tableau on the fly (`translate.Tableau`)
through its product with the model, node by node
(`automaton._ModelProduct`): each test expands the product nodes it
reaches, and the later tests of the query reuse them.  Neither the
formula's whole automaton nor a product automaton is built.

On the sup side, the test at threshold t = n + 1 asks whether some model
word has an R> value above n: it finds an accepting lasso of the product
exactly when one does, and that lasso's run value is a lower bound on
the sup.  The test tries each node's edges best first
(`automaton._Succ`), so the lasso it closes tends to be worth far more
than t, often the sup itself, and the bracket's lower end jumps to that
value.  `automaton.narrow` picks the thresholds, here and on the inf
side; the first is t = 1, and the sup is the last passing one.
When the first witness is the best word, a finite sup costs exactly two
tests: the passing one at 1 and the empty one at n = sup.  The result
stays exact whatever the order finds: an empty test rules out the whole
unfolding (it skips only what a finished configuration covers,
`automaton._accepts`), and the last test of every finite search is the
empty one at n = sup, the one a search that climbed by one value at a
time would also end on.  A run that observes no counter is worth
infinity, and the order tries the edges that observe least first, so the
test at 1 tends to find such a run of an unbounded sup at once.  When it
finds a finite run instead, every later test passes too, and the gallop
doubles the threshold until a passing test's own run proves the sup
infinite (below).  The lower end starts at -1, the sup when the product
accepts no model word: an empty test at n = 0 makes the bisection test
n = -1, which asks whether the product accepts any word at all.
A U<= formula goes through its R> dual: a word fails phi[n] exactly when
its dual value is n or more, so the U<= sup is the dual's sup plus one.
A plain formula is a U<= formula without counters (value 0 where it holds,
infinite elsewhere) and goes the same way.  R> reads -1 as 0: a word no
run accepts has value 0.

A passing test's run proves the sup infinite when the graph of its own
transitions, a subgraph of the product, has accepting runs of every
value (`_pumps`).  Then the test's lower end jumps to infinity and the
search ends at `unbounded`; no cutoff is needed.  `_pumps` runs only
when the run's value p exceeds the number of distinct product nodes it
visits and the run observes two counters or more.  With one observed
counter, p above the nodes alone proves it: between an observation and
its counter's last reset lie p increments, so some node repeats with an
increment in between, and repeating that stretch raises the observation
and reads no other counter.  With two it does not: the
stretch can hold an observation of the other counter, which reads less
in each repeat than it did once (the tests hold a sup of 11 whose
witness is worth 11 on 10 nodes).  The search terminates: the run
graphs are among the finitely many subgraphs of the reachable product,
so once t exceeds the product's nodes and the finite sups of those
subgraphs, every passing test's run proves the sup infinite.  A user
cutoff caps the thresholds: a value above it that no run proves
infinite ends the search with the outcome `cutoff-reached`.

On the inf side, the U<= tableau counts, per occurrence, the failures
of its left operand (see `translate`), and a word's value is the least n
for which some accepting run keeps every counter at n or below.  So the
inf is the least n at which the threshold test with counters bounded by
n finds an accepting lasso of the product.  First comes a Streett check
on the whole product, which expands every reachable node: a run keeps its
counters bounded iff each counter it increments infinitely often it also
resets infinitely often, and `graphs.bounded_components` decides that by
SCC refinement, which keeps none of the tableau states that reach no
accepting cycle.
No surviving component proves `infinite-inf` exactly, with no cutoff.
Otherwise the check returns a lasso whose loop resets every counter it
increments, so its counters stay at or below some U, its largest value,
and the bounded test at U succeeds.  That is why the search terminates.
The bracket of n is (-1, U]: the test at -1 counts as empty, and a run
of value U is known.  The first probe is U - 1: when it is empty, U is
the inf, and the query costs the Streett check and that one test.  A run
the test finds at n moves the upper end down to its value.  A user cutoff
caps n, the first test included; a bracket still open once the cutoff
test is empty ends the search with `cutoff-reached` (the inf is finite,
and above the cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .automaton import CounterAutomaton, LassoRun, Transition, _ModelProduct, narrow
from .automaton import synchronized_product  # noqa: F401  kept importable here for bench/tracing.py
from .emptiness import check_lasso_run, find_accepting_lasso, find_bounded_lasso
from .graphs import _split, accepting_components
from .formula import (
    COST_GT,
    MIXED,
    Formula,
    FragmentError,
    classify_fragment,
    instantiate,  # noqa: F401  kept importable here for bench/tracing.py
    negate_dual,
)
from .translate import Tableau, build_counter_automaton
from .translate import prune_dominated  # noqa: F401  kept importable here for bench/tracing.py
from .words import LassoWord


@dataclass(frozen=True)
class IterationStats:
    kind: str  # "search" (a threshold test) or "streett"
    n: int | None  # threshold checked in this pass; None on the Streett row
    p: int | float | None  # value shown by the pass, None when it found no run
    automaton_states: int
    product_states: int
    product_transitions: int
    word: LassoWord | None


@dataclass(frozen=True)
class BoundResult:
    outcome: str  # "finite" | "unbounded" | "infinite-inf" | "cutoff-reached"
    bound: int | None
    witness: LassoWord | None
    cutoff: int | None  # the user's cutoff; None without one
    trace: tuple[IterationStats, ...]

    @property
    def iterations(self) -> int:
        # The threshold tests; an n = -1 row only asks whether any model
        # word is accepted at all.
        return sum(1 for row in self.trace if row.kind == "search" and row.n >= 0)


def _read_run(run: LassoRun, aut: CounterAutomaton | _ModelProduct) -> tuple[int | float, int]:
    """An accepting run's least counter observation (inf if none) and the
    largest counter value it reaches.

    Two passes over the loop suffice: a counter observed inside the loop is
    also reset there, so its observations repeat from the second pass on,
    and so do its values when the loop resets every counter it increments,
    as the runs the inf search finds do.
    """
    check_lasso_run(aut, run)
    vals = [0] * aut.num_counters
    least: int | float = math.inf
    peak = 0
    for t in run.stem + run.loop + run.loop:
        for c, acts in enumerate(t.actions):
            for a in acts:
                if a == "i":
                    vals[c] += 1
                    peak = max(peak, vals[c])
                elif a == "r":
                    vals[c] = 0
                else:
                    least = min(least, vals[c])
    return least, peak


def run_value(run: LassoRun, aut: CounterAutomaton | _ModelProduct) -> int | float:
    """Value of an accepting run: its least counter observation, inf if none."""
    return _read_run(run, aut)[0]


def run_peak(run: LassoRun, aut: CounterAutomaton | _ModelProduct) -> int:
    """Largest counter value an accepting run reaches: its value under the
    bounded reading of a U<= automaton."""
    return _read_run(run, aut)[1]


def _observed(steps: tuple[Transition, ...]) -> list[int]:
    """The counters that the steps observe, in order."""
    return sorted({c for s in steps for c, a in enumerate(s.actions) if a == "or"})


def _pumps(init: int, steps: tuple[Transition, ...], num_acc_sets: int) -> bool:
    """Has the graph of these transitions, a run's, accepting runs from
    node init of every value?

    Decided on states (node, F), F the observed counters known to be
    large: at least K, for a K as large as wished.  A transition may
    observe only counters in F, and it drops those it resets or observes.
    A pump adds to F, at each state of a strongly connected set of steps,
    every counter the set increments and never resets: a walk round all
    its steps, K times, leaves each at K or more, and every counter of F
    too, since the walk ends where it starts.  A pump resets what its
    steps reset.  A round splits, for each union R of steps' resets, the
    steps that reset within R (fewer resets may pump fewer counters yet
    let a later cycle keep more), and adds a pump unless one that adds as
    much with no more resets is there.  Once a round adds none, the graph
    has runs of every value if it has a reachable accepting cycle of
    states: expanding each pump into K rounds of its walk, recursively,
    gives accepting runs whose every observation reads K or more.  That
    the converse holds, which the sup search needs to terminate, is
    checked against the capped unfolding on random automata in the tests.
    """
    observed = _observed(steps)
    moves: dict[int, list[tuple]] = {}  # node -> (dst, sets, observes, resets, increments)
    for src, dst, acc, actions in dict.fromkeys((s.src, s.dst, s.acc, s.actions) for s in steps):
        masks = (sum(1 << j for j, c in enumerate(observed) if actions[c] in keys)
                 for keys in (("or",), ("or", "r"), ("i",)))
        moves.setdefault(src, []).append((dst, acc, *masks))
    pumps: dict[tuple[int, int], set[tuple[int, int]]] = {}  # state -> {(counters, resets)}
    while True:
        index, states, edges = {(init, 0): 0}, [(init, 0)], []
        for s in states:  # it grows as states are met
            node, large = s
            out = [((dst, large & ~resets), acc, resets, incs)
                   for dst, acc, observes, resets, incs in moves.get(node, ())
                   if not observes & ~large]
            out += [((node, large | added), (), resets, 0) for added, resets in pumps.get(s, ())]
            for d, acc, resets, incs in out:
                if d not in index:
                    index[d] = len(states)
                    states.append(d)
                edges.append((index[s], index[d], acc, resets, incs))
        grew = False
        unions = {0}  # every set R that is the union of some steps' resets
        for resets in {e[3] for e in edges}:
            unions |= {u | resets for u in unions}
        for within in sorted(unions):  # subsets before supersets
            clean = [n for n, e in enumerate(edges) if not e[3] & ~within]
            for comp in _split(clean, edges):
                incs = resets = 0
                for n in comp:
                    incs |= edges[n][4]
                    resets |= edges[n][3]
                for s in {states[edges[n][0]] for n in comp}:
                    added = incs & ~resets & ~s[1]
                    have = pumps.setdefault(s, set())
                    if added and not any(not added & ~a and not r & ~resets for a, r in have):
                        have.add((added, resets))
                        grew = True
        if not grew:
            return bool(accepting_components(len(states), edges, num_acc_sets))


def _pruned(phi: Formula) -> CounterAutomaton:
    # No search calls it: it and build_counter_automaton stay importable
    # here for `--dot`, scripts/translation_digest.py and bench/tracing.py.
    return build_counter_automaton(phi)  # the translation prunes itself


def _fish_word(model: CounterAutomaton) -> LassoWord | None:
    hit = find_accepting_lasso(model)
    return None if hit is None else hit[1]


def compute_sup_bound(
    model: CounterAutomaton, phi: Formula, cutoff: int | None = None
) -> BoundResult:
    """sup of the value of phi over the model's language.

    R> formulas are searched directly, U<= and plain formulas through the
    dual search (a plain sup is 0 or unbounded).  The sup is infinite once
    a passing test's run proves it (see the module docstring); no cutoff
    is needed, and a user `cutoff` caps the thresholds tried.
    """
    if model.num_counters:
        raise ValueError("the model must not carry counters")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    frag = classify_fragment(phi)
    if frag == MIXED:
        raise FragmentError("cannot bound a formula mixing U<= and R>")
    if frag != COST_GT:
        return _sup_via_dual(model, phi, cutoff)
    r = _sup_direct(model, phi, cutoff)
    return replace(r, bound=0) if r.bound == -1 else r


def _sup_direct(model, phi, cutoff):
    aut = Tableau(phi)
    product = _ModelProduct(aut, model)
    trace: list[IterationStats] = []
    word = None  # the word of the last run found, worth lo

    def test(t, lo, hi):
        # Is there a model word of value >= t?  The test keeps the runs of
        # the product whose every observation reaches t.
        nonlocal word
        explored: list[int] = []
        hit = find_accepting_lasso(product, t, explored=explored)
        p = None
        if hit is not None:
            p = run_value(hit[0], product)
            if p < t:
                raise RuntimeError(f"run of value {p} accepted at threshold {t}")
        trace.append(IterationStats(
            "search", t - 1, p, aut.num_states, *explored, None if hit is None else hit[1]
        ))
        if hit is None:
            return lo, t
        word = hit[1]
        steps = hit[0].stem + hit[0].loop
        if math.inf > p > len({s.src for s in steps}) and (
            len(_observed(steps)) == 1
            or _pumps(product.init, steps, product.num_acc_sets)
        ):
            return math.inf, hi
        return p, hi

    # Thresholds t = n + 1: the sup is the last passing one.
    top = math.inf if cutoff is None else cutoff + 1
    best, _ = narrow(test, -1, None, top, (1,))
    if best == math.inf:
        return BoundResult("unbounded", None, word, cutoff, tuple(trace))
    if best >= top:
        return BoundResult("cutoff-reached", None, word, cutoff, tuple(trace))
    if best == -1:
        word = _fish_word(model)
    return BoundResult("finite", best, word, cutoff, tuple(trace))


def _sup_via_dual(model, phi, cutoff):
    r = _sup_direct(model, negate_dual(phi), cutoff)
    return replace(r, bound=r.bound + 1) if r.outcome == "finite" else r


def compute_inf_bound(
    model: CounterAutomaton, phi: Formula, cutoff: int | None = None
) -> BoundResult:
    """inf of the value of phi over the model's language.

    Reads phi's tableau on the fly: runs the Streett check on its
    product with the model and then narrows the bracket of bounded
    threshold tests of the same product (see the module docstring).  No
    cutoff is needed; a user `cutoff` caps the thresholds tried.
    """
    if model.num_counters:
        raise ValueError("the model must not carry counters")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    if classify_fragment(phi) in (COST_GT, MIXED):
        raise FragmentError("inf bounds apply to the U<= fragment")
    aut = Tableau(phi)
    product = _ModelProduct(aut, model)
    walked: list[int] = []
    hit = find_bounded_lasso(product, explored=walked)
    hi, word = (None, None) if hit is None else (run_peak(hit[0], product), hit[1])
    trace = [IterationStats("streett", None, hi, aut.num_states, *walked, word)]
    if hit is None:
        return BoundResult("infinite-inf", None, None, cutoff, tuple(trace))
    # The least nonempty n lies in (lo, hi]: the test at lo is empty
    # (lo = -1 says nothing yet) and a run of value hi is known.  The
    # first test is just below hi, where an empty one settles the inf.

    def test(n, lo, hi):
        nonlocal word
        explored = []
        hit = find_accepting_lasso(product, n, bounded=True, explored=explored)
        p = None if hit is None else run_peak(hit[0], product)
        if p is not None and p > n:
            raise RuntimeError(f"run of value {p} accepted at bound {n}")
        trace.append(IterationStats(
            "search", n, p, aut.num_states, *explored, None if hit is None else hit[1]
        ))
        if hit is None:
            return n, hi
        word = hit[1]
        return lo, p

    top = hi - 1 if cutoff is None else min(hi - 1, cutoff)
    lo, hi = narrow(test, -1, hi, top, (top,))
    if lo + 1 < hi:
        return BoundResult("cutoff-reached", None, None, cutoff, tuple(trace))
    return BoundResult("finite", hi, word, cutoff, tuple(trace))
