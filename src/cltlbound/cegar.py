"""Iterated bound search: sup and inf of a cost formula over a model.

The sup side translates the R> formula once and products it with the
model once.  Each pass then asks whether some model word has a value
above a threshold n: the threshold test at n + 1 finds an accepting
lasso of the product exactly when one does, and that lasso's run value
is a lower bound on the sup.  The threshold gallops (doubling past each
value found) until a pass comes back empty, then bisects between the
best value found and that threshold; the best value is the sup.  The
first pass looks for a run that observes no counter first, a word of
infinite value, where the test at 1 may find a run worth just 1.  The
best value starts at -1, the sup when the
product accepts no model word: an empty test at n = 0 makes the bisection
test n = -1, which asks whether the product accepts any word at all.
A U<= formula goes through its R> dual: a word fails phi[n] exactly when
its dual value is n or more, so the U<= sup is the dual's sup plus one.
R> and plain LTL read -1 as 0: a word no run accepts has value 0.

The default sup cutoff is formula automaton states × model states
reachable from the model's initial state, which bounds the number of
product states.  It is sound by pumping.  Take a run whose every counter
observation exceeds the number of product states.  Between an
observation and its counter's last reset lie more increments than product
states, so some product state repeats with an increment in between.
Repeating that stretch raises the observation.  It lowers no other one: a
counter reset inside the stretch reads the same values after it, and any
other counter only gains increments.  Pumping every observation of the
lasso's stem and loop body this way gives runs of every larger value.  So
once a value above the cutoff turns up, the sup is infinite.

A user cutoff below that default proves nothing: a value above it ends
the search with the outcome `cutoff-reached`, not `unbounded`.  A user
cutoff at or above the default only caps the work.

The inf side also translates once and products once.  The U<= automaton
counts, per occurrence, the failures of its left operand (see
`translate`), and a word's value is the least n for which some accepting
run keeps every counter at n or below.  So the inf is the least n at
which the threshold test with counters bounded by n finds an accepting
lasso of the product.  First comes a
Streett check on the product itself: a run keeps its counters bounded iff
each counter it increments infinitely often it also resets infinitely
often, and `graphs.bounded_components` decides that by SCC refinement.
No surviving component proves `infinite-inf` exactly, with no cutoff.
Otherwise the check returns a lasso whose loop resets every counter it
increments, so its counters stay at or below some U, and the bounded
test at U succeeds.  That is why the search terminates:
n gallops 0, 1, 2, 4, ... below U until a test succeeds, then
bisects between the last empty n and the least value found.  A user
cutoff caps n; an empty test at the cutoff ends the search with
`cutoff-reached` (the inf is finite, and above the cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .automaton import CounterAutomaton, LassoRun, synchronized_product
from .emptiness import check_lasso_run, find_accepting_lasso, find_bounded_lasso, reachable_part
from .formula import (
    COST_LE,
    LTL,
    MIXED,
    Formula,
    FragmentError,
    classify_fragment,
    instantiate,  # noqa: F401  kept importable here for bench/tracing.py
    negate_dual,
)
from .translate import build_counter_automaton, prune_dominated
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
    cutoff: int | None  # None for an inf search without a user cutoff
    trace: tuple[IterationStats, ...]

    @property
    def iterations(self) -> int:
        # The threshold tests; an n = -1 row only asks whether any model
        # word is accepted at all.
        return sum(1 for row in self.trace if row.kind == "search" and row.n >= 0)


def run_value(run: LassoRun, aut: CounterAutomaton) -> int | float:
    """Value of an accepting run: its least counter observation, inf if none.

    Two passes over the loop suffice: a counter observed inside the loop
    is also reset there, so its observations repeat from the second pass on.
    """
    check_lasso_run(aut, run)
    vals = [0] * aut.num_counters
    best: int | float = math.inf
    for t in run.stem + run.loop + run.loop:
        for c, acts in enumerate(t.actions):
            for a in acts:
                if a == "i":
                    vals[c] += 1
                elif a == "r":
                    vals[c] = 0
                else:
                    best = min(best, vals[c])
    return best


def run_peak(run: LassoRun, aut: CounterAutomaton) -> int:
    """Largest counter value an accepting run reaches: its value under the
    bounded reading of a U<= automaton.

    Two passes over the loop suffice when the loop resets every counter it
    increments, as the runs the inf search finds do: from the second pass
    on, the values repeat.
    """
    check_lasso_run(aut, run)
    vals = [0] * aut.num_counters
    peak = 0
    for t in run.stem + run.loop + run.loop:
        for c, act in enumerate(t.actions):
            if act == "i":
                vals[c] += 1
                peak = max(peak, vals[c])
            elif "r" in act:
                vals[c] = 0
    return peak


def _pruned(phi: Formula) -> CounterAutomaton:
    return prune_dominated(
        build_counter_automaton(phi), inf=classify_fragment(phi) == COST_LE
    )


def _unobserving(product: CounterAutomaton) -> CounterAutomaton:
    """product minus every transition that observes a counter: its
    accepting runs are the product's runs of infinite value."""
    return replace(product, transitions=tuple(
        tr for tr in product.transitions if not any("o" in a for a in tr.actions)
    ))


def _fish_word(model: CounterAutomaton) -> LassoWord | None:
    hit = find_accepting_lasso(model)
    return None if hit is None else hit[1]


def compute_sup_bound(
    model: CounterAutomaton, phi: Formula, cutoff: int | None = None
) -> BoundResult:
    """sup of the value of phi over the model's language.

    Formulas in the U<= fragment are answered through the dual search;
    plain LTL works too (the sup is then 0 or unbounded).  Once a word of
    value above `cutoff` turns up (default: formula automaton states times
    reachable model states, see the module docstring) the sup is provably
    infinite.
    """
    if model.num_counters:
        raise ValueError("the model must not carry counters")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    frag = classify_fragment(phi)
    if frag == MIXED:
        raise FragmentError("cannot bound a formula mixing U<= and R>")
    if frag == COST_LE:
        return _sup_via_dual(model, phi, cutoff)
    r = _sup_direct(model, phi, cutoff)
    return replace(r, bound=0) if r.bound == -1 else r


def _sup_direct(model, phi, cutoff):
    aut = _pruned(phi)
    sound = aut.num_states * reachable_part(model)[0]
    limit = sound if cutoff is None else cutoff
    product = synchronized_product(aut, model)
    trace: list[IterationStats] = []
    best, best_word = -1, None  # largest value found so far, and its word
    ceiling = None  # least n shown to bound every value, once one is
    n = 0
    while True:
        # Is there a model word of value > n?  The test keeps the runs of
        # the product whose every observation reaches n + 1.  The first
        # row looks for a run that observes nothing first: its value is
        # infinite, where a run found at n + 1 may be worth just n + 1.
        explored: list[int] = []
        hit = None
        if n == 0:
            hit = find_accepting_lasso(_unobserving(product), explored=explored)
        if hit is None:
            hit = find_accepting_lasso(product, n + 1, explored=explored)
        p = None
        if hit is not None:
            p = run_value(hit[0], product)
            if p <= n:
                raise RuntimeError(f"run of value {p} accepted at threshold {n + 1}")
        trace.append(IterationStats(
            "search", n, p, aut.num_states, *explored, None if hit is None else hit[1]
        ))
        if hit is None:
            ceiling = n
        elif p > limit:
            outcome = "unbounded" if limit >= sound else "cutoff-reached"
            return BoundResult(outcome, None, hit[1], limit, tuple(trace))
        else:
            best, best_word = p, hit[1]
        # Gallop past each value found until a test comes back empty, then
        # bisect between the best value and that test's threshold.
        if ceiling is None:
            n = min(2 * best, limit)
        elif best < ceiling:
            n = (best + ceiling) // 2
        else:
            break
    if best == -1:
        best_word = _fish_word(model)
    return BoundResult("finite", best, best_word, limit, tuple(trace))


def _sup_via_dual(model, phi, cutoff):
    r = _sup_direct(model, negate_dual(phi), cutoff)
    return replace(r, bound=r.bound + 1) if r.outcome == "finite" else r


def compute_inf_bound(
    model: CounterAutomaton, phi: Formula, cutoff: int | None = None
) -> BoundResult:
    """inf of the value of phi over the model's language.

    Translates phi once, products it with the model, runs the Streett
    check and then gallops over bounded threshold tests of the product
    (see the module docstring).  No cutoff is needed; a user `cutoff` caps the
    thresholds tried.
    """
    if model.num_counters:
        raise ValueError("the model must not carry counters")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    if classify_fragment(phi) not in (LTL, COST_LE):
        raise FragmentError("inf bounds apply to the U<= fragment")
    aut = _pruned(phi)
    product = synchronized_product(aut, model)
    hit = find_bounded_lasso(product)
    hi, word = (None, None) if hit is None else (run_peak(hit[0], product), hit[1])
    trace = [IterationStats(
        "streett", None, hi, aut.num_states, product.num_states,
        len(product.transitions), word,
    )]
    if hit is None:
        return BoundResult("infinite-inf", None, None, cutoff, tuple(trace))
    # The least nonempty n lies in (lo, hi]: the test at lo is empty
    # (lo = -1 says nothing yet) and a run of value hi is known.
    lo, n = -1, 0
    while lo + 1 < hi:
        if cutoff is not None and lo >= cutoff:
            return BoundResult("cutoff-reached", None, None, cutoff, tuple(trace))
        explored = []
        hit = find_accepting_lasso(product, n, bounded=True, explored=explored)
        p = None if hit is None else run_peak(hit[0], product)
        trace.append(IterationStats(
            "search", n, p, aut.num_states, *explored, None if hit is None else hit[1]
        ))
        if hit is None:
            lo = n
        else:
            hi, word = p, hit[1]
        # Gallop, but never past the middle of the bracket: once a run
        # turns up at n, hi <= n and the middle wins, so this bisects.
        n = min(max(1, 2 * n), (lo + hi) // 2)
        if cutoff is not None:
            n = min(n, cutoff)
    return BoundResult("finite", hi, word, cutoff, tuple(trace))
