"""Iterated bound search: sup and inf of a cost formula over a model.

Both sides translate the formula once (sup whole, for its cutoff; inf
on the fly, a `translate.Tableau`) and read its product with the model
node by node (`automaton._ModelProduct`): each test expands the product
nodes it reaches, and the later tests of the query reuse them.  No
product automaton is built.

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
ends at `unbounded` within ceil(log2(cutoff + 1)) + 1 tests.  The lower
end starts at -1, the sup when the product accepts no model word: an
empty test at n = 0 makes the bisection test n = -1, which asks whether
the product accepts any word at all.
A U<= formula goes through its R> dual: a word fails phi[n] exactly when
its dual value is n or more, so the U<= sup is the dual's sup plus one.
A plain formula is a U<= formula without counters (value 0 where it holds,
infinite elsewhere) and goes the same way.  R> reads -1 as 0: a word no
run accepts has value 0.

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

from .automaton import CounterAutomaton, LassoRun, _ModelProduct, narrow
from .automaton import synchronized_product  # noqa: F401  kept importable here for bench/tracing.py
from .emptiness import check_lasso_run, find_accepting_lasso, find_bounded_lasso, reachable_part
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
    cutoff: int | None  # None for an inf search without a user cutoff
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


def _pruned(phi: Formula) -> CounterAutomaton:
    return build_counter_automaton(phi)  # the translation prunes itself


def _fish_word(model: CounterAutomaton) -> LassoWord | None:
    hit = find_accepting_lasso(model)
    return None if hit is None else hit[1]


def compute_sup_bound(
    model: CounterAutomaton, phi: Formula, cutoff: int | None = None
) -> BoundResult:
    """sup of the value of phi over the model's language.

    R> formulas are searched directly, U<= and plain formulas through the
    dual search (a plain sup is 0 or unbounded).  Once a word of
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
    if frag != COST_GT:
        return _sup_via_dual(model, phi, cutoff)
    r = _sup_direct(model, phi, cutoff)
    return replace(r, bound=0) if r.bound == -1 else r


def _sup_direct(model, phi, cutoff):
    aut = _pruned(phi)
    sound = aut.num_states * reachable_part(model)[0]
    limit = sound if cutoff is None else cutoff
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
        return p, hi

    # Thresholds t = n + 1: the sup is the last passing one.
    best, _ = narrow(test, -1, None, limit + 1, (1,))
    if best > limit:
        outcome = "unbounded" if limit >= sound else "cutoff-reached"
        return BoundResult(outcome, None, word, limit, tuple(trace))
    if best == -1:
        word = _fish_word(model)
    return BoundResult("finite", best, word, limit, tuple(trace))


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
