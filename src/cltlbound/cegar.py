"""Iterated bound search: sup and inf of a cost formula over a model.

The sup side translates the R> formula once and products it with the
model once.  Each pass then asks whether some model word has a value
above a threshold n: the product, unfolded with its counters capped at
n + 1, has an accepting lasso exactly when one does, and the lasso's run
value is a lower bound on the sup.  The threshold gallops (doubling past
each value found) until a pass comes back empty, then bisects between the
best value found and that threshold; the best value is the sup.  A U<=
formula goes through its R> dual.

The inf side instantiates the formula at each threshold in turn,
translates it, products it with the model and stops at the first
nonempty product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import (
    CounterAutomaton,
    LassoRun,
    capped_unfolding,
    synchronized_product,
)
from .emptiness import check_lasso_run, find_accepting_lasso
from .formula import (
    COST_LE,
    LTL,
    MIXED,
    Formula,
    FragmentError,
    classify_fragment,
    instantiate,
    negate_dual,
)
from .translate import build_counter_automaton, prune_dominated
from .words import LassoWord


@dataclass(frozen=True)
class IterationStats:
    kind: str  # "search" or "probe"
    n: int  # threshold checked in this pass
    p: int | float | None  # value shown by the pass, None when a search found no run
    automaton_states: int
    product_states: int
    product_transitions: int
    word: LassoWord | None


@dataclass(frozen=True)
class BoundResult:
    outcome: str  # "finite" | "unbounded" | "infinite-inf"
    bound: int | None
    witness: LassoWord | None
    cutoff: int
    trace: tuple[IterationStats, ...]

    @property
    def iterations(self) -> int:
        return sum(1 for row in self.trace if row.kind == "search")


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


def _pruned(phi: Formula) -> CounterAutomaton:
    return prune_dominated(build_counter_automaton(phi))


def _pass(kind, n, phi, model, value, empty=None):
    """One pass of a search: translate phi, product it with the model and
    look for an accepting lasso.  Returns the pass's trace row and the
    product; the row's p is value(run, product) for a found run and
    `empty` when the product is empty."""
    aut = _pruned(phi)
    product = synchronized_product(aut, model)
    hit = find_accepting_lasso(product)
    p, word = (empty, None) if hit is None else (value(hit[0], product), hit[1])
    row = IterationStats(
        kind, n, p, aut.num_states, product.num_states, len(product.transitions), word
    )
    return row, product


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
    model states) the sup is provably infinite.
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
    return _sup_direct(model, phi, cutoff)


def _sup_direct(model, phi, cutoff):
    aut = _pruned(phi)
    limit = cutoff if cutoff is not None else aut.num_states * model.num_states
    product = synchronized_product(aut, model)
    trace: list[IterationStats] = []
    best, best_word = 0, None  # largest value found so far, and its word
    ceiling = None  # least n shown to bound every value, once one is
    n = 0
    while True:
        # Is there a model word of value > n?  The unfolding keeps the
        # runs of the product whose every observation reaches n + 1.
        unfolded = capped_unfolding(product, n + 1)
        hit = find_accepting_lasso(unfolded)
        p = None
        if hit is not None:
            p = run_value(hit[0], unfolded)
            if p <= n:
                raise RuntimeError(f"run of value {p} accepted at threshold {n + 1}")
        trace.append(IterationStats(
            "search", n, p, aut.num_states,
            unfolded.num_states, len(unfolded.transitions),
            None if hit is None else hit[1],
        ))
        if hit is None:
            ceiling = n
        elif p > limit:
            return BoundResult("unbounded", None, hit[1], limit, tuple(trace))
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
    if best == 0:
        best_word = _fish_word(model)
    return BoundResult("finite", best, best_word, limit, tuple(trace))


def _sup_via_dual(model, phi, cutoff):
    inner = _sup_direct(model, negate_dual(phi), cutoff)
    if inner.outcome == "unbounded":
        return inner
    if inner.bound >= 1:
        return BoundResult(
            "finite", inner.bound + 1, inner.witness, inner.cutoff, inner.trace
        )
    # A dual sup of 0 covers values 0 and 1 alike; one emptiness probe of
    # not(phi[0]) against the model separates them.
    row = _pass(
        "probe", 0, negate_dual(instantiate(phi, 0)), model,
        lambda *_: 1, empty=0,
    )[0]
    word = inner.witness if row.word is None else row.word
    return BoundResult("finite", row.p, word, inner.cutoff, inner.trace + (row,))


def compute_inf_bound(
    model: CounterAutomaton, phi: Formula, cutoff: int | None = None
) -> BoundResult:
    """inf of the value of phi over the model's language.

    Scans thresholds upward until the language of phi[n] meets the model;
    an all-empty scan up to the cutoff means every value is infinite.
    """
    if model.num_counters:
        raise ValueError("the model must not carry counters")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    frag = classify_fragment(phi)
    if frag not in (LTL, COST_LE):
        raise FragmentError("inf bounds apply to the U<= fragment")
    trace: list[IterationStats] = []
    limit = cutoff
    n = 0
    while True:
        if limit is not None and n >= limit:
            return BoundResult("infinite-inf", None, None, limit, tuple(trace))
        row, product = _pass("search", n, instantiate(phi, n), model, lambda *_: n)
        trace.append(row)
        if limit is None:
            if frag == LTL:
                # phi[n] does not depend on n; one check decides.
                limit = 1
            else:
                # Pumping keeps some finite value below this product size,
                # so a scan this long with no hit leaves only infinity.
                sizing = _pruned(negate_dual(phi))
                limit = max(
                    1,
                    sizing.num_states
                    * model.num_states
                    * (1 + product.num_acc_sets),
                )
        del product  # so that two passes' products are never alive at once
        if row.word is not None:
            return BoundResult("finite", n, row.word, limit, tuple(trace))
        n += 1
