"""Iterated bound search: sup and inf of a cost formula over a model.

Each pass instantiates the formula at a threshold, translates it,
products it with the model and asks for an accepting lasso.  On the sup
side a found lasso raises the threshold (by the value of its run, when
that is larger); emptiness certifies the current bound.  On the inf side
the scan walks upward until the first nonempty product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import CounterAutomaton, LassoRun, synchronized_product
from .emptiness import check_lasso_run, find_accepting_lasso
from .formula import (
    COST_LE,
    LTL,
    MIXED,
    And,
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
    p: int | float | None  # refined bound, None when the product was empty
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
    plain LTL works too (the sup is then 0 or unbounded).  Once the
    threshold passes `cutoff` (default: formula automaton states times
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
    limit = cutoff if cutoff is not None else _pruned(phi).num_states * model.num_states
    trace: list[IterationStats] = []
    n = 0
    last_word: LassoWord | None = None
    while True:
        # Conjoining phi itself keeps its counters in the product, so the
        # found run reports a value and the threshold can jump past n+1.
        row = _pass(
            "search", n, And(phi, instantiate(phi, n + 1)), model,
            lambda run, product: max(run_value(run, product), n + 1),
        )[0]
        trace.append(row)
        if row.word is None:
            if last_word is None:
                last_word = _fish_word(model)
            return BoundResult("finite", n, last_word, limit, tuple(trace))
        if row.p > limit:
            return BoundResult("unbounded", None, row.word, limit, tuple(trace))
        n = row.p
        last_word = row.word


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
