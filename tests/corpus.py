"""Seeded generators and independent brute-force checkers for the tests.

Everything here is deliberately naive: the brutes re-decide questions the
package answers, by different algorithms, so the two sides can disagree
loudly in tests.
"""

from __future__ import annotations

import random

from cltlbound.automaton import CounterAutomaton, Cube, Transition, synchronized_product
from cltlbound.cegar import BoundResult, IterationStats, run_value
from cltlbound.emptiness import find_accepting_lasso
from cltlbound.formula import (
    COST_LE,
    FALSE,
    LTL,
    TRUE,
    And,
    Formula,
    Lit,
    Next,
    Or,
    Release,
    Until,
    CostRelease,
    CostUntil,
    classify_fragment,
    instantiate,
    negate_dual,
)
from cltlbound.graphs import accepting_components
from cltlbound.oracle import eval_ltl_on_lasso
from cltlbound.translate import build_counter_automaton, prune_dominated
from cltlbound.words import ABOVE_CAP, LassoWord


def random_formula(rng: random.Random, depth: int, props, fragment: str = "LTL") -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.85:
            return Lit(rng.choice(props), rng.random() < 0.5)
        return TRUE if roll < 0.93 else FALSE
    ops = ["and", "or", "next", "until", "release"]
    if fragment == "CostLE":
        ops += ["cost", "cost"]
    elif fragment == "CostGT":
        ops += ["cost", "cost"]

    op = rng.choice(ops)
    left = random_formula(rng, depth - 1, props, fragment)
    if op == "next":
        return Next(left)
    right = random_formula(rng, depth - 1, props, fragment)
    if op == "and":
        return And(left, right)
    if op == "or":
        return Or(left, right)
    if op == "until":
        return Until(left, right)
    if op == "release":
        return Release(left, right)
    if fragment == "CostLE":
        return CostUntil(left, right)
    return CostRelease(left, right)


def random_lasso(rng: random.Random, props, max_prefix: int = 6, max_cycle: int = 6) -> LassoWord:
    def letter():
        return frozenset(p for p in props if rng.random() < 0.4)

    prefix = tuple(letter() for _ in range(rng.randrange(max_prefix + 1)))
    cycle = tuple(letter() for _ in range(1, rng.randrange(1, max_cycle + 1) + 1))
    return LassoWord(prefix, cycle)


def random_cube(rng: random.Random, props) -> Cube:
    positive, negative = set(), set()
    for p in props:
        roll = rng.random()
        if roll < 0.35:
            positive.add(p)
        elif roll < 0.60:
            negative.add(p)
    return Cube(frozenset(positive), frozenset(negative))


def random_automaton(
    rng: random.Random,
    max_states: int = 20,
    max_acc: int = 3,
    max_counters: int = 2,
    props=("a", "b"),
) -> CounterAutomaton:
    n = rng.randrange(1, max_states + 1)
    m = rng.randrange(max_acc + 1)
    k = rng.randrange(max_counters + 1)
    transitions = []
    for _ in range(rng.randrange(3 * n + 1)):
        actions = tuple(rng.choice(("", "", "i", "or")) for _ in range(k))
        acc = frozenset(i for i in range(m) if rng.random() < 0.4)
        transitions.append(
            Transition(
                rng.randrange(n), random_cube(rng, props), actions, acc, rng.randrange(n)
            )
        )
    return CounterAutomaton(
        num_states=n,
        init=rng.randrange(n),
        num_counters=k,
        num_acc_sets=m,
        transitions=tuple(transitions),
        ap=tuple(props),
    )


def word_model(word: LassoWord, props) -> CounterAutomaton:
    """The one-word automaton reading exactly the lasso word."""
    total = len(word.prefix) + len(word.cycle)
    transitions = []
    for pos in range(total):
        letter = word.letter(pos)
        nxt = pos + 1 if pos + 1 < total else len(word.prefix)
        letter_cube = Cube(frozenset(letter), frozenset(props) - letter)
        transitions.append(Transition(pos, letter_cube, (), frozenset(), nxt))
    return CounterAutomaton(total, 0, 0, 0, tuple(transitions), ap=tuple(props))


# ---------------------------------------------------------------------------
# brute-force reference procedures


def _kosaraju(nodes, edges):
    """SCC ids by two DFS sweeps; nothing shared with the package's Tarjan."""
    succ = {u: [] for u in nodes}
    pred = {u: [] for u in nodes}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter(succ[root]))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    comp, current = {}, -1
    for root in reversed(order):
        if root in comp:
            continue
        current += 1
        stack = [root]
        comp[root] = current
        while stack:
            node = stack.pop()
            for nxt in pred[node]:
                if nxt not in comp:
                    comp[nxt] = current
                    stack.append(nxt)
    return comp


def naive_has_accepting_cycle(nodes, edges, num_acc_sets) -> bool:
    """edges: (src, dst, accsets). True iff some reachable-from-anywhere SCC
    contains internal edges jointly covering every acceptance set."""
    comp = _kosaraju(list(nodes), [(u, v) for u, v, _ in edges])
    cover = {}
    internal = set()
    for u, v, acc in edges:
        if comp[u] == comp[v]:
            internal.add(comp[u])
            cover[comp[u]] = cover.get(comp[u], frozenset()) | acc
    for cid in internal:
        if len(cover[cid]) == num_acc_sets or set(cover[cid]) >= set(range(num_acc_sets)):
            return True
    return False


def naive_is_empty(aut: CounterAutomaton) -> bool:
    reach = {aut.init}
    frontier = [aut.init]
    by_src = {}
    for t in aut.transitions:
        by_src.setdefault(t.src, []).append(t)
    while frontier:
        s = frontier.pop()
        for t in by_src.get(s, ()):
            if t.dst not in reach:
                reach.add(t.dst)
                frontier.append(t.dst)
    edges = [(t.src, t.dst, t.acc) for t in aut.transitions if t.src in reach]
    return not naive_has_accepting_cycle(reach, edges, aut.num_acc_sets)


def naive_accepts(aut: CounterAutomaton, word: LassoWord) -> bool:
    """Membership of a lasso word, via the unrolled (state, position) graph."""
    period = len(word.prefix) + len(word.cycle)

    def bump(i):
        return i + 1 if i + 1 < period else len(word.prefix)

    by_src = {}
    for t in aut.transitions:
        by_src.setdefault(t.src, []).append(t)
    start = (aut.init, 0)
    reach = {start}
    frontier = [start]
    edges = []
    while frontier:
        state, pos = frontier.pop()
        for t in by_src.get(state, ()):
            if not t.cube.matches(word.letter(pos)):
                continue
            nxt = (t.dst, bump(pos))
            edges.append(((state, pos), nxt, t.acc))
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    return naive_has_accepting_cycle(reach, edges, aut.num_acc_sets)


def whole_unfolding(aut: CounterAutomaton, t: int, bounded: bool = False) -> tuple[int, list[tuple]]:
    """The unfolding a threshold test of aut at t explores, built whole.

    A configuration pairs a state with the values of the tracked counters,
    capped at t: the observed ones, or with bounded=True the incremented
    ones; at t = 0 a capped unfolding tracks none.  An edge that observes a
    value below t is dropped, or, bounded, an edge that would increment a
    counter past t.  Returns the number of configurations and the edges
    (src, dst, acceptance sets, transition), numbered in BFS order.  This
    was the model front end's threshold test before it ran on the fly
    (`automaton._accepts`), and tests compare the two.
    """
    key = "i" if bounded else "o"
    tracked = sorted({
        c for tr in aut.transitions for c, acts in enumerate(tr.actions) if key in acts
    }) if t or bounded else []
    by_src = {}
    for tr in aut.transitions:
        by_src.setdefault(tr.src, []).append(tr)
    start = (aut.init, (0,) * len(tracked))
    index = {start: 0}
    order = [start]
    edges = []
    for s, (state, vals) in enumerate(order):
        for tr in by_src.get(state, ()):
            new = list(vals)
            passed = True
            for k, c in enumerate(tracked):
                act = tr.actions[c]
                if act == "i":
                    if new[k] < t:
                        new[k] += 1
                    elif bounded:
                        passed = False
                if "o" in act and not bounded and new[k] < t:
                    passed = False
                if "r" in act:
                    new[k] = 0
            if not passed:
                continue
            tgt = (tr.dst, tuple(new))
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
            edges.append((s, index[tgt], tr.acc, tr))
    return len(order), edges


def whole_unfolding_accepts(aut: CounterAutomaton, t: int, bounded: bool = False) -> bool:
    """Does `whole_unfolding(aut, t, bounded)` hold an accepting component?"""
    num_configs, edges = whole_unfolding(aut, t, bounded)
    return bool(accepting_components(num_configs, edges, aut.num_acc_sets)[1])


def brute_eval(phi: Formula, word: LassoWord, pos: int = 0, fuel: int | None = None) -> bool:
    """Bounded-window LTL evaluation; the window exceeds one full period
    past the prefix, so verdicts are stable on a lasso."""
    if fuel is None:
        fuel = len(word.prefix) + 2 * len(word.cycle) + 16
    name = type(phi).__name__
    if name == "TrueF":
        return True
    if name == "FalseF":
        return False
    if name == "Lit":
        return (phi.name in word.letter(pos)) == phi.positive
    if name == "And":
        return brute_eval(phi.left, word, pos, fuel) and brute_eval(phi.right, word, pos, fuel)
    if name == "Or":
        return brute_eval(phi.left, word, pos, fuel) or brute_eval(phi.right, word, pos, fuel)
    if name == "Next":
        return brute_eval(phi.operand, word, pos + 1, fuel)
    if name == "Until":
        for j in range(pos, pos + fuel):
            if brute_eval(phi.right, word, j, fuel):
                return True
            if not brute_eval(phi.left, word, j, fuel):
                return False
        return False
    if name == "Release":
        for j in range(pos, pos + fuel):
            if not brute_eval(phi.right, word, j, fuel):
                return False
            if brute_eval(phi.left, word, j, fuel):
                return True
        return True
    raise TypeError(f"brute_eval cannot handle {name}")


def instantiation_sup(model: CounterAutomaton, phi: Formula, cutoff: int | None = None) -> BoundResult:
    """sup of a formula over the model by the paper's instantiation route:
    per threshold n, translate phi & phi[n+1] afresh, product it with the
    model and look for an accepting lasso; a found run raises n to its
    value (conjoining phi keeps phi's counters in the product), an empty
    product certifies n.  A U<= formula goes through its R> dual, whose sup
    is one less when it is at least 1; a dual sup of 0 covers U<= sups 0
    and 1 alike, and one emptiness probe of not(phi[0]) against the model
    separates them.  Same cutoff rule (a value past a cutoff below formula
    states x model states is `cutoff-reached`) and result shape as
    `compute_sup_bound`, which tests compare against it."""

    def pruned(f):
        return prune_dominated(build_counter_automaton(f))

    if classify_fragment(phi) == COST_LE:
        inner = instantiation_sup(model, negate_dual(phi), cutoff)
        if inner.outcome != "finite":
            return inner
        bound, word = inner.bound + 1, inner.witness
        if bound == 1:
            hit = find_accepting_lasso(
                synchronized_product(pruned(negate_dual(instantiate(phi, 0))), model)
            )
            bound, word = (0, word) if hit is None else (1, hit[1])
        return BoundResult("finite", bound, word, inner.cutoff, inner.trace)

    sound = pruned(phi).num_states * model.num_states
    limit = sound if cutoff is None else cutoff
    trace = []
    n = 0
    last_word = None
    while True:
        aut = pruned(And(phi, instantiate(phi, n + 1)))
        product = synchronized_product(aut, model)
        hit = find_accepting_lasso(product)
        p = None if hit is None else max(run_value(hit[0], product), n + 1)
        word = None if hit is None else hit[1]
        trace.append(IterationStats(
            "search", n, p, aut.num_states, product.num_states, len(product.transitions), word
        ))
        if word is None:
            if last_word is None:
                any_word = find_accepting_lasso(model)
                last_word = None if any_word is None else any_word[1]
            return BoundResult("finite", n, last_word, limit, tuple(trace))
        if p > limit:
            outcome = "unbounded" if limit >= sound else "cutoff-reached"
            return BoundResult(outcome, None, word, limit, tuple(trace))
        n = p
        last_word = word


def instantiation_inf(model: CounterAutomaton, phi: Formula, cutoff: int | None = None) -> BoundResult:
    """inf of a U<= or plain LTL formula over the model by the paper's
    instantiation route: for n = 0, 1, ... translate phi[n] afresh, product
    it with the model and stop at the first nonempty product, whose n is
    the inf.  A scan of n = 0 .. cutoff - 1 that finds nothing reports
    `infinite-inf`; the default cutoff is 1 for plain LTL (phi[n] does not
    depend on n) and otherwise the pumping size dual states x reachable
    model states x (1 + the product's acceptance sets).  `compute_inf_bound`
    replaced this route, and tests compare against it."""

    def pruned(f):
        return prune_dominated(build_counter_automaton(f))

    trace = []
    limit = cutoff
    n = 0
    while True:
        if limit is not None and n >= limit:
            return BoundResult("infinite-inf", None, None, limit, tuple(trace))
        aut = pruned(instantiate(phi, n))
        product = synchronized_product(aut, model)
        hit = find_accepting_lasso(product)
        word = None if hit is None else hit[1]
        trace.append(IterationStats(
            "search", n, None if hit is None else n, aut.num_states,
            product.num_states, len(product.transitions), word,
        ))
        if limit is None:
            if classify_fragment(phi) == LTL:
                limit = 1
            else:
                sizing = pruned(negate_dual(phi))
                reachable = whole_unfolding(model, 0)[0]
                limit = max(1, sizing.num_states * reachable * (1 + product.num_acc_sets))
        if word is not None:
            return BoundResult("finite", n, word, limit, tuple(trace))
        n += 1


def instantiation_value_inf(phi: Formula, word: LassoWord, cap: int):
    """`oracle.value_inf` by the paper's instantiation route: build phi[n]
    for n = 0, 1, ... up to cap and evaluate each as plain LTL; the first
    that holds is the value."""
    for n in range(cap + 1):
        if eval_ltl_on_lasso(instantiate(phi, n), word):
            return n
    return ABOVE_CAP


def instantiation_value_sup(phi: Formula, word: LassoWord, cap: int):
    """`oracle.value_sup` by the paper's instantiation route: phi[cap]
    holding means ABOVE_CAP, otherwise a bisection over the built phi[n]
    finds the greatest n in 1..cap-1 that holds (0 when none does)."""
    if eval_ltl_on_lasso(instantiate(phi, cap), word):
        return ABOVE_CAP
    best, lo, hi = 0, 1, cap - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if eval_ltl_on_lasso(instantiate(phi, mid), word):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best
