"""Seeded generators and independent brute-force checkers for the tests.

Everything here is deliberately naive: the brutes re-decide questions the
package answers, by different algorithms, so the two sides can disagree
loudly in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache

from cltlbound.automaton import (
    CounterAutomaton,
    Cube,
    Transition,
    _ModelProduct,
    narrow,
    synchronized_product,
)
from cltlbound.cegar import BoundResult, IterationStats, run_value
from cltlbound.emptiness import find_accepting_lasso, reachable_part
from cltlbound.formula import (
    COST_GT,
    FALSE,
    LTL,
    MIXED,
    TRUE,
    And,
    FalseF,
    Formula,
    FragmentError,
    Lit,
    Next,
    Or,
    Release,
    TrueF,
    Until,
    CostRelease,
    CostUntil,
    classify_fragment,
    cost_operator_count,
    instantiate,
    label_counters,
    negate_dual,
    propositions,
    sort_key,
    subformulas,
    until_subformulas,
)
from cltlbound.graphs import accepting_components
from cltlbound.oracle import eval_ltl_on_lasso
from cltlbound.translate import (
    Carry,
    _live_slice,
    _paired_occurrences,
    build_counter_automaton,
)
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
    actions=("", "", "i", "or"),
) -> CounterAutomaton:
    n = rng.randrange(1, max_states + 1)
    m = rng.randrange(max_acc + 1)
    k = rng.randrange(max_counters + 1)
    transitions = []
    for _ in range(rng.randrange(3 * n + 1)):
        acts = tuple(rng.choice(actions) for _ in range(k))
        acc = frozenset(i for i in range(m) if rng.random() < 0.4)
        transitions.append(
            Transition(rng.randrange(n), random_cube(rng, props), acts, acc, rng.randrange(n))
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
    return bool(accepting_components(num_configs, edges, aut.num_acc_sets))


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
    product certifies n.  A U<= or plain formula goes through its R> dual,
    whose sup is one less when it is at least 1; a dual sup of 0 covers
    U<= sups 0 and 1 alike, and one emptiness probe of not(phi[0]) against
    the model separates them.  Same cutoff rule (a value past a cutoff
    below formula states x model states is `cutoff-reached`) and result
    shape as `compute_sup_bound`, which tests compare against it."""

    if classify_fragment(phi) != COST_GT:
        inner = _instantiation_sup_direct(model, negate_dual(phi), cutoff)
        if inner.outcome != "finite":
            return inner
        bound, word = inner.bound + 1, inner.witness
        if bound == 1:
            hit = find_accepting_lasso(
                synchronized_product(build_counter_automaton(negate_dual(instantiate(phi, 0))), model)
            )
            bound, word = (0, word) if hit is None else (1, hit[1])
        return BoundResult("finite", bound, word, inner.cutoff, inner.trace)
    return _instantiation_sup_direct(model, phi, cutoff)


def cutoff_sup(model: CounterAutomaton, phi: Formula, cutoff: int | None = None) -> BoundResult:
    """sup of a formula over the model by the pumping cutoff: the sup
    search before its runs proved `unbounded` themselves.  It builds the
    formula's whole automaton and takes a value above formula states x
    reachable model states as proof that the sup is infinite; a value
    above a user cutoff below that is `cutoff-reached`.  The pumping
    argument behind the cutoff holds for runs with one observed counter
    (`cegar._pumps` has the general rule), and the two routes agree on the
    corpora the tests draw.  A U<= or plain formula goes through its R>
    dual.  Same result shape as `compute_sup_bound`, without trace rows;
    the cutoff field holds the cutoff used."""
    if classify_fragment(phi) != COST_GT:
        r = _cutoff_sup_direct(model, negate_dual(phi), cutoff)
        return replace(r, bound=r.bound + 1) if r.outcome == "finite" else r
    r = _cutoff_sup_direct(model, phi, cutoff)
    return replace(r, bound=max(r.bound, 0)) if r.outcome == "finite" else r


def _cutoff_sup_direct(model, phi, cutoff):
    aut = build_counter_automaton(phi)
    sound = aut.num_states * reachable_part(model)[0]
    limit = sound if cutoff is None else cutoff
    product = _ModelProduct(aut, model)
    words = [None]

    def test(t, lo, hi):
        hit = find_accepting_lasso(product, t)
        if hit is None:
            return lo, t
        words.append(hit[1])
        return run_value(hit[0], product), hi

    best, _ = narrow(test, -1, None, limit + 1, (1,))
    if best > limit:
        outcome = "unbounded" if limit >= sound else "cutoff-reached"
        return BoundResult(outcome, None, words[-1], limit, ())
    return BoundResult("finite", best, words[-1], limit, ())


def _instantiation_sup_direct(model, phi, cutoff):
    sound = build_counter_automaton(phi).num_states * model.num_states
    limit = sound if cutoff is None else cutoff
    trace = []
    n = 0
    last_word = None
    while True:
        aut = build_counter_automaton(And(phi, instantiate(phi, n + 1)))
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

    trace = []
    limit = cutoff
    n = 0
    while True:
        if limit is not None and n >= limit:
            return BoundResult("infinite-inf", None, None, limit, tuple(trace))
        aut = build_counter_automaton(instantiate(phi, n))
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
                sizing = build_counter_automaton(negate_dual(phi))
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


# -- the frozenset tableau ----------------------------------------------------
#
# `translate.Tableau` before its members were interned: states are
# frozensets of formulas, the pick order is tested by subformula
# membership, and every memo is keyed by a frozenset.  The interned Tableau
# must explore the same states, numbered alike, with the same transitions
# in the same order.


@dataclass(frozen=True)
class EpsilonEdge:
    """One rewrite step: source set to target set, with the counter action
    it performs, the Until it postpones (if any), and the counters whose
    windows the step abandons (re-demanded occurrences handing over to
    their partner)."""

    source: frozenset
    target: frozenset
    counter: int | None
    action: str
    postponed: Formula | None
    resets: tuple[int, ...] = ()


def _occ(f: CostRelease) -> int:
    return abs(f.counter)


@lru_cache(maxsize=65536)
def _flip(f: CostRelease) -> CostRelease:
    return CostRelease(f.left, f.right, -f.counter)


def _unflag(f: Formula) -> Formula:
    if isinstance(f, CostRelease) and f.counter is not None and f.counter < 0:
        return _flip(f)
    return f


def normalize_state(members) -> frozenset | None:
    """Drop top, reject sets holding bottom or a contradictory literal pair."""
    out = set()
    pos, neg = set(), set()
    for f in members:
        if isinstance(f, TrueF):
            continue
        if isinstance(f, FalseF):
            return None
        if isinstance(f, Lit):
            (pos if f.positive else neg).add(f.name)
        out.add(f)
    if pos & neg:
        return None
    return frozenset(out)


def _is_reduced(phi) -> bool:
    return isinstance(phi, (Lit, Next, Carry))


def is_reduced_state(state: frozenset) -> bool:
    return all(_is_reduced(f) for f in state)


@lru_cache(maxsize=65536)
def _subformula_set(f: Formula) -> frozenset:
    return frozenset(subformulas(f))


def _pick(state: frozenset) -> Formula | None:
    """The member to rewrite next: maximal under the subformula order among
    the non-reduced members, ties broken by a fixed total order.  Members
    on their partner counter compare as the occurrence itself."""
    candidates = [f for f in state if not _is_reduced(f)]
    if not candidates:
        return None
    maximal = [
        f
        for f in candidates
        if not any(
            g is not f and _unflag(f) in _subformula_set(_unflag(g))
            for g in candidates
        )
    ]
    return min(maximal, key=sort_key)


def reduce_state(state: frozenset) -> list[EpsilonEdge]:
    """The epsilon steps rewriting the picked member; [] when reduced.

    Targets that normalize away (contradictions) are not emitted.  A step
    whose additions demand an R> occurrence that is already running merges
    the copies: the member flips to its partner counter and the step
    records a reset of the abandoned one.
    """
    psi = _pick(state)
    if psi is None:
        return []
    rest = set(state)
    rest.discard(psi)

    def edge(adds, counter=None, action="", postponed=None):
        members = set(rest)
        resets = []
        for a in adds:
            if isinstance(a, CostRelease) and a.counter is not None:
                running = next(
                    (
                        g
                        for g in members
                        if isinstance(g, CostRelease)
                        and g.counter is not None
                        and _occ(g) == _occ(a)
                    ),
                    None,
                )
                if running is not None:
                    members.discard(running)
                    members.add(_flip(running))
                    resets.append(running.counter)
                    continue
                if any(
                    isinstance(g, Carry) and _occ(g.body) == _occ(a)
                    for g in members
                ):
                    raise RuntimeError(
                        f"occurrence {_occ(a)} re-demanded after it already "
                        "reduced on this epsilon path"
                    )
            members.add(a)
        target = normalize_state(members)
        if target is None:
            return None
        return EpsilonEdge(
            state, target, counter, action, postponed, tuple(sorted(resets))
        )

    if isinstance(psi, And):
        raw = [edge({psi.left, psi.right})]
    elif isinstance(psi, Or):
        raw = [edge({psi.left}), edge({psi.right})]
    elif isinstance(psi, Until):
        raw = [
            edge({psi.right}),
            edge({psi.left, Next(psi)}, postponed=psi),
        ]
    elif isinstance(psi, Release):
        raw = [
            edge({psi.left, psi.right}),
            edge({psi.right, Next(psi)}),
        ]
    elif isinstance(psi, CostRelease):
        if psi.counter is None:
            raise ValueError("R> needs a counter label before reduction")
        raw = [
            edge({psi.left, psi.right}, counter=psi.counter, action="or"),
            edge({psi.left, psi.right, Carry(psi)}, counter=psi.counter, action="i"),
            edge({psi.right, Carry(psi)}),
        ]
    elif isinstance(psi, CostUntil):
        if psi.counter is None:
            raise ValueError("U<= needs a counter label before reduction")
        raw = [
            edge({psi.right}, counter=psi.counter, action="r"),
            edge({psi.left, Next(psi)}, postponed=psi),
            edge({Next(psi)}, counter=psi.counter, action="i", postponed=psi),
        ]
    else:
        raise TypeError(f"unexpected member {psi!r}")
    return [e for e in raw if e is not None]


def _cube_of(state: frozenset) -> Cube:
    pos, neg = [], []
    for f in state:
        if isinstance(f, Lit):
            (pos if f.positive else neg).append(f.name)
    return Cube(frozenset(pos), frozenset(neg))


def _step_letter(endpoint: frozenset):
    """Cross one letter: unwrap X and continuation members into the next
    obligations.  A continuation meeting a fresh X demand of the same
    occurrence merges onto the partner counter; the abandoned counter is
    reset on the crossing transition."""
    carried = set()
    conts: dict[int, CostRelease] = {}
    spawns: dict[int, CostRelease] = {}
    for f in endpoint:
        if isinstance(f, Carry):
            body = f.body
            if _occ(body) in conts:
                raise RuntimeError("two copies of one occurrence carried at once")
            conts[_occ(body)] = body
        elif isinstance(f, Next):
            op = f.operand
            if isinstance(op, CostRelease) and op.counter is not None:
                if op.counter < 0:
                    raise RuntimeError("X can only demand an occurrence afresh")
                spawns[_occ(op)] = op
            else:
                carried.add(op)
    resets = []
    for label, body in conts.items():
        if label in spawns:
            carried.add(_flip(body))
            resets.append(body.counter)
            del spawns[label]
        else:
            carried.add(body)
    carried.update(spawns.values())
    return carried, tuple(resets)


class ReferenceTableau:
    """The tableau of one formula, built on demand.

    `successors(state, letter)` returns the transitions leaving a state
    whose cube matches the letter, and `letter=None` returns every one.
    States are numbered in the order they are first reached, so exploring
    the states in that order over all letters numbers them breadth-first
    from the initial state 0, as `build_counter_automaton` does.

    Under a letter the epsilon closure drops every set that holds a literal
    the letter falsifies, before its rewrites are enumerated.  No literal
    ever leaves a set on an epsilon path, so every endpoint below such a
    set would carry the literal in its cube: nothing matching the letter
    is lost.  A word's reader thus builds only the part of the tableau the
    word reaches.  All memos live on the object, one per query.
    """

    def __init__(self, phi: Formula):
        if classify_fragment(phi) == MIXED:
            raise FragmentError("cannot translate a formula mixing U<= and R>")
        phi = label_counters(phi)
        labels = cost_operator_count(phi)
        paired = _paired_occurrences(phi)
        self._slot = {i: i - 1 for i in range(1, labels + 1)}
        for rank, i in enumerate(sorted(paired)):
            self._slot[-i] = labels + rank
        self.num_counters = labels + len(paired)
        untils = until_subformulas(phi)
        self._acc_of = {u: i for i, u in enumerate(untils)}
        self.num_acc_sets = len(untils)
        self.ap = propositions(phi)
        self._props = frozenset(self.ap)
        self.init = 0
        # An unsatisfiable formula keeps one state, None, with no successors.
        init = normalize_state({phi})
        self._sets: list[frozenset | None] = [init]
        self._index: dict[frozenset | None, int] = {init: 0}
        self._reduced: dict[frozenset, list[EpsilonEdge]] = {}
        self._closures: dict[frozenset | None, dict] = {}
        # The same reduced endpoint shows up under many states and under
        # many action combinations, so its letter crossing and cube are
        # computed once; likewise the acceptance sets per combination of
        # postponements.
        self._crossings: dict[frozenset, tuple] = {}
        self._accs: dict[frozenset, frozenset] = {
            frozenset(): frozenset(range(self.num_acc_sets))
        }

    @property
    def num_states(self) -> int:
        """The number of states reached so far."""
        return len(self._sets)

    def successors(self, state: int, letter: frozenset | None) -> list[Transition]:
        members = self._sets[state]
        if members is None:
            return []
        if letter is not None:
            letter &= self._props
        memo = self._closures.setdefault(letter, {})
        out: list[Transition] = []
        seen = set()
        for endpoint, actions, marks in self._closure(members, letter, memo):
            got = self._crossings.get(endpoint)
            if got is None:
                carried, crossing = _step_letter(endpoint)
                got = (normalize_state(carried), _cube_of(endpoint), crossing)
                self._crossings[endpoint] = got
            target, cube, crossing = got
            if target is None:
                continue
            tr = Transition(
                state, cube, self._action_row(actions, crossing),
                self._acc(marks), self._state_id(target),
            )
            if tr not in seen:
                seen.add(tr)
                out.append(tr)
        return out

    def _state_id(self, members: frozenset) -> int:
        got = self._index.get(members)
        if got is None:
            got = self._index[members] = len(self._sets)
            self._sets.append(members)
        return got

    def _acc(self, marks: frozenset) -> frozenset:
        got = self._accs.get(marks)
        if got is None:
            got = self._accs[frozenset()].difference(self._acc_of[u] for u in marks)
            self._accs[marks] = got
        return got

    def _action_row(self, actions, crossing) -> tuple[str, ...]:
        row = [""] * self.num_counters
        try:
            for counter, act in actions:
                row[self._slot[counter]] = act
            for counter in crossing:
                s = self._slot[counter]
                # A pending increment only ever fed the window being
                # abandoned here, so the reset swallows it.
                if row[s] == "or":
                    raise RuntimeError(
                        "an observation cannot share a step with the hand-off"
                    )
                row[s] = "r"
        except KeyError as k:
            raise RuntimeError(
                f"window hand-off for occurrence {abs(k.args[0])}, "
                "which was not sized for overlap"
            ) from None
        return tuple(row)

    def _closure(self, state: frozenset, letter: frozenset | None, memo: dict):
        """All (reduced endpoint, accumulated actions, postponed untils) of
        the maximal epsilon paths out of state whose endpoint's cube
        matches letter.  actions is a sorted tuple of (signed counter,
        action) pairs; each counter may act at most once per path."""
        got = memo.get(state)
        if got is not None:
            return got
        if letter is not None and any(
            isinstance(f, Lit) and (f.name in letter) != f.positive for f in state
        ):
            memo[state] = ()
            return ()
        edges = self._reduced.get(state)
        if edges is None:
            edges = self._reduced[state] = reduce_state(state)
        if not edges:
            # No edges means either a reduced endpoint or a state whose every
            # rewrite was contradictory; the latter branch just dies.
            out = ((state, (), frozenset()),) if is_reduced_state(state) else ()
        else:
            seen = set()
            acc = []
            for e in edges:
                step = tuple((c, "r") for c in e.resets)
                if e.counter is not None:
                    step += ((e.counter, e.action),)
                for endpoint, actions, marks in self._closure(e.target, letter, memo):
                    if step:
                        combined = actions + step
                        if len(combined) > 1:
                            labels = {c for c, _ in combined}
                            if len(labels) != len(combined):
                                raise RuntimeError(
                                    "a counter acted twice on one epsilon path"
                                )
                        actions = tuple(sorted(combined))
                    if e.postponed is not None:
                        marks = marks | {e.postponed}
                    item = (endpoint, actions, marks)
                    if item not in seen:
                        seen.add(item)
                        acc.append(item)
            out = tuple(acc)
        memo[state] = out
        return out


def reference_automaton(phi: Formula) -> CounterAutomaton:
    """phi's automaton with no transition pruned: the ReferenceTableau
    explored whole (every letter at once) and live-sliced as
    `build_counter_automaton` slices.  The build prunes as it goes; tests
    prune this one with `prune_dominated` and compare."""
    tab = ReferenceTableau(phi)
    transitions: list[Transition] = []
    state = 0
    while state < tab.num_states:
        transitions += tab.successors(state, None)
        state += 1
    num_states, init, number = _live_slice(
        tab.num_states, tab.init, [(t.src, t.dst, t.acc) for t in transitions], tab.num_acc_sets
    )
    kept = tuple(
        Transition(number[t.src], t.cube, t.actions, t.acc, number[t.dst])
        for t in transitions
        if t.src in number and t.dst in number
    )
    return CounterAutomaton(num_states, init, tab.num_counters, tab.num_acc_sets, kept, tab.ap)
