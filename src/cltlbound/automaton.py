"""Counter automata on infinite words.

Transitions are labeled by cubes (partial assignments), per-counter actions
and generalized transition-based acceptance: a run accepts when every
acceptance set is visited infinitely often.  A counter takes one of four
actions per transition: "" (skip), "i" (increment), "or" (observe the
value, then reset) and "r" (reset).

A threshold test asks whether some accepting run observes every counter
at t or more.  One unfolding engine answers it, with counters capped at
t, for two front ends that feed it the same integer rows: a whole
automaton (`capped_unfolding`, which the sup search runs on the formula ×
model product) and an automaton read along one lasso word
(`value_on_lasso`).  The same engine, with counters bounded instead of
capped, keeps the runs whose every counter stays at n or below
(`bounded_unfolding`, which the inf search runs on the product of a U<=
automaton): a run's value is then its largest counter value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graphs import accepting_components
from .words import ABOVE_CAP, NAME_RE, NO_RUN, LassoWord


@dataclass(frozen=True)
class Cube:
    """A conjunction of literals: positive and negative proposition sets."""

    positive: frozenset = frozenset()
    negative: frozenset = frozenset()

    def __post_init__(self):
        if self.positive & self.negative:
            clash = ", ".join(sorted(self.positive & self.negative))
            raise ValueError(f"contradictory cube on {clash}")

    def matches(self, letter: frozenset) -> bool:
        return self.positive <= letter and not (self.negative & letter)

    def merge(self, other: "Cube") -> "Cube | None":
        """Conjunction of two cubes, or None when they contradict."""
        pos = self.positive | other.positive
        neg = self.negative | other.negative
        if pos & neg:
            return None
        return Cube(pos, neg)

    def subsumes(self, other: "Cube") -> bool:
        """True when every letter matching other also matches self."""
        return self.positive <= other.positive and self.negative <= other.negative

    def to_text(self) -> str:
        parts = sorted(self.positive) + ["!" + p for p in sorted(self.negative)]
        return "&".join(parts) if parts else "true"

    @classmethod
    def from_text(cls, text: str) -> "Cube":
        text = text.strip()
        if text == "true":
            return cls()
        pos, neg = set(), set()
        for raw in text.split("&"):
            lit = raw.strip()
            name = lit[1:].strip() if lit.startswith("!") else lit
            if not NAME_RE.match(name):
                raise ValueError(f"bad literal {raw!r} in cube")
            (neg if lit.startswith("!") else pos).add(name)
        return cls(frozenset(pos), frozenset(neg))


TOP_CUBE = Cube()


@dataclass(frozen=True)
class Transition:
    src: int
    cube: Cube
    actions: tuple[str, ...]
    acc: frozenset
    dst: int


@dataclass(frozen=True)
class LassoRun:
    """A run shaped stem . loop^omega, stored as transition sequences."""

    stem: tuple[Transition, ...]
    loop: tuple[Transition, ...]


@dataclass(frozen=True)
class CounterAutomaton:
    num_states: int
    init: int
    num_counters: int
    num_acc_sets: int
    transitions: tuple[Transition, ...]
    ap: tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("automaton needs at least one state")
        if not 0 <= self.init < self.num_states:
            raise ValueError("initial state out of range")
        for t in self.transitions:
            if not (0 <= t.src < self.num_states and 0 <= t.dst < self.num_states):
                raise ValueError(f"transition endpoint out of range: {t}")
            if len(t.actions) != self.num_counters:
                raise ValueError(f"expected {self.num_counters} action entries: {t}")
            for a in t.actions:
                if a not in ("", "i", "or", "r"):
                    raise ValueError(f"bad counter action {a!r}")
            if any(not 0 <= i < self.num_acc_sets for i in t.acc):
                raise ValueError(f"acceptance index out of range: {t}")

    def by_source(self) -> dict[int, list[Transition]]:
        out: dict[int, list[Transition]] = {}
        for t in self.transitions:
            out.setdefault(t.src, []).append(t)
        return out

    @cached_property
    def _rows(self):
        """The model front end of `capped_unfolding`, built once."""
        return _model_rows(self, bounded=False)

    @cached_property
    def _bounded_rows(self):
        """The model front end of `bounded_unfolding`, built once."""
        return _model_rows(self, bounded=True)


def _model_rows(aut: CounterAutomaton, bounded: bool):
    """The model front end: nodes are the states, rows come in `by_source`
    order."""
    num_slots, ops = _counter_ops(aut, bounded)
    succ: dict[int, list[tuple]] = {}
    for tr in aut.transitions:
        succ.setdefault(tr.src, []).append((tr.dst, tr.acc, ops(tr.actions), tr))
    return succ, aut.init, num_slots


def synchronized_product(a: CounterAutomaton, b: CounterAutomaton) -> CounterAutomaton:
    """Synchronous product; counters and acceptance sets are reindexed
    disjointly (b's shifted after a's).  States are numbered in BFS
    discovery order from the initial pair."""
    a_src = a.by_source()
    b_src = b.by_source()
    start = (a.init, b.init)
    index = {start: 0}
    order = [start]
    queue = deque([start])
    transitions = []
    while queue:
        pair = queue.popleft()
        p, q = pair
        s = index[pair]
        for ta in a_src.get(p, ()):
            for tb in b_src.get(q, ()):
                cube = ta.cube.merge(tb.cube)
                if cube is None:
                    continue
                tgt = (ta.dst, tb.dst)
                if tgt not in index:
                    index[tgt] = len(order)
                    order.append(tgt)
                    queue.append(tgt)
                acc = frozenset(ta.acc) | frozenset(a.num_acc_sets + i for i in tb.acc)
                transitions.append(
                    Transition(s, cube, ta.actions + tb.actions, acc, index[tgt])
                )
    return CounterAutomaton(
        num_states=len(order),
        init=0,
        num_counters=a.num_counters + b.num_counters,
        num_acc_sets=a.num_acc_sets + b.num_acc_sets,
        transitions=tuple(transitions),
        ap=tuple(sorted(set(a.ap) | set(b.ap))),
    )


def _counter_ops(aut: CounterAutomaton, bounded: bool = False):
    """The number of counters a threshold test tracks, and a compiler of a
    transition's actions into (slot, action char) ops on them.

    Capped, only observed counters are tracked: a never-observed counter is
    never tested.  A never-incremented one stays at 0, so its observations
    fail at every positive threshold.  Bounded, only incremented counters
    are tracked, since only an increment can push a counter past the
    bound, and observations play no part.
    """
    key = "i" if bounded else "o"
    tracked = sorted(
        {c for tr in aut.transitions for c, acts in enumerate(tr.actions) if key in acts}
    )
    slot = {c: i for i, c in enumerate(tracked)}
    kept = "ir" if bounded else "ior"
    compiled: dict[tuple[str, ...], tuple[tuple[int, str], ...]] = {}

    def ops(actions: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
        got = compiled.get(actions)
        if got is None:
            got = compiled[actions] = tuple(
                (slot[c], ch)
                for c, acts in enumerate(actions)
                if c in slot
                for ch in acts
                if ch in kept
            )
        return got

    return len(slot), ops


# A front end feeds the unfolding engine (succ, init, num_slots): succ maps
# a node to the rows of the edges leaving it, each row (dst node,
# acceptance sets, compiled counter ops, transition of the automaton).
# The model front end is `CounterAutomaton._rows`, the lasso front end
# `_lasso_rows`.


def _lasso_rows(aut: CounterAutomaton, word: LassoWord):
    """The lasso front end: aut read along one lasso word.  Nodes are the
    (state, position) pairs reachable from (init, 0), numbered in BFS
    order; a node's rows are the transitions of its state whose cube
    matches the letter at its position, in aut's order."""
    pre, total = len(word.prefix), len(word.prefix) + len(word.cycle)
    # Only the letters that actually occur in the word matter, and there
    # are at most as many of those as positions.  Propositions outside
    # the word are indexed implicitly as always-false: a cube requiring
    # one can never match here.
    letters = [word.letter(p) for p in range(total)]
    prop_bit: dict[str, int] = {}
    for letter in letters:
        for p in letter:
            prop_bit.setdefault(p, 1 << len(prop_bit))
    distinct = {}
    for letter in letters:
        if letter not in distinct:
            distinct[letter] = sum(prop_bit[p] for p in letter)
    # One table per distinct letter, shared by every position carrying
    # that letter.  Each transition is matched against each letter once,
    # via bitmask tests.
    num_slots, ops = _counter_ops(aut)
    tables: dict[int, dict[int, list[tuple]]] = {lm: {} for lm in distinct.values()}
    for tr in aut.transitions:
        if any(p not in prop_bit for p in tr.cube.positive):
            continue
        pos_mask = sum(prop_bit[p] for p in tr.cube.positive)
        neg_mask = sum(prop_bit[p] for p in tr.cube.negative if p in prop_bit)
        entry = None
        for lm, table in tables.items():
            if pos_mask & lm == pos_mask and not neg_mask & lm:
                if entry is None:
                    entry = (tr.dst, tr.acc, ops(tr.actions), tr)
                table.setdefault(tr.src, []).append(entry)
    at_pos = [tables[distinct[letter]] for letter in letters]
    start = (aut.init, 0)
    index = {start: 0}
    order = [start]
    succ: dict[int, list[tuple]] = {}
    for s, (state, pos) in enumerate(order):
        nxt = pos + 1 if pos + 1 < total else pre
        row = succ[s] = []
        for dst, acc, tr_ops, tr in at_pos[pos].get(state, ()):
            tgt = (dst, nxt)
            d = index.get(tgt)
            if d is None:
                d = index[tgt] = len(order)
                order.append(tgt)
            row.append((d, acc, tr_ops, tr))
    return succ, 0, num_slots


def _unfold(
    succ: dict[int, list[tuple]],
    init: int,
    num_slots: int,
    t: int,
    bounded: bool = False,
) -> tuple[int, list[tuple]]:
    """The unfolding engine behind both front ends.

    A configuration pairs a node with the tracked counter values capped at
    t (larger values behave identically for a threshold test), and an edge
    that observes a value below t is dropped.  At t = 0 every observation
    passes, so no counter is tracked.  Bounded, an edge that would
    increment a counter past t is dropped instead, at t = 0 too.  Returns
    the number of configurations and the edges (src, dst, acceptance sets,
    transition).  Configurations are numbered in BFS order from the
    initial one, and the edges come out source by source in that order,
    each source's in row order, so the first edge into a configuration is
    its BFS parent.
    """
    track = bool(t or bounded)
    start = (init, (0,) * num_slots if track else ())
    index = {start: 0}
    order = [start]
    edges = []
    for s, (node, vals) in enumerate(order):
        for dst, acc, ops, tr in succ.get(node, ()):
            if track and ops:
                new = list(vals)
                passed = True
                for c, ch in ops:
                    if ch == "i":
                        if new[c] < t:
                            new[c] += 1
                        elif bounded:
                            passed = False
                            break
                    elif ch == "r":
                        new[c] = 0
                    elif new[c] < t:  # "o"
                        passed = False
                        break
                if not passed:
                    continue
                tgt = (dst, tuple(new))
            else:
                tgt = (dst, vals)
            d = index.get(tgt)
            if d is None:
                d = index[tgt] = len(order)
                order.append(tgt)
            edges.append((s, d, acc, tr))
    return len(order), edges


def capped_unfolding(aut: CounterAutomaton, t: int) -> tuple[int, list[tuple]]:
    """The runs of aut whose every counter observation is >= t, as a graph
    whose acceptance alone decides them.

    Returns (number of configurations, edges) from the unfolding engine;
    each edge (src, dst, acceptance sets, transition) is labelled by the
    transition of aut it copies, so a path through the graph is a run of
    aut.  At t = 0 the graph is aut's reachable part.  The counter ops are
    compiled once per automaton and shared by every threshold.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return _unfold(*aut._rows, t)


def bounded_unfolding(aut: CounterAutomaton, n: int) -> tuple[int, list[tuple]]:
    """The runs of aut whose every counter stays at n or below, as a graph
    whose acceptance alone decides them.

    Same output as `capped_unfolding`; a configuration pairs a state with
    the values of the incremented counters, and every edge that would push
    one past n is dropped.  Observations play no part.
    """
    if n < 0:
        raise ValueError("bound must be nonnegative")
    return _unfold(*aut._bounded_rows, n, bounded=True)


def value_on_lasso(aut: CounterAutomaton, word: LassoWord, cap: int):
    """Exact sup-semantics value of the automaton on the given lasso.

    Returns NO_RUN when no accepting run exists (the value is then 0 by
    the empty-sup convention), ABOVE_CAP when every threshold up to cap is
    achievable (covers infinite values), and the exact value otherwise.

    After thresholds 0 and 1 the cap itself is tested.  Thresholds are
    monotone, so a pass there answers ABOVE_CAP (every infinite value)
    after three tests.  Otherwise the largest achievable threshold is
    found by doubling from 1 and then bisecting the bracket.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    rows = _lasso_rows(aut, word)

    def reaches(t: int) -> bool:
        """Is there an accepting run whose every observation is >= t?"""
        num_configs, edges = _unfold(*rows, t)
        return bool(accepting_components(num_configs, edges, aut.num_acc_sets)[1])

    if not reaches(0):
        return NO_RUN
    if not reaches(1):
        return 0
    if cap == 1 or reaches(cap):
        return ABOVE_CAP
    lo = 1  # highest threshold known to pass; cap is known to fail
    while True:
        hi = min(lo * 2, cap)
        if hi == cap or not reaches(hi):
            break
        lo = hi
    best, a, b = lo, lo + 1, hi - 1
    while a <= b:
        mid = (a + b) // 2
        if reaches(mid):
            best = mid
            a = mid + 1
        else:
            b = mid - 1
    return best


def to_dot(aut: CounterAutomaton) -> str:
    """GraphViz rendering; acceptance-set memberships are listed per edge."""
    lines = [
        "digraph counter_automaton {",
        "  rankdir=LR;",
        '  __init [shape=point, label=""];',
        f"  __init -> s{aut.init};",
    ]
    for s in range(aut.num_states):
        lines.append(f'  s{s} [shape=circle, label="{s}"];')
    for t in aut.transitions:
        bits = [t.cube.to_text()]
        acts = ",".join(f"{a}{c + 1}" for c, a in enumerate(t.actions) if a)
        if acts:
            bits.append(acts)
        if t.acc:
            bits.append("{" + ",".join(str(i) for i in sorted(t.acc)) + "}")
        label = " / ".join(bits)
        lines.append(f'  s{t.src} -> s{t.dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
