"""Counter automata on infinite words.

Transitions are labeled by cubes (partial assignments), per-counter actions
and generalized transition-based acceptance: a run accepts when every
acceptance set is visited infinitely often.  A counter takes one of four
actions per transition: "" (skip), "i" (increment), "or" (observe the
value, then reset) and "r" (reset).

A threshold test asks whether some accepting run observes every counter
at t or more.  One engine answers it (`_accepts`): configurations pair a
node with counter values capped at t, and the test explores them depth
first as it generates them and stops at the first accepting cycle it
meets.  With counters bounded instead of capped, the same engine keeps
the runs whose every counter stays at t or below: a U<= automaton's run
is worth its largest counter value.  Two front ends feed it.  The model
front end reads a whole automaton state by state
(`emptiness.find_accepting_lasso`, which the sup and inf searches run on
the formula × model product) and threads a witness lasso through the
accepting component the test stops in.  The lasso front end
(`value_on_lasso`) reads an automaton, or a formula's
`translate.Tableau` translated only as far as the word reaches, along
one lasso word.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graphs import accepting_components, coreachable
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
        return self._by_source

    @cached_property
    def _by_source(self) -> dict[int, list[Transition]]:
        out: dict[int, list[Transition]] = {}
        for t in self.transitions:
            out.setdefault(t.src, []).append(t)
        return out

    def successors(self, state: int, letter: frozenset) -> list[Transition]:
        """The transitions leaving state whose cube matches letter.
        `translate.Tableau` answers the same question without building the
        automaton."""
        return [t for t in self._by_source.get(state, ()) if t.cube.matches(letter)]

    @cached_property
    def _transition_set(self) -> frozenset:
        """Every transition, for `emptiness.check_lasso_run`."""
        return frozenset(self.transitions)

    @cached_property
    def _capped_rows(self):
        """The model front end of a capped threshold test, built once."""
        return _model_rows(self, bounded=False)

    @cached_property
    def _bounded_rows(self):
        """The model front end of a bounded threshold test, built once."""
        return _model_rows(self, bounded=True)


def _model_rows(aut: CounterAutomaton, bounded: bool):
    """The model front end: nodes are the states, and each transition is a
    row labelled by itself, in `by_source` order.  Returns the rows by
    source state and the number of counters the test tracks."""
    num_slots, ops = _counter_ops((tr.actions for tr in aut.transitions), bounded)
    succ: dict[int, list[tuple]] = {}
    for tr in aut.transitions:
        mask = sum(1 << a for a in tr.acc)
        succ.setdefault(tr.src, []).append((tr.dst, mask, ops(tr.actions), tr))
    return succ, num_slots


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


def _counter_ops(action_rows, bounded: bool = False):
    """The number of counters a threshold test tracks, and a compiler of a
    transition's actions into (slot, action char) ops on them.

    action_rows holds the actions of every transition the test can take.
    Capped, only observed counters are tracked: a never-observed counter is
    never tested.  A never-incremented one stays at 0, so its observations
    fail at every positive threshold.  Bounded, only incremented counters
    are tracked, since only an increment can push a counter past the
    bound, and observations play no part.
    """
    key = "i" if bounded else "o"
    tracked = sorted(
        {c for actions in action_rows for c, acts in enumerate(actions) if key in acts}
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


# Both front ends feed `_accepts` the rows leaving each node: (dst node,
# acceptance bitmask, compiled counter ops, label).  The model front end's
# nodes are states and its labels transitions (`_model_rows`); the lasso
# front end's are the nodes and edges of `_lasso_graph`, whose live part
# `value_on_lasso` compiles.


def action_dominates(strong: str, weak: str, inf: bool) -> bool:
    """Can one counter action replace another without lowering any value?

    Where a run is worth its least observation (sup), an increment beats a
    skip; where it is worth its largest counter value (inf), a skip beats
    an increment.  Resets and observations compare to nothing but
    themselves."""
    if strong == weak:
        return True
    return (strong, weak) == (("", "i") if inf else ("i", ""))


def _letter_rows(transitions) -> list[tuple]:
    """The rows (dst, acceptance sets, actions) of the transitions enabled
    under one letter, each once, minus the rows another row dominates: same
    dst and acceptance sets, and counter actions at least as strong under
    the least-observation value (`action_dominates`).  Both rows match the
    letter, so unlike `translate.prune_dominated` no cube is compared."""
    rows = list(dict.fromkeys((t.dst, t.acc, t.actions) for t in transitions))
    if len(rows) < 2:
        return rows
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row[2])
    return [
        row
        for row in rows
        if not any(
            other != row[2]
            and all(action_dominates(x, y, False) for x, y in zip(other, row[2]))
            for other in groups[row[:2]]
        )
    ]


def _lasso_graph(source, word: LassoWord) -> tuple[int, list[tuple]]:
    """The lasso front end: source read along one lasso word.

    source is a CounterAutomaton or a `translate.Tableau`: anything with
    `init`, `num_acc_sets` and `successors(state, letter)`.  Nodes are the
    (state, position) pairs reachable from (init, 0), numbered in BFS
    order, and source is asked only for the (state, letter) pairs they
    hold, once each; a Tableau then translates only what the word reaches.
    Returns the number of nodes and the edges (src, dst, acceptance sets,
    actions), source by source, each source's in `_letter_rows` order.
    """
    pre, total = len(word.prefix), len(word.prefix) + len(word.cycle)
    letters = [word.letter(p) for p in range(total)]
    rows_of: dict[tuple, list[tuple]] = {}
    start = (source.init, 0)
    index = {start: 0}
    order = [start]
    edges = []
    for s, (state, pos) in enumerate(order):
        key = (state, letters[pos])
        rows = rows_of.get(key)
        if rows is None:
            rows = rows_of[key] = _letter_rows(source.successors(*key))
        nxt = pos + 1 if pos + 1 < total else pre
        for dst, acc, actions in rows:
            tgt = (dst, nxt)
            d = index.get(tgt)
            if d is None:
                d = index[tgt] = len(order)
                order.append(tgt)
            edges.append((s, d, acc, actions))
    return len(order), edges


def _accepts(
    succ: dict[int, list[tuple]],
    init: int,
    num_slots: int,
    t: int,
    full: int,
    bounded: bool = False,
    edges: list | None = None,
) -> tuple[tuple | None, int]:
    """The threshold test: does the unfolding at t hold an accepting cycle?

    A configuration pairs a node with the tracked counter values capped at
    t (larger values behave identically for a threshold test), and an edge
    that observes a value below t is dropped.  At t = 0 every observation
    passes and the values stay 0.  Bounded, an edge that would increment a
    counter past t is dropped instead, at t = 0 too.

    The unfolding is explored depth first from (init, 0, ..., 0) as it is
    generated, by Couvreur's SCC-based emptiness check ("On-the-fly
    verification of linear temporal logic", FM'99; see also Renault et
    al., LPAR 2013).  succ rows are (dst node, acceptance bitmask, counter
    ops, label), and full is the mask of every set.  Each root of a
    component still on the stack carries the sets met inside the
    component, and the set of the edge that entered it, which joins the
    component only when an edge back into a live configuration merges it
    with an older root.  The search stops at the first merge covering
    every set; with no sets, at the first cycle.  Finished components are
    marked dead and never merged.

    Returns (found, configurations explored), which on a failed test is
    the whole unfolding.  found is None or (stem, root, component): the
    labels of the rows that entered the DFS frames down to the accepting
    component's root, the root's index, and the indices of the
    component's configurations (the live ones from the root on).  When
    edges is a list, it receives every kept edge explored as (src, dst,
    acceptance bitmask, label); the component's edges cover every set.
    """
    start = (init, (0,) * num_slots)
    index = {start: 0}
    dead: set[int] = set()
    live = [0]  # configurations of unfinished components, in order
    roots = [0]  # index of each unfinished component's root
    sets = [0]  # acceptance sets met inside each of those components
    entry = [0]  # acceptance sets of the edge entering each root
    # A frame: configuration, its index, its rows left, the label entering it.
    todo = [(start, 0, iter(succ.get(init, ())), None)]
    while todo:
        v, s, rows, _ = todo[-1]
        vals = v[1]
        for dst, mask, ops, label in rows:
            if ops:
                # The counter step, inline: it runs once per edge.
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
                w = (dst, tuple(new))
            else:
                w = (dst, vals)
            i = index.get(w)
            if i is None:
                i = index[w] = len(index)
                if edges is not None:
                    edges.append((s, i, mask, label))
                live.append(i)
                roots.append(i)
                sets.append(0)
                entry.append(mask)
                todo.append((w, i, iter(succ.get(dst, ())), label))
                break
            if edges is not None:
                edges.append((s, i, mask, label))
            if i in dead:
                continue
            while roots[-1] > i:
                roots.pop()
                mask |= sets.pop() | entry.pop()
            sets[-1] |= mask
            if sets[-1] == full:
                root = roots[-1]
                stem = [f[3] for f in todo[1:] if f[1] <= root]
                return (stem, root, set(live[bisect_left(live, root):])), len(index)
        else:
            todo.pop()
            if roots[-1] == s:
                roots.pop()
                sets.pop()
                entry.pop()
                while True:
                    u = live.pop()
                    dead.add(u)
                    if u == s:
                        break
    return None, len(index)


def value_on_lasso(aut, word: LassoWord, cap: int):
    """Exact sup-semantics value of the automaton on the given lasso.

    aut is a CounterAutomaton, or a `translate.Tableau` read lazily along
    the word (see `_lasso_graph`).  Returns NO_RUN when no accepting run
    exists (the value is then 0 by the empty-sup convention), ABOVE_CAP
    when every threshold up to cap is achievable (covers infinite values),
    and the exact value otherwise.

    Threshold 0 tests the lasso graph itself; every later test unfolds only
    the nodes from which an accepting component is reachable, since no
    accepting run passes through the others.  After thresholds 0 and 1 the
    cap itself is tested.  Thresholds are monotone, so a pass there answers
    ABOVE_CAP (every infinite value) after three tests.  Otherwise the
    largest achievable threshold is found by doubling from 1 and then
    bisecting the bracket.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    num_nodes, edges = _lasso_graph(aut, word)
    comp_of, accepting = accepting_components(num_nodes, edges, aut.num_acc_sets)
    if not accepting:
        return NO_RUN
    live = coreachable(
        num_nodes, edges, [v for v in range(num_nodes) if comp_of[v] in accepting]
    )
    kept = [e for e in edges if e[1] in live]  # its source is live too
    num_slots, ops = _counter_ops(e[3] for e in kept)
    succ: dict[int, list[tuple]] = {}
    for e in kept:
        mask = sum(1 << a for a in e[2])
        succ.setdefault(e[0], []).append((e[1], mask, ops(e[3]), e))
    full = (1 << aut.num_acc_sets) - 1

    def reaches(t: int) -> bool:
        """Is there an accepting run whose every observation is >= t?"""
        return _accepts(succ, 0, num_slots, t, full)[0] is not None

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
