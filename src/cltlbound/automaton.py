"""Counter automata on infinite words.

Transitions are labeled by cubes (partial assignments), per-counter actions
and generalized transition-based acceptance: a run accepts when every
acceptance set is visited infinitely often.  A counter takes one of four
actions per transition: "" (skip), "i" (increment), "or" (observe the
value, then reset) and "r" (reset).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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

_UNCOMPILED = object()


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


def _counter_slots(aut: CounterAutomaton) -> tuple[dict[int, int], list[int]]:
    """The counters a threshold test must track, as counter -> slot, and
    the observed counters that are never incremented.

    Only counters that are both incremented and observed somewhere need
    tracking: a never-observed counter is never tested, and an observation
    of a never-incremented counter can only pass at threshold 0.
    """
    incremented, observed = set(), set()
    for tr in aut.transitions:
        for c, acts in enumerate(tr.actions):
            if "i" in acts:
                incremented.add(c)
            if "o" in acts:
                observed.add(c)
    slot = {c: i for i, c in enumerate(sorted(observed & incremented))}
    return slot, sorted(observed - incremented)


def capped_unfolding(aut: CounterAutomaton, t: int) -> CounterAutomaton:
    """The runs of aut whose every observation is >= t, as an automaton
    whose acceptance alone decides them.

    A state pairs a state of aut with the tracked counter values capped
    at t (larger values behave identically for this test); transitions
    that observe a value below t are dropped.  Every kept transition is a
    copy of one of aut's with the same cube, actions and acceptance sets,
    so a run of the unfolding reads the same word as a run of aut and
    `run_value` on it is at least t.  States are numbered in BFS discovery
    order from the initial pair.
    """
    if t < 1:
        raise ValueError("threshold must be at least 1")
    slot, unreachable_obs = _counter_slots(aut)
    by_src: dict[int, list[tuple[Transition, tuple]]] = {}
    for tr in aut.transitions:
        # An observation of a never-incremented counter reads 0 < t.
        if any("o" in tr.actions[c] for c in unreachable_obs):
            continue
        ops = tuple(
            (slot[c], ch) for c, acts in enumerate(tr.actions) if c in slot for ch in acts
        )
        by_src.setdefault(tr.src, []).append((tr, ops))
    start = (aut.init, (0,) * len(slot))
    index = {start: 0}
    queue = deque([start])
    transitions = []
    while queue:
        node = queue.popleft()
        s = index[node]
        for tr, ops in by_src.get(node[0], ()):
            vals = list(node[1])
            for c, ch in ops:
                if ch == "i":
                    if vals[c] < t:
                        vals[c] += 1
                elif ch == "r":
                    vals[c] = 0
                elif vals[c] < t:  # "o"
                    break
            else:
                tgt = (tr.dst, tuple(vals))
                if tgt not in index:
                    index[tgt] = len(index)
                    queue.append(tgt)
                transitions.append(Transition(s, tr.cube, tr.actions, tr.acc, index[tgt]))
    return CounterAutomaton(
        num_states=len(index),
        init=0,
        num_counters=aut.num_counters,
        num_acc_sets=aut.num_acc_sets,
        transitions=tuple(transitions),
        ap=aut.ap,
    )


class _LassoProduct:
    """Per-position adjacency of an automaton against a fixed lasso word,
    with counter actions precompiled, shared by every threshold test on
    the same automaton and word.  Counters are tracked as `_counter_slots`
    says; edges observing a never-incremented counter are dropped from
    every positive-threshold search.
    """

    def __init__(self, aut: CounterAutomaton, word: LassoWord):
        pre, cyc = len(word.prefix), len(word.cycle)
        self.total = pre + cyc
        self.succ_pos = [p + 1 if p + 1 < self.total else pre for p in range(self.total)]
        self.init = aut.init
        self.num_acc_sets = aut.num_acc_sets
        self._slot, self._unreachable_obs = _counter_slots(aut)
        self.num_slots = len(self._slot)
        # Only the letters that actually occur in the word matter, and there
        # are at most as many of those as positions.  Propositions outside
        # the word are indexed implicitly as always-false: a cube requiring
        # one can never match here.
        letters = [word.letter(p) for p in range(self.total)]
        prop_bit = {}
        for letter in letters:
            for p in letter:
                prop_bit.setdefault(p, 1 << len(prop_bit))
        distinct = {}
        for letter in letters:
            if letter not in distinct:
                distinct[letter] = sum(prop_bit[p] for p in letter)
        # One adjacency table per distinct letter, shared by every position
        # carrying that letter.  Each transition is matched against each
        # letter once, via bitmask tests.  Entries are mutable so that ops
        # can be filled in lazily: the threshold-0 search never looks at
        # counters, and higher thresholds only visit the reachable part.
        tables = {lm: {} for lm in distinct.values()}
        for tr in aut.transitions:
            if any(p not in prop_bit for p in tr.cube.positive):
                continue
            pos_mask = sum(prop_bit[p] for p in tr.cube.positive)
            neg_mask = sum(prop_bit[p] for p in tr.cube.negative if p in prop_bit)
            entry = None
            for lm in tables:
                if pos_mask & lm == pos_mask and not neg_mask & lm:
                    if entry is None:
                        entry = [tr.dst, tr.acc, _UNCOMPILED, tr.actions]
                    tables[lm].setdefault(tr.src, []).append(entry)
        # rows[pos][state] = [dst, acc, ops, actions] entries for transitions
        # whose cube matches the letter at pos.
        self.rows = [tables[distinct[letter]] for letter in letters]

    def _ops_of(self, entry):
        """Compiled counter ops of one entry: None when the edge observes a
        never-incremented counter (it can only pass at threshold 0), else a
        tuple of (slot, action char)."""
        actions = entry[3]
        if any("o" in actions[c] for c in self._unreachable_obs):
            ops = None
        else:
            slot = self._slot
            ops = tuple(
                (slot[c], ch)
                for c, acts in enumerate(actions)
                if c in slot
                for ch in acts
            )
        entry[2] = ops
        return ops

    def threshold_ok(self, t: int) -> bool:
        """Is there an accepting run whose every observation is >= t?

        Explores the product graph tracking counter values capped at t
        (larger values behave identically for this test).  Edges performing
        an observation below t are dropped; acceptance is then an SCC
        condition on the remaining graph.  At t = 0 every observation
        passes, so counters are not tracked at all.
        """
        zeros = (0,) * self.num_slots
        start = (self.init, 0, zeros) if t else (self.init, 0)
        index = {start: 0}
        order = [start]
        queue = deque([start])
        edges = []
        while queue:
            node = queue.popleft()
            s = index[node]
            state, pos = node[0], node[1]
            nxt = self.succ_pos[pos]
            for entry in self.rows[pos].get(state, ()):
                dst, acc, ops = entry[0], entry[1], entry[2]
                if t == 0:
                    tgt = (dst, nxt)
                else:
                    if ops is _UNCOMPILED:
                        ops = self._ops_of(entry)
                    if ops is None:
                        continue
                    new_vals = list(node[2])
                    ok = True
                    for c, ch in ops:
                        if ch == "i":
                            if new_vals[c] < t:
                                new_vals[c] += 1
                        elif ch == "r":
                            new_vals[c] = 0
                        elif new_vals[c] < t:  # "o"
                            ok = False
                            break
                    if not ok:
                        continue
                    tgt = (dst, nxt, tuple(new_vals))
                if tgt not in index:
                    index[tgt] = len(order)
                    order.append(tgt)
                    queue.append(tgt)
                edges.append((s, index[tgt], acc))
        _, accepting = accepting_components(len(order), edges, self.num_acc_sets)
        return bool(accepting)


def value_on_lasso(aut: CounterAutomaton, word: LassoWord, cap: int):
    """Exact sup-semantics value of the automaton on the given lasso.

    Returns NO_RUN when no accepting run exists (the value is then 0 by
    the empty-sup convention), ABOVE_CAP when every threshold up to cap is
    achievable (covers infinite values), and the exact value otherwise.

    The largest achievable threshold is found by doubling from 1 and then
    bisecting the bracket.  Starting from the bottom keeps the common case
    cheap: the search space at threshold t grows with t, and most words
    fail already at small thresholds.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    product = _LassoProduct(aut, word)
    if not product.threshold_ok(0):
        return NO_RUN
    if not product.threshold_ok(1):
        return 0
    lo = 1  # highest threshold known to pass
    while True:
        hi = min(lo * 2, cap)
        if hi == lo:
            return ABOVE_CAP
        if product.threshold_ok(hi):
            lo = hi
        else:
            break
    best, a, b = lo, lo + 1, hi - 1
    while a <= b:
        mid = (a + b) // 2
        if product.threshold_ok(mid):
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
