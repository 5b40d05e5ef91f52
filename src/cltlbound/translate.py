"""Formula to counter automaton, by tableau construction.

States are sets of formulas.  A set is reduced when every member is a
literal or starts with X; other members are rewritten by epsilon steps
(one rewrite per step, largest member first) until reduced.  Collapsing
the epsilon paths of each state into its letter transitions yields the
automaton: the letter is the cube of literals of the reduced endpoint,
the counter actions accumulate along the path, and a transition leaves
an Until's acceptance set when the path postponed that Until.

Reducing the largest member first guarantees at most one action per
counter on any epsilon path, so collapsed transitions carry atomic
actions only.

Copies of one R> occurrence can overlap: an enclosing operator may
demand its operand again while an earlier copy is still running, and
both copies then share a single set member.  Every step that keeps the
member alive also enforces its right operand, which makes the younger
copy's obligation subsume the older one, so on such a merge the old
counting window is abandoned and a fresh one starts.  Abandoning and
counting cannot share one counter within a single step, so every
occurrence that can be re-demanded while running owns a pair of
counters used alternately: the merge resets the idle partner (one r
action) and hands the window over to it.  Occurrences that can only be
demanded once keep a single counter and never pay for the pair.

Counter ids on epsilon edges are signed occurrence labels: label i for
the occurrence's own counter, -i for its partner.

A U<= occurrence `l U<= r` counts the failures of l before r arrives on
one counter: it rewrites to {r} with a reset, to {l, X(l U<= r)} with no
action, or to {X(l U<= r)} with an increment (a tolerated failure), and
its acceptance set, like an Until's, forces r to arrive.  It needs no
counter pair.  A copy demanded again while one is running merges into it
by set semantics, and the merge is exact: both copies wait for the same
first r, and the older copy's count, which includes the younger's
failures, is the larger.  Such an automaton is read with bounded
counters: a run's value is the largest counter value it reaches, where
an R> automaton's is its least observation (both readings are threshold
tests of `automaton._accepts`).

There is one tableau per formula, a `Tableau`, and it is built on demand:
`successors(state, letter)` collapses the epsilon paths of one state under
one letter, and drops every set holding a literal the letter falsifies
before rewriting it.  `build_counter_automaton` explores it whole, over
every letter, and removes the states that cannot reach an accepting cycle.
`automaton.value_on_lasso` reads it lazily along one lasso word, asking
only for the (state, letter) pairs the word reaches: the on-the-fly
construction of Gerth, Peled, Vardi and Wolper ("Simple on-the-fly
automatic verification of linear temporal logic", 1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automaton import CounterAutomaton, Cube, Transition, action_dominates
from .formula import (
    MIXED,
    And,
    CostRelease,
    CostUntil,
    FalseF,
    Formula,
    FragmentError,
    Lit,
    Next,
    Or,
    Release,
    TrueF,
    Until,
    _cached_hash,
    classify_fragment,
    cost_operator_count,
    label_counters,
    propositions,
    sort_key,
    subformulas,
    until_subformulas,
)
from .graphs import accepting_components, coreachable

StateSet = frozenset


@dataclass(frozen=True)
class Carry:
    """Continuation of an open R> copy, unwrapped at the next letter like X.

    Distinct from a user-written X over the same operand, so a fresh
    demand arriving through X is never mistaken for the copy carrying on.
    """

    body: Formula


Carry.__hash__ = _cached_hash  # hashed as often as the formula nodes


@dataclass(frozen=True)
class EpsilonEdge:
    """One rewrite step: source set to target set, with the counter action
    it performs, the Until it postpones (if any), and the counters whose
    windows the step abandons (re-demanded occurrences handing over to
    their partner)."""

    source: StateSet
    target: StateSet
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


def normalize_state(members) -> StateSet | None:
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


def is_reduced_state(state: StateSet) -> bool:
    return all(_is_reduced(f) for f in state)


@lru_cache(maxsize=65536)
def _subformula_set(f: Formula) -> frozenset:
    return frozenset(subformulas(f))


def _pick(state: StateSet) -> Formula | None:
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


def reduce_state(state: StateSet) -> list[EpsilonEdge]:
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


def _cube_of(state: StateSet) -> Cube:
    pos, neg = [], []
    for f in state:
        if isinstance(f, Lit):
            (pos if f.positive else neg).append(f.name)
    return Cube(frozenset(pos), frozenset(neg))


def _paired_occurrences(phi: Formula) -> frozenset:
    """Labels of R> occurrences that some enclosing operator can demand
    again while an earlier copy is still running; only these need the
    second counter.  A U<= occurrence never does (see above)."""
    out = set()

    def walk(f: Formula, multi: bool) -> None:
        if isinstance(f, CostRelease) and multi and f.counter is not None:
            out.add(_occ(f))
        if isinstance(f, Until):
            walk(f.left, True)
            walk(f.right, multi)
        elif isinstance(f, Release):
            walk(f.left, multi)
            walk(f.right, True)
        elif isinstance(f, CostRelease):
            walk(f.left, True)
            walk(f.right, True)
        elif isinstance(f, Next):
            walk(f.operand, multi)
        elif isinstance(f, (And, Or)):
            walk(f.left, multi)
            walk(f.right, multi)

    walk(phi, False)
    return frozenset(out)


def _step_letter(endpoint: StateSet):
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


class Tableau:
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
        self._sets: list[StateSet | None] = [init]
        self._index: dict[StateSet | None, int] = {init: 0}
        self._reduced: dict[StateSet, list[EpsilonEdge]] = {}
        self._closures: dict[frozenset | None, dict] = {}
        # The same reduced endpoint shows up under many states and under
        # many action combinations, so its letter crossing and cube are
        # computed once; likewise the acceptance sets per combination of
        # postponements.
        self._crossings: dict[StateSet, tuple] = {}
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

    def _state_id(self, members: StateSet) -> int:
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

    def _closure(self, state: StateSet, letter: frozenset | None, memo: dict):
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


def build_counter_automaton(phi: Formula) -> CounterAutomaton:
    """Translate a U<=-fragment, R>-fragment or plain LTL formula to a
    counter automaton: its `Tableau` explored over every letter, with the
    states that cannot reach an accepting cycle removed.  The caller reads
    an R> automaton with capped counters and a U<= automaton with bounded
    ones (see above)."""
    tab = Tableau(phi)
    transitions: list[Transition] = []
    state = 0
    while state < tab.num_states:
        transitions += tab.successors(state, None)
        state += 1
    num_states, init, live_transitions = _live_slice(
        tab.num_states, tab.init, transitions, tab.num_acc_sets
    )
    return CounterAutomaton(
        num_states, init, tab.num_counters, tab.num_acc_sets, live_transitions, tab.ap
    )


def _live_slice(num_states, init, transitions, num_acc_sets):
    """Restrict to states from which an accepting cycle is reachable (plus
    the initial state); this never changes the language or the values.
    Returns the renumbered (state count, initial state, transitions)."""
    edges = [(t.src, t.dst, t.acc) for t in transitions]
    comp_of, accepting = accepting_components(num_states, edges, num_acc_sets)
    live = coreachable(
        num_states, edges, [s for s in range(num_states) if comp_of[s] in accepting]
    )
    if len(live) == num_states:
        return num_states, init, tuple(transitions)
    keep = sorted(live | {init})
    renumber = {old: new for new, old in enumerate(keep)}
    kept = tuple(
        Transition(renumber[t.src], t.cube, t.actions, t.acc, renumber[t.dst])
        for t in transitions
        if t.src in live and t.dst in live
    )
    return len(keep), renumber[init], kept


def prune_dominated(aut: CounterAutomaton, inf: bool = False) -> CounterAutomaton:
    """Drop transitions dominated by a sibling with the same endpoints and
    acceptance, a subsuming cube, and per-counter actions at least as
    strong.  Values are preserved: with inf False under the capped reading
    of an R> automaton, with inf True under the bounded reading of a U<=
    automaton.  The sup rule would change a U<= automaton's values: on
    `a U<= b` it drops the skip edge {a, X} in favour of the increment
    edge {X}, whose cube is wider, and every a before b then costs 1."""
    deduped: list[Transition] = []
    seen = set()
    for t in aut.transitions:
        if t not in seen:
            seen.add(t)
            deduped.append(t)
    groups: dict[tuple, list[Transition]] = {}
    for t in deduped:
        groups.setdefault((t.src, t.dst, t.acc), []).append(t)
    kept = []
    for t in deduped:
        siblings = groups[(t.src, t.dst, t.acc)]
        dominated = any(
            s != t
            and s.cube.subsumes(t.cube)
            and all(action_dominates(x, y, inf) for x, y in zip(s.actions, t.actions))
            for s in siblings
        )
        if not dominated:
            kept.append(t)
    if len(kept) == len(aut.transitions):
        return aut
    return CounterAutomaton(
        aut.num_states,
        aut.init,
        aut.num_counters,
        aut.num_acc_sets,
        tuple(kept),
        aut.ap,
    )
