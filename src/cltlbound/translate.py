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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .automaton import CounterAutomaton, Cube, Transition
from .formula import (
    COST_GT,
    LTL,
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
from .graphs import accepting_components

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
        raise FragmentError("U<= does not translate directly; use the dual route")
    else:
        raise TypeError(f"unexpected member {psi!r}")
    return [e for e in raw if e is not None]


def _closure(state: StateSet, memo: dict):
    """All (reduced endpoint, accumulated actions, postponed untils) of the
    maximal epsilon paths out of state.  actions is a sorted tuple of
    (signed counter, action) pairs; each counter may act at most once per
    path."""
    got = memo.get(state)
    if got is not None:
        return got
    edges = reduce_state(state)
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
            for endpoint, actions, marks in _closure(e.target, memo):
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


def _cube_of(state: StateSet) -> Cube:
    pos, neg = [], []
    for f in state:
        if isinstance(f, Lit):
            (pos if f.positive else neg).append(f.name)
    return Cube(frozenset(pos), frozenset(neg))


def _paired_occurrences(phi: Formula) -> frozenset:
    """Labels of R> occurrences that some enclosing operator can demand
    again while an earlier copy is still running; only these need the
    second counter."""
    out = set()

    def walk(f: Formula, multi: bool) -> None:
        if isinstance(f, (CostUntil, CostRelease)) and multi and f.counter is not None:
            out.add(_occ(f))
        if isinstance(f, Until):
            walk(f.left, True)
            walk(f.right, multi)
        elif isinstance(f, Release):
            walk(f.left, multi)
            walk(f.right, True)
        elif isinstance(f, (CostRelease, CostUntil)):
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


def build_counter_automaton(phi: Formula) -> CounterAutomaton:
    """Translate an R>-fragment (or plain LTL) formula to a sup-semantics
    counter automaton; unreachable states and states that cannot reach an
    accepting cycle are removed."""
    frag = classify_fragment(phi)
    if frag not in (COST_GT, LTL):
        raise FragmentError("translation takes the R> fragment (or plain LTL)")
    phi = label_counters(phi)
    labels = cost_operator_count(phi)
    paired = _paired_occurrences(phi)
    slot = {i: i - 1 for i in range(1, labels + 1)}
    for rank, i in enumerate(sorted(paired)):
        slot[-i] = labels + rank
    num_counters = labels + len(paired)

    untils = until_subformulas(phi)
    acc_of = {u: i for i, u in enumerate(untils)}
    num_acc = len(untils)
    ap = propositions(phi)

    init = normalize_state({phi})
    if init is None:
        return CounterAutomaton(1, 0, num_counters, num_acc, (), ap)

    memo: dict = {}
    # The same reduced endpoint shows up under many states and under many
    # action combinations, so its letter crossing and cube are computed
    # once; likewise the acceptance sets per combination of postponements.
    cross_memo: dict = {}
    acc_memo: dict = {frozenset(): frozenset(range(num_acc))}
    index: dict[StateSet, int] = {init: 0}
    order = [init]
    queue = deque([init])
    transitions: list[Transition] = []
    seen = set()
    while queue:
        state = queue.popleft()
        src = index[state]
        for endpoint, actions, marks in _closure(state, memo):
            got = cross_memo.get(endpoint)
            if got is None:
                members, crossing = _step_letter(endpoint)
                got = (normalize_state(members), _cube_of(endpoint), crossing)
                cross_memo[endpoint] = got
            target, cube, crossing = got
            if target is None:
                continue
            action_row = [""] * num_counters
            try:
                for counter, act in actions:
                    action_row[slot[counter]] = act
                for counter in crossing:
                    s = slot[counter]
                    # A pending increment only ever fed the window being
                    # abandoned here, so the reset swallows it.
                    if action_row[s] == "or":
                        raise RuntimeError(
                            "an observation cannot share a step with the hand-off"
                        )
                    action_row[s] = "r"
            except KeyError as k:
                raise RuntimeError(
                    f"window hand-off for occurrence {abs(k.args[0])}, "
                    "which was not sized for overlap"
                ) from None
            acc = acc_memo.get(marks)
            if acc is None:
                acc = acc_memo[frozenset()].difference(acc_of[u] for u in marks)
                acc_memo[marks] = acc
            if target not in index:
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            tr = Transition(src, cube, tuple(action_row), acc, index[target])
            if tr not in seen:
                seen.add(tr)
                transitions.append(tr)
    num_states, init_ix, live_transitions = _live_slice(
        len(order), 0, transitions, num_acc
    )
    return CounterAutomaton(
        num_states, init_ix, num_counters, num_acc, live_transitions, ap
    )


def _live_slice(num_states, init, transitions, num_acc_sets):
    """Restrict to states from which an accepting cycle is reachable (plus
    the initial state); this never changes the language or the values.
    Returns the renumbered (state count, initial state, transitions)."""
    edges = [(t.src, t.dst, t.acc) for t in transitions]
    comp_of, accepting = accepting_components(num_states, edges, num_acc_sets)
    rev: dict[int, list[int]] = {}
    for t in transitions:
        rev.setdefault(t.dst, []).append(t.src)
    live = {s for s in range(num_states) if comp_of[s] in accepting}
    queue = deque(live)
    while queue:
        v = queue.popleft()
        for u in rev.get(v, ()):
            if u not in live:
                live.add(u)
                queue.append(u)
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


def _action_dominates(strong: str, weak: str) -> bool:
    # Increment beats skip for sup semantics; observe-reset and the window
    # hand-off reset compare to nothing but themselves.
    if strong == weak:
        return True
    return strong == "i" and weak == ""


def prune_dominated(aut: CounterAutomaton) -> CounterAutomaton:
    """Drop transitions dominated by a sibling with the same endpoints and
    acceptance, a subsuming cube, and per-counter actions at least as
    strong.  Values under sup semantics are preserved."""
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
            and all(_action_dominates(x, y) for x, y in zip(s.actions, t.actions))
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
