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
`successors(state, cube)` collapses the epsilon paths of one state under
the letters of a cube, drops every set holding a literal the cube
falsifies before rewriting it, and drops the dominated transitions: it is
the one dominance point.  `build_counter_automaton` explores it whole,
under the cube true, and removes the states that cannot reach an
accepting cycle.  `automaton.value_on_lasso` reads it lazily along one
lasso word, asking only for the (state, letter) pairs the word reaches:
the on-the-fly construction of Gerth, Peled, Vardi and Wolper ("Simple
on-the-fly automatic verification of linear temporal logic", 1995).

A Tableau interns its members.  Each formula a set can hold gets a small
integer id, and a set is an int whose bit i says that member i is in it.
The labelled formula's subformulas, with both polarities of each literal,
are numbered when the Tableau is made; X psi, the continuation of a
running R> copy and a member moved onto its partner counter are numbered
when first reached.  What a rewrite needs of a member is worked out once
per id: its kind, its occurrence label, the bit of its opposite literal,
and its rewrite alternatives as masks of member ids with the step's
counter action and postponed Until.  Dropping the sets a letter falsifies,
spotting a contradiction, finding the running copy of an occurrence and
recognising a reduced set are each one AND of two ints.

The pick order rests on two more values per member: the mask of the
strict subformulas of its unflagged form (a member on its partner counter
read as the occurrence itself), and its rank, `formula.sort_key`.  One OR
over the masks of a set's non-reduced members covers every member that
sits inside another; the lowest rank among the others is rewritten next.
Nothing is cached at module level: every memo lives on its Tableau, one
per query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automaton import TOP_CUBE, CounterAutomaton, Cube, Transition, _narrow, undominated
from .formula import (
    COST_LE,
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
    children,
    classify_fragment,
    cost_operator_count,
    label_counters,
    propositions,
    sort_key,
    until_subformulas,
)
from .graphs import accepting_components, coreachable


@dataclass(frozen=True)
class Carry:
    """Continuation of an open R> copy, unwrapped at the next letter like X.

    Distinct from a user-written X over the same operand, so a fresh
    demand arriving through X is never mistaken for the copy carrying on.
    """

    body: Formula


Carry.__hash__ = _cached_hash  # hashed as often as the formula nodes


# Member kinds.  The ones from _AND on are rewritten; the others are reduced.
_TRUE, _FALSE, _LIT, _NEXT, _CARRY, _AND, _OR, _UNTIL, _RELEASE, _COST_REL, _COST_UNTIL = (
    range(11)
)
_KIND = {
    TrueF: _TRUE, FalseF: _FALSE, Lit: _LIT, Next: _NEXT, Carry: _CARRY,
    And: _AND, Or: _OR, Until: _UNTIL, Release: _RELEASE,
    CostRelease: _COST_REL, CostUntil: _COST_UNTIL,
}


def _bits(mask: int):
    """The ids of the members of a set, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _paired_occurrences(phi: Formula) -> frozenset:
    """Labels of R> occurrences that some enclosing operator can demand
    again while an earlier copy is still running; only these need the
    second counter.  A U<= occurrence never does (see above)."""
    out = set()

    def walk(f: Formula, multi: bool) -> None:
        if isinstance(f, CostRelease) and multi and f.counter is not None:
            out.add(f.counter)
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


class Tableau:
    """The tableau of one formula, built on demand.

    `successors(state, cube)` returns the transitions leaving a state that
    a letter of the cube can take; the cube true returns every one.  States
    are numbered in the order they are first reached, so exploring them in
    that order under the cube true numbers them breadth-first from the
    initial state 0, as `build_counter_automaton` does.

    Under a cube the epsilon closure drops every set that holds a literal
    the cube falsifies, before its rewrites are enumerated.  No literal
    ever leaves a set on an epsilon path, so every endpoint below such a
    set would carry the literal in its cube: nothing the cube allows is
    lost.  A word's reader thus builds only the part of the tableau the
    word reaches.  All memos live on the object, one per query.
    """

    def __init__(self, phi: Formula):
        fragment = classify_fragment(phi)
        if fragment == MIXED:
            raise FragmentError("cannot translate a formula mixing U<= and R>")
        self._inf = fragment == COST_LE  # its dominance rule
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
        self.init = 0
        # The interned members, one entry per id in each list (see above).
        self._ids: dict = {}
        self._forms: list = []
        self._kind: list[int] = []
        self._arg: list[int] = []  # the operand of X, the body of a Carry
        self._label: list[int] = []  # signed label of an R> member, else 0
        self._opp: list[int] = []  # bit of the opposite literal, else 0
        self._unflagged: list[int] = []
        self._strict: list[int] = []
        self._rank: list = []
        self._templates: list = []
        self._partners: dict[int, int] = {}
        self._nonreduced = 0
        self._occ_bits: dict[int, int] = {}  # the R> members of an occurrence
        self._carry_bits: dict[int, int] = {}  # its Carry members
        self._literals: dict[str, tuple[int, int]] = {}  # bits of p and !p
        # An unsatisfiable formula keeps one state, None, with no successors.
        init = self._normalize([self._intern(phi)])
        self._sets: list[int | None] = [init]
        self._index: dict[int | None, int] = {init: 0}
        self._reduced: dict[int, list] = {}
        self._closures: dict[int, dict] = {}  # one memo per falsified mask
        # The same reduced endpoint shows up under many states and under
        # many action combinations, so its letter crossing and cube are
        # computed once; likewise the acceptance sets per combination of
        # postponements.
        self._crossings: dict[int, tuple] = {}
        self._accs: dict[int, frozenset] = {}

    @property
    def num_states(self) -> int:
        """The number of states reached so far."""
        return len(self._sets)

    # -- interning ---------------------------------------------------------

    def _intern(self, f) -> int:
        """The id of member f, numbering f and its parts on first sight."""
        got = self._ids.get(f)
        if got is not None:
            return got
        kind = _KIND[type(f)]
        if kind == _LIT:
            pos = self._new(Lit(f.name), kind, -1, 0)
            neg = self._new(Lit(f.name, False), kind, -1, 0)
            self._opp[pos], self._opp[neg] = 1 << neg, 1 << pos
            self._literals[f.name] = (1 << pos, 1 << neg)
            return pos if f.positive else neg
        parts = [self._intern(p) for p in ((f.body,) if kind == _CARRY else children(f))]
        strict = 0
        for p in parts:
            strict |= 1 << p | self._strict[p]
        i = self._new(f, kind, parts[0] if kind in (_NEXT, _CARRY) else -1, strict)
        if kind == _COST_REL:
            occ = abs(f.counter)
            self._label[i] = f.counter
            self._occ_bits[occ] = self._occ_bits.get(occ, 0) | 1 << i
            if f.counter < 0:
                self._unflagged[i] = 1 << self._partner(i)
        elif kind == _CARRY and self._label[parts[0]]:
            occ = abs(self._label[parts[0]])
            self._carry_bits[occ] = self._carry_bits.get(occ, 0) | 1 << i
        if kind >= _AND:
            self._nonreduced |= 1 << i
            self._rank[i] = sort_key(f)
        return i

    def _new(self, f, kind: int, arg: int, strict: int) -> int:
        i = len(self._forms)
        self._ids[f] = i
        self._forms.append(f)
        self._kind.append(kind)
        self._arg.append(arg)
        self._label.append(0)
        self._opp.append(0)
        self._unflagged.append(1 << i)
        self._strict.append(strict)
        self._rank.append(None)
        self._templates.append(None)
        return i

    def _partner(self, i: int) -> int:
        """The id of R> member i moved onto its other counter."""
        got = self._partners.get(i)
        if got is None:
            f = self._forms[i]
            got = self._partners[i] = self._intern(CostRelease(f.left, f.right, -f.counter))
        return got

    def _normalize(self, ids) -> int | None:
        """The set of the given members without top; None when it holds
        bottom or a contradictory literal pair."""
        mask = 0
        for i in ids:
            kind = self._kind[i]
            if kind == _FALSE:
                return None
            if kind != _TRUE:
                mask |= 1 << i
        if any(mask & self._opp[i] for i in ids):
            return None
        return mask

    def _members(self, state: int) -> frozenset:
        """The formulas of a set, for tests and debugging."""
        return frozenset(self._forms[i] for i in _bits(state))

    # -- epsilon steps -----------------------------------------------------

    def _pick(self, state: int) -> int | None:
        """The member to rewrite next: maximal under the subformula order among
        the non-reduced members, ties broken by a fixed total order.  Members
        on their partner counter compare as the occurrence itself."""
        candidates = list(_bits(state & self._nonreduced))
        if not candidates:
            return None
        covered = 0
        for i in candidates:
            covered |= self._strict[i]
        return min(
            (i for i in candidates if not self._unflagged[i] & covered),
            key=self._rank.__getitem__,
        )

    def _rewrites(self, psi: int) -> tuple:
        """The rewrite alternatives of member psi, built on first use: (mask of
        the added members but R> ones, added R> members, mask of the added
        literals' opposites, the step's counter action, its postponement as
        an acceptance-set bit).  Alternatives adding bottom are left out."""
        got = self._templates[psi]
        if got is not None:
            return got
        f, kind = self._forms[psi], self._kind[psi]
        left, right = f.left, f.right
        if kind == _AND:
            alts = [((left, right), None, "", None)]
        elif kind == _OR:
            alts = [((left,), None, "", None), ((right,), None, "", None)]
        elif kind == _UNTIL:
            alts = [((right,), None, "", None), ((left, Next(f)), None, "", f)]
        elif kind == _RELEASE:
            alts = [((left, right), None, "", None), ((right, Next(f)), None, "", None)]
        elif kind == _COST_REL:
            alts = [
                ((left, right), f.counter, "or", None),
                ((left, right, Carry(f)), f.counter, "i", None),
                ((right, Carry(f)), None, "", None),
            ]
        else:
            alts = [
                ((right,), f.counter, "r", None),
                ((left, Next(f)), None, "", f),
                ((Next(f),), f.counter, "i", f),
            ]
        out = []
        for adds, counter, action, postponed in alts:
            plain = opp = 0
            demands = []
            for i in map(self._intern, adds):
                if self._kind[i] == _FALSE:
                    break
                if self._label[i]:
                    demands.append(i)
                elif self._kind[i] != _TRUE:
                    plain |= 1 << i
                    opp |= self._opp[i]
            else:
                step = () if counter is None else ((counter, action),)
                mark = 0 if postponed is None else 1 << self._acc_of[postponed]
                out.append((plain, tuple(demands), opp, step, mark))
        got = self._templates[psi] = tuple(out)
        return got

    def _reduce(self, state: int) -> list[tuple]:
        """The epsilon steps rewriting the picked member, as (target, counter
        actions, postponement bit); [] when reduced.

        Targets that are contradictory are not emitted.  A step whose
        additions demand an R> occurrence that is already running merges
        the copies: the member flips to its partner counter and the step
        resets the abandoned one.
        """
        psi = self._pick(state)
        if psi is None:
            return []
        rest = state ^ 1 << psi
        out = []
        for plain, demands, opp, step, mark in self._rewrites(psi):
            members = rest
            resets = []
            for a in demands:
                occ = abs(self._label[a])
                running = members & self._occ_bits[occ]
                if running:
                    r = running.bit_length() - 1
                    members ^= running | 1 << self._partner(r)
                    resets.append(self._label[r])
                elif members & self._carry_bits.get(occ, 0):
                    raise RuntimeError(
                        f"occurrence {occ} re-demanded after it already "
                        "reduced on this epsilon path"
                    )
                else:
                    members |= 1 << a
            target = members | plain
            if target & opp:
                continue
            if resets:
                step = tuple((c, "r") for c in sorted(resets)) + step
            out.append((target, step, mark))
        return out

    def _closure(self, state: int, falsified: int, memo: dict):
        """All (reduced endpoint, accumulated actions, postponed untils) of
        the maximal epsilon paths out of state whose endpoint holds no
        falsified literal.  actions is a sorted tuple of (signed counter,
        action) pairs; each counter may act at most once per path."""
        got = memo.get(state)
        if got is not None:
            return got
        if state & falsified:
            memo[state] = ()
            return ()
        edges = self._reduced.get(state)
        if edges is None:
            edges = self._reduced[state] = self._reduce(state)
        if not edges:
            # No edges means either a reduced endpoint or a state whose every
            # rewrite was contradictory; the latter branch just dies.
            out = () if state & self._nonreduced else ((state, (), 0),)
        else:
            seen = set()
            acc = []
            for target, step, mark in edges:
                for endpoint, actions, marks in self._closure(target, falsified, memo):
                    if step:
                        combined = actions + step
                        if len(combined) > 1:
                            labels = {c for c, _ in combined}
                            if len(labels) != len(combined):
                                raise RuntimeError(
                                    "a counter acted twice on one epsilon path"
                                )
                        actions = tuple(sorted(combined))
                    item = (endpoint, actions, marks | mark)
                    if item not in seen:
                        seen.add(item)
                        acc.append(item)
            out = tuple(acc)
        memo[state] = out
        return out

    # -- letter steps ------------------------------------------------------

    def successors(self, state: int, cube: Cube) -> list[Transition]:
        """The transitions leaving state that a letter of cube can take, each
        once and narrowed to cube, minus those a sibling dominates."""
        members = self._sets[state]
        if members is None:
            return []
        lits = self._literals  # the bits of p and of !p, by p
        falsified = 0
        for p in cube.positive & lits.keys():
            falsified |= lits[p][1]
        for p in cube.negative & lits.keys():
            falsified |= lits[p][0]
        memo = self._closures.get(falsified)
        if memo is None:
            memo = self._closures[falsified] = {}
        out: list[Transition] = []
        seen = set()
        for endpoint, actions, marks in self._closure(members, falsified, memo):
            got = self._crossings.get(endpoint)
            if got is None:
                got = self._crossings[endpoint] = self._cross(endpoint)
            target, own, crossing = got
            if target is None:
                continue
            tr = Transition(
                state, _narrow(own, cube), self._action_row(actions, crossing),
                self._acc(marks), self._state_id(target),
            )
            if tr not in seen:
                seen.add(tr)
                out.append(tr)
        return undominated(out, self._inf, all(t.cube is cube for t in out))

    def _cross(self, endpoint: int):
        """Cross one letter from a reduced endpoint: its cube, and the set
        of the next obligations, unwrapping X and continuation members.  A
        continuation meeting a fresh X demand of the same occurrence merges
        onto the partner counter; the abandoned counter is reset on the
        crossing transition.  Returns (target or None, cube, resets)."""
        carried = []
        conts: dict[int, int] = {}
        spawns: dict[int, int] = {}
        pos, neg = [], []
        for i in _bits(endpoint):
            kind = self._kind[i]
            if kind == _LIT:
                f = self._forms[i]
                (pos if f.positive else neg).append(f.name)
            elif kind == _CARRY:
                occ = abs(self._label[self._arg[i]])
                if occ in conts:
                    raise RuntimeError("two copies of one occurrence carried at once")
                conts[occ] = self._arg[i]
            else:
                op = self._arg[i]
                label = self._label[op]
                if label < 0:
                    raise RuntimeError("X can only demand an occurrence afresh")
                if label:
                    spawns[label] = op
                else:
                    carried.append(op)
        resets = []
        for occ, body in conts.items():
            if spawns.pop(occ, None) is not None:
                carried.append(self._partner(body))
                resets.append(self._label[body])
            else:
                carried.append(body)
        carried += spawns.values()
        cube = Cube(frozenset(pos), frozenset(neg))
        return self._normalize(carried), cube, tuple(resets)

    def _state_id(self, members: int) -> int:
        got = self._index.get(members)
        if got is None:
            got = self._index[members] = len(self._sets)
            self._sets.append(members)
        return got

    def _acc(self, marks: int) -> frozenset:
        got = self._accs.get(marks)
        if got is None:
            got = self._accs[marks] = frozenset(
                i for i in range(self.num_acc_sets) if not marks >> i & 1
            )
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


def build_counter_automaton(phi: Formula) -> CounterAutomaton:
    """Translate a U<=-fragment, R>-fragment or plain LTL formula to a
    counter automaton: its `Tableau` explored whole, under the cube true,
    pruned, with the states that cannot reach an accepting cycle removed.
    The caller reads an R> automaton with capped counters and a U<=
    automaton with bounded ones (see above)."""
    tab = Tableau(phi)
    transitions: list[Transition] = []
    state = 0
    while state < tab.num_states:
        transitions += tab.successors(state, TOP_CUBE)
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
    edge {X}, whose cube is wider, and every a before b then costs 1.
    `Tableau.successors` drops the same transitions state by state, so no
    query calls this; tests prune automata built another way."""
    kept = undominated(list(dict.fromkeys(aut.transitions)), inf)
    return aut if len(kept) == len(aut.transitions) else replace(aut, transitions=tuple(kept))
