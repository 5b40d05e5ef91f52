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
the letters of a cube into rows, plain edges (state, target, acceptance
sets, actions, cube) as `automaton` gives them, each once, and drops the
dominated rows: it is the one dominance point.  `build_counter_automaton`
explores it whole, under the cube true, for the sup search, makes the
rows its transitions and removes the states that cannot reach an
accepting cycle.  The inf search and `automaton.value_on_lasso` read it
lazily, through its product with a model or one word, asking only for
the (state, shared cube) pairs their tests reach (a positive test, only
those it explores before it stops): the on-the-fly construction of
Gerth, Peled, Vardi and Wolper ("Simple on-the-fly automatic
verification of linear temporal logic", 1995).

A Tableau interns its members.  Each formula a set can hold gets a small
integer id, and a set is an int whose bit i says that member i is in it.
The labelled formula's subformulas, with both polarities of each literal,
are numbered when the Tableau is made; X psi, the continuation of a
running R> copy and a member moved onto its partner counter are numbered
when first reached.  What a rewrite needs of a member is worked out once
per id: its kind, its occurrence label, the bit of its opposite literal,
and its rewrite alternatives as masks of member ids with the step's
counter action and postponed Until.  Dropping the rows a letter
falsifies, spotting a contradiction, finding the running copy of an
occurrence and splitting a set into its reduced and non-reduced parts are
each one AND of two ints.

The pick order rests on two more values per member: the mask of the
strict subformulas of its unflagged form (a member on its partner counter
read as the occurrence itself), and its rank, `formula.sort_key`, built
from its parts' ranks when it is numbered (a Carry has none).  One OR
over the masks of a set's non-reduced members covers every member that
sits inside another; the lowest rank among the others is rewritten next.

The epsilon closure is memoized on a set's obligations, its non-reduced
members.  Literals, X and Carry members are never rewritten, and running
R> copies are obligations themselves, so the rewrites of a set, the
member each one picks included, depend on its obligations alone: each
obligations set is reduced once, for every state and cube.  A closure
item is (the reduced members added on the path, its counter actions, its
postponement marks, the R> occurrences it demands afresh), and the
closures are memoized per falsified mask, since a step adding a literal
the cube falsifies is not taken.  `successors` joins the set's own
reduced part to each item: it drops the items whose added literals
contradict that part, and it checks the fresh demands against the part's
Carry members.  No literal leaves a set on an epsilon path, so filtering
at the end keeps exactly the paths that pruning along the way would
keep.  Every state with the same obligations shares one closure per
cube.

Counter actions are ints with two bits per counter slot: skip 0, i 1,
or 2 and r 3 (`automaton.ACTIONS`).  A step's slot is coded when the step
is made, so combining steps is an OR and "a counter acted twice" is an
AND with the step's slot mask.  Rows are deduplicated on int keys and
compared for dominance on their codes; a code is decoded to its tuple of
action strings once per distinct code.  Nothing is cached at module
level: every memo lives on its Tableau, one per query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automaton import (
    _ACTION_CODE,
    TOP_CUBE,
    CounterAutomaton,
    Cube,
    Transition,
    _narrow,
    action_code,
    action_row,
    undominated,
)
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
_TAG = {_AND: "&", _OR: "|", _UNTIL: "U", _RELEASE: "R"}  # as `formula.sort_key` writes them


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

    `successors(state, cube)` returns the rows (state, target, acceptance
    sets, actions, cube) of the transitions leaving a state that a letter
    of the cube can take; the cube true returns every one.  States are
    numbered in the order they are first reached, so exploring them in
    that order under the cube true numbers them breadth-first from the
    initial state 0, as `build_counter_automaton` does.

    Under a cube the closure skips every step that adds a literal the cube
    falsifies, before the steps below it are enumerated, and a state whose
    own literals the cube falsifies has no rows.  No literal ever leaves a
    set on an epsilon path, so every endpoint below such a step would
    carry the literal in its cube: nothing the cube allows is lost.  A
    word's reader thus builds only the part of the tableau the word
    reaches.  All memos live on the object, one per query.

    Internal invariants raise RuntimeError.  "A counter acted twice" and
    "re-demanded after it already reduced" are checked on every epsilon
    path out of a set's obligations that the cube does not falsify,
    including the paths whose literals contradict the set's own.  A
    hand-off to a counter not sized for overlap fails when its step is
    made: an epsilon step when its obligations are first reduced, a
    crossing when a consistent target is first reached through it.  "An
    observation cannot share a step with the hand-off" and the two
    crossing checks ("two copies of one occurrence carried at once", "X
    can only demand an occurrence afresh") fire on the rows that survive
    both filters.
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
        self._carried: list[int] = []  # bit of a Carry's R> occurrence, else 0
        self._unflagged: list[int] = []
        self._strict: list[int] = []
        self._rank: list = []
        self._templates: list = []
        self._partners: dict[int, int] = {}
        self._nonreduced = 0
        self._occ_bits: dict[int, int] = {}  # the R> members of an occurrence
        self._literals: dict[str, tuple[int, int]] = {}  # bits of p and !p
        # An unsatisfiable formula keeps one state, None, with no successors.
        init = self._normalize([self._intern(phi)])
        self._sets: list[int | None] = [init]
        self._index: dict[int | None, int] = {init: 0}
        self._parts: dict[int, tuple] = {}  # by state id, see `_split`
        self._reduced: dict[int, list] = {}  # by obligations
        self._closures: dict[int, dict] = {}  # by falsified mask, then obligations
        # The same reduced endpoint shows up under many states and under
        # many action combinations, so its letter crossing and cube are
        # computed once; likewise the acceptance sets per combination of
        # postponements and the action strings per code.
        self._crossings: dict[int, tuple] = {}
        self._accs: dict[int, frozenset] = {}
        self._action_rows: dict[int, tuple[str, ...]] = {}

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
            pos = self._new(Lit(f.name), kind, -1, 0, (1, f.name))
            neg = self._new(Lit(f.name, False), kind, -1, 0, (1, "!" + f.name))
            self._opp[pos], self._opp[neg] = 1 << neg, 1 << pos
            self._literals[f.name] = (1 << pos, 1 << neg)
            return pos if f.positive else neg
        parts = [self._intern(p) for p in ((f.body,) if kind == _CARRY else children(f))]
        strict = 0
        for p in parts:
            strict |= 1 << p | self._strict[p]
        rank = None if kind == _CARRY else self._rank_of(f, kind, parts)
        i = self._new(f, kind, parts[0] if kind in (_NEXT, _CARRY) else -1, strict, rank)
        if kind == _COST_REL:
            occ = abs(f.counter)
            self._label[i] = f.counter
            self._occ_bits[occ] = self._occ_bits.get(occ, 0) | 1 << i
            if f.counter < 0:
                self._unflagged[i] = 1 << self._partner(i)
        elif kind == _CARRY and self._label[parts[0]]:
            self._carried[i] = 1 << abs(self._label[parts[0]])
        if kind >= _AND:
            self._nonreduced |= 1 << i
        return i

    def _rank_of(self, f, kind: int, parts: list[int]) -> tuple[int, str]:
        """`formula.sort_key` of formula f, from its parts' ranks: its
        node count and its canonical text."""
        ranks = [self._rank[p] for p in parts]
        count = 1 + sum(r[0] for r in ranks)
        if kind == _TRUE:
            return count, "true"
        if kind == _FALSE:
            return count, "false"
        if kind == _NEXT:
            return count, f"X({ranks[0][1]})"
        tag = _TAG.get(kind) or ("U<=" if kind == _COST_UNTIL else "R>") + f"[{f.counter}]"
        return count, f"{tag}({ranks[0][1]},{ranks[1][1]})"

    def _new(self, f, kind: int, arg: int, strict: int, rank) -> int:
        i = len(self._forms)
        self._ids[f] = i
        self._forms.append(f)
        self._kind.append(kind)
        self._arg.append(arg)
        self._label.append(0)
        self._opp.append(0)
        self._carried.append(0)
        self._unflagged.append(1 << i)
        self._strict.append(strict)
        self._rank.append(rank)
        self._templates.append(None)
        return i

    def _partner(self, i: int) -> int:
        """The id of R> member i moved onto its other counter."""
        got = self._partners.get(i)
        if got is None:
            f = self._forms[i]
            got = self._partners[i] = self._intern(CostRelease(f.left, f.right, -f.counter))
        return got

    def _shift(self, counter: int) -> int:
        """The bit offset of a signed counter label's slot in an action code."""
        try:
            return 2 * self._slot[counter]
        except KeyError:
            raise RuntimeError(
                f"window hand-off for occurrence {abs(counter)}, "
                "which was not sized for overlap"
            ) from None

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

    def _pick(self, obligations: int) -> int | None:
        """The member to rewrite next: maximal under the subformula order among
        a set's non-reduced members, ties broken by a fixed total order.
        Members on their partner counter compare as the occurrence itself."""
        candidates = list(_bits(obligations))
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
        the added non-reduced members but R> ones, the added R> members, mask
        of the added reduced members, mask of their literals' opposites, the
        occurrence bits of their Carry members, the step's counter action as
        a code, the mask of the slot it acts on, its postponement as an
        acceptance-set bit).  Alternatives adding bottom or a contradictory
        literal pair are left out."""
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
            pending = added = opp = carried = 0
            demands = []
            for i in map(self._intern, adds):
                if self._kind[i] == _FALSE:
                    break
                if self._label[i]:
                    demands.append(i)
                elif self._kind[i] >= _AND:
                    pending |= 1 << i
                elif self._kind[i] != _TRUE:
                    added |= 1 << i
                    opp |= self._opp[i]
                    carried |= self._carried[i]
            else:
                if added & opp:
                    continue
                code = slots = 0
                if counter is not None:
                    shift = self._shift(counter)
                    code, slots = _ACTION_CODE[action] << shift, 3 << shift
                mark = 0 if postponed is None else 1 << self._acc_of[postponed]
                out.append((pending, tuple(demands), added, opp, carried, code, slots, mark))
        got = self._templates[psi] = tuple(out)
        return got

    def _reduce(self, obligations: int) -> list[tuple]:
        """The epsilon steps rewriting the picked member of a set's
        obligations, as (target's obligations, added reduced members, their
        literals' opposites, their Carry occurrences, action code, mask of
        the slots acted on, postponement bit, occurrences demanded afresh).

        A step whose additions demand an R> occurrence that is already
        running merges the copies: the member flips to its partner counter
        and the step resets the abandoned one.  The partner may be numbered
        here, growing the non-reduced mask; it is an R> member like the
        running copy, so the target's obligations are the rest, the
        demanded or flipped R> members and the added non-reduced members,
        without reading that mask.
        """
        psi = self._pick(obligations)
        if psi is None:
            return []
        rest = obligations ^ 1 << psi
        out = []
        for pending, demands, added, opp, carried, code, slots, mark in self._rewrites(psi):
            members = rest
            fresh = 0
            for a in demands:
                occ = abs(self._label[a])
                running = members & self._occ_bits[occ]
                if running:
                    r = running.bit_length() - 1
                    members ^= running | 1 << self._partner(r)
                    shift = self._shift(self._label[r])
                    if slots >> shift & 3:
                        raise RuntimeError("a counter acted twice on one epsilon path")
                    code |= 3 << shift
                    slots |= 3 << shift
                else:
                    members |= 1 << a
                    fresh |= 1 << occ
            out.append((members | pending, added, opp, carried, code, slots, mark, fresh))
        return out

    def _closure(self, obligations: int, falsified: int, memo: dict) -> tuple:
        """All (added reduced members, action code, postponement marks,
        occurrences demanded afresh) of the maximal epsilon paths out of a
        set's obligations whose added literals agree and hold no falsified
        literal, each once.  Each counter may act at most once per path,
        and no occurrence may be demanded afresh below a step that added
        its Carry member."""
        got = memo.get(obligations)
        if got is not None:
            return got
        if not obligations:
            out: tuple = ((0, 0, 0, 0),)
        else:
            edges = self._reduced.get(obligations)
            if edges is None:
                edges = self._reduced[obligations] = self._reduce(obligations)
            seen = set()
            acc = []
            for target, added, opp, carried, code, slots, mark, fresh in edges:
                if added & falsified:
                    continue
                for more, later, marks, demanded in self._closure(target, falsified, memo):
                    if demanded & carried:
                        raise _redemanded(demanded & carried)
                    if later & slots:
                        raise RuntimeError("a counter acted twice on one epsilon path")
                    if more & opp:
                        continue
                    item = (added | more, code | later, mark | marks, fresh | demanded)
                    if item not in seen:
                        seen.add(item)
                        acc.append(item)
            out = tuple(acc)
        memo[obligations] = out
        return out

    # -- letter steps ------------------------------------------------------

    def _split(self, members: int) -> tuple:
        """A set's own reduced part, its obligations, the opposites of its
        literals and the occurrence bits of its Carry members."""
        own = members & ~self._nonreduced
        clash = carried = 0
        for i in _bits(own):
            clash |= self._opp[i]
            carried |= self._carried[i]
        return own, members ^ own, clash, carried

    def successors(self, state: int, cube: Cube) -> list[tuple]:
        """The rows (state, target, acceptance sets, actions, cube) of the
        transitions leaving state that a letter of cube can take, each once
        and narrowed to cube, minus those a sibling dominates."""
        members = self._sets[state]
        if members is None:
            return []
        parts = self._parts.get(state)
        if parts is None:
            parts = self._parts[state] = self._split(members)
        own, obligations, clash, carried = parts
        lits = self._literals  # the bits of p and of !p, by p
        falsified = asserted = 0
        for p in cube.positive & lits.keys():
            asserted |= lits[p][0]
            falsified |= lits[p][1]
        for p in cube.negative & lits.keys():
            asserted |= lits[p][1]
            falsified |= lits[p][0]
        if own & falsified:
            return []
        memo = self._closures.get(falsified)
        if memo is None:
            memo = self._closures[falsified] = {}
        rows = []
        seen = set()
        for added, code, marks, fresh in self._closure(obligations, falsified, memo):
            if fresh & carried:
                raise _redemanded(fresh & carried)
            if added & clash:
                continue
            endpoint = own | added
            got = self._crossings.get(endpoint)
            if got is None:
                got = self._crossings[endpoint] = self._cross(endpoint)
            target, own_cube, literals, hand_off, low = got
            if target is None:
                continue
            if hand_off:
                # A pending increment only ever fed the window being
                # abandoned here, so the reset swallows it.
                if code >> 1 & ~code & low:
                    raise RuntimeError(
                        "an observation cannot share a step with the hand-off"
                    )
                code |= hand_off
            dst = self._state_id(target)
            # The narrowed cube is the endpoint's literals and the cube's.
            key = (dst, literals | asserted, marks, code)
            if key not in seen:
                seen.add(key)
                rows.append((dst, _narrow(own_cube, cube), marks, code))
        kept = undominated(rows, self._inf)
        return [
            (state, dst, self._acc(marks), self._actions(code), c) for dst, c, marks, code in kept
        ]

    def _cross(self, endpoint: int):
        """Cross one letter from a reduced endpoint: its cube, and the set
        of the next obligations, unwrapping X and continuation members.  A
        continuation meeting a fresh X demand of the same occurrence merges
        onto the partner counter; the abandoned counter is reset on the
        crossing transition.  Returns (target or None, cube, mask of the
        endpoint's literals, the resets' code and the low bit of each
        reset slot)."""
        carried = []
        conts: dict[int, int] = {}
        spawns: dict[int, int] = {}
        pos, neg = [], []
        literals = 0
        for i in _bits(endpoint):
            kind = self._kind[i]
            if kind == _LIT:
                f = self._forms[i]
                (pos if f.positive else neg).append(f.name)
                literals |= 1 << i
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
        target = self._normalize(carried)
        hand_off = low = 0
        if target is not None:
            for counter in resets:
                shift = self._shift(counter)
                hand_off |= 3 << shift
                low |= 1 << shift
        cube = Cube(frozenset(pos), frozenset(neg))
        return target, cube, literals, hand_off, low

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

    def _actions(self, code: int) -> tuple[str, ...]:
        got = self._action_rows.get(code)
        if got is None:
            got = self._action_rows[code] = action_row(code, self.num_counters)
        return got


def _redemanded(occs: int) -> RuntimeError:
    return RuntimeError(
        f"occurrence {occs.bit_length() - 1} re-demanded after it already "
        "reduced on this epsilon path"
    )


def build_counter_automaton(phi: Formula) -> CounterAutomaton:
    """Translate a U<=-fragment, R>-fragment or plain LTL formula to a
    counter automaton: its `Tableau` explored whole, under the cube true,
    pruned, with the states that cannot reach an accepting cycle removed.
    The caller reads an R> automaton with capped counters and a U<=
    automaton with bounded ones (see above)."""
    tab = Tableau(phi)
    rows = []
    state = 0
    while state < tab.num_states:
        rows += tab.successors(state, TOP_CUBE)
        state += 1
    num_states, init, number = _live_slice(tab.num_states, tab.init, rows, tab.num_acc_sets)
    transitions = tuple(
        Transition(number[s], cube, actions, acc, number[d])
        for s, d, acc, actions, cube in rows
        if s in number and d in number
    )
    return CounterAutomaton(
        num_states, init, tab.num_counters, tab.num_acc_sets, transitions, tab.ap
    )


def _live_slice(num_states, init, edges, num_acc_sets):
    """Restrict to states from which an accepting cycle is reachable (plus
    the initial state); this never changes the language or the values.
    edges are tuples starting (src, dst, acceptance sets).  Returns the
    number of states kept, the new initial state and the new number of
    each live state: an edge stays when both its ends are live."""
    comps = accepting_components(num_states, edges, num_acc_sets)
    # Every state of a component is the source of one of its edges.
    live = coreachable(num_states, edges, [edges[k][0] for comp in comps for k in comp])
    keep = sorted(live | {init})
    new = {old: i for i, old in enumerate(keep)}
    return len(keep), new[init], {s: new[s] for s in live}


def prune_dominated(aut: CounterAutomaton, inf: bool = False) -> CounterAutomaton:
    """Drop transitions dominated by a sibling with the same endpoints and
    acceptance, a subsuming cube, and per-counter actions at least as
    strong (`automaton.undominated`).  Values are preserved: with inf
    False under the capped reading of an R> automaton, with inf True under
    the bounded reading of a U<= automaton.  The sup rule would change a
    U<= automaton's values: on `a U<= b` it drops the skip edge {a, X} in
    favour of the increment edge {X}, whose cube is wider, and every a
    before b then costs 1.  `Tableau.successors` drops the same
    transitions state by state, so no query calls this; tests prune
    automata built another way."""
    rows = [
        ((t.src, t.dst), t.cube, t.acc, action_code(t.actions), t)
        for t in dict.fromkeys(aut.transitions)
    ]
    kept = undominated(rows, inf)
    if len(kept) == len(aut.transitions):
        return aut
    return replace(aut, transitions=tuple(row[4] for row in kept))
