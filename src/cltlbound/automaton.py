"""Counter automata on infinite words.

Transitions are labeled by cubes (partial assignments), per-counter actions
and generalized transition-based acceptance: a run accepts when every
acceptance set is visited infinitely often.  A counter takes one of four
actions per transition: "" (skip), "i" (increment), "or" (observe the
value, then reset) and "r" (reset).

Every edge is a plain tuple (src, dst, acceptance sets, actions, cube):
a CounterAutomaton's edges, a `translate.Tableau`'s rows, a model's rows
and a product's edges alike.  A source answers `successors(state,
cube)`: a CounterAutomaton, or a formula's `translate.Tableau`.  One
product (`_ModelProduct`) pairs a source with a whole model or with one
lasso word, the one-path model, node by node; `graphs.reachable_part`
walks it whole, and `synchronized_product` makes a CounterAutomaton of
that.

A threshold test asks whether some accepting run observes every counter
at t or more.  One engine answers it (`_accepts`): configurations pair a
node with counter values capped at t, and the test explores them depth
first as it generates them and stops at the first accepting cycle it
meets; with one tracked counter it skips the configurations a finished
one covers.  With counters bounded instead of capped, the same engine keeps
the runs whose every counter stays at t or below: a U<= automaton's run
is worth its largest counter value.  A test reads a reading's rows,
compiled from plain edges by a `_Succ` when the test first reaches
them: a CounterAutomaton's per state, a product's per (source state,
shared cube), which `_Rows` maps to each node; `_touched` picks the
tracked counters of any source.  The sup and inf searches test a
Tableau × model product (`emptiness.find_accepting_lasso`, which threads
a witness lasso through the accepting component the test stops in),
value mode a Tableau × word product (`value_on_lasso`) through the
sup's capped reading or, for a U<= formula's Tableau, the inf's bounded
one; all three pick their thresholds with `narrow`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .graphs import accepting_components, reachable_part
from .words import ABOVE_CAP, NAME_RE, LassoWord


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

    @classmethod
    def of_edge(cls, edge: tuple) -> Transition:
        """The transition of a plain edge (src, dst, acceptance sets,
        actions, cube), the form automata and products give their edges."""
        src, dst, acc, actions, cube = edge
        return cls(src, cube, actions, acc, dst)


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

    # Read with capped counters by `value_on_lasso`, whatever it counts;
    # a U<= formula's `translate.Tableau` is the one bounded source.
    bounded = False

    def __post_init__(self):
        props = frozenset(self.ap)
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
            if not (t.cube.positive <= props and t.cube.negative <= props):
                raise ValueError(f"cube proposition outside ap {self.ap}: {t}")

    @cached_property
    def by_source(self) -> dict[int, list[Transition]]:
        out: dict[int, list[Transition]] = {}
        for t in self.transitions:
            out.setdefault(t.src, []).append(t)
        return out

    def successors(self, state: int, cube: Cube) -> list[tuple]:
        """The edges leaving state, cubes as built: `_ModelProduct` drops
        the ones the query cube contradicts and conjoins the rest with the
        model's cubes, so the query cube is not applied here."""
        return self.edges(state)

    def edges(self, state: int) -> list[tuple]:
        """The transitions leaving state as plain edges (src, dst,
        acceptance sets, actions, cube)."""
        return self._edges.get(state, ())

    @cached_property
    def _edges(self) -> dict[int, list[tuple]]:
        return {
            s: [(s, t.dst, t.acc, t.actions, t.cube) for t in out]
            for s, out in self.by_source.items()
        }

    @cached_property
    def _capped(self) -> _Succ:
        return _Succ(self.edges, _touched(self, "o"), False, self.num_acc_sets)

    @cached_property
    def _bounded(self) -> _Succ:
        return _Succ(self.edges, _touched(self, "i"), True, self.num_acc_sets)


def _touched(source, key: str) -> list[int]:
    """A threshold test's tracked counters: for a CounterAutomaton, the
    ones some transition acts on with key; for a `translate.Tableau`,
    which lists no transitions, every counter.  Capped, key is "o": a
    never-observed counter is never tested, and a never-incremented one
    stays at 0, so its observations fail at every positive threshold.
    Bounded, key is "i": only an increment can push a counter past the
    bound.  Any superset of these gives the same verdicts."""
    if not isinstance(source, CounterAutomaton):
        return list(range(source.num_counters))
    return sorted({c for t in source.transitions for c, a in enumerate(t.actions) if key in a})


def _narrow(own: Cube, cube: Cube) -> Cube | None:
    """own & cube, or None when they contradict.  Either one is returned
    itself when it is the conjunction already: no cube is made for the
    query true, nor for a query that fixes every proposition."""
    if own is cube or own.subsumes(cube):
        return cube
    if cube.subsumes(own):
        return own
    return own.merge(cube)


def _shared_cube(cubes) -> Cube:
    """The literals every cube of a nonempty list holds."""
    pos = frozenset.intersection(*(c.positive for c in cubes))
    neg = frozenset.intersection(*(c.negative for c in cubes))
    return Cube(pos, neg) if pos or neg else TOP_CUBE


class _ModelProduct:
    """A source's product with a model, node by node, read as a counter
    automaton: counters and acceptance sets are reindexed disjointly (the
    model's shifted after the source's), and node 0 is the initial pair.
    The model is a CounterAutomaton, or a `LassoWord` read as the one-path
    model over the source's ap: position i moves to the next (the cycle's
    first after the last) under its letter as a cube fixing the whole ap.

    Nodes are the (source state, model state) pairs reached from the
    initial pair, numbered as the expansions first meet them; num_states
    counts them.  Each model state keeps its edges, its moves, and its
    shared cube, which all their cubes imply.  The source is asked once
    per (state, shared cube), and the edges it returns that contradict
    the shared cube are dropped.  Each edge left is paired with each move
    whose cube it does not contradict, source-major.

    `edges(s)` makes and keeps node s's edges, the source's sets and
    actions first, for the whole walks, the Streett check and
    `synchronized_product`; `edges_to(s, d)` builds those that reach
    node d alone, for `emptiness.check_lasso_run`.  The threshold tests
    read one of two readings (`_Rows`) instead: capped and best first for
    sup and value mode (`_capped`), bounded for inf and for value mode on
    a U<= formula's Tableau (`_bounded`).  A row
    names the source's edge; `edge` rebuilds the product edge of a
    witness's.
    """

    init = 0

    def __init__(self, source, model: CounterAutomaton | LassoWord):
        shift = source.num_acc_sets
        self._shared: list[int] = []  # each model state's shared cube number
        self._after: list[int | None] = []  # a lone move's target if it has no sets
        numbers: dict = {}  # a shared cube's number, by cube (a word's, by part over ap)
        if isinstance(model, LassoWord):
            props, by_letter = frozenset(source.ap), {}
            for letter in model.prefix + model.cycle:
                k = by_letter.get(letter)
                if k is None:
                    k = by_letter[letter] = numbers.setdefault(letter & props, len(numbers))
                self._shared.append(k)
            self._cubes = [Cube(own, props - own) for own in numbers]  # by number
            self._after = [*range(1, len(self._shared)), len(model.prefix)]
            init, counters, sets, ap = 0, 0, 0, ()
        else:
            self._moves = []  # set here, it hides the word's `_moves`
            for q in range(model.num_states):
                out = model.by_source.get(q, ())
                shared = _shared_cube([t.cube for t in out]) if out else TOP_CUBE
                self._shared.append(numbers.setdefault(shared, len(numbers)))
                moves = []
                for t in out:
                    acc = frozenset(shift + i for i in t.acc) if t.acc else t.acc
                    mask = sum(1 << i for i in acc) if acc else 0
                    moves.append((t.dst, acc, t.actions, t.cube, mask))
                self._moves.append(tuple(moves))
                self._after.append(moves[0][0] if len(moves) == 1 and not moves[0][4] else None)
            self._cubes = list(numbers)
            init, counters, sets, ap = model.init, model.num_counters, model.num_acc_sets, model.ap
        self._source, self._shift = source, shift
        start = (source.init, init)
        self._index = {start: 0}
        self.order = [start]  # the nodes met so far
        self._asked: dict[tuple[int, int], list[tuple]] = {}
        self._expanded: dict[int, list[tuple]] = {}
        self.num_counters = source.num_counters + counters
        self.num_acc_sets = shift + sets
        self.ap = tuple(sorted(set(source.ap) | set(ap)))

    @property
    def num_states(self) -> int:
        return len(self.order)

    @cached_property
    def _moves(self) -> list[tuple[tuple, ...]]:
        """Each model state's moves (dst, acceptance sets, actions, cube,
        sets' bitmask): a word's, made here when first asked for; the
        tests read `_after` alone."""
        none, cubes = frozenset(), map(self._cubes.__getitem__, self._shared)
        return [((d, none, (), cube, 0),) for d, cube in zip(self._after, cubes)]

    def _source_edges(self, key: tuple[int, int]) -> list[tuple]:
        """The source's edges from a state under a shared cube, minus those
        that contradict it; key is (state, shared cube number)."""
        got = self._asked.get(key)
        if got is None:
            cube = self._cubes[key[1]]
            got = self._asked[key] = [
                e for e in self._source.successors(key[0], cube)
                if e[4] is cube or _narrow(e[4], cube) is not None
            ]
        return got

    def edges(self, s: int) -> list[tuple]:
        """The edges (src, dst, acceptance sets, actions, cube) leaving
        node s, the source's sets and actions first.  Node s is expanded
        when first asked for, and its edges kept."""
        edges = self._expanded.get(s)
        if edges is None:
            p, q = self.order[s]
            edges = self._expanded[s] = self._pair(
                s, self._source_edges((p, self._shared[q])), self._moves[q]
            )
        return edges

    def edges_to(self, s: int, d: int) -> list[tuple]:
        """The edges of `edges(s)` that reach node d.  When d is a node
        met already, they are built alone: the source's edges to d's
        source state paired with the moves to d's model state.
        Otherwise node s is expanded, which may meet d."""
        if not 0 <= d < len(self.order):
            return [e for e in self.edges(s) if e[1] == d]
        (p, q), (dst_a, dst_b) = self.order[s], self.order[d]
        pairs = [e for e in self._source_edges((p, self._shared[q])) if e[1] == dst_a]
        return self._pair(s, pairs, tuple(m for m in self._moves[q] if m[0] == dst_b))

    def _pair(self, s: int, pairs: list[tuple], moves: tuple[tuple, ...]) -> list[tuple]:
        """Node s's edges of these source edges and model moves, paired
        source-major where their cubes meet; the nodes they reach are
        numbered as met."""
        index, order, edges = self._index, self.order, []
        for _, dst_a, acc_a, actions_a, cube_a in pairs:
            for dst_b, acc_b, actions_b, cube_b, _ in moves:
                cube = cube_a if cube_a is cube_b else _narrow(cube_a, cube_b)
                if cube is None:
                    continue
                tgt = (dst_a, dst_b)
                d = index.get(tgt)
                if d is None:
                    d = index[tgt] = len(order)
                    order.append(tgt)
                acc = acc_a | acc_b if acc_b else acc_a
                edges.append((s, d, acc, actions_a + actions_b, cube))
        return edges

    def edge(self, s: int, d: int, mask: int, edge: tuple) -> tuple:
        """The product edge, one of `edges(s)`, of a row from node s to d
        with bitmask mask and source edge edge: edge paired with the first
        move to d's model state that completes mask and meets its cube."""
        _, _, acc_a, actions_a, cube_a = edge
        after, own = self.order[d][1], mask >> self._shift << self._shift  # the model's sets
        for dst_b, acc_b, actions_b, cube_b, mask_b in self._moves[self.order[s][1]]:
            if dst_b != after or mask_b != own:
                continue
            cube = cube_a if cube_a is cube_b else _narrow(cube_a, cube_b)
            if cube is not None:
                acc = acc_a | acc_b if acc_b else acc_a
                return (s, d, acc, actions_a + actions_b, cube)
        raise ValueError(f"no edge of node {s} pairs {edge}")

    @cached_property
    def _capped(self) -> _Rows:
        return self._reading(_touched(self._source, "o"), False)

    @cached_property
    def _bounded(self) -> _Rows:
        return self._reading(_touched(self._source, "i"), True)

    def _reading(self, tracked, bounded: bool) -> _Rows:
        if self.num_counters > self._source.num_counters:
            raise ValueError("a threshold test reads no model counters")
        return _Rows(self, _Succ(self._source_edges, tracked, bounded, self.num_acc_sets))


class _Rows(dict):
    """One reading of a `_ModelProduct`, as `_accepts` reads it: node ->
    its rows (dst node, acceptance bitmask, counter ops, source edge),
    made when first looked up.  pairs, a `_Succ` keyed by (source state,
    shared cube number), compiles each pair's rows once; a node pairs
    them in order with its model state's moves.  bounded, num_slots and
    full are pairs'.  A model state with one move and no sets (`_after`:
    every word position, the a-steps of an a^k model, not L_k's two-move
    states) takes a branch with no move loop and no cube test, its move's
    cube being the shared cube.  It stays, though `_pair` has none, because
    every test runs it on every node it expands: without it `value-cap` ran
    1.06-1.14x and `sup-gap` 1.00-1.08x slower (paired runs, 2 cores)."""

    def __init__(self, product: _ModelProduct, pairs: _Succ):
        super().__init__()
        self._product, self._pairs = product, pairs
        self._index, self._order = product._index, product.order
        self._after, self._shared = product._after, product._shared
        self.bounded, self.num_slots, self.full = pairs.bounded, pairs.num_slots, pairs.full

    def __missing__(self, node: int) -> list[tuple]:
        index, order = self._index, self._order
        p, q = order[node]
        rows = self[node] = []
        dst_b = self._after[q]
        if dst_b is not None:  # one move, whose cube is the shared cube, and no sets
            for dst, mask, ops, edge in self._pairs[p, self._shared[q]]:
                tgt = (dst, dst_b)
                d = index.get(tgt)
                if d is None:
                    d = index[tgt] = len(order)
                    order.append(tgt)
                rows.append((d, mask, ops, edge))
            return rows
        moves = self._product._moves[q]
        if not moves:
            return rows
        for dst, mask, ops, edge in self._pairs[p, self._shared[q]]:
            pos, neg = edge[4].positive.isdisjoint, edge[4].negative.isdisjoint
            for dst_b, _, _, cube_b, mask_b in moves:
                if not (pos(cube_b.negative) and neg(cube_b.positive)):
                    continue  # the cubes contradict
                tgt = (dst, dst_b)
                d = index.get(tgt)
                if d is None:
                    d = index[tgt] = len(order)
                    order.append(tgt)
                rows.append((d, mask | mask_b, ops, edge))
        return rows


def synchronized_product(a: CounterAutomaton, b: CounterAutomaton) -> CounterAutomaton:
    """Synchronous product as a whole automaton (`_ModelProduct`, every
    node expanded by `reachable_part`): states are numbered in BFS
    discovery order from the initial pair."""
    product = _ModelProduct(a, b)
    num_states, edges = reachable_part(product)
    transitions = tuple(map(Transition.of_edge, edges))
    return CounterAutomaton(
        num_states, 0, product.num_counters, product.num_acc_sets, transitions, product.ap,
    )


class _Succ(dict):
    """A threshold test's reading of plain edges: key -> the rows leaving
    it, as (dst, acceptance bitmask, counter ops, edge), in order, compiled
    when first looked up from edges_of(key), the edges (src, dst,
    acceptance sets, actions, cube) leaving a CounterAutomaton's state or
    a `_ModelProduct`'s (source state, shared cube number).

    A counter op is (slot, action char), and the tracked counters take the
    slots in the order given.  Capped, a tracked counter keeps its
    increments, resets and observations; bounded, its increments and
    resets only.  bounded, num_slots and full (the mask of all
    num_acc_sets acceptance sets) are kept for the test.

    Capped, the rows come best first (`_row_rank`, computed once per
    distinct counter ops): those that observe least, then reset least,
    then increment most, ties in edge order.  The depth-first test meets
    them in that order, so a passing sup test tends to return a run of
    high value; the order never changes a verdict, since an empty test
    rules out every row, so value mode, which reads verdicts alone, reads
    the same rows.  Bounded, the rows keep the edge order.
    """

    def __init__(self, edges_of, tracked, bounded: bool, num_acc_sets: int):
        super().__init__()
        self._edges_of = edges_of
        self._slot = {c: i for i, c in enumerate(tracked)}
        self.num_slots = len(self._slot)
        self.bounded = bounded
        self.full = (1 << num_acc_sets) - 1
        self._kept = "ir" if bounded else "ior"
        self._ops: dict[tuple[str, ...], tuple[tuple[int, str], ...]] = {}
        self._rank: dict[tuple[tuple[int, str], ...], tuple] | None = None if bounded else {}
        self._masks: dict[frozenset, int] = {}  # the sets are few, and mostly shared

    def __missing__(self, key) -> list[tuple]:
        slot, kept, compiled, rank, masks = (
            self._slot, self._kept, self._ops, self._rank, self._masks
        )
        rows = self[key] = []
        for edge in self._edges_of(key):
            _, dst, acc, actions, _ = edge
            ops = compiled.get(actions)
            if ops is None:
                ops = compiled[actions] = tuple(
                    (slot[c], ch)
                    for c, acts in enumerate(actions)
                    if c in slot
                    for ch in acts
                    if ch in kept
                )
                if rank is not None and ops not in rank:
                    rank[ops] = _row_rank(ops)
            mask = masks.get(acc)
            if mask is None:
                mask = masks[acc] = sum(1 << a for a in acc)
            rows.append((dst, mask, ops, edge))
        if rank is not None and len(rows) > 1:
            rows.sort(key=lambda row: rank[row[2]])
        return rows


def _row_rank(ops: tuple[tuple[int, str], ...]) -> tuple[int, int, int]:
    """The sort key of a capped row's counter ops, least first: the fewest
    observations, then the fewest resets, then the most increments.  A
    passing test then tends to close a lasso of high value."""
    chars = [ch for _, ch in ops]
    return chars.count("o"), chars.count("r"), -chars.count("i")


# A counter's action as a 2-bit code; a row of actions is the int whose
# bits 2c and 2c + 1 hold counter c's code.
ACTIONS = ("", "i", "or", "r")
_ACTION_CODE = {a: code for code, a in enumerate(ACTIONS)}


def action_code(actions: tuple[str, ...]) -> int:
    """The code of a row of actions."""
    code = 0
    for c, a in enumerate(actions):
        code |= _ACTION_CODE[a] << 2 * c
    return code


def action_row(code: int, num_counters: int) -> tuple[str, ...]:
    """The row of actions of a code."""
    return tuple(ACTIONS[code >> 2 * c & 3] for c in range(num_counters))


def undominated(rows: list, inf: bool) -> list:
    """The distinct rows given, minus the ones a sibling dominates.

    A row starts (endpoints, cube, acceptance, action code); whatever
    follows is carried along.  A row dominates a sibling with the same
    endpoints and acceptance when it can replace it without lowering any
    value: its cube covers the sibling's (not compared when every cube is
    one object) and its actions are at least as strong on every counter.
    Where a run is worth its least observation (sup, inf False), an
    increment beats a skip; where it is worth its largest counter value
    (inf), a skip beats an increment.  Resets and observations compare to
    nothing but themselves.  So each code is read as its actions with the
    increments blanked, which must be equal, and the mask of its
    increments (the low bit of each slot coded 1), which must contain the
    other's (sup) or lie inside it (inf).
    `translate.Tableau.successors` is the one caller in a query;
    `translate.prune_dominated` applies it to a whole automaton.
    """
    if len(rows) < 2:
        return rows
    same_cube = all(row[1] is rows[0][1] for row in rows)
    slots = (max(row[3] for row in rows).bit_length() + 1) // 2
    low = (4**slots - 1) // 3  # the low bit of every slot
    siblings: dict[tuple, list[tuple]] = {}
    entries = []
    for row in rows:
        code = row[3]
        incs = code & ~(code >> 1) & low
        key = (row[0], row[2], code ^ incs)
        entries.append((key, incs, row))
        siblings.setdefault(key, []).append((incs, row))
    kept = []
    for key, incs, row in entries:
        if not any(
            other is not row
            and not (more & ~incs if inf else incs & ~more)
            and (same_cube or other[1].subsumes(row[1]))
            for more, other in siblings[key]
        ):
            kept.append(row)
    return kept


def _accepts(
    succ: _Succ | _Rows, init: int, t: int, edges: list | None = None
) -> tuple[tuple | None, int]:
    """The threshold test: does the unfolding at t hold an accepting cycle?

    A configuration pairs a node with the tracked counter values capped at
    t (larger values behave identically for a threshold test), and an edge
    that observes a value below t is dropped.  At t = 0 every observation
    passes and the values stay 0.  Bounded (succ.bounded), an edge that
    would increment a counter past t is dropped instead, at t = 0 too.

    The unfolding is explored depth first from (init, 0, ..., 0) as it is
    generated, by Couvreur's SCC-based emptiness check ("On-the-fly
    verification of linear temporal logic", FM'99; see also Renault et
    al., LPAR 2013).  succ maps a node to its rows (dst node, acceptance
    bitmask, counter ops, edge), made when the search first looks the
    node up (a `_Succ`, or a product's `_Rows`); succ.full is
    the mask of every set.  Each root of a component still on the stack
    carries the sets met inside the component, and the set of the edge
    that entered it, which joins the component only when an edge back
    into a live configuration merges it with an older root.  The search
    stops at the first merge covering every set; with no sets, at the
    first cycle.  Finished components are marked dead and never merged.

    With one tracked counter, a dead configuration also rules out the ones
    it covers at its node.  The step is monotone: capped, (q, x) covers
    (q, y) when x >= y, since an increment or a reset leaves the two
    values in the same order and an observation that passes at y passes
    at x; bounded, when x <= y, since an increment that stays within t at
    y stays within it at x.  So a path from (q, y) replays from (q, x),
    through the same rows and acceptance sets, to configurations that
    cover its own.  A lasso from (q, y) through every set thus replays
    from (q, x); replaying its loop over and over must come back to a
    configuration at the loop's node it has met, since values lie in
    0..t, and the stretch in between runs the loop at least once: an
    accepting cycle of the unfolding reached from (q, x).  The test keeps
    per node the value of the dead configuration that covers most (the
    largest capped, the least bounded), and drops as dead, unnumbered and
    unexplored, every new configuration at that node it covers.  By
    induction over the order in which configurations die or are dropped,
    none of them reaches an accepting cycle: a dropped one is covered by
    a dead one; a component dies with every row of its configurations
    explored, so outside it they reach only dead or dropped ones, and an
    accepting cycle inside it would have been met.  Live configurations
    cover nothing, so no verdict changes, and a cycle found is one of the
    unfolding.  With several tracked counters no record is kept: one
    vector per node seldom covers another there, and a list per node
    costs more than it saves.

    Returns (found, configurations explored), which on a failed test is at
    most the whole unfolding.  found is None, or True when edges is None,
    or else (stem, root, component): the steps (src node, dst node,
    acceptance bitmask, the row's edge) that entered the DFS frames down
    to the accepting component's root, the root's index, and the indices
    of the component's configurations (the live ones from the root on).
    edges receives every kept edge explored as its (src, dst)
    configuration indices and its step; the component's cover every set.
    """
    bounded, full = succ.bounded, succ.full
    start = (init, (0,) * succ.num_slots)
    index = {start: 0}
    dead: set[int] = set()
    # One tracked counter: per node, the key of the dead configuration
    # that covers most, its value capped and minus its value bounded, so
    # that a configuration covers the ones of lower key at its node.
    cover: dict[int, int] | None = {} if succ.num_slots == 1 else None
    sign = -1 if bounded else 1
    configs = [start]  # by index, kept only for the covering
    live = [0]  # configurations of unfinished components, in order
    roots = [0]  # index of each unfinished component's root
    sets = [0]  # acceptance sets met inside each of those components
    entry = [0]  # acceptance sets of the edge entering each root
    # A frame: configuration, its index, its rows left, and the mask and
    # edge of the row entering it.
    todo = [(start, 0, iter(succ[init]), 0, None)]
    while todo:
        v, s, rows, _, _ = todo[-1]
        node, vals = v
        for dst, mask, ops, edge in rows:
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
                if cover is not None:
                    key = cover.get(dst)
                    if key is not None and sign * w[1][0] <= key:
                        continue  # covered by a dead configuration
                    configs.append(w)
                i = index[w] = len(index)
                if edges is not None:
                    edges.append((s, i, node, dst, mask, edge))
                live.append(i)
                roots.append(i)
                sets.append(0)
                entry.append(mask)
                todo.append((w, i, iter(succ[dst]), mask, edge))
                break
            if edges is not None:
                edges.append((s, i, node, dst, mask, edge))
            if i in dead:
                continue
            while roots[-1] > i:
                roots.pop()
                mask |= sets.pop() | entry.pop()
            sets[-1] |= mask
            if sets[-1] == full:
                if edges is None:
                    return True, len(index)
                root = roots[-1]
                stem = [(f[0][0], g[0][0], g[3], g[4]) for f, g in zip(todo, todo[1:])
                        if g[1] <= root]
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
                    if cover is not None:
                        q, (x,) = configs[u]
                        x *= sign
                        if cover.get(q, x - 1) < x:
                            cover[q] = x
                    if u == s:
                        break
    return None, len(index)


def narrow(test, lo: int, hi: int | None, top: int | float, first) -> tuple[int, int | None]:
    """Narrow the bracket (lo, hi) of a monotone threshold test.

    Every threshold up to lo passes and every one from hi up fails; hi is
    None while no failing threshold is known.  test(t, lo, hi) runs the
    test at a t strictly inside the bracket and returns the narrowed
    bracket: a run the test finds may move one end past t.  The probes
    are first the caller's `first`, capped at top, that still lie inside
    the bracket, then min(max(lo + 1, 2t), (lo + hi) // 2, top) for the
    last probe t, the middle left out while hi is None: a gallop that
    doubles t until a test fails, then a bisection (Bentley and Yao's
    unbounded search).  The search stops once the bracket closes or lo
    reaches top, and returns the bracket.  top may be math.inf: the sup
    search then stops only when a test moves lo to math.inf.
    """
    probes = (min(g, top) for g in first)
    t = lo
    while lo < top and (hi is None or lo + 1 < hi):
        g = next((g for g in probes if lo < g and (hi is None or g < hi)), None)
        if g is None:
            g = min(max(lo + 1, 2 * t), top)
            if hi is not None:
                g = min(g, (lo + hi) // 2)
        t = g
        lo, hi = test(t, lo, hi)
    return lo, hi


def value_on_lasso(aut, word: LassoWord, cap: int, guess=None, lo: int = -1):
    """Exact sup-semantics value of the automaton on the given lasso.

    aut is a CounterAutomaton, or a `translate.Tableau` read lazily along
    the word: the tests read aut's product with the word (`_ModelProduct`),
    which asks aut once per (state, letter).  Returns -1 when no accepting
    run exists (the value is then 0 by the empty-sup convention),
    ABOVE_CAP when every threshold up to cap is achievable (covers
    infinite values), and the exact value otherwise.

    A positive threshold test runs `_accepts` on the sup search's
    reading of the product (`_capped`).  Threshold 0 ("is there any
    accepting run?") walks the whole product and asks its SCCs
    (`accepting_components`): with no accepting run every reachable node
    is explored anyway.

    The Tableau of a U<= formula (aut.bounded) is valued as its R> dual,
    through the inf search's reading (`_bounded`).  The bounded test at
    level m passes exactly when the word satisfies the U<= formula at m,
    that is fails the dual at m, so the dual's value is one less than the
    least passing level: -1 when level 0 passes, ABOVE_CAP when no level
    up to cap does.  Every level, 0 included, is tested on the fly, and a
    passing test stops at its first accepting cycle.

    The tests narrow the bracket (lo, cap + 1) up to cap (`narrow`), of
    thresholds or, bounded, of levels.  lo is -1, or 0 for a caller that
    reads "no run" as the value 0: the answer is then max(0, value), and
    threshold (or level) 0 is never tested.  guess, the answer the caller
    expects (an int or ABOVE_CAP), picks the first probes: g and g + 1,
    or cap for ABOVE_CAP; then come 0, cap and 1, and the gallop doubles
    from 1.  Bounded, the levels g + 1 and g, or cap, then the gallop from
    lo.  A right guess is confirmed by at most two tests, and a right
    positive one never walks the whole product.  The answer does not
    depend on the guess.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    product = _ModelProduct(aut, word)
    if aut.bounded:
        reading = product._bounded

        def level(t: int, lo: int, hi: int) -> tuple[int, int]:
            passes = _accepts(reading, 0, t)[0] is not None
            return (lo, t) if passes else (t, hi)

        first = (cap,) if guess is ABOVE_CAP else () if guess is None else (guess + 1, guess)
        _, hi = narrow(level, lo, cap + 1, cap, first)
        return ABOVE_CAP if hi > cap else hi - 1
    reading = product._capped

    def test(t: int, lo: int, hi: int) -> tuple[int, int]:
        if t > 0:
            passes = _accepts(reading, 0, t)[0] is not None
        else:
            passes = bool(accepting_components(*reachable_part(product), aut.num_acc_sets))
        return (t, hi) if passes else (lo, t)

    guessed = (cap,) if guess is ABOVE_CAP else () if guess is None else (guess, guess + 1)
    lo, _ = narrow(test, lo, cap + 1, cap, guessed + (0, cap, 1))
    return ABOVE_CAP if lo == cap else lo


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
