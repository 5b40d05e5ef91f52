"""Emptiness and witness search on a counter automaton, or on a product
read node by node.

`find_accepting_lasso(aut, t)` runs the threshold test of
`automaton._accepts` on aut: is there an accepting run whose every
counter observation is at least t?  At t = 0 counters play no part and
aut is read as a generalized Buchi automaton; with bounded=True the test
asks instead for a run whose every counter stays at t or below.  aut is a
CounterAutomaton or the product `automaton._ModelProduct`, which the sup
and inf searches pass; the product makes a node's rows only when the
test reaches it.  The test explores configurations depth first from the
initial one and stops at the first accepting cycle.  Its witness is a
lasso run of aut itself: the DFS path into the accepting component's
root, then a loop threading one edge per acceptance set.  A product's
rows name the source's edges alone, so only the lasso's product edges
are rebuilt (`_ModelProduct.edge`) and made `Transition`s.  The search
is deterministic for a fixed edge order.

`find_bounded_lasso` answers the Streett question on aut's reachable
part (`graphs.reachable_part`, aut's own edges in BFS order): is there
an accepting run whose counters stay bounded?  Its lasso's stem is a
shortest path into the component it picks, and its loop also threads one
reset edge per counter the loop may increment.

`check_lasso_run` validates a witness against aut's own edges; on a
product it builds only those joining each transition's two nodes, not
the rows the threshold tests read.
"""

from __future__ import annotations

from collections import deque

from .automaton import CounterAutomaton, LassoRun, Transition, _accepts, _ModelProduct
from .graphs import accepting_components  # noqa: F401  kept importable here for bench/tracing.py
from .graphs import bounded_components, reachable_part
from .words import LassoWord


def find_accepting_lasso(
    aut: CounterAutomaton | _ModelProduct,
    t: int = 0,
    bounded: bool = False,
    explored: list | None = None,
) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut plus the word it reads, or None when there is none.

    The run found observes every counter at t or more, or with bounded=True
    keeps every counter at t or below; at the default t = 0 the search
    ignores counters.  aut is a CounterAutomaton or a
    `automaton._ModelProduct`, and the test reads the rows it keeps for
    each reading.  When explored is a list, it receives the numbers of
    configurations and edges the search explored: with one tracked
    counter an empty test skips the configurations a finished one covers
    (`automaton._accepts`), so it may explore less than the whole
    unfolding.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    edges: list[tuple] = []
    found, configs = _accepts(aut._bounded if bounded else aut._capped, aut.init, t, edges)
    if explored is not None:
        explored[:] = (configs, len(edges))
    if found is None:
        return None
    stem, root, comp = found
    # The explored edges are (src, dst) configurations, then the step
    # (src node, dst node, acceptance bitmask, row's edge).
    inside = [e for e in edges if e[0] in comp and e[1] in comp]
    wants = [lambda e, i=i: e[4] >> i & 1 for i in range(aut.num_acc_sets)]
    edge = aut.edge if isinstance(aut, _ModelProduct) else lambda s, d, mask, e: e
    return _lasso([edge(*s) for s in stem], [edge(*e[2:]) for e in _cycle(root, inside, wants)])


def find_bounded_lasso(
    aut: CounterAutomaton | _ModelProduct, explored: list | None = None
) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut whose loop resets every counter it increments,
    plus the word it reads; None when no accepting run of aut keeps its
    counters bounded.

    aut is a CounterAutomaton or a `automaton._ModelProduct`.  The Streett
    check (`graphs.bounded_components`) runs on aut's reachable part, so
    it expands every node of a product.  When explored is a list, it
    receives the numbers of reachable states and edges.  The edges come
    source by source in BFS order, so the surviving component entered
    first in that order holds the least edge index.  The loop stays inside
    it and threads, besides one edge per acceptance set, one reset edge of
    each counter the component increments.
    """
    num_states, edges = reachable_part(aut)
    if explored is not None:
        explored[:] = (num_states, len(edges))
    marks = [_counter_marks(e[3]) for e in edges]
    good = bounded_components(edges, aut.num_acc_sets, marks)
    if not good:
        return None
    comp = min(good, key=min)
    entry = edges[min(comp)][0]
    incs = 0
    for k in comp:
        incs |= marks[k][0]
    wants = [lambda e, i=i: i in e[2] for i in range(aut.num_acc_sets)] + [
        lambda e, c=c: "r" in e[3][c]
        for c in range(aut.num_counters)
        if incs >> c & 1
    ]
    # The stem is the BFS path: the first edge into a state discovered it.
    parent: dict[int, tuple] = {}
    for e in edges:
        parent.setdefault(e[1], e)
    stem, c = [], entry
    while c != aut.init:
        stem.append(parent[c])
        c = parent[c][0]
    return _lasso(stem[::-1], _cycle(entry, [edges[k] for k in comp], wants))


def _counter_marks(actions: tuple[str, ...]) -> tuple[int, int]:
    """The (increments, resets) counter bitmasks of one action row."""
    incs = resets = 0
    for c, act in enumerate(actions):
        if act == "i":
            incs |= 1 << c
        elif "r" in act:
            resets |= 1 << c
    return incs, resets


def _lasso(stem: list[tuple], loop: list[tuple]) -> tuple[LassoRun, LassoWord]:
    """The lasso run of the edges stem and loop, (src, dst, acceptance
    sets, actions, cube) as the automaton or product gives them, and the
    word it reads.  They are made `Transition`s here, the only ones a
    search makes.  A stem that ends on the loop's last edge is folded
    into the loop, which reads the same run."""
    while stem and stem[-1] == loop[-1]:
        loop = [stem.pop()] + loop[:-1]
    run = LassoRun(tuple(map(Transition.of_edge, stem)), tuple(map(Transition.of_edge, loop)))
    return run, word_of_run(run)


def _cycle(entry: int, inside: list[tuple], wants) -> list[tuple]:
    """A cycle through node entry inside the component whose edges, tuples
    starting (src, dst), are `inside`, threading one edge that satisfies
    each of `wants` (or any one edge back to entry)."""
    by_src: dict[int, list[tuple]] = {}
    for e in inside:
        by_src.setdefault(e[0], []).append(e)
    loop: list[tuple] = []
    cur = entry
    for want in wants:
        if any(want(e) for e in loop):
            continue
        path = _shortest_via(cur, want, by_src)
        loop.extend(path)
        cur = path[-1][1]
    if cur != entry or not loop:
        loop.extend(_shortest_via(cur, lambda e: e[1] == entry, by_src))
    return loop


def _shortest_via(start: int, want, inside: dict) -> list[tuple]:
    """Shortest nonempty edge path from start, staying inside the
    component, whose final edge satisfies want."""
    parent: dict[int, tuple | None] = {start: None}  # the edge reaching each node
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for e in inside.get(c, ()):
            if want(e):
                path = [e]
                while path[-1][0] != start:
                    path.append(parent[path[-1][0]])
                path.reverse()
                return path
            if e[1] not in parent:
                parent[e[1]] = e
                queue.append(e[1])
    raise RuntimeError("accepting component stopped covering what the loop needs")


def word_of_run(run: LassoRun) -> LassoWord:
    """The word the run reads, completing cubes by 'unspecified is false'."""
    prefix = tuple(frozenset(t.cube.positive) for t in run.stem)
    cycle = tuple(frozenset(t.cube.positive) for t in run.loop)
    return LassoWord(prefix, cycle)


def check_lasso_run(
    aut: CounterAutomaton | _ModelProduct, run: LassoRun, word: LassoWord | None = None
) -> None:
    """Independent witness validation; raises ValueError on any defect.

    Checks chaining, loop closure, the initial state, that each transition
    is one of aut's edges leaving its source, acceptance coverage of the
    loop, and (when a word is given) letter-by-letter cube match.  aut is a
    CounterAutomaton or a `automaton._ModelProduct`, whose transitions
    must leave nodes it has met; `_ModelProduct.edges_to` builds only the
    edges joining a transition's two nodes.
    """
    if not run.loop:
        raise ValueError("loop is empty")
    seq = list(run.stem) + list(run.loop)
    first = seq[0].src
    if first != aut.init:
        raise ValueError(f"run starts at {first}, not the initial state {aut.init}")
    for a, b in zip(seq, seq[1:]):
        if a.dst != b.src:
            raise ValueError(f"broken chain: {a.dst} then {b.src}")
    loop_start = run.loop[0].src
    if run.loop[-1].dst != loop_start:
        raise ValueError("loop does not close")
    edges_to = aut.edges_to if isinstance(aut, _ModelProduct) else lambda s, d: aut.edges(s)
    for t in seq:
        if not (0 <= t.src < aut.num_states
                and (t.src, t.dst, t.acc, t.actions, t.cube) in edges_to(t.src, t.dst)):
            raise ValueError(f"transition not in the automaton: {t}")
    for i in range(aut.num_acc_sets):
        if not any(i in t.acc for t in run.loop):
            raise ValueError(f"loop misses acceptance set {i}")
    if word is not None:
        if len(word.prefix) != len(run.stem) or len(word.cycle) != len(run.loop):
            raise ValueError("word shape does not match the run")
        for k, t in enumerate(seq):
            if not t.cube.matches(word.letter(k)):
                raise ValueError(f"letter {k} does not satisfy the cube {t.cube.to_text()}")
