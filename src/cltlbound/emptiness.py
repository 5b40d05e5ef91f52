"""Emptiness and witness search on a whole counter automaton.

`find_accepting_lasso(aut, t)` runs the threshold test of
`automaton._accepts` on aut: is there an accepting run whose every
counter observation is at least t?  At t = 0 counters play no part and
aut is read as a generalized Buchi automaton; with bounded=True the test
asks instead for a run whose every counter stays at t or below.  The test
explores configurations depth first from the initial one and stops at
the first accepting cycle.  Its witness is a lasso run of aut itself:
the DFS path into the accepting component's root, then a loop threading
one edge per acceptance set.  The search is deterministic for a fixed
transition order.

`find_bounded_lasso` answers the Streett question on aut's reachable
part (`reachable_part`): is there an accepting run whose counters stay
bounded?  Its lasso's stem is a shortest path into the component it
picks, and its loop also threads one reset edge per counter the loop may
increment.
"""

from __future__ import annotations

from collections import deque

from .automaton import CounterAutomaton, LassoRun, _accepts
from .graphs import accepting_components  # noqa: F401  kept importable here for bench/tracing.py
from .graphs import bounded_components
from .words import LassoWord


def find_accepting_lasso(
    aut: CounterAutomaton, t: int = 0, bounded: bool = False, explored: list | None = None
) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut plus the word it reads, or None when there is none.

    The run found observes every counter at t or more, or with bounded=True
    keeps every counter at t or below; at the default t = 0 the search
    ignores counters.  When explored is a list, it receives the numbers of
    configurations and edges the search explored.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    succ, num_slots = aut._bounded_rows if bounded else aut._capped_rows
    full = (1 << aut.num_acc_sets) - 1
    edges: list[tuple] = []
    found, configs = _accepts(succ, aut.init, num_slots, t, full, bounded, edges)
    if explored is not None:
        explored[:] = (configs, len(edges))
    if found is None:
        return None
    stem, root, comp = found
    inside = [e for e in edges if e[0] in comp and e[1] in comp]
    return _lasso(stem, root, inside, _acceptance_wants(aut))


def reachable_part(aut: CounterAutomaton) -> tuple[int, list[tuple]]:
    """The states of aut reachable from its initial state, numbered in BFS
    order from it, and the edges (src, dst, acceptance sets, transition)
    leaving them, source by source in that order.  A product is numbered
    this way already, so its edges are its transitions."""
    index = {aut.init: 0}
    order = [aut.init]
    edges = []
    by_source = aut.by_source()
    for s, state in enumerate(order):
        for tr in by_source.get(state, ()):
            d = index.get(tr.dst)
            if d is None:
                d = index[tr.dst] = len(order)
                order.append(tr.dst)
            edges.append((s, d, tr.acc, tr))
    return len(order), edges


def find_bounded_lasso(aut: CounterAutomaton) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut whose loop resets every counter it increments,
    plus the word it reads; None when no accepting run of aut keeps its
    counters bounded.

    The Streett check (`graphs.bounded_components`) runs on aut's
    reachable part.  The loop stays inside the surviving component entered
    first in BFS order and threads, besides one edge per acceptance set,
    one reset edge of each counter the component increments.
    """
    _, edges = reachable_part(aut)
    marks = [_counter_marks(e[3].actions) for e in edges]
    good = bounded_components(edges, aut.num_acc_sets, marks)
    if not good:
        return None
    comp = min(good, key=lambda ids: min(edges[k][0] for k in ids))
    entry = min(edges[k][0] for k in comp)
    incs = 0
    for k in comp:
        incs |= marks[k][0]
    wants = _acceptance_wants(aut) + [
        lambda e, c=c: "r" in e[3].actions[c]
        for c in range(aut.num_counters)
        if incs >> c & 1
    ]
    # The stem is the BFS path: the first edge into a state discovered it.
    parent: dict[int, tuple] = {}
    for e in edges:
        parent.setdefault(e[1], e)
    stem, c = [], entry
    while c != 0:
        stem.append(parent[c][3])
        c = parent[c][0]
    return _lasso(stem[::-1], entry, [edges[k] for k in comp], wants)


def _counter_marks(actions: tuple[str, ...]) -> tuple[int, int]:
    """The (increments, resets) counter bitmasks of one action row."""
    incs = resets = 0
    for c, act in enumerate(actions):
        if act == "i":
            incs |= 1 << c
        elif "r" in act:
            resets |= 1 << c
    return incs, resets


def _acceptance_wants(aut: CounterAutomaton) -> list:
    return [lambda e, i=i: i in e[3].acc for i in range(aut.num_acc_sets)]


def _lasso(stem, entry: int, inside: list[tuple], wants) -> tuple[LassoRun, LassoWord]:
    """The lasso run whose stem is the transitions stem, ending at node
    entry, and whose loop is a cycle through entry inside the component
    whose edges (src, dst, acceptance, transition) are `inside`, threading
    one edge that satisfies each of `wants` (or any one edge back to
    entry); and the word it reads."""
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
    run = LassoRun(tuple(stem), tuple(e[3] for e in loop))
    return run, word_of_run(run)


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


def check_lasso_run(aut: CounterAutomaton, run: LassoRun, word: LassoWord | None = None) -> None:
    """Independent witness validation; raises ValueError on any defect.

    Checks chaining, loop closure, the initial state, acceptance coverage
    of the loop, and (when a word is given) letter-by-letter cube match.
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
    known = aut._transition_set
    for t in seq:
        if t not in known:
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
