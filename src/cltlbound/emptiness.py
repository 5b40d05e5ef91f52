"""Emptiness and witness search over a capped unfolding.

A counter automaton's runs whose every counter observation is at least t
form a graph, `capped_unfolding(aut, t)`; at t = 0 counters play no part
and the graph is the automaton's reachable part, read as a generalized
Buchi automaton.  That graph has an accepting run iff some SCC contains,
for every acceptance set, an internal edge of that set.  The returned
witness is a lasso run of the automaton itself: shortest stem into the
accepting SCC discovered first, then a loop threading one required edge
per acceptance set.  The search is deterministic for a fixed transition
order.

`find_bounded_lasso` answers the Streett question on the same graph:
is there an accepting run whose counters stay bounded?  Its lasso's loop
also threads one reset edge per counter the loop may increment.
"""

from __future__ import annotations

from collections import deque

from .automaton import CounterAutomaton, LassoRun, capped_unfolding
from .graphs import accepting_components, bounded_components
from .words import LassoWord


def find_accepting_lasso(
    aut: CounterAutomaton, unfolded: tuple[int, list[tuple]] | None = None
) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut plus the word it reads, or None when there is none.

    The search runs over `unfolded`, which must be `capped_unfolding(aut,
    t)` for some t, so that a run found observes every counter at t or
    more, or `bounded_unfolding(aut, n)`, so that its counters stay at n or
    below; by default it is `capped_unfolding(aut, 0)` and the search
    ignores counters.
    """
    num_configs, edges = capped_unfolding(aut, 0) if unfolded is None else unfolded
    comp_of, accepting = accepting_components(num_configs, edges, aut.num_acc_sets)
    # Configurations are numbered in BFS order: enter the accepting SCC
    # discovered earliest.
    entry = next((c for c in range(num_configs) if comp_of[c] in accepting), None)
    if entry is None:
        return None
    target = comp_of[entry]
    inside = [e for e in edges if comp_of[e[0]] == target and comp_of[e[1]] == target]
    return _lasso(edges, entry, inside, _acceptance_wants(aut))


def find_bounded_lasso(
    aut: CounterAutomaton, unfolded: tuple[int, list[tuple]] | None = None
) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut whose loop resets every counter it increments,
    plus the word it reads; None when no accepting run of aut keeps its
    counters bounded.

    `unfolded` must be `capped_unfolding(aut, 0)` (the default): the
    Streett check (`graphs.bounded_components`) runs on it.  The loop
    stays inside the surviving component entered first in BFS order and
    threads, besides one edge per acceptance set, one reset edge of each
    counter the component increments.
    """
    _, edges = capped_unfolding(aut, 0) if unfolded is None else unfolded
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
    return _lasso(edges, entry, [edges[k] for k in comp], wants)


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
    return [lambda e, i=i: i in e[2] for i in range(aut.num_acc_sets)]


def _lasso(edges, entry, inside, wants) -> tuple[LassoRun, LassoWord]:
    """The lasso through entry: the BFS stem into it, then a loop inside
    the component whose edges are `inside`, threading one edge that
    satisfies each of `wants` (or any one edge back to entry)."""
    # The first edge into a configuration is the one that discovered it.
    parent: dict[int, tuple] = {}
    for e in edges:
        parent.setdefault(e[1], e)
    by_src: dict[int, list[tuple]] = {}
    for e in inside:
        by_src.setdefault(e[0], []).append(e)
    stem: list[tuple] = []
    c = entry
    while c != 0:
        e = parent[c]
        stem.append(e)
        c = e[0]
    stem.reverse()

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
    run = LassoRun(tuple(e[3] for e in stem), tuple(e[3] for e in loop))
    return run, word_of_run(run)


def _shortest_via(start: int, want, inside: dict) -> list[tuple]:
    """Shortest nonempty edge path from start, staying inside the SCC,
    whose final edge satisfies want."""
    visited = {start}
    queue = deque([(start, [])])
    while queue:
        c, path = queue.popleft()
        for e in inside.get(c, ()):
            if want(e):
                return path + [e]
            if e[1] not in visited:
                visited.add(e[1])
                queue.append((e[1], path + [e]))
    raise RuntimeError("accepting SCC stopped covering what the loop needs")


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
    known = set(aut.transitions)
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
