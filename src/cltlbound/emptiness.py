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
"""

from __future__ import annotations

from collections import deque

from .automaton import CounterAutomaton, LassoRun, capped_unfolding
from .graphs import accepting_components
from .words import LassoWord


def find_accepting_lasso(
    aut: CounterAutomaton, unfolded: tuple[int, list[tuple]] | None = None
) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run of aut plus the word it reads, or None when there is none.

    The search runs over `unfolded`, which must be `capped_unfolding(aut,
    t)` for some t, so that a run found observes every counter at t or
    more; by default t = 0 and the search ignores counters.
    """
    num_configs, edges = capped_unfolding(aut, 0) if unfolded is None else unfolded
    comp_of, accepting = accepting_components(num_configs, edges, aut.num_acc_sets)
    # Configurations are numbered in BFS order: enter the accepting SCC
    # discovered earliest.
    entry = next((c for c in range(num_configs) if comp_of[c] in accepting), None)
    if entry is None:
        return None
    target = comp_of[entry]
    # The first edge into a configuration is the one that discovered it.
    parent: dict[int, tuple] = {}
    inside: dict[int, list[tuple]] = {}
    for e in edges:
        parent.setdefault(e[1], e)
        if comp_of[e[0]] == target and comp_of[e[1]] == target:
            inside.setdefault(e[0], []).append(e)
    stem: list[tuple] = []
    c = entry
    while c != 0:
        e = parent[c]
        stem.append(e)
        c = e[0]
    stem.reverse()

    loop: list[tuple] = []
    cur = entry
    for i in range(aut.num_acc_sets):
        if any(i in e[2] for e in loop):
            continue
        path = _shortest_via(cur, lambda e, i=i: i in e[2], inside)
        loop.extend(path)
        cur = path[-1][1]
    if cur != entry or not loop:
        loop.extend(_shortest_via(cur, lambda e: e[1] == entry, inside))
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
    raise RuntimeError("accepting SCC stopped covering an acceptance set")


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
