"""Emptiness and witness search, ignoring counters.

A counter automaton (viewed as a generalized Buchi automaton) is nonempty
iff some reachable SCC contains, for every acceptance set, an internal
transition of that set.  The returned witness is a lasso run: shortest
stem into such an SCC, then a loop threading one required transition per
acceptance set.  The search is deterministic for a fixed transition order.
"""

from __future__ import annotations

from collections import deque

from .automaton import CounterAutomaton, LassoRun, Transition
from .graphs import accepting_components
from .words import LassoWord


def find_accepting_lasso(aut: CounterAutomaton) -> tuple[LassoRun, LassoWord] | None:
    """A lasso run plus the word it reads, or None when the language is empty."""
    by_src = aut.by_source()

    # BFS from the initial state; remember the discovery tree for stems.
    disc = {aut.init: 0}
    parent: dict[int, Transition] = {}
    bfs = deque([aut.init])
    while bfs:
        s = bfs.popleft()
        for t in by_src.get(s, ()):
            if t.dst not in disc:
                disc[t.dst] = len(disc)
                parent[t.dst] = t
                bfs.append(t.dst)

    edges = [(t.src, t.dst, t.acc) for t in aut.transitions]
    comp_of, accepting = accepting_components(aut.num_states, edges, aut.num_acc_sets)
    # Enter the accepting SCC discovered earliest: disc is in BFS order.
    entry = next((s for s in disc if comp_of[s] in accepting), None)
    if entry is None:
        return None
    target = comp_of[entry]
    stem: list[Transition] = []
    s = entry
    while s != aut.init:
        t = parent[s]
        stem.append(t)
        s = t.src
    stem.reverse()

    internal = [t for t in aut.transitions if comp_of[t.src] == target and comp_of[t.dst] == target]
    inside: dict[int, list[Transition]] = {}
    for t in internal:
        inside.setdefault(t.src, []).append(t)

    loop: list[Transition] = []
    cur = entry
    for i in range(aut.num_acc_sets):
        if any(i in t.acc for t in loop):
            continue
        path = _shortest_via(cur, lambda t, i=i: i in t.acc, inside)
        loop.extend(path)
        cur = path[-1].dst
    if cur != entry or not loop:
        loop.extend(_shortest_via(cur, lambda t: t.dst == entry, inside))
    run = LassoRun(tuple(stem), tuple(loop))
    return run, word_of_run(run)


def _shortest_via(start: int, want, inside: dict) -> list[Transition]:
    """Shortest nonempty transition path from start, staying inside the SCC,
    whose final transition satisfies want."""
    visited = {start}
    queue = deque([(start, [])])
    while queue:
        s, path = queue.popleft()
        for t in inside.get(s, ()):
            if want(t):
                return path + [t]
            if t.dst not in visited:
                visited.add(t.dst)
                queue.append((t.dst, path + [t]))
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
