"""Strongly connected component helpers shared by the automaton passes."""

from __future__ import annotations

from typing import Sequence


def tarjan_sccs(num_nodes: int, succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(num_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, child = work[-1]
            if child == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            edges = succ[v]
            while child < len(edges):
                w = edges[child]
                child += 1
                if index[w] == -1:
                    work[-1] = (v, child)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def accepting_components(
    num_nodes: int,
    edges: Sequence[tuple],
    num_acc_sets: int,
) -> tuple[list[int], set[int]]:
    """Partition into SCCs and pick out the accepting ones.

    edges are tuples starting (src, dst, acceptance-set-indices); further
    fields are ignored.  A component is accepting when it holds at least
    one internal edge and, for every acceptance set, an internal edge
    belonging to it; with zero acceptance sets any internal edge qualifies
    (every infinite run accepts).
    Returns (component id per node, ids of accepting components).
    """
    succ: list[list[int]] = [[] for _ in range(num_nodes)]
    for e in edges:
        succ[e[0]].append(e[1])
    comps = tarjan_sccs(num_nodes, succ)
    comp_of = [0] * num_nodes
    for cid, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = cid

    full = (1 << num_acc_sets) - 1
    internal = [False] * len(comps)
    cover = [0] * len(comps)
    for e in edges:
        cid = comp_of[e[0]]
        if comp_of[e[1]] != cid:
            continue
        internal[cid] = True
        for a in e[2]:
            cover[cid] |= 1 << a
    accepting = {cid for cid in range(len(comps)) if internal[cid] and cover[cid] == full}
    return comp_of, accepting


def coreachable(num_nodes: int, edges: Sequence[tuple], targets) -> set[int]:
    """targets and every node with a path into one of them.

    edges are tuples starting (src, dst); further fields are ignored.
    """
    pred: list[list[int]] = [[] for _ in range(num_nodes)]
    for e in edges:
        pred[e[1]].append(e[0])
    out = set(targets)
    stack = list(out)
    while stack:
        for u in pred[stack.pop()]:
            if u not in out:
                out.add(u)
                stack.append(u)
    return out


def bounded_components(
    edges: Sequence[tuple],
    num_acc_sets: int,
    marks: Sequence[tuple[int, int]],
) -> list[list[int]]:
    """The Streett check: accepting components in which every counter an
    edge increments is also reset by an edge.

    edges are tuples starting (src, dst, acceptance-set-indices), and
    marks[k] holds the (increments, resets) counter bitmasks of edge k.  A
    run keeps its counters bounded iff each counter it increments
    infinitely often it also resets infinitely often: a Streett condition.
    Components are refined as Emerson and Lei do it (see also Henzinger and
    Telle, "Faster algorithms for the nonemptiness of Streett automata",
    1996): in an accepting component that increments a counter it never
    resets, no bounded run uses those increments forever, so the edges
    making them are dropped and the rest is split into components again.
    Each round drops at least one counter from a component, so there are
    at most one more rounds than counters.

    Returns each surviving component as the indices of its internal
    edges; the list is empty iff no accepting run keeps every counter
    bounded.
    """
    full = (1 << num_acc_sets) - 1
    good: list[list[int]] = []
    work: list[Sequence[int]] = [range(len(edges))]
    while work:
        for comp in _split(work.pop(), edges):
            incs = resets = cover = 0
            for k in comp:
                incs |= marks[k][0]
                resets |= marks[k][1]
                for a in edges[k][2]:
                    cover |= 1 << a
            if cover != full:
                continue  # dropping edges never covers more sets
            bad = incs & ~resets
            if bad:
                work.append([k for k in comp if not marks[k][0] & bad])
            else:
                good.append(comp)
    return good


def _split(ids: Sequence[int], edges: Sequence[tuple]) -> list[list[int]]:
    """The SCCs of the subgraph made of the edges ids, each as the ids of
    its internal edges; components without one are left out."""
    local: dict[int, int] = {}
    succ: list[list[int]] = []
    for k in ids:
        for v in edges[k][:2]:
            if v not in local:
                local[v] = len(succ)
                succ.append([])
        succ[local[edges[k][0]]].append(local[edges[k][1]])
    comp_of = [0] * len(succ)
    for cid, comp in enumerate(tarjan_sccs(len(succ), succ)):
        for v in comp:
            comp_of[v] = cid
    groups: dict[int, list[int]] = {}
    for k in ids:
        cid = comp_of[local[edges[k][0]]]
        if comp_of[local[edges[k][1]]] == cid:
            groups.setdefault(cid, []).append(k)
    return list(groups.values())
