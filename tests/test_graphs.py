"""The SCC helpers on hand-built graphs.

Edges are (src, dst, acceptance sets), the fields the helpers read, and a
component is the sorted list of its internal edge indices.  Counter marks
are (increments, resets) bitmasks per edge; counter A is bit 0, B bit 1.
"""

import cltlbound.graphs
from cltlbound.graphs import accepting_components, bounded_components

A, B = 1, 2
NO_SETS = frozenset()
SET_0 = frozenset({0})


def components(comps):
    return sorted(sorted(comp) for comp in comps)


def test_no_acceptance_sets_accept_any_cycle():
    edges = [(0, 1, NO_SETS), (1, 1, NO_SETS), (1, 2, NO_SETS)]
    assert components(accepting_components(3, edges, 0)) == [[1]]
    assert components(bounded_components(edges, 0, [(0, 0)] * 3)) == [[1]]
    assert accepting_components(2, [(0, 1, NO_SETS)], 0) == []


def test_a_trivial_component_is_not_accepting():
    # Node 0 and node 2 are components of their own with no internal
    # edge, though edges of every set leave or enter them.
    edges = [(0, 1, SET_0), (1, 1, SET_0), (1, 2, SET_0)]
    assert components(accepting_components(3, edges, 1)) == [[1]]
    assert accepting_components(3, [edges[0], edges[2]], 1) == []
    assert bounded_components([edges[0], edges[2]], 1, [(0, 0)] * 2) == []


def test_a_component_missing_one_set_is_not_accepting():
    # The cycle 0 <-> 1 meets set 0 only; the self-loop on 2 meets both.
    edges = [
        (0, 1, SET_0),
        (1, 0, NO_SETS),
        (1, 2, frozenset({1})),
        (2, 2, frozenset({0, 1})),
    ]
    assert components(accepting_components(3, edges, 2)) == [[3]]
    assert components(bounded_components(edges, 2, [(0, 0)] * 4)) == [[3]]
    assert accepting_components(3, edges[:2], 2) == []


def test_an_unreset_increment_on_the_only_accepting_cycle():
    edges = [(0, 1, SET_0), (1, 0, NO_SETS)]
    marks = [(A, 0), (0, 0)]
    assert components(accepting_components(2, edges, 1)) == [[0, 1]]
    assert bounded_components(edges, 1, marks) == []
    # Reset on the cycle, the increment is bounded.
    assert components(bounded_components(edges, 1, [(A, 0), (0, A)])) == [[0, 1]]


def test_refinement_drops_an_unreset_side_loop():
    # The cycle 0 -> 1 -> 0 increments and resets A; the side loop on 0
    # increments B, which nothing resets, so refinement drops it.
    edges = [(0, 1, SET_0), (1, 0, NO_SETS), (0, 0, NO_SETS)]
    marks = [(A, 0), (0, A), (B, 0)]
    assert components(accepting_components(2, edges, 1)) == [[0, 1, 2]]
    assert components(bounded_components(edges, 1, marks)) == [[0, 1]]


def test_a_component_that_needs_two_refinement_rounds(monkeypatch):
    # Round 1 drops 2 -> 0, which increments A and nothing resets.  Node 2
    # then lies on no cycle, so 1 -> 2, the one reset of B, leaves the
    # component.  Round 2 drops the self-loop on 0, which increments B.
    edges = [
        (0, 1, SET_0),
        (1, 0, NO_SETS),
        (1, 2, NO_SETS),
        (2, 0, NO_SETS),
        (0, 0, NO_SETS),
    ]
    marks = [(0, 0), (0, 0), (0, B), (A, 0), (B, 0)]
    assert components(accepting_components(3, edges, 1)) == [[0, 1, 2, 3, 4]]
    splits = []
    split = cltlbound.graphs._split
    monkeypatch.setattr(
        cltlbound.graphs, "_split", lambda ids, edges: splits.append(list(ids)) or split(ids, edges)
    )
    assert components(bounded_components(edges, 1, marks)) == [[0, 1]]
    assert splits == [[0, 1, 2, 3, 4], [0, 1, 2, 4], [0, 1]]
