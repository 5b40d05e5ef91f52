import random

import pytest

from cltlbound.automaton import TOP_CUBE, value_on_lasso
from cltlbound.emptiness import find_accepting_lasso
from cltlbound.formula import (
    TRUE,
    CostRelease,
    FragmentError,
    Lit,
    Next,
    label_counters,
    parse_formula,
)
from cltlbound.translate import (
    build_counter_automaton,
    is_reduced_state,
    normalize_state,
    prune_dominated,
    reduce_state,
)
from cltlbound.words import ABOVE_CAP, NO_RUN

from corpus import random_formula, random_lasso


def build(text):
    return build_counter_automaton(parse_formula(text))


# -- state handling ---------------------------------------------------------


def test_normalize_state():
    a, na = Lit("a"), Lit("a", False)
    assert normalize_state({TRUE, a}) == frozenset({a})
    assert normalize_state({a, na}) is None
    assert normalize_state({parse_formula("false"), a}) is None
    assert normalize_state(set()) == frozenset()


def test_reduced_states():
    assert is_reduced_state(frozenset({Lit("a"), Next(Lit("b"))}))
    assert not is_reduced_state(frozenset({parse_formula("a U b")}))


def test_reduce_or_splits():
    state = normalize_state({parse_formula("a | b")})
    edges = reduce_state(state)
    assert len(edges) == 2
    assert {e.action for e in edges} == {""}


def test_reduce_until_marks_postponement():
    phi = parse_formula("a U b")
    edges = reduce_state(frozenset({phi}))
    marks = {e.postponed for e in edges}
    assert marks == {None, phi}


def test_reduce_cost_release_actions():
    phi = label_counters(parse_formula("G> a"))
    edges = reduce_state(frozenset({phi}))
    assert sorted((e.action, e.counter) for e in edges) == [
        ("", None),
        ("i", 1),
        ("or", 1),
    ]
    with pytest.raises(ValueError):
        reduce_state(frozenset({CostRelease(TRUE, Lit("a"))}))
    with pytest.raises(FragmentError):
        reduce_state(frozenset({parse_formula("F<= a")}))


# -- whole translations -----------------------------------------------------


def test_worked_example_unpruned_and_pruned():
    aut = build("F (p & G> !q)")
    assert aut.num_states == 3
    assert len(aut.transitions) == 8
    assert aut.num_counters == 1
    assert aut.num_acc_sets == 1

    pruned = prune_dominated(aut)
    assert pruned.num_states == 3
    assert len(pruned.transitions) == 6
    non_acc = [t for t in pruned.transitions if not t.acc]
    assert len(non_acc) == 1
    t = non_acc[0]
    assert t.src == t.dst == pruned.init
    assert t.cube == TOP_CUBE
    assert t.actions == ("",)


def test_simple_release_two_states():
    aut = build("G> !q")
    assert aut.num_states == 2
    assert aut.num_acc_sets == 0
    assert aut.num_counters == 1


def test_plain_until_two_states():
    aut = build("a U b")
    assert aut.num_states == 2
    assert aut.num_counters == 0
    assert aut.num_acc_sets == 1


def test_unsatisfiable_formula_translates_empty():
    aut = build("F (a & !a)")
    assert find_accepting_lasso(aut) is None
    assert aut.num_states == 1
    assert aut.transitions == ()


def test_mixed_and_le_rejected():
    with pytest.raises(FragmentError):
        build("F<= a")
    with pytest.raises(FragmentError):
        build("(F<= a) & (G> b)")


def test_acceptance_tracks_distinct_untils():
    aut = build("(a U b) & (b U a)")
    assert aut.num_acc_sets == 2
    aut2 = build("(a U b) | (a U b)")
    assert aut2.num_acc_sets == 1


def test_counters_independent_per_operator():
    aut = build("(G> a) & (G> b)")
    assert aut.num_counters == 2
    for t in aut.transitions:
        assert len(t.actions) == 2


def test_atomic_actions_on_corpus():
    rng = random.Random(11)
    for _ in range(120):
        phi = random_formula(rng, 4, ("a", "b"), "CostGT")
        aut = build_counter_automaton(phi)
        for t in aut.transitions:
            assert len(t.actions) == aut.num_counters
            for act in t.actions:
                assert act in ("", "i", "or", "r")


def test_pruning_preserves_values():
    rng = random.Random(29)
    agreed = 0
    for _ in range(150):
        phi = random_formula(rng, 3, ("a", "b"), "CostGT")
        aut = build_counter_automaton(phi)
        pruned = prune_dominated(aut)
        assert len(pruned.transitions) <= len(aut.transitions)
        for _ in range(3):
            w = random_lasso(rng, ("a", "b"), 4, 4)
            assert value_on_lasso(aut, w, 8) == value_on_lasso(pruned, w, 8)
            agreed += 1
    assert agreed == 450


def test_prune_keeps_one_of_equal_twins():
    # two identical transitions must not eliminate each other
    aut = build("F (p & G> !q)")
    doubled = aut.__class__(
        num_states=aut.num_states,
        init=aut.init,
        num_counters=aut.num_counters,
        num_acc_sets=aut.num_acc_sets,
        transitions=aut.transitions + aut.transitions,
        ap=aut.ap,
    )
    assert len(prune_dominated(doubled).transitions) == 6
