import random

import pytest

from cltlbound.automaton import (
    TOP_CUBE,
    action_row,
    synchronized_product,
    value_on_lasso,
)
from cltlbound.emptiness import find_accepting_lasso
from cltlbound.formula import (
    TRUE,
    FragmentError,
    Lit,
    Next,
    cost_operator_count,
    parse_formula,
)
from cltlbound.oracle import value_inf
from cltlbound.translate import Tableau, build_counter_automaton, prune_dominated
from cltlbound.words import ABOVE_CAP, parse_lasso

from corpus import random_formula, random_lasso, reference_automaton, word_model


def build(text):
    return build_counter_automaton(parse_formula(text))


# -- state handling ---------------------------------------------------------
#
# A Tableau's sets are ints over its interned members; `_normalize` builds
# one from member ids and `_members` reads it back as formulas.


def state(tab, *members):
    return tab._normalize([tab._intern(f) for f in members])


def initial(tab):
    return tab._sets[tab.init]


def test_normalize_state():
    a, na = Lit("a"), Lit("a", False)
    tab = Tableau(a)
    assert tab._members(state(tab, TRUE, a)) == frozenset({a})
    assert state(tab, a, na) is None
    assert state(tab, parse_formula("false"), a) is None
    assert state(tab) == 0


def test_reduced_states():
    tab = Tableau(parse_formula("a U b"))
    assert not state(tab, Lit("a"), Next(Lit("b"))) & tab._nonreduced
    assert initial(tab) & tab._nonreduced


def steps(tab, obligations):
    """The epsilon steps rewriting a set's obligations, as (actions,
    postponement bit, the target's members, the added reduced ones
    included), sorted."""
    return sorted(
        (action_row(code, tab.num_counters), mark, sorted(map(str, tab._members(target | added))))
        for target, added, _, _, code, _, mark, _ in tab._reduce(obligations)
    )


def test_reduce_or_splits():
    tab = Tableau(parse_formula("a | b"))
    assert steps(tab, initial(tab)) == [((), 0, ["a"]), ((), 0, ["b"])]


def test_reduce_until_marks_postponement():
    tab = Tableau(parse_formula("a U b"))
    marks = {mark for _, mark, _ in steps(tab, initial(tab))}
    assert marks == {0, 1}  # 1: the bit of a U b's acceptance set


def test_reduce_cost_release_actions():
    # The Tableau labels its formula: G> a is occurrence 1.
    tab = Tableau(parse_formula("G> a"))
    assert [actions for actions, _, _ in steps(tab, initial(tab))] == [("",), ("i",), ("or",)]
    # F<= a: a with a reset, or X(F<= a) with an increment, postponing;
    # the skip rewrite {false, X(F<= a)} is contradictory
    tab = Tableau(parse_formula("F<= a"))
    assert steps(tab, initial(tab)) == [
        (("i",), 1, ["X (F<= a)"]),
        (("r",), 0, ["a"]),
    ]


# -- whole translations -----------------------------------------------------


def test_worked_example_unpruned_and_pruned():
    # Unpruned, from the reference tableau; the translation prunes itself,
    # exactly as pruning the whole automaton does.
    aut = reference_automaton(parse_formula("F (p & G> !q)"))
    assert aut.num_states == 3
    assert len(aut.transitions) == 8
    assert aut.num_counters == 1
    assert aut.num_acc_sets == 1

    pruned = build("F (p & G> !q)")
    assert pruned == prune_dominated(aut)
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
    # U<= translates directly now, with one counter and no pair
    aut = build("F<= a")
    assert (aut.num_states, aut.num_counters, aut.num_acc_sets) == (2, 1, 1)
    edges = sorted((t.cube.to_text(), t.actions, bool(t.acc)) for t in aut.transitions)
    assert edges == [
        ("a", ("r",), True),  # a arrives: reset, accepting
        ("true", ("",), True),  # afterwards nothing is left
        ("true", ("i",), False),  # a tolerated failure, postponing
    ]
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
        aut = reference_automaton(phi)
        pruned = build_counter_automaton(phi)
        assert pruned == prune_dominated(aut), str(phi)
        assert len(pruned.transitions) <= len(aut.transitions)
        for _ in range(3):
            w = random_lasso(rng, ("a", "b"), 4, 4)
            assert value_on_lasso(aut, w, 8) == value_on_lasso(pruned, w, 8)
            agreed += 1
    assert agreed == 450


def test_prune_keeps_one_of_equal_twins():
    # two identical transitions must not eliminate each other
    aut = reference_automaton(parse_formula("F (p & G> !q)"))
    doubled = aut.__class__(
        num_states=aut.num_states,
        init=aut.init,
        num_counters=aut.num_counters,
        num_acc_sets=aut.num_acc_sets,
        transitions=aut.transitions + aut.transitions,
        ap=aut.ap,
    )
    assert len(prune_dominated(doubled).transitions) == 6


def least_bound(aut, word, cap):
    """The least n at which aut, read with counters bounded by n, accepts
    the word; ABOVE_CAP when none up to cap does."""
    product = synchronized_product(aut, word_model(word, ("a", "b")))
    for n in range(cap + 1):
        if find_accepting_lasso(product, n, bounded=True) is not None:
            return n
    return ABOVE_CAP


def test_le_translation_value_agrees_with_oracle():
    # The criterion-1 stream (seed 20260819): a U<= automaton with bounded
    # counters gives each word the value the counting tables give it.  Its
    # first 400 pairs, with the desk-scale redraw rule of criterion 3
    # (translation is exponential in the pending cost operators).
    rng = random.Random(20260819)
    cap = 6
    values = []
    for _ in range(400):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostLE")
        word = random_lasso(rng, props=("a", "b"))
        if cost_operator_count(phi) > 4:
            continue
        aut = build_counter_automaton(phi)  # pruned under the inf rule
        want = value_inf(phi, word, cap)
        assert least_bound(aut, word, cap) == want, (str(phi), str(word))
        values.append(want)
    assert len(values) > 350
    assert {0, 1, 2, 3, ABOVE_CAP} <= set(values), set(values)


def test_le_pruning_keeps_the_skip_edge():
    # On a U<= b the increment edge {X} (cube true) subsumes the skip edge
    # {a, X} (cube a).  Under the sup rule the increment wins and every a
    # before b costs 1; under the inf rule, the translation's, the skip
    # edge stays.
    aut = reference_automaton(parse_formula("a U<= b"))
    pruned = build("a U<= b")
    assert pruned == prune_dominated(aut, inf=True)
    assert any(t.cube.to_text() == "a" and t.actions == ("",) for t in pruned.transitions)
    word = parse_lasso("{a} {a} | {b}")
    assert value_inf(parse_formula("a U<= b"), word, 4) == 0
    assert least_bound(pruned, word, 4) == least_bound(aut, word, 4) == 0
    assert least_bound(prune_dominated(aut), word, 4) == 2  # the sup rule
