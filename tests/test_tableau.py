"""The lazy tableau: a formula's `translate.Tableau` read along one lasso word.

Value mode's `--oracle-check` runs `automaton.value_on_lasso` on the
formula's Tableau, which translates only the (state, letter) pairs the
word reaches; criterion 3 keeps testing the whole automaton.  These tests
check that both readings give the same value and that the lazy one stays
inside what the word reaches, that the interned Tableau explores exactly
what the frozenset reference in `corpus.py` explores, pruned as the
reference's transitions prune, and its pick order.
"""

import random

from cltlbound.automaton import TOP_CUBE, Cube, Transition, undominated, value_on_lasso
from cltlbound.cegar import _pruned
from cltlbound.formula import (
    COST_LE,
    CostRelease,
    classify_fragment,
    cost_operator_count,
    label_counters,
    negate_dual,
    parse_formula,
    sort_key,
)
from cltlbound.oracle import value_sup
from cltlbound.translate import Tableau, build_counter_automaton
from cltlbound.words import NO_RUN, parse_lasso

from corpus import ReferenceTableau, random_formula, random_lasso


def test_lazy_route_agrees_with_the_automaton_on_the_criterion_3_stream():
    # The first 200 pairs of criterion 3's stream (same seed, same redraw
    # rule), at its cap of 10.
    rng = random.Random(3)
    for i in range(200):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        while cost_operator_count(phi) > 4:
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        word = random_lasso(rng, props=("a", "b"))
        got = value_on_lasso(Tableau(phi), word, 10)
        want = value_on_lasso(_pruned(phi), word, 10)
        assert got == want, (i, str(phi), str(word), got, want)


def test_lazy_route_agrees_on_the_criterion_1_duals():
    # The R> duals of the first 200 pairs of criterion 1's stream, which
    # value mode's check reads for a U<= formula, at caps 1, 3 and 10.
    # Every dual is checked against the oracle.  The whole automaton is
    # built only for duals with at most four cost operators, criterion 3's
    # rule: translating the other 21 whole takes about 30 s (pair 90 alone
    # over 10 s), twice what the rest of this test takes.
    rng = random.Random(20260819)
    against_automaton = 0
    for i in range(200):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostLE")
        word = random_lasso(rng, props=("a", "b"))
        dual = negate_dual(phi)
        whole = _pruned(dual) if cost_operator_count(dual) <= 4 else None
        against_automaton += whole is not None
        lazy = Tableau(dual)  # read again at each cap, from its memo
        for cap in (1, 3, 10):
            got = value_on_lasso(lazy, word, cap)
            oracle = value_sup(dual, word, cap)
            assert (0 if got is NO_RUN else got) == oracle, (i, cap, str(phi), str(word))
            if whole is not None:
                want = value_on_lasso(whole, word, cap)
                assert got == want, (i, cap, str(phi), str(word), got, want)
    assert against_automaton == 179


# Pair 24 of the benchmark's U<= value-corpus stream, the costliest query of
# its pass to translate whole: value mode checks a U<= formula on its dual.
PAIR_24 = (
    "(X (true | !a) U (!b & !a) U<= !a U<= !b)"
    " U ((!a R true) U<= !a R false) U (!a U b & a U !a)"
)
PAIR_24_WORD = "{} {b} {a} {b} {b} {a} | {} {}"


def test_the_word_reads_only_what_it_reaches():
    dual = negate_dual(parse_formula(PAIR_24))
    word = parse_lasso(PAIR_24_WORD)
    explored = []
    for _ in range(2):
        tab = Tableau(dual)
        assert value_on_lasso(tab, word, 10) is NO_RUN
        explored.append(tab.num_states)
    # Two identical queries explore alike: nothing is cached across them.
    assert explored == [3, 3]
    assert build_counter_automaton(dual).num_states == 118



# The letters each state is explored under: None stands for every letter
# at once, the query cube true.
LETTERS = [None, frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]


def letter_cube(letter):
    """The query cube of a letter over {a, b}."""
    return TOP_CUBE if letter is None else Cube(letter, frozenset("ab") - letter)


def reference_successors(ref, state, letter, inf):
    """What `Tableau.successors` should return, from the reference's
    transitions under the letter: each cube conjoined with the query cube,
    each transition once, minus the ones a sibling dominates under the
    formula's rule."""
    cube = letter_cube(letter)
    narrowed = dict.fromkeys(
        Transition(t.src, t.cube.merge(cube), t.actions, t.acc, t.dst)
        for t in ref.successors(state, letter)
    )
    return undominated(list(narrowed), inf)


def explore(successors, num_states):
    """Every answer of successors, state by state in number order, under
    each of the LETTERS in turn, and the number of states reached."""
    out = []
    state = 0
    while state < num_states():
        out += [successors(state, letter) for letter in LETTERS]
        state += 1
    return out, num_states()


def test_interned_tableau_agrees_with_the_frozenset_reference():
    # Seeded formulas of all three fragments, with criterion 3's rule of
    # at most four cost operators, each explored whole over every letter
    # at once (the cube true) and over each letter of {a, b}, on one
    # Tableau, so the letters share its memos.
    rng = random.Random(12)
    handoffs = 0
    for fragment in ("LTL", "CostGT", "CostLE"):
        for i in range(40):
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment=fragment)
            while cost_operator_count(phi) > 4:
                phi = random_formula(rng, depth=4, props=("a", "b"), fragment=fragment)
            tab, ref = Tableau(phi), ReferenceTableau(phi)
            inf = classify_fragment(phi) == COST_LE
            got = explore(
                lambda s, letter: tab.successors(s, letter_cube(letter)),
                lambda: tab.num_states,
            )
            want = explore(
                lambda s, letter: reference_successors(ref, s, letter, inf),
                lambda: ref.num_states,
            )
            assert got == want, (fragment, i, str(phi))
            if fragment == "CostGT":
                handoffs += any("r" in t.actions for row in got[0] for t in row)
    # R> resets only on a hand-off to the partner counter: the merges of
    # re-demanded occurrences are covered too.
    assert handoffs == 12


def test_pick_rewrites_enclosing_members_first_then_by_rank():
    # Case 1: the partner-counter copy of occurrence 1 beside a member that
    # contains occurrence 1.  The copy ranks lower, but it compares as the
    # occurrence itself, which the enclosing member contains.
    phi = label_counters(parse_formula("G (b | G> a)"))
    enclosing = phi.right
    occurrence = enclosing.right
    partner = CostRelease(occurrence.left, occurrence.right, -occurrence.counter)
    assert sort_key(partner) < sort_key(enclosing)
    tab = Tableau(phi)
    state = tab._normalize([tab._intern(partner), tab._intern(enclosing)])
    assert tab._pick(state) == tab._intern(enclosing)
    # Case 2: two maximal members; the smaller sort_key goes first, though
    # it was numbered later.
    phi = parse_formula("((a | b) U b) & (a U b)")
    big, small = phi.left, phi.right
    assert sort_key(small) < sort_key(big)
    tab = Tableau(phi)
    assert tab._intern(small) > tab._intern(big)
    state = tab._normalize([tab._intern(big), tab._intern(small)])
    assert tab._pick(state) == tab._intern(small)
