"""The lazy tableau: a formula's `translate.Tableau` read along one lasso word.

Value mode's `--oracle-check` runs `automaton.value_on_lasso` on the
formula's Tableau, which translates only the (state, letter) pairs the
word reaches; criterion 3 keeps testing the whole automaton.  These tests
check that both readings give the same value and that the lazy one stays
inside what the word reaches.
"""

import random

from cltlbound.automaton import value_on_lasso
from cltlbound.cegar import _pruned
from cltlbound.formula import cost_operator_count, negate_dual, parse_formula
from cltlbound.oracle import value_sup
from cltlbound.translate import Tableau, build_counter_automaton
from cltlbound.words import NO_RUN, parse_lasso

from corpus import random_formula, random_lasso


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

