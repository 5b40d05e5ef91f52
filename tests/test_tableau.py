"""The lazy tableau: a formula's `translate.Tableau` read along one lasso word.

Value mode's `--oracle-check` runs `automaton.value_on_lasso` on the
formula's Tableau, which translates only the (state, letter) pairs the
word reaches; criterion 3 keeps testing the whole automaton.  These tests
check that both readings give the same value and that the lazy one stays
inside what the word reaches, that the interned Tableau explores exactly
what the frozenset reference in `corpus.py` explores, pruned as the
reference's transitions prune, its pick order, its closure memo on a
set's obligations, and that each of its internal invariant checks fires
when one of its tables is broken.
"""

import random

import pytest

import cltlbound.automaton
from cltlbound.automaton import TOP_CUBE, Cube, action_code, undominated, value_on_lasso
from cltlbound.cegar import _pruned
from cltlbound.cli import main
from cltlbound.formula import (
    COST_GT,
    COST_LE,
    CostRelease,
    Lit,
    Next,
    classify_fragment,
    cost_operator_count,
    label_counters,
    negate_dual,
    parse_formula,
    sort_key,
)
from cltlbound.oracle import eval_ltl_on_lasso, value_sup
from cltlbound.translate import Carry, Tableau, build_counter_automaton, prune_dominated
from cltlbound.words import ABOVE_CAP, parse_lasso

from corpus import ReferenceTableau, random_formula, random_lasso, reference_automaton


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
            assert (0 if got == -1 else got) == oracle, (i, cap, str(phi), str(word))
            if whole is not None:
                want = value_on_lasso(whole, word, cap)
                assert got == want, (i, cap, str(phi), str(word), got, want)
    assert against_automaton == 179


def test_the_dual_route_agrees_with_the_oracle_on_the_criterion_3_stream():
    # Value mode's check reads an R> formula's value below the cap on its
    # U<= dual, bounded: one less than the least level the dual holds at.
    # The R> formulas of the first 400 pairs of criterion 3's stream at its
    # cap of 10, with no guess, and with the oracle's value as the guess
    # and the bracket from 0, as the check runs.
    rng = random.Random(3)
    seen, checked = set(), 0
    for i in range(400):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        while cost_operator_count(phi) > 4:
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        word = random_lasso(rng, props=("a", "b"))
        if classify_fragment(phi) != COST_GT:
            continue  # the check reads a plain formula the U<= way
        checked += 1
        want = value_sup(phi, word, 10)
        dual = Tableau(negate_dual(phi))  # read again for the guess, from its memo
        # With no guess the bracket starts at -1, so level 0 is tested too,
        # and -1 says that phi fails at level 0.
        exact = -1 if want == 0 and not eval_ltl_on_lasso(phi, word, 0) else want
        got = value_on_lasso(dual, word, 10)
        assert got == exact, (i, str(phi), str(word), got, exact)
        got = value_on_lasso(dual, word, 10, want, lo=0)
        assert got == want, (i, str(phi), str(word), got, want)
        seen.add(exact if exact is ABOVE_CAP else min(exact, 2))
    assert seen == {-1, 0, 1, 2, ABOVE_CAP}
    assert checked == 261


# Pair 33 of criterion 3's stream, value 0: the costliest query of the
# benchmark's R> value-corpus stream to check on the formula itself.
PAIR_33 = (
    "((X (true & a)) R ((X !b) | !b)) R> (((!a U b) R (b R> !b))"
    " | ((!a R !a) U (!b & !b)))"
)
PAIR_33_WORD = "{} {} {} | {b}"


def test_a_value_of_0_is_confirmed_by_one_bounded_test(monkeypatch, capsys):
    # On its own tableau the check's capped test at 1 explores 449
    # configurations before it fails; the dual's bounded test at level 1
    # stops at its first accepting cycle.
    explored = []
    engine = cltlbound.automaton._accepts

    def spy(*args):
        found, configs = engine(*args)
        explored.append(configs)
        return found, configs

    monkeypatch.setattr(cltlbound.automaton, "_accepts", spy)
    argv = ["-f", PAIR_33, "--mode", "value", "--word", PAIR_33_WORD, "--oracle-check"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "value: 0" in out and "oracle: ok" in out
    assert len(explored) == 1
    assert sum(explored) <= 20, explored


def test_ranks_built_from_parts_equal_sort_key():
    # A Tableau builds each member's rank from its parts' ranks when it
    # numbers the member; formula.sort_key, which recomputes the node
    # count and the canonical text, is the reference.  The first 200
    # formulas of criterion 3's stream, each explored whole, so that X
    # members and members moved onto their partner counter are numbered
    # too.
    rng = random.Random(3)
    checked = partners = 0
    for _ in range(200):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        while cost_operator_count(phi) > 4:
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        random_lasso(rng, props=("a", "b"))  # the stream's word, drawn to keep its formulas
        tab = Tableau(phi)
        explore_whole(tab)
        for f, rank in zip(tab._forms, tab._rank):
            if isinstance(f, Carry):
                assert rank is None
                continue
            assert rank == sort_key(f), str(f)
            checked += 1
            partners += isinstance(f, CostRelease) and f.counter < 0
    assert checked == 2540
    assert partners == 112


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
        assert value_on_lasso(tab, word, 10) == -1
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
    transitions under the letter: rows (state, target, acceptance sets,
    actions, cube), each cube conjoined with the query cube, each row
    once, minus the ones a sibling dominates under the formula's rule."""
    cube = letter_cube(letter)
    rows = dict.fromkeys(
        (state, t.dst, t.acc, t.actions, t.cube.merge(cube)) for t in ref.successors(state, letter)
    )
    coded = [(row[1], row[4], row[2], action_code(row[3]), row) for row in rows]
    return [row[4] for row in undominated(coded, inf)]


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
                handoffs += any("r" in row[3] for rows in got[0] for row in rows)
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


# -- the closure memo on obligations ----------------------------------------
#
# `Tableau._reduce` and `Tableau._closure` see only a set's non-reduced
# members.  A closure skips the steps adding a literal its cube falsifies,
# and the set's own literals filter its items afterwards.


def explore_whole(tab):
    """Every state's rows under the cube true, in state order."""
    out = []
    state = 0
    while state < tab.num_states:
        out.append(tab.successors(state, TOP_CUBE))
        state += 1
    return out


def test_own_literal_contradicts_a_literal_added_two_rewrites_down():
    # States 1 and 2 share the obligation b & (b & a), which adds a on its
    # second rewrite; state 1's own !a contradicts it, state 2's own a
    # agrees.  One closure serves both.
    phi = parse_formula("(X !a | X a) & X (b & (b & a))")
    tab = Tableau(phi)
    rows = explore_whole(tab)
    members = [sorted(map(str, tab._members(tab._sets[s]))) for s in (1, 2)]
    assert members == [["!a", "b & (b & a)"], ["a", "b & (b & a)"]]
    assert rows[1] == []
    assert rows[2] == [(2, 3, frozenset(), (), Cube(frozenset("ab")))]
    ((added, _, _, _),) = tab._closures[0][1 << tab._intern(phi.right.operand)]
    assert tab._members(added) == {Lit("a"), Lit("b")}
    ref = ReferenceTableau(phi)
    assert rows == [reference_successors(ref, s, None, False) for s in range(4)]


def test_falsified_literal_added_two_rewrites_down():
    # State 1 is the obligation b & (b & a) alone: a letter without a
    # falsifies the literal its second rewrite adds, so that step is not
    # taken.  Its two obligations sets, b & (b & a) and b & a, are reduced
    # once for every cube.
    tab = Tableau(parse_formula("X (b & (b & a))"))
    explore_whole(tab)
    assert len(tab._reduced) == 2
    ab = [(1, 2, frozenset(), (), Cube(frozenset("ab")))]
    for letter, want in (("ab", ab), ("b", []), ("a", []), ("", [])):
        assert tab.successors(1, letter_cube(frozenset(letter))) == want, letter
    assert len(tab._reduced) == 2
    obligations = tab._sets[1]
    a = tab._literals["a"][0]
    assert [memo[obligations] for falsified, memo in tab._closures.items() if falsified & a] == [
        (), ()
    ]


def test_hand_off_numbers_the_partner_inside_the_step():
    # A running copy of G> b beside G (G> b), which demands it again: the
    # step flips the copy onto its partner counter, which is first
    # numbered right there, and resets counter 1.  The partner is an
    # obligation of the target, not one of its reduced members.
    phi = label_counters(parse_formula("G (G> b)"))
    tab = Tableau(phi)
    running, enclosing = tab._intern(phi.right), tab._intern(phi)
    assert running not in tab._partners
    ((target, added, _, _, code, _, mark, fresh),) = tab._reduce(
        1 << running | 1 << enclosing
    )
    partner = tab._partners[running]
    assert target == 1 << partner
    assert tab._nonreduced >> partner & 1
    assert tab._members(added) == {Next(phi)}
    assert (code, mark, fresh) == (action_code(("r", "")), 0, 0)
    # The partner's own rewrites act on its counter, the second slot.
    assert {row for _, row, _, _ in tab._closure(target, 0, {})} >= {
        action_code(("", "or")), action_code(("", "i"))
    }
    assert build_counter_automaton(phi) == prune_dominated(reference_automaton(phi))


def closures(tab):
    """The number of closures a Tableau has computed."""
    return sum(len(memo) for memo in tab._closures.values())


def test_closures_are_shared_across_states_and_cubes():
    # Pair 24's dual explored whole over its 463 states reduces 963
    # obligations sets and computes one closure per obligations set, the
    # empty one included.  Asking every state again under each letter of
    # {a, b} reduces no set again and computes 4,492 closures in all.  The
    # frozenset reference keys both memos on whole sets and reduces 8,612
    # sets and computes 27,498 closures for the same questions.
    tab = Tableau(negate_dual(parse_formula(PAIR_24)))
    explore_whole(tab)
    assert (tab.num_states, len(tab._reduced), closures(tab)) == (463, 963, 964)
    for state in range(tab.num_states):
        for letter in LETTERS:
            tab.successors(state, letter_cube(letter))
    assert (tab.num_states, len(tab._reduced), closures(tab)) == (463, 963, 4492)


# -- internal invariants ----------------------------------------------------
#
# No formula reaches these checks; each test breaks one of a Tableau's
# tables, or asks for a set that the pick order never makes, and expects
# the check to fire.


def made_state(tab, *members):
    """The id of a hand-made set of members."""
    return tab._state_id(tab._normalize([tab._intern(f) for f in members]))


def test_a_hand_off_to_an_unsized_counter_fails():
    tab = Tableau(parse_formula("G (G> b)"))
    del tab._slot[-1]  # occurrence 1 loses its partner counter
    with pytest.raises(RuntimeError, match="occurrence 1, which was not sized for overlap"):
        explore_whole(tab)


def test_a_counter_acting_twice_on_a_path_fails():
    tab = Tableau(parse_formula("(G> a) & (G> b)"))
    tab._slot[2] = tab._slot[1]  # both occurrences on one counter
    with pytest.raises(RuntimeError, match="a counter acted twice on one epsilon path"):
        explore_whole(tab)


def test_a_re_demand_after_the_copy_reduced_fails():
    phi = label_counters(parse_formula("G (G> b)"))
    running = phi.right
    # The set's own Carry member, then a demand on the path.
    tab = Tableau(phi)
    state = made_state(tab, Carry(running), phi)
    with pytest.raises(RuntimeError, match="occurrence 1 re-demanded after it already reduced"):
        tab.successors(state, TOP_CUBE)
    # A Carry member added on the path, then a demand below it: the copy
    # is rewritten before the member enclosing it, by its skip alternative
    # alone, which keeps it as a Carry member.
    tab = Tableau(phi)
    state = made_state(tab, running, phi)
    tab._strict[tab._intern(phi)] = 0
    tab._rank[tab._intern(running)] = (0, "")
    tab._templates[tab._intern(running)] = tab._rewrites(tab._intern(running))[2:]
    with pytest.raises(RuntimeError, match="occurrence 1 re-demanded after it already reduced"):
        tab.successors(state, TOP_CUBE)


def test_two_carried_copies_of_one_occurrence_fail():
    phi = label_counters(parse_formula("G (G> b)"))
    tab = Tableau(phi)
    partner = tab._forms[tab._partner(tab._intern(phi.right))]
    state = made_state(tab, Carry(phi.right), Carry(partner))
    with pytest.raises(RuntimeError, match="two copies of one occurrence carried at once"):
        tab.successors(state, TOP_CUBE)


def test_x_demanding_a_partner_copy_fails():
    phi = label_counters(parse_formula("G (G> b)"))
    tab = Tableau(phi)
    partner = tab._forms[tab._partner(tab._intern(phi.right))]
    state = made_state(tab, Next(partner))
    with pytest.raises(RuntimeError, match="X can only demand an occurrence afresh"):
        tab.successors(state, TOP_CUBE)


def test_an_observation_sharing_the_hand_off_fails():
    # Occurrence 1 (G> b) hands off at the crossing while occurrence 2
    # (G> a), moved onto counter 1's slot, observes on the same step.
    phi = label_counters(parse_formula("G (G> b) & (G> a)"))
    tab = Tableau(phi)
    tab._slot[2] = tab._slot[1]
    first, second = phi.left.right, phi.right
    state = made_state(tab, Carry(first), Next(first), second)
    with pytest.raises(RuntimeError, match="an observation cannot share a step with the hand-off"):
        tab.successors(state, TOP_CUBE)
