import random

import pytest

from cltlbound.automaton import (
    TOP_CUBE,
    CounterAutomaton,
    Cube,
    Transition,
    synchronized_product,
    to_dot,
    value_on_lasso,
)
from cltlbound.cegar import run_peak, run_value
from cltlbound.emptiness import check_lasso_run, find_accepting_lasso
from cltlbound.words import ABOVE_CAP, NO_RUN, parse_lasso

from corpus import (
    naive_accepts,
    random_automaton,
    random_lasso,
    whole_unfolding,
    whole_unfolding_accepts,
    word_model,
)


def cube(text):
    return Cube.from_text(text)


def test_cube_matching():
    c = cube("a&!b")
    assert c.matches(frozenset({"a"}))
    assert c.matches(frozenset({"a", "c"}))
    assert not c.matches(frozenset({"a", "b"}))
    assert not c.matches(frozenset())
    assert TOP_CUBE.matches(frozenset())


def test_cube_text_round_trip():
    for text in ["true", "a", "!a", "a&b&!c"]:
        assert cube(text).to_text() == text
    assert cube("b&a").to_text() == "a&b"
    with pytest.raises(ValueError):
        cube("a&!a")
    with pytest.raises(ValueError):
        cube("")


def test_cube_merge_and_subsume():
    assert cube("a").merge(cube("!b")) == cube("a&!b")
    assert cube("a").merge(cube("a&b")) == cube("a&b")
    assert cube("a").subsumes(cube("a&!b"))
    assert not cube("a&!b").subsumes(cube("a"))
    assert cube("a").merge(cube("!a")) is None


def test_validation():
    t = Transition(0, TOP_CUBE, (), frozenset(), 0)
    CounterAutomaton(1, 0, 0, 0, (t,))
    with pytest.raises(ValueError):
        CounterAutomaton(0, 0, 0, 0, ())
    with pytest.raises(ValueError):
        CounterAutomaton(1, 1, 0, 0, (t,))
    for bad in ("x", "ii", "ro"):  # only "", "i", "or" and "r" are actions
        with pytest.raises(ValueError):
            CounterAutomaton(1, 0, 1, 0, (Transition(0, TOP_CUBE, (bad,), frozenset(), 0),))
    with pytest.raises(ValueError):
        CounterAutomaton(1, 0, 1, 0, (t,))  # action row too short
    with pytest.raises(ValueError):
        CounterAutomaton(1, 0, 0, 1, (Transition(0, TOP_CUBE, (), frozenset({1}), 0),))


def block_counter():
    # counts a-run lengths, observed and reset at each !a
    return CounterAutomaton(
        num_states=1,
        init=0,
        num_counters=1,
        num_acc_sets=1,
        transitions=(
            Transition(0, cube("a"), ("i",), frozenset(), 0),
            Transition(0, cube("!a"), ("or",), frozenset({0}), 0),
        ),
        ap=("a",),
    )


def test_value_on_lasso_block_counter():
    aut = block_counter()
    assert value_on_lasso(aut, parse_lasso("| {a} {a} {}"), 10) == 2
    assert value_on_lasso(aut, parse_lasso("| {}"), 10) == 0
    assert value_on_lasso(aut, parse_lasso("{a} {a} {a} | {}"), 10) == 0
    assert value_on_lasso(aut, parse_lasso("| {a}"), 10) is NO_RUN
    assert value_on_lasso(aut, parse_lasso("| {a} {a} {a} {}"), 3) is ABOVE_CAP


def test_value_on_lasso_needs_positive_cap():
    with pytest.raises(ValueError):
        value_on_lasso(block_counter(), parse_lasso("| {}"), 0)


def test_product_against_membership_brute():
    rng = random.Random(41)
    checked = 0
    for _ in range(150):
        a = random_automaton(rng, max_states=5, max_acc=2, max_counters=1)
        b = random_automaton(rng, max_states=5, max_acc=2, max_counters=1)
        prod = synchronized_product(a, b)
        assert prod.num_counters == a.num_counters + b.num_counters
        assert prod.num_acc_sets == a.num_acc_sets + b.num_acc_sets
        for _ in range(4):
            w = random_lasso(rng, ("a", "b"), 3, 3)
            both = naive_accepts(a, w) and naive_accepts(b, w)
            assert naive_accepts(prod, w) == both
            checked += 1
    assert checked == 600


def test_capped_unfolding_agrees_with_value_on_lasso():
    # A lasso word is a one-path model.  The lasso front end (behind
    # value_on_lasso) and the model front end over the product with the
    # one-word model agree at every threshold: the unfolding at t has a
    # lasso exactly when the word's value reaches t, and the run found is
    # a run of the product worth t or more.
    rng = random.Random(43)
    cap = 4
    # a-blocks of every length up to past the cap, then random pairs
    pairs = [(block_counter(), parse_lasso("| " + "{a} " * m + "{}")) for m in range(cap + 2)]
    pairs += [
        (random_automaton(rng, max_states=5, max_acc=2, max_counters=2),
         random_lasso(rng, ("a", "b"), 3, 3))
        for _ in range(150)
    ]
    nonempty = 0
    for aut, word in pairs:
        value = value_on_lasso(aut, word, cap)
        product = synchronized_product(aut, word_model(word, ("a", "b")))
        for t in range(cap + 1):
            hit = find_accepting_lasso(product, t)
            reaches = value is ABOVE_CAP or (value is not NO_RUN and value >= t)
            assert (hit is not None) == reaches, (aut, word, t, value)
            if hit is not None:
                assert run_value(hit[0], product) >= t
                nonempty += t > 0
    assert nonempty > 50
    with pytest.raises(ValueError):
        find_accepting_lasso(block_counter(), -1)


def test_early_exit_agrees_with_the_whole_unfolding():
    # The threshold test stops at the first accepting cycle it meets; the
    # accepting components of the whole unfolding give the same answer at
    # every threshold, capped and bounded.  A lasso found is a run of the
    # automaton that passes the test; a failed test explored the whole
    # unfolding.
    rng = random.Random(47)
    accepted = 0
    for _ in range(300):
        aut = random_automaton(rng, max_states=8, max_acc=3, max_counters=3)
        for bounded in (False, True):
            for t in range(4):
                explored = []
                hit = find_accepting_lasso(aut, t, bounded, explored)
                whole = whole_unfolding_accepts(aut, t, bounded)
                assert (hit is not None) == whole, (aut, t, bounded)
                if hit is None:
                    num_configs, edges = whole_unfolding(aut, t, bounded)
                    assert explored == [num_configs, len(edges)], (aut, t, bounded)
                    continue
                run, word = hit
                check_lasso_run(aut, run, word)
                if bounded:
                    assert run_peak(run, aut) <= t, (aut, t, run)
                else:
                    assert run_value(run, aut) >= t, (aut, t, run)
                accepted += 1
    assert accepted > 200

def test_product_shifts_acceptance_sets():
    a = block_counter()
    b = CounterAutomaton(
        1, 0, 0, 1,
        (Transition(0, TOP_CUBE, (), frozenset({0}), 0),),
        ap=("a",),
    )
    prod = synchronized_product(a, b)
    assert prod.num_acc_sets == 2
    accs = {tuple(sorted(t.acc)) for t in prod.transitions}
    assert accs == {(1,), (0, 1)}


def test_to_dot_mentions_everything():
    text = to_dot(block_counter())
    assert "digraph" in text
    assert "or1" in text and "i1" in text
    assert "{0}" in text
