import random

import pytest

from cltlbound.automaton import TOP_CUBE, CounterAutomaton, LassoRun, Transition
from cltlbound.cegar import run_peak
from cltlbound.emptiness import (
    check_lasso_run,
    find_accepting_lasso,
    find_bounded_lasso,
    reachable_part,
    word_of_run,
)

from corpus import naive_is_empty, random_automaton


def cube(text):
    from cltlbound.automaton import Cube

    return Cube.from_text(text)


def simple(transitions, n, m=1, init=0):
    return CounterAutomaton(n, init, 0, m, tuple(transitions), ap=("a", "b"))


def test_accepting_self_loop():
    aut = simple([Transition(0, cube("a"), (), frozenset({0}), 0)], 1)
    run, word = find_accepting_lasso(aut)
    assert run.stem == ()
    assert len(run.loop) == 1
    assert word.cycle == (frozenset({"a"}),)
    check_lasso_run(aut, run, word)


def test_no_accepting_cycle():
    aut = simple([Transition(0, cube("a"), (), frozenset(), 0)], 1)
    assert find_accepting_lasso(aut) is None


def test_zero_sets_make_any_cycle_accept():
    aut = simple([Transition(0, TOP_CUBE, (), frozenset(), 0)], 1, m=0)
    assert find_accepting_lasso(aut) is not None


def test_stem_is_shortest():
    ts = [
        Transition(0, cube("a"), (), frozenset(), 1),
        Transition(1, cube("b"), (), frozenset(), 2),
        Transition(2, cube("a&b"), (), frozenset({0}), 2),
    ]
    run, word = find_accepting_lasso(simple(ts, 3))
    assert [t.dst for t in run.stem] == [1, 2]
    assert word.prefix == (frozenset({"a"}), frozenset({"b"}))
    assert word.cycle == (frozenset({"a", "b"}),)


def test_loop_threads_every_acceptance_set():
    ts = [
        Transition(0, cube("a"), (), frozenset({0}), 1),
        Transition(1, cube("b"), (), frozenset({1}), 0),
    ]
    aut = simple(ts, 2, m=2)
    run, word = find_accepting_lasso(aut)
    covered = frozenset().union(*(t.acc for t in run.loop))
    assert covered == frozenset({0, 1})
    check_lasso_run(aut, run, word)


def test_checker_rejects_bad_runs():
    ts = [
        Transition(0, cube("a"), (), frozenset({0}), 1),
        Transition(1, cube("b"), (), frozenset({1}), 0),
    ]
    aut = simple(ts, 2, m=2)
    good, _ = find_accepting_lasso(aut)
    with pytest.raises(ValueError):
        check_lasso_run(aut, LassoRun(good.stem, ()))
    with pytest.raises(ValueError):
        check_lasso_run(aut, LassoRun((), (ts[0],)))  # open loop
    with pytest.raises(ValueError):
        check_lasso_run(aut, LassoRun((), (ts[0], ts[1])[:1]))
    foreign = Transition(0, cube("b"), (), frozenset({0, 1}), 0)
    with pytest.raises(ValueError):
        check_lasso_run(aut, LassoRun((), (foreign,)))
    # acceptance coverage: a loop missing set 1 must be rejected
    half = CounterAutomaton(
        2, 0, 0, 2,
        (Transition(0, cube("a"), (), frozenset({0}), 0),
         Transition(0, cube("b"), (), frozenset({1}), 0)),
        ap=("a", "b"),
    )
    with pytest.raises(ValueError):
        check_lasso_run(half, LassoRun((), (half.transitions[0],)))


def test_word_of_run_uses_positive_literals():
    ts = [Transition(0, cube("a&!b"), (), frozenset({0}), 0)]
    run, word = find_accepting_lasso(simple(ts, 1))
    assert word_of_run(run) == word
    assert word.cycle == (frozenset({"a"}),)


def test_agrees_with_naive_decision():
    rng = random.Random(1009)
    found, empty = 0, 0
    for _ in range(200):
        aut = random_automaton(rng, max_states=8, max_acc=3)
        got = find_accepting_lasso(aut)
        assert (got is None) == naive_is_empty(aut)
        if got is None:
            empty += 1
        else:
            run, word = got
            check_lasso_run(aut, run, word)
            found += 1
    assert found > 30 and empty > 30


def test_search_covers_only_reachable_states():
    # one reachable state among 100000 declared: the search explores one
    # configuration and its one edge
    aut = simple([Transition(0, cube("a"), (), frozenset({0}), 0)], 100000)
    explored = []
    run, word = find_accepting_lasso(aut, explored=explored)
    check_lasso_run(aut, run, word)
    assert explored == [1, 1]
    assert reachable_part(aut)[0] == 1


def test_streett_check_agrees_with_a_deep_bounded_unfolding():
    # A bounded accepting run exists iff one has a lasso whose loop resets
    # what it increments; threading the loop through one edge per
    # acceptance set and per counter keeps its counters below
    # configurations x (acceptance sets + counters + 3).  So the Streett
    # check must find a lasso exactly when the bounded unfolding at that
    # depth has one, and its lasso's counters must stay within it.
    rng = random.Random(47)
    found = empty = 0
    for _ in range(300):
        aut = random_automaton(rng, max_states=5, max_acc=2, max_counters=2)
        configs = reachable_part(aut)[0]
        depth = configs * (aut.num_acc_sets + aut.num_counters + 3)
        hit = find_bounded_lasso(aut)
        deep = find_accepting_lasso(aut, depth, bounded=True)
        assert (hit is None) == (deep is None), aut
        if hit is None:
            empty += find_accepting_lasso(aut) is not None
            continue
        found += 1
        run, word = hit
        check_lasso_run(aut, run, word)
        assert run_peak(run, aut) <= depth
        for c in range(aut.num_counters):
            acts = [t.actions[c] for t in run.loop]
            assert "i" not in acts or any("r" in a for a in acts), (aut, run)
    # both answers occur, and some accepting automata have no bounded run
    assert found > 50 and empty > 10, (found, empty)
