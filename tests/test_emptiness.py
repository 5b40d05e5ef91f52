import random
from dataclasses import replace
from pathlib import Path

import pytest

from cltlbound.automaton import (
    TOP_CUBE,
    CounterAutomaton,
    LassoRun,
    Transition,
    _ModelProduct,
    synchronized_product,
)
from cltlbound.cegar import _pruned, run_peak
from cltlbound.emptiness import (
    check_lasso_run,
    find_accepting_lasso,
    find_bounded_lasso,
    reachable_part,
    word_of_run,
)
from cltlbound.formula import parse_formula
from cltlbound.model import load_model, parse_model

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


def test_checker_rejects_forged_runs_of_a_lazy_product():
    # One counter, incremented on a and observed on !a, times a model
    # whose state 1 may loop on b through no acceptance set.
    source = CounterAutomaton(
        1, 0, 1, 1,
        (Transition(0, cube("a"), ("i",), frozenset(), 0),
         Transition(0, cube("!a"), ("or",), frozenset({0}), 0)),
        ap=("a", "b"),
    )
    model = parse_model(
        "ap: a b\nstates: 2\ninit: 0\naccsets: 1\n"
        "trans: 0 1 true {0}\ntrans: 1 0 true {}\ntrans: 1 1 b {}\n"
    )
    product = _ModelProduct(source, model)
    run, word = find_accepting_lasso(product, 1)
    check_lasso_run(product, run, word)
    # A fresh product expands what the check reads.
    check_lasso_run(_ModelProduct(source, model), run, word)
    # Start the loop at the node of the run that has the a&b self-loop
    # (model state 1), and unfold the loop up to it into the stem: the
    # same run, whose stem now leads into the loop.
    k = next(k for k, t in enumerate(run.loop)
             if (t.src, t.src, frozenset(), ("i",), cube("a&b")) in product.edges(t.src))
    assert k > 0
    run = LassoRun(run.stem + run.loop[:k], run.loop[k:] + run.loop[:k])
    check_lasso_run(product, run)
    first = run.loop[0]
    unreached = product.num_states
    assert run.loop[1].src != first.src  # so rotating the loop breaks the chain
    self_loop = Transition(first.src, cube("a&b"), ("i",), frozenset(), first.src)
    foreign = "transition not in the automaton"
    forged = [
        (LassoRun(run.stem, (replace(first, cube=cube("!a")),) + run.loop[1:]), foreign),
        (LassoRun(run.stem, (replace(first, acc=first.acc ^ {0}),) + run.loop[1:]), foreign),
        (LassoRun(run.stem, (replace(first, actions=("or",)),) + run.loop[1:]), foreign),
        (LassoRun(run.stem, (replace(first, dst=unreached),
                             replace(first, src=unreached, dst=first.src))), foreign),
        (LassoRun(run.stem, run.loop[1:] + run.loop[:1]), "broken chain"),
        # a real edge, through no acceptance set
        (LassoRun(run.stem, (self_loop,)), "loop misses acceptance set"),
    ]
    for bad, message in forged:
        with pytest.raises(ValueError, match=message):
            check_lasso_run(product, bad)


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


def test_reachable_part_walks_a_product_in_any_state():
    # On a fresh product the walk numbers nodes as it meets them, so its
    # edges are the whole product's transitions, in order.  On a product a
    # depth-first test already expanded, nodes carry other numbers, but
    # the walk finds the same nodes and edges.
    def named(product, edges):
        return {(product.order[e[0]], product.order[e[1]], *e[2:]) for e in edges}

    root = Path(__file__).resolve().parent.parent / "models"
    renumbered = 0
    for name in ("L3", "aab_cycle", "ants", "neg_first"):
        m = load_model(root / f"{name}.model")
        for text in ("G (F<= !a)", "(G> a) & F (G> !a)"):
            aut = _pruned(parse_formula(text))
            fresh = _ModelProduct(aut, m)
            count, edges = reachable_part(fresh)
            assert [e[0] for e in edges] == sorted(e[0] for e in edges)
            assert list(dict.fromkeys([0] + [e[1] for e in edges])) == list(range(count))
            whole = synchronized_product(aut, m)
            assert count == whole.num_states
            assert list(map(Transition.of_edge, edges)) == list(whole.transitions)

            used = _ModelProduct(aut, m)
            find_accepting_lasso(used, 1)
            renumbered += used.order[:count] != fresh.order[:count]
            got = reachable_part(used)
            assert (got[0], len(got[1])) == (count, len(edges))
            assert named(used, got[1]) == named(fresh, edges)
    assert renumbered > 0
