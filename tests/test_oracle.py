import random

import pytest
from hypothesis import given, settings, strategies as st

from cltlbound import oracle
from cltlbound.formula import (
    FragmentError,
    cost_operator_count,
    instantiate,
    negate_dual,
    parse_formula,
)
from cltlbound.oracle import eval_ltl_on_lasso, value_inf, value_sup
from cltlbound.words import ABOVE_CAP, LassoWord, parse_lasso

from corpus import (
    brute_eval,
    instantiation_value_inf,
    instantiation_value_sup,
    random_formula,
    random_lasso,
)


def test_eval_simple():
    w = parse_lasso("{a} | {b}")
    assert eval_ltl_on_lasso(parse_formula("a"), w)
    assert not eval_ltl_on_lasso(parse_formula("b"), w)
    assert eval_ltl_on_lasso(parse_formula("X b"), w)
    assert eval_ltl_on_lasso(parse_formula("F b"), w)
    assert not eval_ltl_on_lasso(parse_formula("G a"), w)
    assert eval_ltl_on_lasso(parse_formula("X (G b)"), w)
    assert eval_ltl_on_lasso(parse_formula("a U b"), w)


def test_eval_rejects_cost_operators():
    with pytest.raises(FragmentError):
        eval_ltl_on_lasso(parse_formula("F<= a"), parse_lasso("| {a}"))


def test_eval_release_on_cycle_boundary():
    # release needs the greatest fixpoint; a pure prefix sweep gets it wrong
    w = parse_lasso("{a} | {a} {}")
    assert eval_ltl_on_lasso(parse_formula("b R a"), w) is False
    assert eval_ltl_on_lasso(parse_formula("b R a"), parse_lasso("| {a}")) is True


def test_eval_agrees_with_brute_force():
    rng = random.Random(23)
    for _ in range(400):
        phi = random_formula(rng, 4, ("a", "b"), "LTL")
        w = random_lasso(rng, ("a", "b"))
        assert eval_ltl_on_lasso(phi, w) == brute_eval(phi, w), (str(phi), str(w))


@settings(max_examples=200)
@given(st.data())
def test_eval_agrees_with_brute_force_hypothesis(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    phi = random_formula(rng, 3, ("a", "b"), "LTL")
    w = random_lasso(rng, ("a", "b"), 4, 4)
    assert eval_ltl_on_lasso(phi, w) == brute_eval(phi, w)


def test_value_inf_counts_steps():
    phi = parse_formula("F<= !a")
    assert value_inf(phi, parse_lasso("{a} {a} {a} | {}"), 10) == 3
    assert value_inf(phi, parse_lasso("| {}"), 10) == 0
    assert value_inf(phi, parse_lasso("| {a}"), 10) is ABOVE_CAP


def test_value_inf_max_gap():
    phi = parse_formula("G (F<= !a)")
    assert value_inf(phi, parse_lasso("| {a} {a} {}"), 10) == 2
    assert value_inf(phi, parse_lasso("{a} {a} {a} | {}"), 10) == 3
    assert value_inf(phi, parse_lasso("| {}"), 10) == 0


def test_value_inf_until_counts_left_failures():
    phi = parse_formula("a U<= b")
    # failures of a before the first b are what cost
    assert value_inf(phi, parse_lasso("{a} {} {a} | {b}"), 10) == 1
    assert value_inf(phi, parse_lasso("{} {} | {b}"), 10) == 2
    assert value_inf(phi, parse_lasso("{a} | {a,b}"), 10) == 0


def test_value_sup_block_lengths():
    phi = parse_formula("G> a")
    assert value_sup(phi, parse_lasso("{a} {a} {a} | {}"), 10) == 2
    assert value_sup(phi, parse_lasso("| {}"), 10) == 0
    assert value_sup(phi, parse_lasso("| {a}"), 10) is ABOVE_CAP
    best = parse_formula("F (G> a)")
    assert value_sup(best, parse_lasso("| {a} {a} {a} {}"), 10) == 2


def test_caps_must_be_positive():
    with pytest.raises(ValueError):
        value_inf(parse_formula("F<= a"), parse_lasso("| {a}"), 0)
    with pytest.raises(ValueError):
        value_sup(parse_formula("G> a"), parse_lasso("| {a}"), 0)


def test_fragment_guards():
    w = parse_lasso("| {a}")
    with pytest.raises(FragmentError):
        value_inf(parse_formula("G> a"), w, 5)
    with pytest.raises(FragmentError):
        value_sup(parse_formula("F<= a"), w, 5)


def test_duality_seeded_corpus():
    rng = random.Random(91)
    cap = 8
    compared = 0
    for _ in range(500):
        phi = random_formula(rng, 3, ("a", "b"), "CostLE")
        w = random_lasso(rng, ("a", "b"), 4, 4)
        inf_v = value_inf(phi, w, cap)
        sup_v = value_sup(negate_dual(phi), w, cap)
        if inf_v is ABOVE_CAP or sup_v is ABOVE_CAP:
            continue
        assert sup_v == max(0, inf_v - 1), (str(phi), str(w))
        compared += 1
    assert compared > 300


def test_value_inf_monotone_in_word_sat():
    # a sanity pin: the value is the least n whose unfolding holds
    rng = random.Random(5)
    for _ in range(200):
        phi = random_formula(rng, 3, ("a", "b"), "CostLE")
        w = random_lasso(rng, ("a", "b"), 4, 4)
        v = value_inf(phi, w, 5)
        for n in range(6):
            holds = eval_ltl_on_lasso(instantiate(phi, n), w)
            if v is ABOVE_CAP:
                assert not holds
            else:
                assert holds == (n >= v)


def _stream(seed, fragment, count):
    """The first pairs of the acceptance tests' streams: seed 20260819 with
    U<= is criterion 1's, seed 3 with R> (redrawing past four cost
    operators) is criterion 3's."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        phi = random_formula(rng, 4, ("a", "b"), fragment)
        while fragment == "CostGT" and cost_operator_count(phi) > 4:
            phi = random_formula(rng, 4, ("a", "b"), fragment)
        out.append((phi, random_lasso(rng, ("a", "b"))))
    return out


def _runs(cycle: str, m: int) -> LassoWord:
    return parse_lasso(" ".join(["{a}"] * m) + " | " + cycle)


def test_tables_agree_with_instantiation_route():
    checked = 0
    for phi, w in _stream(20260819, "CostLE", 300):
        for cap in (1, 3, 6):
            assert value_inf(phi, w, cap) == instantiation_value_inf(phi, w, cap), (
                str(phi), str(w), cap)
            dual = negate_dual(phi)
            assert value_sup(dual, w, cap) == instantiation_value_sup(dual, w, cap), (
                str(dual), str(w), cap)
            checked += 2
    for phi, w in _stream(3, "CostGT", 400):
        for cap in (1, 3, 6):
            assert value_sup(phi, w, cap) == instantiation_value_sup(phi, w, cap), (
                str(phi), str(w), cap)
            checked += 1
    # caps on both sides of the number of positions, where the tables stop
    # changing with the level
    le = [parse_formula(t) for t in ("F<= b", "G (F<= !a)", "a U<= (b | X b)")]
    gt = [parse_formula(t) for t in ("G> a", "F (G> a)", "G> (a | b)")]
    for m in range(6):
        for w in (_runs("{b}", m), _runs("{} {a}", m)):
            size = w.positions()
            for cap in {max(1, size - 1), size, size + 1, size + 4}:
                for phi in le:
                    assert value_inf(phi, w, cap) == instantiation_value_inf(phi, w, cap), (
                        str(phi), str(w), cap)
                for phi in gt:
                    assert value_sup(phi, w, cap) == instantiation_value_sup(phi, w, cap), (
                        str(phi), str(w), cap)
                checked += len(le) + len(gt)
    assert checked > 3000


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_evaluation_is_the_instantiated_formula(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    phi = random_formula(rng, 3, ("a", "b"), data.draw(st.sampled_from(("CostLE", "CostGT"))))
    w = random_lasso(rng, ("a", "b"), 4, 4)
    for n in range(w.positions() + 3):
        assert eval_ltl_on_lasso(phi, w, n) == eval_ltl_on_lasso(instantiate(phi, n), w), (
            str(phi), str(w), n)


def test_level_evaluation_rejects():
    w = parse_lasso("| {a}")
    with pytest.raises(ValueError):
        eval_ltl_on_lasso(parse_formula("F<= a"), w, -1)
    with pytest.raises(FragmentError):
        eval_ltl_on_lasso(parse_formula("F<= a & G> a"), w, 2)


def _long_words(count):
    """Words of 50 to 64 positions, each with a prefix and a cycle, whose
    letters lean to a so that the counts reach past a few."""
    rng = random.Random(28)

    def letter():
        return frozenset(p for p, odds in (("a", 0.8), ("b", 0.25)) if rng.random() < odds)

    out = []
    for _ in range(count):
        pre = rng.randrange(25, 40)
        out.append(LassoWord(tuple(letter() for _ in range(pre)),
                             tuple(letter() for _ in range(rng.randrange(50 - pre, 65 - pre)))))
    return out


def test_tables_kept_across_levels_agree_with_instantiation_route():
    # A search keeps the tables that hold at every level; these shapes put
    # a counting operator inside another, under each plain operator, and
    # next to a level-free sibling, so a table kept past its level shows.
    le = [parse_formula(t) for t in (
        "F<= (!a & X (!b U<= b))",
        "b U<= (a & (!a U<= b))",
        "(a | b) U<= (!a & F<= b)",
        "(F<= !a) U b",
        "b R (!b U<= !a)",
        "X (F<= (b & !a))",
        "(F b) & (G (F<= !a))",
        "(G a) | F<= (!a & b)",
    )]
    gt = [negate_dual(phi) for phi in le] + [parse_formula(t) for t in (
        "G> (a & X (G> (a | b)))",
        "a R> (b | G> a)",
        "(F b) & G> (a | X b)",
        "(G !a) | G> a",
    )]
    finite = 0
    for w in _long_words(4):
        assert w.prefix and w.positions() >= 50
        for phi in le + gt:
            value = value_inf if phi in le else value_sup
            route = instantiation_value_inf if phi in le else instantiation_value_sup
            v = value(phi, w, w.positions() + 2)
            if v is ABOVE_CAP:
                caps = (5, w.positions() + 2)
            else:
                caps = (max(1, v - 1), v + 1)
                finite += v > 1
            for cap in caps:
                assert value(phi, w, cap) == route(phi, w, cap), (str(phi), str(w), cap)
    assert finite > 30


def test_a_search_sweeps_level_free_counts_once(monkeypatch):
    calls = {"sweep": 0, "eval": 0}
    sweep, evaluate = oracle._sweep, oracle.eval_ltl_on_lasso

    def counted_sweep(*args):
        calls["sweep"] += 1
        return sweep(*args)

    def counted_eval(*args):
        calls["eval"] += 1
        return evaluate(*args)

    monkeypatch.setattr(oracle, "_sweep", counted_sweep)
    monkeypatch.setattr(oracle, "eval_ltl_on_lasso", counted_eval)
    w = parse_lasso(" ".join(["{a}"] * 148) + " | {b}")
    assert value_inf(parse_formula("F<= b"), w, 150) == 148
    # One probe at 149, then seven bisection steps over [0, 149]: the
    # failure counts of F<= b are swept on the first, and kept.
    assert calls == {"sweep": 1, "eval": 8}


def test_tables_of_another_formula_or_word_are_not_used():
    phi, other = parse_formula("F<= b"), parse_formula("G a")
    w = parse_lasso(" ".join(["{a}"] * 5) + " | {b}")
    stale = oracle._Tables(phi, parse_lasso("{b} | {a}"), False)
    assert not eval_ltl_on_lasso(phi, w, 4, stale)
    assert eval_ltl_on_lasso(phi, w, 5, stale)
    assert not eval_ltl_on_lasso(other, w, 0, oracle._Tables(phi, w, False))
