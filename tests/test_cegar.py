import importlib.util
import math
import random
from pathlib import Path

import pytest

from cltlbound.automaton import CounterAutomaton, Cube, LassoRun, Transition
from cltlbound.cegar import (
    compute_inf_bound,
    compute_sup_bound,
    run_value,
)
from cltlbound.formula import (
    COST_GT,
    And,
    FragmentError,
    classify_fragment,
    cost_operator_count,
    instantiate,
    negate_dual,
    parse_formula,
)
from cltlbound.model import load_model, parse_model
from cltlbound.oracle import value_inf, value_sup
from cltlbound.translate import build_counter_automaton
from cltlbound.words import ABOVE_CAP

from corpus import instantiation_sup, random_formula


ROOT = Path(__file__).resolve().parent.parent


def cube(text):
    return Cube.from_text(text)


def model(text):
    return parse_model(text)


UNIVERSAL = """
ap: a
states: 1
init: 0
accsets: 0
trans: 0 0 true {}
"""

NO_A = """
ap: a
states: 1
init: 0
accsets: 0
trans: 0 0 !a {}
"""

EMPTY_LANG = """
ap: a
states: 1
init: 0
accsets: 1
trans: 0 0 true {}
"""


# -- run_value ---------------------------------------------------------------


def counter_machine():
    return CounterAutomaton(
        num_states=2,
        init=0,
        num_counters=1,
        num_acc_sets=1,
        transitions=(
            Transition(0, cube("a"), ("i",), frozenset(), 0),
            Transition(0, cube("!a"), ("or",), frozenset({0}), 1),
            Transition(1, cube("a"), ("i",), frozenset(), 1),
            Transition(1, cube("!a"), ("or",), frozenset({0}), 1),
        ),
        ap=("a",),
    )


def test_run_value_observes_minimum():
    aut = counter_machine()
    t = aut.transitions
    # a a !a then (a !a)^w: observations 2, then 1 forever
    run = LassoRun((t[0], t[0], t[1]), (t[2], t[3]))
    assert run_value(run, aut) == 1


def test_run_value_stem_observation_counts():
    aut = counter_machine()
    t = aut.transitions
    run = LassoRun((t[1],), (t[2], t[2], t[3]))
    # stem observes 0 immediately; the loop then observes 2
    assert run_value(run, aut) == 0


def test_run_value_no_observation_is_infinite():
    aut = CounterAutomaton(
        1, 0, 1, 0,
        (Transition(0, cube("a"), ("i",), frozenset(), 0),),
        ap=("a",),
    )
    run = LassoRun((), (aut.transitions[0],))
    assert run_value(run, aut) == math.inf


def test_run_value_validates():
    aut = counter_machine()
    t = aut.transitions
    with pytest.raises(ValueError):
        run_value(LassoRun((), (t[2],)), aut)  # does not start at init
    with pytest.raises(ValueError):
        run_value(LassoRun((t[0],), (t[0],)), aut)  # loop never accepts


# -- sup ----------------------------------------------------------------------


def test_sup_direct_fragment():
    # G> a directly: the universal language contains a^w, so no bound
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("G> a"))
    assert r.outcome == "unbounded"
    assert r.bound is None
    assert r.witness is not None
    assert value_sup(parse_formula("G> a"), r.witness, r.trace[-1].n + 1) is ABOVE_CAP


def test_sup_dual_fragment_finite():
    phi = parse_formula("G (F<= !a)")
    r = compute_sup_bound(model(NO_A), phi)
    assert (r.outcome, r.bound) == ("finite", 0)
    assert value_inf(phi, r.witness, 2) == 0
    kinds = [row.kind for row in r.trace]
    assert kinds == ["search", "probe"]


def _lk_model(k):
    spec = importlib.util.spec_from_file_location(
        "make_lk_models", ROOT / "scripts" / "make_lk_models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return model(module.render(k))


def test_sup_trace_gallops():
    phi = parse_formula("G (F<= !a)")
    for k in (5, 40):
        r = compute_sup_bound(_lk_model(k), phi)
        assert (r.outcome, r.bound) == ("finite", k)
        dual_bound = k - 1
        search = [row for row in r.trace if row.kind == "search"]
        for row in search:
            if row.word is not None:
                # every counterexample really reaches past the threshold
                assert value_sup(negate_dual(phi), row.word, row.n + 1) is ABOVE_CAP
        assert any(row.p == dual_bound for row in search)
        assert any(row.word is None and row.n == dual_bound for row in search)
        # doubling up to the bound, then bisecting back down to it
        assert len(search) <= 2 * math.ceil(math.log2(k + 2)) + 2, k


def _agreement_corpus(count):
    """R> formulas with one cost operator.  The instantiation route
    retranslates phi & phi[n+1] per threshold, and that translation grows
    geometrically in n for some draws, so draws whose phi & phi[1] already
    has more than 100 transitions are redrawn."""
    rng = random.Random(11)
    out = []
    while len(out) < count:
        phi = random_formula(rng, depth=3, props=("a", "b"), fragment="CostGT")
        if classify_fragment(phi) != COST_GT or cost_operator_count(phi) != 1:
            continue
        first = build_counter_automaton(And(phi, instantiate(phi, 1)))
        if len(first.transitions) <= 100:
            out.append(phi)
    return out


def test_sup_agrees_with_instantiation_route():
    # A cutoff of 6 caps the reference's passes; below it both routes
    # give the exact sup, above it both say unbounded.
    cutoff = 6
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    outcomes = set()
    for phi in _agreement_corpus(16):
        for m in models:
            got = compute_sup_bound(m, phi, cutoff)
            want = instantiation_sup(m, phi, cutoff)
            assert (got.outcome, got.bound) == (want.outcome, want.bound), (str(phi), m)
            outcomes.add((got.outcome, got.bound))
            if got.witness is None:
                assert got.outcome == "finite" and want.witness is None
            elif got.outcome == "finite":
                assert value_sup(phi, got.witness, got.bound + 2) == got.bound
            else:
                assert value_sup(phi, got.witness, cutoff + 1) is ABOVE_CAP
    # the corpus reaches every bound up to the cutoff, and past it
    assert outcomes == {("finite", b) for b in range(cutoff + 1)} | {("unbounded", None)}


def test_sup_plain_ltl():
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("F a"))
    assert r.outcome == "unbounded"
    r2 = compute_sup_bound(model(NO_A), parse_formula("F a"))
    assert (r2.outcome, r2.bound) == ("finite", 0)
    assert r2.witness is not None


def test_sup_empty_language_is_zero_without_witness():
    r = compute_sup_bound(model(EMPTY_LANG), parse_formula("G> a"))
    assert (r.outcome, r.bound) == ("finite", 0)
    assert r.witness is None


def test_sup_cutoff_override():
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("G> a"), cutoff=1)
    assert r.outcome == "unbounded"
    assert r.cutoff == 1
    assert r.iterations <= 2


def test_sup_rejections():
    with pytest.raises(FragmentError):
        compute_sup_bound(model(UNIVERSAL), parse_formula("(F<= a) & (G> a)"))
    counters = CounterAutomaton(
        1, 0, 1, 0,
        (Transition(0, cube("a"), ("i",), frozenset(), 0),),
        ap=("a",),
    )
    with pytest.raises(ValueError):
        compute_sup_bound(counters, parse_formula("G> a"))


# -- inf ----------------------------------------------------------------------


def test_inf_scan_hits_first_threshold():
    phi = parse_formula("F<= a")
    r = compute_inf_bound(model(UNIVERSAL), phi)
    assert (r.outcome, r.bound) == ("finite", 0)
    assert value_inf(phi, r.witness, 2) == 0


def test_inf_infinite():
    phi = parse_formula("F<= a")
    r = compute_inf_bound(model(NO_A), phi)
    assert r.outcome == "infinite-inf"
    assert r.bound is None and r.witness is None
    assert r.iterations == r.cutoff


def test_inf_plain_ltl_one_pass():
    r = compute_inf_bound(model(NO_A), parse_formula("F a"))
    assert r.outcome == "infinite-inf"
    assert r.cutoff == 1 and r.iterations == 1
    r2 = compute_inf_bound(model(UNIVERSAL), parse_formula("F a"))
    assert (r2.outcome, r2.bound) == ("finite", 0)


def test_inf_empty_language():
    r = compute_inf_bound(model(EMPTY_LANG), parse_formula("F<= a"))
    assert r.outcome == "infinite-inf"


def test_inf_cutoff_override():
    r = compute_inf_bound(model(NO_A), parse_formula("F<= a"), cutoff=3)
    assert r.outcome == "infinite-inf"
    assert r.cutoff == 3 and r.iterations == 3


def test_inf_rejects_gt():
    with pytest.raises(FragmentError):
        compute_inf_bound(model(UNIVERSAL), parse_formula("G> a"))
