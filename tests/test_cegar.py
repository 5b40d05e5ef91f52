import importlib.util
import math
import random
from pathlib import Path

import pytest

import cltlbound.cegar
from cltlbound.automaton import CounterAutomaton, Cube, LassoRun, Transition
from cltlbound.cegar import (
    compute_inf_bound,
    compute_sup_bound,
    run_value,
)
from cltlbound.formula import (
    COST_GT,
    COST_LE,
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

from corpus import instantiation_inf, instantiation_sup, random_automaton, random_formula


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
    # n = 0 finds no dual value above 0, so n = -1 asks whether the dual
    # accepts any model word; none does, so every word satisfies phi[0].
    rows = [(row.kind, row.n, row.p) for row in r.trace]
    assert rows == [("search", 0, None), ("search", -1, None)]


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
    # give the exact sup, above it both say unbounded, or cutoff-reached
    # where 6 is below the sound cutoff.  Each draw's U<= dual runs too:
    # the reference probes not(phi[0]) where the search tests n = -1.
    cutoff = 6
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    outcomes = {COST_GT: set(), COST_LE: set()}
    for drawn in _agreement_corpus(16):
        for phi in (drawn, negate_dual(drawn)):
            frag = classify_fragment(phi)
            value = value_sup if frag == COST_GT else value_inf
            for m in models:
                got = compute_sup_bound(m, phi, cutoff)
                want = instantiation_sup(m, phi, cutoff)
                assert (got.outcome, got.bound) == (want.outcome, want.bound), (str(phi), m)
                outcomes[frag].add((got.outcome, got.bound))
                if got.witness is None:
                    assert got.outcome == "finite" and want.witness is None
                elif got.outcome == "finite":
                    assert value(phi, got.witness, got.bound + 2) == got.bound
                else:
                    assert value(phi, got.witness, cutoff + 1) is ABOVE_CAP
    # the corpus reaches every bound up to the cutoff, and past it
    assert outcomes[COST_GT] == {("finite", b) for b in range(cutoff + 1)} | {
        ("unbounded", None), ("cutoff-reached", None),
    }
    # and the duals reach U<= sups 0 and 1, which the n = -1 test tells apart
    assert {("finite", 0), ("finite", 1)} <= outcomes[COST_LE]


def test_sup_plain_ltl():
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("F a"))
    assert r.outcome == "unbounded"
    r2 = compute_sup_bound(model(NO_A), parse_formula("F a"))
    assert (r2.outcome, r2.bound) == ("finite", 0)
    assert r2.witness is not None


@pytest.mark.parametrize("search, text, fixture, bound", [
    (compute_sup_bound, "G (F<= !a)", "L0", 0),
    (compute_sup_bound, "G (F<= !a)", "L1", 1),
    (compute_sup_bound, "G> a", "L3", 2),
    (compute_sup_bound, "F !a", "a_only", 0),
    (compute_inf_bound, "F<= !a", "three_leading_a", 3),
])
def test_one_translation_per_query(monkeypatch, search, text, fixture, bound):
    calls = []

    def counted(phi):
        calls.append(phi)
        return build_counter_automaton(phi)

    monkeypatch.setattr(cltlbound.cegar, "build_counter_automaton", counted)
    r = search(load_model(ROOT / "models" / f"{fixture}.model"), parse_formula(text))
    assert (r.outcome, r.bound) == ("finite", bound)
    assert len(calls) == 1


def test_sup_empty_language_is_zero_without_witness():
    r = compute_sup_bound(model(EMPTY_LANG), parse_formula("G> a"))
    assert (r.outcome, r.bound) == ("finite", 0)
    assert r.witness is None


def test_sup_cutoff_override():
    # G> a has 2 automaton states and the model 1, so the sound cutoff is
    # 2: a value past a user cutoff of 1 proves nothing, past 2 it does.
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("G> a"), cutoff=1)
    assert r.outcome == "cutoff-reached"
    assert r.cutoff == 1
    assert r.iterations <= 2
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("G> a"), cutoff=2)
    assert (r.outcome, r.cutoff) == ("unbounded", 2)


def test_default_sup_cutoff_holds_at_four_times_it():
    # A value above formula states x reachable model states pumps to any
    # larger value (see the cegar docstring), so an `unbounded` answer at
    # the default cutoff must stay `unbounded` when the search may go four
    # times as far.  Formulas with two counting operators of either kind,
    # over the fixtures and over random 2-letter models.  The 4x searches
    # have a heavy tail (seed 29 draws one that takes 5 s alone); this
    # seed keeps the test near 3 s.
    rng = random.Random(31)
    fixtures = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    unbounded = 0
    for _ in range(120):
        fragment = rng.choice(("CostGT", "CostLE"))
        phi = random_formula(rng, depth=3, props=("a", "b"), fragment=fragment)
        while cost_operator_count(phi) != 2:
            phi = random_formula(rng, depth=3, props=("a", "b"), fragment=fragment)
        if rng.random() < 0.5:
            m = rng.choice(fixtures)
        else:
            m = random_automaton(rng, max_states=4, max_acc=2, max_counters=0)
        r = compute_sup_bound(m, phi)
        if r.outcome == "unbounded":
            further = compute_sup_bound(m, phi, 4 * r.cutoff)
            assert further.outcome == "unbounded", (str(phi), m, r.cutoff, further.bound)
            unbounded += 1
    assert unbounded >= 25


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
    # the Streett check alone proves it: no unfolding, no cutoff
    phi = parse_formula("F<= a")
    r = compute_inf_bound(model(NO_A), phi)
    assert r.outcome == "infinite-inf"
    assert r.bound is None and r.witness is None
    assert r.cutoff is None and r.iterations == 0
    assert [(row.kind, row.p) for row in r.trace] == [("streett", None)]


def test_inf_plain_ltl_one_pass():
    r = compute_inf_bound(model(NO_A), parse_formula("F a"))
    assert r.outcome == "infinite-inf"
    assert r.cutoff is None and len(r.trace) == 1
    r2 = compute_inf_bound(model(UNIVERSAL), parse_formula("F a"))
    assert (r2.outcome, r2.bound) == ("finite", 0)
    assert len(r2.trace) == 1


def test_inf_empty_language():
    r = compute_inf_bound(model(EMPTY_LANG), parse_formula("F<= a"))
    assert r.outcome == "infinite-inf"


def test_inf_cutoff_override():
    r = compute_inf_bound(model(NO_A), parse_formula("F<= a"), cutoff=3)
    assert r.outcome == "infinite-inf"
    assert r.cutoff == 3 and r.iterations == 0
    # Every word starts with a^3, so the inf is 3 and the Streett run has
    # value 3.  With a cutoff of 1 the search stops at 1 without a claim;
    # with 2 the empty unfolding at 2 and the Streett run pin the inf.
    three = load_model(ROOT / "models" / "three_leading_a.model")
    phi = parse_formula("F<= !a")
    r = compute_inf_bound(three, phi, cutoff=1)
    assert (r.outcome, r.bound, r.witness, r.cutoff) == ("cutoff-reached", None, None, 1)
    assert [(row.kind, row.n) for row in r.trace] == [
        ("streett", None), ("search", 0), ("search", 1),
    ]
    r = compute_inf_bound(three, phi, cutoff=2)
    assert (r.outcome, r.bound, r.cutoff) == ("finite", 3, 2)


def test_inf_rejects_gt():
    with pytest.raises(FragmentError):
        compute_inf_bound(model(UNIVERSAL), parse_formula("G> a"))


def _inf_corpus(count):
    """U<= formulas with one or two cost operators, alternately.  They
    speak of a only, which the fixtures constrain (a free b would give
    most values 0)."""
    rng = random.Random(26)
    out = []
    while len(out) < count:
        phi = random_formula(rng, depth=3, props=("a",), fragment="CostLE")
        if cost_operator_count(phi) == 1 + len(out) % 2:
            out.append(phi)
    return out


def test_inf_agrees_with_instantiation_route():
    # phi[n] grows like 2^n per cost operator, so the reference scans
    # n = 0 .. 4 for one operator and 0 .. 2 for two.  It pins every inf up
    # to that depth; above it, or when every value is infinite, it only
    # says that no value is that small.
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    outcomes = set()
    for phi in _inf_corpus(16):
        depth = {1: 4, 2: 2}[cost_operator_count(phi)]
        for m in models:
            got = compute_inf_bound(m, phi)
            want = instantiation_inf(m, phi, depth + 1)
            if want.outcome == "finite":
                assert (got.outcome, got.bound) == ("finite", want.bound), (str(phi), m)
            else:
                assert got.outcome == "infinite-inf" or got.bound > depth, (str(phi), m)
            if got.outcome == "finite":
                assert value_inf(phi, got.witness, got.bound + 2) == got.bound
            outcomes.add(got.bound if got.outcome == "finite" else got.outcome)
    # the corpus reaches infinite-inf and finite bounds 0 .. 3
    assert {"infinite-inf", 0, 1, 2, 3} <= outcomes, outcomes
