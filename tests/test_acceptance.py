"""End-to-end acceptance checks, one test per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion.  Each test prints a [criterion-N] summary with -s.
"""

import random
import time
from pathlib import Path

from cltlbound.automaton import TOP_CUBE, _ModelProduct, value_on_lasso
from cltlbound.cegar import compute_inf_bound, compute_sup_bound, run_value
from cltlbound.emptiness import check_lasso_run, find_accepting_lasso
from cltlbound.formula import (
    cost_operator_count,
    instantiate,
    negate_dual,
    parse_formula,
)
from cltlbound.model import load_model
from cltlbound.oracle import eval_ltl_on_lasso, value_inf, value_sup
from cltlbound.translate import Tableau, build_counter_automaton, prune_dominated
from cltlbound.words import ABOVE_CAP

from corpus import naive_is_empty, random_automaton, random_formula, random_lasso

MODELS = Path(__file__).resolve().parent.parent / "models"

GAP = parse_formula("G (F<= !a)")


def _le_corpus(count):
    rng = random.Random(20260819)
    out = []
    while len(out) < count:
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostLE")
        word = random_lasso(rng, props=("a", "b"))
        out.append((phi, word))
    return out


def test_criterion_1_instantiation_matches_value_inf():
    start = time.monotonic()
    samples = _le_corpus(2000)
    checked = 0
    for phi, word in samples:
        val = value_inf(phi, word, 6)
        for n in range(6):
            holds = eval_ltl_on_lasso(instantiate(phi, n), word)
            assert holds == (isinstance(val, int) and val <= n), (
                str(phi), str(word), n, val,
            )
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[criterion-1] PASS {len(samples)} formulas, "
          f"{checked} instantiation points, {elapsed:.1f}s")


def test_criterion_2_duality_on_corpus():
    start = time.monotonic()
    samples = _le_corpus(2000)
    cap = 6
    compared = 0
    for phi, word in samples:
        lo = value_inf(phi, word, cap)
        hi = value_sup(negate_dual(phi), word, cap)
        if lo is ABOVE_CAP or hi is ABOVE_CAP:
            continue
        assert hi == max(0, lo - 1), (str(phi), str(word), lo, hi)
        compared += 1
    elapsed = time.monotonic() - start
    assert compared > 500
    print(f"[criterion-2] PASS {compared} comparable pairs of "
          f"{len(samples)}, 0 failures, {elapsed:.1f}s")


def test_criterion_3_translation_value_agrees_with_oracle():
    start = time.monotonic()
    rng = random.Random(3)
    cap = 10
    agreed = 0
    for _ in range(1000):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        # Tableau size is exponential in the number of pending cost
        # operators; past four a build outgrows desk scale (one
        # nine-operator draw in this stream exhausts memory), so
        # heavier draws are redrawn.
        while cost_operator_count(phi) > 4:
            phi = random_formula(
                rng, depth=4, props=("a", "b"), fragment="CostGT")
        word = random_lasso(rng, props=("a", "b"))
        aut = build_counter_automaton(phi)
        got = value_on_lasso(aut, word, cap)
        want = value_sup(phi, word, cap)
        if got == -1:
            got = 0
        assert got == want, (str(phi), str(word), got, want)
        agreed += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"[criterion-3] PASS {agreed} formula/word pairs at cap {cap}, "
          f"{elapsed:.1f}s")


def test_criterion_4_atomic_counter_actions():
    rng = random.Random(4)
    transitions = 0
    for _ in range(500):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        # Same desk-scale redraw rule as the value comparison above.
        while cost_operator_count(phi) > 4:
            phi = random_formula(
                rng, depth=4, props=("a", "b"), fragment="CostGT")
        aut = build_counter_automaton(phi)
        for t in aut.transitions:
            assert len(t.actions) == aut.num_counters
            assert all(a in ("", "i", "or", "r") for a in t.actions)
            transitions += len(t.actions)
    print(f"[criterion-4] PASS 500 translations, "
          f"{transitions} counter actions, all atomic")


def test_criterion_5_worked_example_shape():
    phi = parse_formula("F (p & G> !q)")
    aut = prune_dominated(build_counter_automaton(phi))
    assert aut.num_states == 3
    assert len(aut.transitions) == 6
    plain = [
        t for t in aut.transitions
        if not t.acc and all(a == "" for a in t.actions)
    ]
    assert len(plain) == 1
    t = plain[0]
    assert t.src == aut.init and t.dst == aut.init
    assert t.cube == TOP_CUBE
    print("[criterion-5] PASS 3 states, 6 transitions, "
          "lone silent transition is the initial self-loop")


def test_criterion_6_bounded_models_yield_exact_bounds():
    for k in range(9):
        start = time.monotonic()
        model = load_model(MODELS / f"L{k}.model")
        result = compute_sup_bound(model, GAP)
        elapsed = time.monotonic() - start
        assert result.outcome == "finite", k
        assert result.bound == k, (k, result.bound)
        assert result.iterations <= k + 1, (k, result.iterations)
        assert value_inf(GAP, result.witness, k + 2) == k, k
        assert elapsed < 10.0, (k, elapsed)
    print("[criterion-6] PASS bounds 0..8 exact, iteration and time "
          "budgets met, witnesses attain each bound")


def test_criterion_7_unbounded_detected_via_cutoff():
    start = time.monotonic()
    model = load_model(MODELS / "universal.model")
    result = compute_sup_bound(model, GAP)
    elapsed = time.monotonic() - start
    assert result.outcome == "unbounded"
    assert result.cutoff is None
    # The last test's run is worth more than the product nodes it visits,
    # and more than the old sound cutoff, formula automaton states times
    # model states.
    last = result.trace[-1]
    product = _ModelProduct(Tableau(negate_dual(GAP)), model)
    run, _ = find_accepting_lasso(product, last.n + 1)
    assert run_value(run, product) == last.p > len({t.src for t in run.stem + run.loop})
    formula_side = prune_dominated(build_counter_automaton(negate_dual(GAP)))
    old_cutoff = formula_side.num_states * model.num_states
    assert last.p > old_cutoff == 3
    assert elapsed < 30.0
    print(f"[criterion-7] PASS unbounded with no cutoff, "
          f"last threshold {last.p}, {elapsed:.1f}s")


def test_criterion_8_infimum_bounds():
    phi = parse_formula("F<= !a")
    model = load_model(MODELS / "three_leading_a.model")
    result = compute_inf_bound(model, phi)
    assert (result.outcome, result.bound) == ("finite", 3)
    assert value_inf(phi, result.witness, 5) == 3

    stuck = compute_inf_bound(load_model(MODELS / "a_only.model"), phi)
    assert stuck.outcome == "infinite-inf"
    print("[criterion-8] PASS inf 3 on the three-step model, "
          "infinite on the never-releasing one")


def test_criterion_9_emptiness_matches_naive_check():
    rng = random.Random(9)
    found = empty = 0
    for _ in range(500):
        aut = random_automaton(rng, max_states=20, max_acc=3)
        hit = find_accepting_lasso(aut)
        assert (hit is None) == naive_is_empty(aut)
        if hit is None:
            empty += 1
        else:
            run, word = hit
            check_lasso_run(aut, run, word)
            found += 1
    assert found > 50 and empty > 50
    print(f"[criterion-9] PASS 500 automata, {found} lassos verified, "
          f"{empty} confirmed empty")
