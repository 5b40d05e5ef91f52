import importlib.util
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

import cltlbound.automaton
import cltlbound.cegar
import cltlbound.cli
from cltlbound.automaton import (
    CounterAutomaton,
    Cube,
    LassoRun,
    Transition,
    _ModelProduct,
    synchronized_product,
)
from cltlbound.cegar import (
    _pumps,
    compute_inf_bound,
    compute_sup_bound,
    run_value,
)
from cltlbound.cli import _check_bound as check_bound
from cltlbound.emptiness import check_lasso_run, find_accepting_lasso, reachable_part
from cltlbound.formula import (
    COST_GT,
    COST_LE,
    LTL,
    MIXED,
    And,
    FragmentError,
    Lit,
    classify_fragment,
    cost_operator_count,
    instantiate,
    negate_dual,
    parse_formula,
)
from cltlbound.model import load_model, parse_model
from cltlbound.oracle import eval_ltl_on_lasso, value_inf, value_sup
from cltlbound.translate import Tableau, build_counter_automaton
from cltlbound.words import ABOVE_CAP

from corpus import (
    cutoff_sup,
    instantiation_inf,
    instantiation_sup,
    random_automaton,
    random_formula,
    random_lasso,
    whole_unfolding_accepts,
    word_model,
)


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
        # each passing test at least doubles n + 1 on its way up to the
        # bound, and bisection follows the first empty test
        assert len(search) <= 2 * math.ceil(math.log2(k + 2)) + 2, k


@pytest.mark.parametrize("k", [5, 40, 160])
@pytest.mark.parametrize("text", ["G> a", "G (F<= !a)"])
def test_sup_tests_its_first_witness_next(text, k):
    # Best-first rows make the test at 1 return a word of the largest
    # value, k - 1 (for G (F<= !a), of its dual), and the next test asks
    # for more: one passing test and the empty one at the sup.
    r = compute_sup_bound(_lk_model(k), parse_formula(text))
    assert [(row.n, row.p) for row in r.trace] == [(0, k - 1), (k - 1, None)]


def test_sup_gallop_stays_logarithmic_where_the_order_misses():
    # Two counters on L40: the first witness is worth 1, far below the sup
    # of 19, so the search gallops as before, within test_sup_trace_gallops'
    # limit.
    r = compute_sup_bound(_lk_model(40), parse_formula("G> (a & X (G> a))"))
    assert (r.outcome, r.bound) == ("finite", 19)
    assert r.trace[0].p == 1
    assert len(r.trace) <= 2 * math.ceil(math.log2(r.bound + 2)) + 2


def test_sup_bisects_at_the_lower_middle():
    # X (G> a) over L4 has sup 3.  The gallop passes at n = 0 and 2 and
    # comes back empty at 5; the bisection of the bracket (3, 6) of
    # thresholds n + 1 then tests its lower middle, 4 (n = 3), whose empty
    # answer closes the bracket.
    r = compute_sup_bound(model((ROOT / "models" / "L4.model").read_text()),
                          parse_formula("X (G> a)"))
    assert (r.outcome, r.bound) == ("finite", 3)
    assert [(row.n, row.p) for row in r.trace] == [(0, 2), (2, 3), (5, None), (3, None)]


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
    # where 6 is below the reference's sound cutoff.  The search says
    # unbounded there when a run proves it: then the reference, at its
    # own cutoff, must say so too.  Each draw's U<= dual runs too: the
    # reference probes not(phi[0]) where the search tests n = -1.
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
                if (got.outcome, want.outcome) == ("unbounded", "cutoff-reached"):
                    want = instantiation_sup(m, phi)
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
    # A plain formula is worth 0 where it holds and infinite elsewhere, so
    # its sup is unbounded once some model word fails it.
    r = compute_sup_bound(model(UNIVERSAL), parse_formula("F a"))
    assert r.outcome == "unbounded"
    r2 = compute_sup_bound(model(NO_A), parse_formula("F a"))
    assert r2.outcome == "unbounded"
    assert not eval_ltl_on_lasso(parse_formula("F a"), r2.witness)
    r3 = compute_sup_bound(model(NO_A), parse_formula("G !a"))
    assert (r3.outcome, r3.bound) == ("finite", 0)
    assert r3.witness is not None
    r4 = compute_sup_bound(load_model(ROOT / "models" / "a_only.model"), parse_formula("F !a"))
    assert r4.outcome == "unbounded"
    # the instantiation route reads plain formulas the same way
    for path in sorted((ROOT / "models").glob("*.model")):
        m = load_model(path)
        for text in ("F a", "G a", "F !a"):
            got = compute_sup_bound(m, parse_formula(text))
            want = instantiation_sup(m, parse_formula(text))
            assert (got.outcome, got.bound) == (want.outcome, want.bound), (text, path.name)


@pytest.mark.parametrize("search, text, fixture, bound", [
    (compute_sup_bound, "G (F<= !a)", "L0", 0),
    (compute_sup_bound, "G (F<= !a)", "L1", 1),
    (compute_sup_bound, "G> a", "L3", 2),
    (compute_sup_bound, "G a", "a_only", 0),
    (compute_inf_bound, "F<= !a", "three_leading_a", 3),
    # value mode with its check, over a word instead of a fixture
    (cltlbound.cli.main, "G> a", "{a} {a} {a} | {}", 2),
    (cltlbound.cli.main, "a U<= b", "{} {} | {b}", 2),
])
def test_one_translation_per_query(monkeypatch, capsys, search, text, fixture, bound):
    # Sup builds its whole automaton from one Tableau; inf and value mode's
    # check read one Tableau on the fly.
    made = []
    init = Tableau.__init__
    monkeypatch.setattr(Tableau, "__init__", lambda tab, phi: made.append(phi) or init(tab, phi))
    if search is cltlbound.cli.main:
        assert search(["--mode", "value", "-f", text, "--word", fixture, "--oracle-check"]) == 0
        assert f"value: {bound}\noracle: ok" in capsys.readouterr().out
    else:
        r = search(load_model(ROOT / "models" / f"{fixture}.model"), parse_formula(text))
        assert (r.outcome, r.bound) == ("finite", bound)
    assert len(made) == 1


def _fixture_queries():
    """(search, formula text) for the sup and inf formulas of
    `scripts/report_matrix.py`, which runs each over every fixture."""
    spec = importlib.util.spec_from_file_location(
        "report_matrix", ROOT / "scripts" / "report_matrix.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(compute_sup_bound, text) for text in module.SUP_FORMULAS] + [
        (compute_inf_bound, text) for text in module.INF_FORMULAS
    ]


def test_bound_searches_build_no_product_automaton(monkeypatch):
    # The searches read the formula's Tableau x model product node by
    # node: no query builds a CounterAutomaton, the formula's or a
    # product's, and the only Transitions made of product edges are the
    # witness lassos', one per trace row that found a run (or the model's
    # own lasso, read when no row did).
    built = []
    validate = CounterAutomaton.__post_init__
    monkeypatch.setattr(
        CounterAutomaton, "__post_init__", lambda aut: built.append(aut) or validate(aut)
    )
    made = []
    of_edge = Transition.of_edge
    monkeypatch.setattr(
        Transition, "of_edge", staticmethod(lambda edge: made.append(edge) or of_edge(edge))
    )
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    for search, text in _fixture_queries():
        phi = parse_formula(text)
        for m in models:
            built.clear()
            made.clear()
            r = search(m, phi)
            assert len(built) == 0, (text, built)
            words = [row.word for row in r.trace if row.word is not None]
            if not words and r.witness is not None:
                words = [r.witness]
            assert len(made) == sum(len(w.prefix) + len(w.cycle) for w in words), text


def test_sup_queries_expand_no_product_node(monkeypatch):
    # A sup query's tests read rows, and its witness check builds only the
    # edges between the nodes each witness transition joins: no node of
    # the product is expanded whole.
    expanded, checked = [], []
    edges, check = _ModelProduct.edges, cltlbound.cegar.check_lasso_run
    monkeypatch.setattr(_ModelProduct, "edges", lambda p, s: expanded.append(s) or edges(p, s))
    monkeypatch.setattr(
        cltlbound.cegar, "check_lasso_run", lambda *args: checked.append(args) or check(*args)
    )
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    models += [_lk_model(40), _ring(6)]
    for search, text in _fixture_queries():
        if search is compute_sup_bound:
            for m in models:
                search(m, parse_formula(text))
    assert len(checked) > 20 and not expanded


def test_lazy_product_agrees_with_the_whole_product(monkeypatch):
    # Every lasso a search finds is a run of the whole product
    # (`synchronized_product`), once its nodes are numbered as there: the
    # lazy product numbers them as the searches meet them.  The inf side's
    # Streett row counts the whole product of the formula's Tableau.
    hits = []

    def spy(find):
        def found(aut, *args, **kwargs):
            hit = find(aut, *args, **kwargs)
            if hit is not None and isinstance(aut, _ModelProduct):
                hits.append((aut, hit))
            return hit
        return found

    for name in ("find_accepting_lasso", "find_bounded_lasso"):
        monkeypatch.setattr(cltlbound.cegar, name, spy(getattr(cltlbound.cegar, name)))
    checked = 0
    for path in sorted((ROOT / "models").glob("*.model")):
        m = load_model(path)
        for search, text in _fixture_queries():
            phi = parse_formula(text)
            hits.clear()
            r = search(m, phi)
            if search is compute_inf_bound:
                nodes, edges = reachable_part(_ModelProduct(Tableau(phi), m))
                streett = r.trace[0]
                assert (streett.product_states, streett.product_transitions) == (
                    nodes, len(edges)), (text, path.name)
            for product, (run, word) in hits:
                whole = synchronized_product(product._source, m)
                fresh = _ModelProduct(product._source, m)
                reachable_part(fresh)  # every node met, in BFS order
                number = {pair: i for i, pair in enumerate(fresh.order)}

                def renumber(t):
                    return replace(t, src=number[product.order[t.src]],
                                   dst=number[product.order[t.dst]])

                check_lasso_run(whole, LassoRun(
                    tuple(map(renumber, run.stem)), tuple(map(renumber, run.loop))), word)
                checked += 1
    assert checked > 100, checked


def test_sup_empty_language_is_zero_without_witness():
    r = compute_sup_bound(model(EMPTY_LANG), parse_formula("G> a"))
    assert (r.outcome, r.bound) == ("finite", 0)
    assert r.witness is None


def test_sup_cutoff_override():
    # The sup of G> a over L3 is 2: its runs are worth 2 at most, so a
    # value past a user cutoff of 1 proves nothing.  Over every word a run
    # worth more than its nodes proves the sup infinite, cutoff or not.
    l3 = load_model(ROOT / "models" / "L3.model")
    r = compute_sup_bound(l3, parse_formula("G> a"), cutoff=1)
    assert r.outcome == "cutoff-reached"
    assert r.cutoff == 1
    assert r.iterations <= 2
    for cutoff in (1, 2, None):
        r = compute_sup_bound(model(UNIVERSAL), parse_formula("G> a"), cutoff=cutoff)
        assert (r.outcome, r.cutoff) == ("unbounded", cutoff)


def test_default_sup_cutoff_holds_at_four_times_it():
    # The search agrees exactly with the pumping-cutoff reference route
    # (`corpus.cutoff_sup`, formula automaton states x reachable model
    # states), and an `unbounded` answer stays `unbounded` when the search
    # may go four times as far as that cutoff; its witness passes the
    # oracle check.  Formulas with two counting operators of either kind,
    # over the fixtures and over random 2-letter models.
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
        want = cutoff_sup(m, phi)
        assert (r.outcome, r.bound) == (want.outcome, want.bound), (str(phi), m)
        if r.outcome == "unbounded":
            further = compute_sup_bound(m, phi, 4 * want.cutoff)
            assert further.outcome == "unbounded", (str(phi), m, want.cutoff, further.bound)
            assert check_bound(phi, r) == "ok", (str(phi), m)
            unbounded += 1
    assert unbounded >= 25


def test_pumps_is_exact_on_random_automata():
    # `_pumps` on a whole automaton against its capped unfolding, the
    # threshold test built whole: a sup it calls infinite still passes at
    # 6 x states + 6, and one it calls finite fails there (these automata
    # have no finite sup that large).  Plain resets as well as
    # observations, up to three counters.
    rng = random.Random(5)
    infinite = 0
    for _ in range(2000):
        aut = random_automaton(
            rng, max_states=4, max_acc=2, max_counters=3, actions=("", "", "i", "i", "or", "r")
        )
        big = whole_unfolding_accepts(aut, 6 * aut.num_states + 6)
        assert _pumps(aut.init, aut.transitions, aut.num_acc_sets) == big, aut
        infinite += big
    assert 500 < infinite < 1500, infinite


def _graph(num_counters, *edges):
    # Edges (src, actions, dst) over nodes 0-8; node 9 is an accepting sink.
    steps = [Transition(s, cube("true"), acts, frozenset(), d) for s, acts, d in edges]
    steps.append(Transition(9, cube("true"), ("",) * num_counters, frozenset({0}), 9))
    return CounterAutomaton(10, 0, num_counters, 1, tuple(steps), ("a",))


# Counter d pumped at node 0 only, then loops on c at node 1: A resets d,
# B does not.
PUMP_D = ((0, ("", "i"), 0), (0, ("", ""), 1), (1, ("or", "or"), 9))
LOOP_A = ((1, ("i", "r"), 2), (2, ("", ""), 1))
LOOP_B = ((1, ("i", ""), 3), (3, ("", ""), 1))


@pytest.mark.parametrize("aut, infinite", [
    # A loop i; r before the observation: the counter is 0 when read.
    (_graph(1, (0, ("i",), 1), (1, ("r",), 0), (0, ("or",), 9)), False),
    # The same loop with the observation after the increment.
    (_graph(1, (0, ("i",), 1), (1, ("r",), 0), (1, ("or",), 9)), False),
    # A plain increment loop.
    (_graph(1, (0, ("i",), 0), (0, ("or",), 9)), True),
    # Nested pumps: the outer loop reads d, which an inner loop pumps.
    (_graph(2, (0, ("", "i"), 0), (0, ("i", "or"), 1), (1, ("", ""), 0), (1, ("or", ""), 9)),
     True),
    # The only loop that pumps c also reads d, which nothing pumps.
    (_graph(2, (0, ("i", ""), 1), (1, ("", "or"), 0), (1, ("or", ""), 9)), False),
    # c must be pumped after d by a loop that spares d: A alone cannot.
    (_graph(2, *PUMP_D, *LOOP_A), False),
    (_graph(2, *PUMP_D, *LOOP_A, *LOOP_B), True),
    # d grows round a loop that reads c, which the loop through 1 pumps; the
    # loop through 2 lies in the same component and resets d, so only a
    # pump of c that leaves it out lets d grow.
    (_graph(2, (0, ("i", ""), 1), (1, ("", ""), 0), (0, ("", "r"), 2), (2, ("", ""), 0),
            (0, ("or", "i"), 3), (3, ("", ""), 0), (0, ("", "or"), 9)), True),
])
def test_pumps_on_hand_written_graphs(aut, infinite):
    assert _pumps(aut.init, aut.transitions, aut.num_acc_sets) is infinite
    assert whole_unfolding_accepts(aut, 6 * aut.num_states + 6) is infinite


def _ring(m):
    # A start move on o, a loop on d, then a ring of m c-moves whose last
    # state goes back to the first on o or leaves on e for an accepting
    # sink: words o d* c (c^(m-1) o)* c^(m-1) e ...
    letter = {p: "&".join(q if q == p else "!" + q for q in "dcoe") for p in "dcoe"}
    lines = [f"ap: d c o e\nstates: {m + 3}\ninit: 0\naccsets: 1",
             f"trans: 0 1 {letter['o']} {{}}", f"trans: 1 1 {letter['d']} {{}}",
             f"trans: 1 2 {letter['c']} {{}}"]
    lines += [f"trans: {i} {i + 1} {letter['c']} {{}}" for i in range(2, m + 1)]
    lines += [f"trans: {m + 1} 2 {letter['o']} {{}}", f"trans: {m + 1} {m + 2} {letter['e']} {{}}",
              f"trans: {m + 2} {m + 2} !d&!c&!o&!e {{0}}"]
    return model("\n".join(lines))


def test_a_run_worth_more_than_its_nodes_can_have_a_finite_sup(monkeypatch):
    # Every o closes a window counting the letters since the one before,
    # and c starts a window that e closes.  One lap of the ring is worth
    # as many d-moves as the word makes; two laps give a second o window
    # of m - 1 letters.  So the sup is 2m - 1, reached by the run that goes
    # round the ring one and a half times: it visits the ring's nodes
    # twice, and with m = 6 is worth 11 on 10 nodes.  Pumping it would
    # repeat an o, so only the run's graph, not its value, can tell.
    phi = parse_formula("G (!o | X (G> !o)) & F (c & G> !e)")
    m = _ring(6)
    pumped = []
    monkeypatch.setattr(
        cltlbound.cegar, "_pumps", lambda *args: pumped.append(args) or _pumps(*args)
    )
    r = compute_sup_bound(m, phi)
    assert (r.outcome, r.bound) == ("finite", 11)
    assert pumped  # the run observes two counters, so its value is no proof
    assert value_sup(phi, r.witness, 13) == 11
    product = _ModelProduct(Tableau(phi), m)
    run, _ = find_accepting_lasso(product, 11)
    steps = run.stem + run.loop
    assert run_value(run, product) == 11 > len({s.src for s in steps}) == 10
    assert not _pumps(product.init, steps, product.num_acc_sets)


def test_one_observed_counter_proves_an_unbounded_sup_without_pumping(monkeypatch, tmp_path):
    # A run of value p over fewer than p nodes that observes one counter
    # proves the sup infinite on its own (see the cegar docstring).
    def refuse(*args):
        raise AssertionError("_pumps ran")

    monkeypatch.setattr(cltlbound.cegar, "_pumps", refuse)
    spec = importlib.util.spec_from_file_location(
        "sup_search_sizes", ROOT / "scripts" / "sup_search_sizes.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "ring160.model"
    path.write_text(module.render_ring(160), encoding="utf-8")
    assert compute_sup_bound(load_model(path), parse_formula("G> a")).outcome == "unbounded"


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
    # value 3.  With a cutoff of 1 the first test is at the cutoff, not
    # just below 3, and the search stops there without a claim; with 2 the
    # empty unfolding at 2 and the Streett run pin the inf.
    three = load_model(ROOT / "models" / "three_leading_a.model")
    phi = parse_formula("F<= !a")
    r = compute_inf_bound(three, phi, cutoff=1)
    assert (r.outcome, r.bound, r.witness, r.cutoff) == ("cutoff-reached", None, None, 1)
    assert [(row.kind, row.n) for row in r.trace] == [("streett", None), ("search", 1)]
    r = compute_inf_bound(three, phi, cutoff=2)
    assert (r.outcome, r.bound, r.cutoff) == ("finite", 3, 2)


def test_inf_tests_just_below_its_streett_witness():
    # The Streett run has value 3, the inf: the one threshold test, at 2,
    # is empty and settles it.
    three = load_model(ROOT / "models" / "three_leading_a.model")
    r = compute_inf_bound(three, parse_formula("F<= !a"))
    assert (r.outcome, r.bound) == ("finite", 3)
    assert [(row.kind, row.n, row.p) for row in r.trace] == [
        ("streett", None, 3), ("search", 2, None),
    ]


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


def test_lazy_inf_agrees_with_the_whole_automaton(monkeypatch):
    # The inf search reads the formula's Tableau on the fly.  The whole,
    # live-sliced U<= automaton it read before is the reference: both
    # routes give the same outcome and bound, and every witness is worth
    # the bound.  The queries are seeded formulas over every fixture
    # (over a only, as in `_inf_corpus`; every fourth plain, the others
    # with one to three U<= operators), and the first criterion-1 pairs
    # with at most four cost operators over their one-word models.
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    rng = random.Random(77)
    queries = []
    while len(queries) < 40 * len(models):
        plain = len(queries) % (4 * len(models)) == 0
        phi = random_formula(rng, depth=4, props=("a",), fragment="LTL" if plain else "CostLE")
        if plain or 1 <= cost_operator_count(phi) <= 3:
            queries += [(phi, m) for m in models]
    rng = random.Random(20260819)  # criterion 1's stream
    for _ in range(120):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostLE")
        word = random_lasso(rng, props=("a", "b"))
        if cost_operator_count(phi) <= 4:
            queries.append((phi, word_model(word, ("a", "b"))))

    def answers():
        out = []
        for phi, m in queries:
            r = compute_inf_bound(m, phi)
            if r.outcome == "finite":
                assert value_inf(phi, r.witness, r.bound + 2) == r.bound, (str(phi), m)
            out.append((r.outcome, r.bound))
        return out

    lazy = answers()
    monkeypatch.setattr(cltlbound.cegar, "Tableau", build_counter_automaton)
    whole = answers()
    for (phi, m), got, want in zip(queries, lazy, whole):
        assert got == want, (str(phi), m)
    # the queries reach infinite-inf and finite bounds 0 .. 3
    assert {"infinite-inf", 0, 1, 2, 3} <= {b if o == "finite" else o for o, b in lazy}


# -- sup, inf and the oracle --------------------------------------------------


def _number(result):
    """A search's answer as a number: inf for `unbounded` and
    `infinite-inf`."""
    return result.bound if result.outcome == "finite" else math.inf


def test_sup_inf_and_oracle_agree_on_one_word_models():
    # Over the model of one lasso word, the sup and the inf are both that
    # word's value: value_inf's for a U<= or plain formula (worth 0 where it
    # holds, infinite elsewhere), value_sup's for an R> formula, which the
    # inf search does not take.  A finite value is at most the word's
    # number of positions, so an answer above that cap is infinite.
    rng = random.Random(5)
    props = ("a", "b")
    seen = {LTL: 0, COST_LE: 0, COST_GT: 0}
    while min(seen.values()) < 150:
        phi = random_formula(rng, depth=3, props=props, fragment=rng.choice(list(seen)))
        if cost_operator_count(phi) > 3:
            continue
        word = random_lasso(rng, props)
        m = word_model(word, props)
        frag = classify_fragment(phi)
        seen[frag] += 1
        value = value_sup if frag == COST_GT else value_inf
        want = value(phi, word, word.positions())
        want = math.inf if want is ABOVE_CAP else want
        assert _number(compute_sup_bound(m, phi)) == want, (str(phi), str(word))
        if frag != COST_GT:
            assert _number(compute_inf_bound(m, phi)) == want, (str(phi), str(word))


def test_sup_is_at_least_inf_on_random_models():
    # Over a nonempty language the least value is at most the greatest.
    # (An empty language has sup 0 and an infinite inf.)
    rng = random.Random(9)
    props = ("a", "b")
    pairs = {LTL: 0, COST_LE: 0}
    while min(pairs.values()) < 150:
        m = random_automaton(rng, max_states=5, max_acc=2, max_counters=0, props=props)
        phi = random_formula(rng, depth=3, props=props, fragment=rng.choice(list(pairs)))
        if cost_operator_count(phi) > 3 or find_accepting_lasso(m) is None:
            continue
        sup, inf = compute_sup_bound(m, phi), compute_inf_bound(m, phi)
        assert _number(sup) >= _number(inf), (str(phi), m)
        pairs[classify_fragment(phi)] += 1


def test_row_order_changes_no_answer(monkeypatch):
    # The capped reading tries the rows that observe least, reset least and
    # increment most first (`automaton._row_rank`), so that a passing test
    # tends to return a word of high value.  That is a heuristic: an empty
    # test rules out every configuration whatever the order.  Ranked the
    # other way round, every search gives the same answer, and every
    # witness passes the oracle check.
    # The U<= draws speak of a only, which the fixtures constrain (a free b
    # would give most infs 0); the plain ones are not a bare literal.
    rng = random.Random(21)
    formulas = []
    for fragment, props, count in (
        ("CostGT", ("a", "b"), 8), ("CostLE", ("a",), 8), ("LTL", ("a", "b"), 4),
    ):
        drawn = 0
        while drawn < count:
            phi = random_formula(rng, depth=3, props=props, fragment=fragment)
            wanted = (
                cost_operator_count(phi) in (1, 2) if fragment != "LTL"
                else not isinstance(phi, Lit)
            )
            if wanted and classify_fragment(phi) != MIXED:
                formulas.append(phi)
                drawn += 1
    models = [load_model(p) for p in sorted((ROOT / "models").glob("*.model"))]
    queries = [(compute_sup_bound, phi, m) for phi in formulas for m in models] + [
        (compute_inf_bound, phi, m)
        for phi in formulas if classify_fragment(phi) != COST_GT
        for m in models
    ]

    def answers():
        out = []
        for search, phi, m in queries:
            r = search(m, phi)
            assert check_bound(phi, r) == "ok", (search.__name__, str(phi), m)
            out.append(((r.outcome, r.bound), [(row.n, row.p) for row in r.trace]))
        return out

    ranked = answers()
    rank = cltlbound.automaton._row_rank
    monkeypatch.setattr(
        cltlbound.automaton, "_row_rank", lambda ops: tuple(-x for x in rank(ops))
    )
    reversed_ = answers()
    assert [a for a, _ in ranked] == [a for a, _ in reversed_]
    # the reversed order did reach the searches: some trace differs
    assert any(a != b for a, b in zip(ranked, reversed_))
