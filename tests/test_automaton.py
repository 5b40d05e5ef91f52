import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cltlbound.automaton
from cltlbound.automaton import (
    TOP_CUBE,
    CounterAutomaton,
    Cube,
    Transition,
    _accepts,
    _ModelProduct,
    _shared_cube,
    _Succ,
    _touched,
    narrow,
    synchronized_product,
    to_dot,
    value_on_lasso,
)
from cltlbound.cegar import run_peak, run_value
from cltlbound.emptiness import check_lasso_run, find_accepting_lasso
from cltlbound.formula import cost_operator_count, negate_dual, parse_formula
from cltlbound.graphs import reachable_part
from cltlbound.model import load_model
from cltlbound.translate import Tableau, build_counter_automaton
from cltlbound.words import ABOVE_CAP, LassoWord, parse_lasso

from corpus import (
    naive_accepts,
    random_automaton,
    random_cube,
    random_formula,
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


def test_cube_propositions_must_be_declared():
    # A word is read as cubes fixing the automaton's declared propositions,
    # so a cube on an undeclared one is rejected, not read as unconstrained.
    t = Transition(0, cube("a&!b"), (), frozenset(), 0)
    CounterAutomaton(1, 0, 0, 0, (t,), ap=("a", "b"))
    for ap in ((), ("a",), ("b", "c")):
        with pytest.raises(ValueError, match="outside ap"):
            CounterAutomaton(1, 0, 0, 0, (t,), ap=ap)


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
    # Every counter is tracked, so a second counter that is only
    # incremented, never observed, changes no answer.
    extra = CounterAutomaton(
        num_states=1,
        init=0,
        num_counters=2,
        num_acc_sets=1,
        transitions=(
            Transition(0, cube("a"), ("i", "i"), frozenset(), 0),
            Transition(0, cube("!a"), ("or", "i"), frozenset({0}), 0),
        ),
        ap=("a",),
    )
    for aut in (block_counter(), extra):
        assert value_on_lasso(aut, parse_lasso("| {a} {a} {}"), 10) == 2
        assert value_on_lasso(aut, parse_lasso("| {}"), 10) == 0
        assert value_on_lasso(aut, parse_lasso("{a} {a} {a} | {}"), 10) == 0
        assert value_on_lasso(aut, parse_lasso("| {a}"), 10) == -1
        assert value_on_lasso(aut, parse_lasso("| {a} {a} {a} {}"), 3) is ABOVE_CAP


def test_value_on_lasso_needs_positive_cap():
    with pytest.raises(ValueError):
        value_on_lasso(block_counter(), parse_lasso("| {}"), 0)


def guesses(value, cap):
    """Right and wrong guesses around value and cap: the value itself, its
    neighbours (ABOVE_CAP counting as cap), both ends of the range and
    past them, -1 (no run) and the marker."""
    v = cap if value is ABOVE_CAP else value
    return [None, 0, 1, v - 1, v, v + 1, cap - 1, cap, cap + 5, -3, ABOVE_CAP, -1]


def value_cap_pairs():
    # The value-cap benchmark's shapes: G> a on a^m | {} {a} (value m - 1)
    # and the R> dual of F<= b on a^m | {b} (value m - 1), m near 50 and 200.
    g = Tableau(parse_formula("G> a"))
    dual = Tableau(negate_dual(parse_formula("F<= b")))
    for m in (48, 51, 199, 202):
        run = "{a} " * m
        yield g, parse_lasso(f"{run}| {{}} {{a}}")
        yield dual, parse_lasso(f"{run}| {{b}}")


def test_the_guess_never_changes_the_value():
    # Every guess gives the value with no guess: the first 100 of
    # criterion 3's R> pairs at small caps (values mostly 0, 1 or above
    # the cap), and long words whose values lie near the cap, below, at
    # and above it.
    rng = random.Random(3)
    cases = []
    for _ in range(100):
        phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        while cost_operator_count(phi) > 4:
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment="CostGT")
        word = random_lasso(rng, props=("a", "b"))
        tab = Tableau(phi)  # read again at each cap, from its memo
        cases += [(tab, word, cap) for cap in (1, 2, 5, 10)]
    for tab, word in value_cap_pairs():
        m = len(word.prefix)
        cases += [(tab, word, cap) for cap in (10, m - 2, m - 1, m, m + 1, 250)]
    above_one = 0
    for tab, word, cap in cases:
        want = value_on_lasso(tab, word, cap)
        above_one += isinstance(want, int) and want > 1
        for guess in guesses(want, cap):
            got = value_on_lasso(tab, word, cap, guess)
            assert got == want, (str(word), cap, guess, got, want)
    assert above_one == 26  # 24 of them on the long words


def test_a_right_guess_costs_at_most_two_threshold_tests(monkeypatch):
    # Positive thresholds are tested on the fly, so a right positive or
    # ABOVE_CAP guess never builds the whole word product; threshold 0 asks
    # its SCCs, once for a right 0 or -1 guess.
    calls, graphs = [], []
    engine = cltlbound.automaton._accepts
    sccs = cltlbound.automaton.accepting_components
    monkeypatch.setattr(
        cltlbound.automaton, "_accepts", lambda *args: calls.append(args[2]) or engine(*args)
    )
    monkeypatch.setattr(
        cltlbound.automaton,
        "accepting_components",
        lambda *args: graphs.append(args[0]) or sccs(*args),
    )
    for tab, word in value_cap_pairs():
        m = len(word.prefix)
        for cap in (10, m - 1, m, 250):
            want = value_on_lasso(tab, word, cap)
            calls.clear()
            graphs.clear()
            assert value_on_lasso(tab, word, cap, want) == want
            assert calls == ([cap] if want is ABOVE_CAP else [want, want + 1]), (cap, calls)
            assert graphs == [], (cap, graphs)
    # A U<= Tableau is valued as its R> dual, bounded: a right guess g
    # tests the levels g + 1 (passing) and g (empty), or the cap alone.
    g = Tableau(parse_formula("G> a"))
    dual = Tableau(negate_dual(parse_formula("G> a")))
    for tab, word in value_cap_pairs():
        if tab.ap != g.ap:
            continue  # the words of F<= b
        m = len(word.prefix)
        for cap in (10, m - 1, m, 250):
            want = value_on_lasso(g, word, cap)
            calls.clear()
            graphs.clear()
            assert value_on_lasso(dual, word, cap, want) == want
            assert calls == ([cap] if want is ABOVE_CAP else [want + 1, want]), (cap, calls)
            assert graphs == [], (cap, graphs)
    for aut, text, want in [
        (block_counter(), "| {}", 0),
        (block_counter(), "| {a}", -1),
        (g, "| {a} {}", 0),
        (g, "| {}", -1),
    ]:
        word = parse_lasso(text)
        assert value_on_lasso(aut, word, 10) == want
        calls.clear()
        graphs.clear()
        assert value_on_lasso(aut, word, 10, want) == want
        assert calls == ([] if want == -1 else [1]), (text, calls)
        assert len(graphs) == 1, (text, graphs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    boundary=st.integers(-1, 300),
    known_fail=st.none() | st.integers(1, 100),
    top=st.integers(0, 400),
    first=st.lists(st.integers(-5, 450), max_size=4),
    data=st.data(),
)
def test_narrow_finds_the_boundary_of_any_monotone_test(boundary, known_fail, top, first, data):
    # Thresholds up to the boundary pass and those above it fail.  The test
    # may jump: a passing t can raise lo to any threshold up to the
    # boundary, and a failing one lower hi to any threshold past it.
    jumps = data.draw(st.booleans())
    hi0 = None if known_fail is None else boundary + known_fail
    calls = []

    def test(t, lo, hi):
        assert lo < t <= top and (hi is None or t < hi), (t, lo, hi)
        calls.append(t)
        if t <= boundary:
            return (data.draw(st.integers(t, boundary)) if jumps else t), hi
        return lo, (data.draw(st.integers(boundary + 1, t)) if jumps else t)

    lo, hi = narrow(test, -1, hi0, top, first)
    assert lo <= boundary and (hi is None or boundary < hi)
    assert (lo, hi) == (boundary, boundary + 1) or lo >= top
    if not first:
        # With no first probes and no failing threshold known at the start,
        # the gallop and the bisection each take about log2(m) tests, m
        # the number of thresholds from 0 up to min(boundary, top); a
        # known failing one caps the gallop by bisecting from the start.
        m = min(boundary, top) + 1
        if hi0 is None:
            assert len(calls) <= 2 * m.bit_length() + 1, calls
        else:
            assert len(calls) <= m.bit_length() + (hi0 + 1).bit_length(), calls


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


def pair_every_transition(a, b):
    """The product's transitions by pairing every transition of a with
    every transition of b, source-major, over the pairs reachable in BFS
    order from the initial pair."""
    start = (a.init, b.init)
    index = {start: 0}
    order = [start]
    out = []
    for s, (p, q) in enumerate(order):
        for ta in a.by_source.get(p, ()):
            for tb in b.by_source.get(q, ()):
                both = ta.cube.merge(tb.cube)
                if both is None:
                    continue
                tgt = (ta.dst, tb.dst)
                if tgt not in index:
                    index[tgt] = len(order)
                    order.append(tgt)
                acc = ta.acc | {a.num_acc_sets + i for i in tb.acc}
                out.append(Transition(s, both, ta.actions + tb.actions, acc, index[tgt]))
    return tuple(out)


def test_product_under_a_shared_literal_pairs_every_transition():
    # State 0's rows share the literal a, so the product asks the source
    # for its transitions under the cube a, which is neither true nor
    # either row's whole guard.  Narrowing them to a changes no pair.
    model = CounterAutomaton(
        2, 0, 0, 1,
        (
            Transition(0, cube("a&b"), (), frozenset({0}), 1),
            Transition(0, cube("a&!b"), (), frozenset(), 0),
            Transition(1, TOP_CUBE, (), frozenset(), 0),
        ),
        ap=("a", "b"),
    )
    assert _shared_cube([t.cube for t in model.by_source[0]]) == cube("a")
    rng = random.Random(53)
    paired = 0
    for _ in range(100):
        aut = random_automaton(rng, max_states=5, max_acc=2, max_counters=2)
        prod = synchronized_product(aut, model)
        assert prod.transitions == pair_every_transition(aut, model), aut
        paired += len(prod.transitions)
    assert paired > 500


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
            reaches = value is ABOVE_CAP or value >= t
            assert (hit is not None) == reaches, (aut, word, t, value)
            if hit is not None:
                assert run_value(hit[0], product) >= t
                nonempty += t > 0
    assert nonempty > 50
    with pytest.raises(ValueError):
        find_accepting_lasso(block_counter(), -1)


def lasso_sources(rng):
    """Seeded (source, word) pairs for the lasso reading: the Tableaux of
    R> formulas and of the R> duals of U<= formulas, drawn with criterion
    3's rule of at most four cost operators, whose words hold a
    proposition c that no formula reads, and random counter automata,
    whose cubes often contradict a letter."""
    out = []
    for fragment in ("CostGT", "CostLE"):
        for _ in range(40):
            phi = random_formula(rng, depth=4, props=("a", "b"), fragment=fragment)
            while cost_operator_count(phi) > 4:
                phi = random_formula(rng, depth=4, props=("a", "b"), fragment=fragment)
            source = Tableau(phi if fragment == "CostGT" else negate_dual(phi))
            out.append((source, random_lasso(rng, ("a", "b", "c"))))
    for _ in range(80):
        aut = random_automaton(rng, max_states=5, max_acc=2, max_counters=2)
        out.append((aut, random_lasso(rng, ("a", "b"), 4, 4)))
    return out


def over(word, ap):
    """The word with every letter cut down to the propositions of ap."""
    props = frozenset(ap)
    return LassoWord(
        tuple(letter & props for letter in word.prefix),
        tuple(letter & props for letter in word.cycle),
    )


def product_readings(source):
    """The readings of a product with source, a CounterAutomaton or a
    `Tableau`, as (name, tracked counters, bounded)."""
    return [
        ("_capped", _touched(source, "o"), False),
        ("_bounded", _touched(source, "i"), True),
    ]


def check_readings(product, source, thresholds):
    """Under each reading of product, every node's rows equal, in order,
    the rows `_Succ` compiles from the node's edges, up to the edge a row
    names: `edge` re-pairs it into one of the node's edges, alike but for
    its cube when parallel moves differ only there.  The verdicts of the
    two agree at each threshold.  Returns how many tests passed."""
    reachable_part(product)  # every node met
    passing = 0
    for name, tracked, bounded in product_readings(source):
        reading = getattr(product, name)
        succ = _Succ(product.edges, tracked, bounded, product.num_acc_sets)
        for node in range(product.num_states):
            rows, want = reading[node], succ[node]
            assert [row[:3] for row in rows] == [row[:3] for row in want], (name, node)
            for (d, mask, _, edge), (_, _, _, whole) in zip(rows, want):
                paired = product.edge(node, d, mask, edge)
                assert paired in product.edges(node), (name, node)
                assert paired[:4] == whole[:4], (name, node)
                assert edge[1] == product.order[d][0], (name, node)
        for t in thresholds:
            hit = _accepts(reading, 0, t)[0] is not None
            assert hit == (_accepts(succ, 0, t)[0] is not None), (name, t)
            passing += hit
    return passing


def test_a_word_is_read_as_its_one_path_model():
    # A word's product and its product with the word's one-path
    # CounterAutomaton reach the same (state, position) pairs, numbered
    # alike, with the same edges per pair.  Under each reading the word's
    # rows are those of its edges, and value mode's verdicts are
    # value_on_lasso's at every threshold up to the cap.
    rng = random.Random(61)
    cap = 4
    dropped = passing = 0
    for source, word in lasso_sources(rng):
        product = _ModelProduct(source, word)
        model = _ModelProduct(source, word_model(over(word, source.ap), source.ap))
        assert reachable_part(product) == reachable_part(model), (source, str(word))
        assert product.order == model.order
        for node, (state, _) in enumerate(product.order):
            assert product.edges(node) == model.edges(node)
            if isinstance(source, CounterAutomaton):
                dropped += len(source.edges(state)) - len(product._capped[node])
        check_readings(product, source, range(cap + 1))
        value = value_on_lasso(source, word, cap)
        for t in range(cap + 1):
            hit = _accepts(product._capped, 0, t)[0] is not None
            assert hit == (value is ABOVE_CAP or value >= t), (source, str(word), t, value)
            passing += hit and t > 0
    assert dropped > 100
    assert passing > 50


def several_edges_model(rng, props=("a", "b")):
    """A model without counters whose every state has one to three edges,
    of random cubes, targets and acceptance sets."""
    n, m = rng.randrange(1, 5), rng.randrange(3)
    transitions = tuple(
        Transition(
            q, random_cube(rng, props), (),
            frozenset(i for i in range(m) if rng.random() < 0.5), rng.randrange(n),
        )
        for q in range(n)
        for _ in range(rng.randrange(1, 4))
    )
    return CounterAutomaton(n, 0, 0, m, transitions, ap=props)


def test_a_model_is_read_through_its_edges():
    # Random counter automata times models with several edges per state,
    # acceptance sets of their own and cubes that often contradict the
    # source's: under each reading a node's rows are those of its edges.
    rng = random.Random(59)
    contradicted = several = passing = 0
    for _ in range(400):
        source = random_automaton(rng, max_states=4, max_acc=2, max_counters=2)
        model = several_edges_model(rng)
        product = _ModelProduct(source, model)
        passing += check_readings(product, source, range(5))
        for node, (p, q) in enumerate(product.order):
            out = model.edges(q)
            several += len(out) > 1
            contradicted += len(source.edges(p)) * len(out) - len(product.edges(node))
    assert contradicted > 500
    assert several > 400
    assert passing > 1000


class Asking:
    """A source that records each (state, cube) it is asked for."""

    def __init__(self, source):
        self.source = source
        self.asked = []

    def __getattr__(self, name):
        return getattr(self.source, name)

    def successors(self, state, cube):
        self.asked.append((state, cube))
        return self.source.successors(state, cube)


def test_each_state_and_shared_cube_is_asked_once():
    # The product asks the source once per distinct (state, shared cube)
    # its nodes reach, whichever tests expand them.  A word's positions
    # that read one letter share it, and letters that differ only off the
    # source's propositions are one letter.
    rng = random.Random(67)
    for source, word in lasso_sources(rng) + list(value_cap_pairs()):
        asking = Asking(source)
        product = _ModelProduct(asking, word)
        for t in (3, 1, 0, 2):
            _accepts(product._capped, 0, t)
        reachable_part(product)
        ap = frozenset(source.ap)
        reached = {
            (state, Cube(word.letter(q) & ap, ap - word.letter(q))) for state, q in product.order
        }
        assert len(asking.asked) == len(reached), str(word)
        assert set(asking.asked) == reached, str(word)
        if len(word.prefix) > 40:  # the value-cap shapes: two letters, long runs
            assert len(product.order) > 20 * len(asking.asked), str(word)
    root = Path(__file__).resolve().parent.parent / "models"
    for name in ("L3", "L5", "aab_cycle", "ants"):
        model = load_model(root / f"{name}.model")
        for text in ("G> a", "(G> a) & F (G> !a)", "G (F<= !a)"):
            asking = Asking(build_counter_automaton(parse_formula(text)))
            product = _ModelProduct(asking, model)
            for t in (2, 0, 1):
                find_accepting_lasso(product, t)
                find_accepting_lasso(product, t, bounded=True)
            reachable_part(product)
            reached = {
                (state, _shared_cube([e[4] for e in model.edges(q)]))
                for state, q in product.order
                if model.edges(q)
            }
            assert len(asking.asked) == len(reached), (name, text)
            assert set(asking.asked) == reached, (name, text)


def test_witnesses_take_parallel_model_edges():
    # Model state 0 has two edges to state 1 that differ only in cube, and
    # state 1 two back to 0 that differ only in acceptance set, so a
    # product row names a source edge that several model edges pair with.
    # The source counts a&b and observes on !a: its a edge pairs with both
    # edges out of 0, its a&b edge with one.  The witness rebuilt from such
    # rows is a run of the product that reads its word, and its loop takes
    # both edges back to 0.
    source = CounterAutomaton(
        1, 0, 1, 1,
        (Transition(0, cube("a&b"), ("i",), frozenset(), 0),
         Transition(0, cube("a"), ("",), frozenset(), 0),
         Transition(0, cube("!a"), ("or",), frozenset({0}), 0)),
        ap=("a", "b"),
    )
    model = CounterAutomaton(
        2, 0, 0, 2,
        (Transition(0, cube("a&b"), (), frozenset(), 1),
         Transition(0, cube("a&!b"), (), frozenset(), 1),
         Transition(1, cube("!a"), (), frozenset({0}), 0),
         Transition(1, cube("!a"), (), frozenset({1}), 0)),
        ap=("a", "b"),
    )
    for t in (0, 1):
        for bounded in (False, True):
            product = _ModelProduct(source, model)
            run, word = find_accepting_lasso(product, t, bounded)
            check_lasso_run(product, run, word)
            for i in range(product.num_acc_sets):
                assert any(i in step.acc for step in run.loop), (t, bounded, i)
    counting = CounterAutomaton(
        1, 0, 1, 0, (Transition(0, TOP_CUBE, ("i",), frozenset(), 0),), ap=("a", "b")
    )
    for name in ("_capped", "_bounded"):
        with pytest.raises(ValueError):
            getattr(_ModelProduct(source, counting), name)
    with pytest.raises(ValueError):
        find_accepting_lasso(_ModelProduct(source, counting), 1)


def test_with_no_guess_the_gallop_starts_after_the_cap(monkeypatch):
    # No guess: the probes are 0, the cap and 1, then the gallop doubles
    # from 1 and bisects below the first failure.  Threshold 0 asks the
    # SCCs; the other thresholds run the engine.
    tested = []
    engine = cltlbound.automaton._accepts
    sccs = cltlbound.automaton.accepting_components
    monkeypatch.setattr(
        cltlbound.automaton, "_accepts", lambda *args: tested.append(args[2]) or engine(*args)
    )
    monkeypatch.setattr(
        cltlbound.automaton, "accepting_components", lambda *args: tested.append(0) or sccs(*args)
    )
    g = Tableau(parse_formula("G> a"))
    for text, want, probes in [
        ("{a} {a} {a} | {} {a}", 2, [0, 250, 1, 2, 4, 3]),
        ("| {a}", ABOVE_CAP, [0, 250]),
        ("| {}", -1, [0]),
    ]:
        tested.clear()
        assert value_on_lasso(g, parse_lasso(text), 250) == want, text
        assert tested == probes, (text, tested)


def test_a_bracket_from_0_reads_no_run_as_0():
    # value_on_lasso(..., lo=0) is max(0, value): threshold 0 is never
    # tested, so no run and a run of value 0 both read 0.
    rng = random.Random(71)
    seen = set()
    for source, word in lasso_sources(rng)[::3]:
        for cap in (1, 3):
            want = value_on_lasso(source, word, cap)
            got = value_on_lasso(source, word, cap, lo=0)
            assert got == (want if want is ABOVE_CAP else max(0, want)), (str(word), cap)
            seen.add(want if want is ABOVE_CAP else min(want, 1))
    assert seen == {-1, 0, 1, ABOVE_CAP}


def test_early_exit_agrees_with_the_whole_unfolding():
    # The threshold test stops at the first accepting cycle it meets; the
    # accepting components of the whole unfolding give the same answer at
    # every threshold, capped and bounded.  A lasso found is a run of the
    # automaton that passes the test.  A failed test explored at most the
    # whole unfolding: with one tracked counter it skips the configurations
    # a dead one covers, and some tests here do.
    rng = random.Random(47)
    accepted = covered = 0
    for _ in range(1000):
        aut = random_automaton(rng, max_states=8, max_acc=3, max_counters=3)
        for bounded in (False, True):
            for t in range(6):
                explored = []
                hit = find_accepting_lasso(aut, t, bounded, explored)
                whole = whole_unfolding_accepts(aut, t, bounded)
                assert (hit is not None) == whole, (aut, t, bounded)
                if hit is None:
                    num_configs, edges = whole_unfolding(aut, t, bounded)
                    assert explored[0] <= num_configs, (aut, t, bounded)
                    assert explored[1] <= len(edges), (aut, t, bounded)
                    covered += explored[0] < num_configs
                    continue
                run, word = hit
                check_lasso_run(aut, run, word)
                if bounded:
                    assert run_peak(run, aut) <= t, (aut, t, run)
                else:
                    assert run_value(run, aut) >= t, (aut, t, run)
                accepted += 1
    assert accepted > 1000
    assert covered > 50, covered


def test_covering_runs_one_way_per_reading():
    # Each automaton reaches node 1 first at one counter value, which dies
    # with no accepting cycle, then at another, from which node 2's
    # accepting loop is reached.  Only a dead configuration whose value is
    # at least as large (capped) or at most as large (bounded) rules one
    # out; the other way round would drop the second visit and answer
    # empty.
    a, true = cube("a"), TOP_CUBE
    capped = CounterAutomaton(4, 0, 1, 1, (
        Transition(0, true, ("",), frozenset(), 1),  # to (1, 0), dead at t = 1
        Transition(0, true, ("",), frozenset(), 3),
        Transition(3, a, ("i",), frozenset(), 1),  # to (1, 1)
        Transition(1, true, ("or",), frozenset(), 2),
        Transition(2, true, ("",), frozenset({0}), 2),
    ), ap=("a",))
    bounded = CounterAutomaton(3, 0, 1, 1, (
        Transition(0, true, ("i",), frozenset(), 1),  # to (1, 1), dead at t = 1
        Transition(0, a, ("",), frozenset(), 1),  # to (1, 0)
        Transition(1, true, ("i",), frozenset(), 2),
        Transition(2, true, ("",), frozenset({0}), 2),
    ), ap=("a",))
    for aut, is_bounded in ((capped, False), (bounded, True)):
        assert whole_unfolding_accepts(aut, 1, is_bounded)
        run, word = find_accepting_lasso(aut, 1, is_bounded)
        check_lasso_run(aut, run, word)
        assert word.prefix[-2:] == (frozenset({"a"}), frozenset())
        if is_bounded:
            assert run_peak(run, aut) == 1
        else:
            assert run_value(run, aut) == 1


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
