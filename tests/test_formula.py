import random

import pytest
from hypothesis import given, strategies as st

from cltlbound.formula import (
    COST_GT,
    COST_LE,
    FALSE,
    LTL,
    MIXED,
    TRUE,
    And,
    CostRelease,
    CostUntil,
    FormulaSyntaxError,
    FragmentError,
    Lit,
    Next,
    Or,
    Release,
    Until,
    classify_fragment,
    cost_operator_count,
    format_formula,
    instantiate,
    label_counters,
    negate_dual,
    parse_formula,
    until_subformulas,
)

from corpus import random_formula


def formulas(fragment="any"):
    leaves = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.builds(Lit, st.sampled_from(["a", "b", "c"]), st.booleans()),
    )

    def extend(inner):
        branches = [
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Next, inner),
            st.builds(Until, inner, inner),
            st.builds(Release, inner, inner),
        ]
        if fragment in ("any", "CostLE"):
            branches.append(st.builds(CostUntil, inner, inner))
        if fragment in ("any", "CostGT"):
            branches.append(st.builds(CostRelease, inner, inner))
        return st.one_of(branches)

    return st.recursive(leaves, extend, max_leaves=12)


# -- parsing ---------------------------------------------------------------


def test_parse_precedence():
    assert parse_formula("a | b & c") == Or(Lit("a"), And(Lit("b"), Lit("c")))
    assert parse_formula("a & b | c") == Or(And(Lit("a"), Lit("b")), Lit("c"))
    assert parse_formula("a U b U c") == Until(Lit("a"), Until(Lit("b"), Lit("c")))
    assert parse_formula("X a U b") == Until(Next(Lit("a")), Lit("b"))


def test_parse_sugar():
    assert parse_formula("F a") == Until(TRUE, Lit("a"))
    assert parse_formula("G a") == Release(FALSE, Lit("a"))
    assert parse_formula("F<= a") == CostUntil(FALSE, Lit("a"))
    assert parse_formula("G> a") == CostRelease(TRUE, Lit("a"))
    assert parse_formula("true U<= !b") == CostUntil(TRUE, Lit("b", False))


def test_parse_negation_is_dual():
    assert parse_formula("!(a U b)") == Release(Lit("a", False), Lit("b", False))
    assert parse_formula("!(F<= a)") == CostRelease(TRUE, Lit("a", False))
    assert parse_formula("!!a") == Lit("a")


def test_parse_implication():
    # p -> q rewrites away immediately, keeping the tree negation-free
    assert parse_formula("a -> b") == Or(Lit("a", False), Lit("b"))
    got = parse_formula("a -> b -> c")
    assert got == Or(Lit("a", False), Or(Lit("b", False), Lit("c")))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("a U")
    assert err.value.line == 1
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(a | b")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a ? b")
    # the counting tokens do not allow interior spaces
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F <= a")


@given(formulas())
def test_print_parse_round_trip(phi):
    assert parse_formula(format_formula(phi)) == phi


def test_round_trip_seeded_corpus():
    rng = random.Random(7)
    for _ in range(300):
        frag = rng.choice(["LTL", "CostLE", "CostGT"])
        phi = random_formula(rng, 4, ("a", "b"), frag)
        assert parse_formula(format_formula(phi)) == phi


# -- structure -------------------------------------------------------------


@given(formulas())
def test_negate_dual_involution(phi):
    assert negate_dual(negate_dual(phi)) == phi


def test_fragments():
    assert classify_fragment(parse_formula("a U b")) == LTL
    assert classify_fragment(parse_formula("F<= a")) == COST_LE
    assert classify_fragment(parse_formula("G> a")) == COST_GT
    assert classify_fragment(parse_formula("F<= a & G> b")) == MIXED


@given(formulas("CostLE"))
def test_negate_dual_swaps_fragments(phi):
    flipped = classify_fragment(negate_dual(phi))
    original = classify_fragment(phi)
    assert (original, flipped) in {(LTL, LTL), (COST_LE, COST_GT)}


def test_label_counters_preorder_and_idempotent():
    phi = parse_formula("(G> a) U (G> b)")
    labelled = label_counters(phi)
    assert labelled.left.counter == 1
    assert labelled.right.counter == 2
    assert label_counters(labelled) == labelled
    assert cost_operator_count(phi) == 2


def test_until_subformulas_distinct():
    phi = parse_formula("(a U b) & (a U b) & (b U a)")
    assert until_subformulas(phi) == (Until(Lit("a"), Lit("b")), Until(Lit("b"), Lit("a")))


# -- instantiation ---------------------------------------------------------


def test_instantiate_base_cases():
    le = parse_formula("F<= !a")
    assert instantiate(le, 0) == Lit("a", False)
    assert instantiate(le, 1) == Until(Next(Lit("a", False)), Lit("a", False))
    gt = parse_formula("G> a")
    assert instantiate(gt, 0) == Lit("a")
    assert instantiate(gt, 1) == Release(Next(Lit("a")), Lit("a"))


def test_instantiate_general_until():
    phi = parse_formula("a U<= b")
    assert instantiate(phi, 0) == Until(Lit("a"), Lit("b"))
    expected = Until(Or(Lit("a"), Next(Until(Lit("a"), Lit("b")))), Lit("b"))
    assert instantiate(phi, 1) == expected


def test_instantiate_nested_shares_index():
    phi = parse_formula("F<= (F<= a)")
    inner0 = Lit("a")
    assert instantiate(phi, 0) == inner0
    # both operators unfold at the same n
    got = instantiate(phi, 1)
    inner1 = Until(Next(Lit("a")), Lit("a"))
    assert got == Until(Next(inner1), inner1)


def test_instantiate_rejects():
    with pytest.raises(ValueError):
        instantiate(parse_formula("F<= a"), -1)
    with pytest.raises(FragmentError):
        instantiate(parse_formula("F<= a & G> b"), 2)


@given(formulas("CostLE"), st.integers(min_value=0, max_value=4))
def test_instantiate_lands_in_ltl(phi, n):
    assert classify_fragment(instantiate(phi, n)) == LTL


@given(formulas("CostLE"), st.integers(min_value=0, max_value=3))
def test_instantiate_commutes_with_dual(phi, n):
    assert instantiate(negate_dual(phi), n) == negate_dual(instantiate(phi, n))
