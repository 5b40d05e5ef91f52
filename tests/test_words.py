import random

import pytest
from hypothesis import given, strategies as st

from cltlbound.words import (
    ABOVE_CAP,
    LassoSyntaxError,
    LassoWord,
    format_lasso,
    parse_lasso,
)


def letters():
    return st.frozensets(st.sampled_from(["a", "b", "c"]))


def test_parse_basic():
    w = parse_lasso("{a} {} | {a,b}")
    assert w.prefix == (frozenset({"a"}), frozenset())
    assert w.cycle == (frozenset({"a", "b"}),)
    assert parse_lasso("{ a } | { b , a }").cycle == (frozenset({"a", "b"}),)


def test_parse_empty_prefix():
    w = parse_lasso("| {a}")
    assert w.prefix == ()
    assert str(w) == "| {a}"


def test_letter_indexing_is_periodic():
    w = parse_lasso("{a} | {b} {c}")
    got = [sorted(w.letter(i)) for i in range(6)]
    assert got == [["a"], ["b"], ["c"], ["b"], ["c"], ["b"]]


def test_parse_rejects():
    for bad in ["{a}", "{a} | ", "{a} | {b} | {c}", "{a} x | {b}", "{1a} | {b}"]:
        with pytest.raises(LassoSyntaxError):
            parse_lasso(bad)
    with pytest.raises(ValueError):
        LassoWord((), ())


@given(st.lists(letters(), max_size=5), st.lists(letters(), min_size=1, max_size=5))
def test_format_parse_round_trip(prefix, cycle):
    w = LassoWord(tuple(prefix), tuple(cycle))
    assert parse_lasso(format_lasso(w)) == w


def test_a_long_word_round_trips():
    rng = random.Random(600)
    letters = [frozenset(p for p in "abc" if rng.random() < 0.5) for _ in range(600)]
    w = LassoWord(tuple(letters[:450]), tuple(letters[450:]))
    text = format_lasso(w)
    assert parse_lasso(text) == w
    assert format_lasso(parse_lasso(text)) == text


def test_each_body_is_checked_once_and_the_first_bad_one_raises():
    # Repeated letters are read once, but a bad name still raises wherever
    # it sits, and the first bad body from the left is the one reported.
    with pytest.raises(LassoSyntaxError, match="'1a'"):
        parse_lasso("{a,b} " * 300 + "| " + "{b} " * 300 + "{b,1a}")
    with pytest.raises(LassoSyntaxError, match="'2b'"):
        parse_lasso("{a} {2b} {a} {1a} | {2b} {a}")


def test_markers_are_distinct_singletons():
    # Value mode answers -1 where no run accepts; the marker is no int.
    assert ABOVE_CAP != 0 and ABOVE_CAP != -1
    assert repr(ABOVE_CAP) == "AboveCap"
