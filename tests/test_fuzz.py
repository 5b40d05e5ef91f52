"""Fuzzing the formula, lasso and model parsers through the command line.

Whatever text arrives as a formula, a lasso word or a model file, `cli.main`
must end with one of its documented exit codes (0-5): never with an
exception, and never with an `internal error`.  Inputs are drawn from each
syntax's own tokens, so that many of them parse and go on to the search,
and from arbitrary text.  The runs are derandomized and the example counts
small, so the suite stays deterministic and a few seconds long.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cltlbound.cli import main

L3 = str(Path(__file__).resolve().parent.parent / "models" / "L3.model")

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)


def _run(*argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in range(6), (argv, code, err.getvalue())
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())


def _joined(tokens, max_size: int):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map(" ".join)


FORMULA_TOKENS = (
    "a", "b", "true", "false", "!", "&", "|", "->", "(", ")",
    "X", "F", "G", "U", "R", "U<=", "R>", "F<=", "G>", "<=", ">",
)
_well_formed = st.recursive(
    st.sampled_from(("a", "b", "!a", "true", "false")),
    lambda inner: st.one_of(
        st.builds("({}) {} ({})".format, inner,
                  st.sampled_from(("&", "|", "->", "U", "R", "U<=", "R>")), inner),
        st.builds("{} ({})".format, st.sampled_from(("!", "X", "F", "G", "F<=", "G>")), inner),
    ),
    max_leaves=5,
)
formulas = st.one_of(_well_formed, _joined(FORMULA_TOKENS, 10), st.text(max_size=16))

_letters = st.lists(st.sampled_from(("{}", "{a}", "{b}", "{a,b}", "{ a }", "{a,,b}", "{1}")))
LASSO_TOKENS = ("{", "}", "|", ",", "a", "b", "{}", "{a}", "{a,b}", "{b}", "!a", "1")
lassos = st.one_of(
    st.builds("{} | {}".format, _letters.map(" ".join), _letters.map(" ".join)),
    _joined(LASSO_TOKENS, 12),
    st.text(max_size=16),
)

_numbers = st.integers(min_value=-1, max_value=3).map(str)
_states = st.integers(min_value=0, max_value=2).map(str)
_good_trans = st.builds(
    "trans: {} {} {} {}".format, _states, _states,
    st.sampled_from(("true", "a", "!a", "a&!b", "!a&b")), st.sampled_from(("{}", "{0}")),
)
_any_trans = st.builds(
    "trans: {} {} {} {}".format, _numbers, _numbers,
    st.sampled_from(("true", "a", "!a", "b&!b", "c", "a&", "!", "a b")),
    st.sampled_from(("{}", "{0}", "{0,1}", "{1}", "{", "{-1}", "0")),
)
_bad_lines = st.one_of(
    _any_trans,
    st.sampled_from(("ap: a a", "ap: 1", "states: 0", "init: -1", "accsets: x", "trans: 0")),
    st.text(max_size=12),
)
# A valid model with at most one line that may break it, or any lines.
models = st.one_of(
    st.builds(
        lambda trans, bad: "\n".join(
            ["ap: a b", "states: 3", "init: 0", "accsets: 1"] + trans + bad
        ),
        st.lists(_good_trans, min_size=1, max_size=6), st.lists(_bad_lines, max_size=1),
    ),
    st.lists(st.one_of(_any_trans, _bad_lines), max_size=6).map("\n".join),
)


@FUZZ
@given(text=formulas, mode=st.sampled_from(("sup", "inf", "value")))
def test_any_formula_text_exits_cleanly(text, mode):
    where = ("--word", "{a} | {b} {}") if mode == "value" else ("-m", L3)
    _run("--mode", mode, "-f", text, *where, "--oracle-check")


@FUZZ
@given(text=lassos)
def test_any_lasso_text_exits_cleanly(text):
    _run("--mode", "value", "-f", "G> a", "--word", text, "--oracle-check")


@FUZZ
@given(text=models, mode=st.sampled_from(("sup", "inf")))
def test_any_model_text_exits_cleanly(text, mode):
    formula = "G (F<= !a)" if mode == "sup" else "F<= !a"
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzz.model")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        _run("--mode", mode, "-f", formula, "-m", path, "--witness", "--oracle-check")
