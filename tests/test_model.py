import pytest

from cltlbound.automaton import Cube
from cltlbound.model import (
    ModelSyntaxError,
    ModelValidationError,
    load_model,
    parse_model,
)

def cube(text):
    return Cube.from_text(text)


GOOD = """
# two states over a, b
ap: a b
states: 2
init: 0
accsets: 2
trans: 0 1 a&!b {0}
trans: 1 0 true {0,1}
trans: 1 1 !a {}
"""


def test_parse_happy_path():
    aut = parse_model(GOOD)
    assert aut.num_states == 2
    assert aut.init == 0
    assert aut.num_acc_sets == 2
    assert aut.num_counters == 0
    assert aut.ap == ("a", "b")
    assert len(aut.transitions) == 3
    t = aut.transitions[1]
    assert t.acc == frozenset({0, 1})
    assert t.cube.to_text() == "true"
    assert aut.transitions[0].actions == ()


def test_directive_order_is_free():
    shuffled = """
trans: 0 0 a {}
accsets: 1
init: 0
ap: a
states: 1
"""
    aut = parse_model(shuffled)
    assert aut.num_states == 1


def test_comments_and_blanks_ignored():
    text = GOOD.replace("ap: a b", "ap: a b   # alphabet")
    assert parse_model(text).ap == ("a", "b")


def test_duplicate_directives_rejected():
    line = len(GOOD.splitlines()) + 2  # after GOOD and a blank line
    for key, value in (("ap", "c"), ("states", "2"), ("init", "1"), ("accsets", "1")):
        message = f"^line {line}: duplicate {key} declaration$"
        with pytest.raises(ModelSyntaxError, match=message) as err:
            parse_model(GOOD + f"\n{key}: {value}\n")
        assert err.value.line == line


def test_missing_directives_rejected():
    with pytest.raises(ModelValidationError) as err:
        parse_model("ap: a\nstates: 1\ninit: 0\n")
    assert "accsets" in str(err.value)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("ap: a\nwhatever\n")
    assert err.value.line == 2
    with pytest.raises(ModelSyntaxError):
        parse_model("ap: a\nstates: one\n")
    with pytest.raises(ModelSyntaxError):
        parse_model(GOOD + "\ntrans: 0 1 a\n")
    with pytest.raises(ModelSyntaxError):
        parse_model(GOOD + "\ntrans: 0 1 a&&b {}\n")
    with pytest.raises(ModelSyntaxError):
        parse_model(GOOD + "\ntrans: 0 1 a {x}\n")


def test_validation_errors():
    with pytest.raises(ModelValidationError):
        parse_model(GOOD.replace("init: 0", "init: 5"))
    with pytest.raises(ModelValidationError):
        parse_model(GOOD + "\ntrans: 0 7 a {}\n")
    with pytest.raises(ModelValidationError):
        parse_model(GOOD + "\ntrans: 0 1 c {}\n")  # undeclared proposition
    with pytest.raises(ModelValidationError):
        parse_model(GOOD + "\ntrans: 0 1 a {5}\n")
    with pytest.raises(ModelValidationError):
        parse_model(GOOD.replace("states: 2", "states: 0"))


def test_repeated_texts_are_read_once_and_fail_on_their_first_line():
    head = "ap: a b\nstates: 2\ninit: 0\naccsets: 1\ntrans: 0 1 a&!b {0}\n"
    lines = ["trans: 0 1 CUBE ACC", "trans: 1 0 true {}", "trans: 1 1 !a {0}",
             "trans: 1 0 CUBE ACC"]
    text = head + "\n".join(lines) + "\n"  # lines 6 to 9

    def model(cube_text, acc_text):
        return parse_model(text.replace("CUBE", cube_text).replace("ACC", acc_text))

    with pytest.raises(ModelValidationError, match="^line 6: undeclared proposition 'c'$"):
        model("c", "{}")
    with pytest.raises(ModelValidationError, match="^line 6: acceptance index out of range$"):
        model("a", "{5}")
    aut = model("a&!b", "{0}")
    first, repeat = aut.transitions[1], aut.transitions[4]
    assert (first.cube, first.acc) == (repeat.cube, repeat.acc) == (cube("a&!b"), frozenset({0}))
    assert aut.transitions[0].cube == first.cube
    assert [(t.src, t.dst) for t in aut.transitions] == [(0, 1), (0, 1), (1, 0), (1, 1), (1, 0)]


def test_load_model_reads_files(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(GOOD, encoding="utf-8")
    assert load_model(str(path)).num_states == 2
    with pytest.raises(FileNotFoundError):
        load_model(str(tmp_path / "missing.model"))


def test_shipped_models_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "models").glob("*.model"))
    assert len(paths) >= 14
    for p in paths:
        aut = load_model(str(p))
        assert aut.num_counters == 0
