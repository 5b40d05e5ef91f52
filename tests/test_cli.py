import json
from pathlib import Path

import pytest

import cltlbound.cli
import cltlbound.oracle
from cltlbound.automaton import synchronized_product
from cltlbound.cegar import _pruned, run_value
from cltlbound.cli import main
from cltlbound.emptiness import find_accepting_lasso
from cltlbound.formula import parse_formula
from cltlbound.model import load_model

ROOT = Path(__file__).resolve().parent.parent
L3 = str(ROOT / "models" / "L3.model")
L8 = str(ROOT / "models" / "L8.model")
A_ONLY = str(ROOT / "models" / "a_only.model")
UNIVERSAL = str(ROOT / "models" / "universal.model")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_sup_finite_exit_zero(capsys):
    code, data = run_json(capsys, "-f", "G (F<= !a)", "-m", L3, "--mode", "sup")
    assert code == 0
    assert data["outcome"] == "finite"
    assert data["bound"] == 3
    assert "witness" not in data and "trace" not in data


def test_sup_unbounded_exit_two(capsys):
    for extra in [(), ("--cutoff", "700")]:
        code, data = run_json(
            capsys, "-f", "G (F<= !a)", "-m", UNIVERSAL, "--mode", "sup", "--witness",
            *extra,
        )
        assert code == 2, extra
        assert data["outcome"] == "unbounded"
        assert data["bound"] is None
        assert data["witness"]


def test_inf_infinite_exit_three(capsys):
    code, data = run_json(capsys, "-f", "F<= !a", "-m", A_ONLY, "--mode", "inf")
    assert code == 3
    assert data["outcome"] == "infinite-inf"


def test_value_mode(capsys):
    code, data = run_json(
        capsys, "-f", "G> a", "--mode", "value", "--word", "{a} {a} {a} | {}"
    )
    assert code == 0
    assert data["value"] == 2
    assert data["cap"] == 9


def test_value_mode_cap_override_and_marker(capsys):
    code, data = run_json(
        capsys, "-f", "F<= b", "--mode", "value", "--word", "| {a}", "--cutoff", "4"
    )
    assert code == 0
    assert data["cap"] == 4
    assert data["value"] == "above-cap"


def test_value_mode_plain_ltl(capsys):
    code, data = run_json(capsys, "-f", "G a", "--mode", "value", "--word", "| {a}")
    assert (code, data["value"]) == (0, 0)
    code, data = run_json(capsys, "-f", "G b", "--mode", "value", "--word", "| {a}")
    assert (code, data["value"]) == (0, "infinite")


def test_human_and_json_share_fields(capsys):
    args = ("-f", "G (F<= !a)", "-m", L3, "--mode", "sup", "--witness", "--trace")
    _, data = run_json(capsys, *args)
    code, text, _ = run(capsys, *args)
    assert code == 0
    for key in data:
        assert f"{key}:" in text or key == "trace"
    assert "trace:" in text


def test_trace_rows_shape(capsys):
    _, data = run_json(
        capsys, "-f", "G (F<= !a)", "-m", L3, "--mode", "sup", "--trace"
    )
    rows = data["trace"]
    assert rows and all(
        set(r) == {
            "kind", "n", "p", "automaton_states",
            "product_states", "product_transitions", "word",
        }
        for r in rows
    )


def test_readme_trace_rows(capsys):
    # the examples of the README's --trace bullet, row by row: sup on L8
    _, data = run_json(
        capsys, "-f", "G (F<= !a)", "-m", L8, "--mode", "sup", "--trace"
    )
    rows = [
        (r["kind"], r["n"], r["p"], r["automaton_states"],
         r["product_states"], r["product_transitions"])
        for r in data["trace"]
    ]
    assert rows == [
        ("search", 0, 1, 3, 12, 13),
        ("search", 2, 3, 3, 14, 15),
        ("search", 6, 7, 3, 18, 19),
        ("search", 14, None, 3, 62, 82),
        ("search", 10, None, 3, 58, 78),
        ("search", 8, None, 3, 56, 76),
        ("search", 7, None, 3, 55, 76),
    ]
    assert data["trace"][0]["word"] == "{a} {a} | {a} {a} {a} {a} {a} {a} {} {a} {a}"
    assert data["bound"] == 8
    # and the inf example on three_leading_a
    _, data = run_json(
        capsys, "-f", "F<= !a", "-m", str(ROOT / "models" / "three_leading_a.model"),
        "--mode", "inf", "--trace",
    )
    rows = [
        (r["kind"], r["n"], r["p"], r["automaton_states"],
         r["product_states"], r["product_transitions"], r["word"])
        for r in data["trace"]
    ]
    assert rows == [
        ("streett", None, 3, 2, 6, 8, "{a} {a} {a} {} | {}"),
        ("search", 0, None, 2, 1, 0, None),
        ("search", 1, None, 2, 2, 1, None),
        ("search", 2, None, 2, 3, 2, None),
    ]
    assert (data["bound"], data["cutoff"]) == (3, None)


def test_sup_looks_for_a_word_of_infinite_value_first(capsys):
    # G> a over every word: the test at threshold 1 finds a lasso worth
    # exactly 1, yet a^w observes no counter and is worth infinity.  The
    # n = 0 row looks for a run that observes nothing first, so the search
    # answers `unbounded` after one row instead of galloping to the cutoff.
    phi = parse_formula("G> a")
    product = synchronized_product(_pruned(phi), load_model(UNIVERSAL))
    run, _ = find_accepting_lasso(product, 1)
    assert run_value(run, product) == 1
    code, data = run_json(
        capsys, "-f", "G> a", "-m", UNIVERSAL, "--mode", "sup",
        "--trace", "--witness", "--oracle-check",
    )
    assert (code, data["outcome"], data["iterations"]) == (2, "unbounded", 1)
    assert [(r["n"], r["p"]) for r in data["trace"]] == [(0, "infinite")]
    assert (data["witness"], data["oracle"]) == ("| {a}", "ok")


def test_cutoffs_count_reachable_model_states(tmp_path, capsys):
    # One reachable state among the declared ones: the default sup cutoff
    # multiplies by 1, not by the declared count.  G> b's automaton has 2
    # states.  The inf search needs no cutoff: its Streett check proves
    # infinite-inf on the one reachable state.
    for declared, mode, formula, want in [
        (1000, "sup", "G> b", (0, "finite", 0, 2)),
        (2, "inf", "F<= b", (3, "infinite-inf", None, None)),
    ]:
        path = tmp_path / f"unreachable_{declared}.model"
        path.write_text(
            f"ap: a b\nstates: {declared}\ninit: 0\naccsets: 1\n"
            "trans: 0 0 a&!b {0}\n",
            encoding="utf-8",
        )
        code, data = run_json(capsys, "--mode", mode, "-f", formula, "-m", str(path))
        assert (code, data["outcome"], data["bound"], data["cutoff"]) == want, mode


def test_formula_file(tmp_path, capsys):
    path = tmp_path / "phi.txt"
    path.write_text("G (F<= !a)\n", encoding="utf-8")
    code, data = run_json(
        capsys, "--formula-file", str(path), "-m", L3, "--mode", "sup"
    )
    assert code == 0 and data["bound"] == 3


def test_dot_export(tmp_path, capsys):
    target = tmp_path / "aut.dot"
    code, _, _ = run(
        capsys, "-f", "F (p & G> !q)", "--mode", "value", "--word", "| {p}",
        "--dot", str(target),
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph") and "or1" in text


def test_dot_writes_the_automaton_the_mode_searches(tmp_path, capsys):
    # inf searches the U<= automaton itself (increments and resets), sup
    # its R> dual (observe-and-reset edges)
    text = {}
    for mode in ("inf", "sup"):
        target = tmp_path / f"{mode}.dot"
        run(capsys, "-f", "a U<= b", "--mode", mode, "-m", L3, "--dot", str(target))
        text[mode] = target.read_text(encoding="utf-8")
    assert "r1" in text["inf"] and "i1" in text["inf"] and "or1" not in text["inf"]
    assert "or1" in text["sup"]


def test_oracle_check_ok(capsys):
    code, data = run_json(
        capsys, "-f", "G (F<= !a)", "-m", L3, "--mode", "sup", "--oracle-check"
    )
    assert code == 0 and data["oracle"] == "ok"
    code, data = run_json(
        capsys, "-f", "G> a", "--mode", "value", "--word", "{a} | {}",
        "--oracle-check",
    )
    assert code == 0 and data["oracle"] == "ok"


def test_oracle_check_mismatch_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(cltlbound.oracle, "value_inf", lambda phi, w, cap: 99)
    code, data = run_json(
        capsys, "-f", "G (F<= !a)", "-m", L3, "--mode", "sup", "--oracle-check"
    )
    assert code == 4
    assert data["oracle"].startswith("mismatch")


@pytest.mark.parametrize("word, wrong", [("| {b}", 1), ("{} | {b}", 0)])
def test_value_check_tells_u_le_zero_from_one(capsys, monkeypatch, word, wrong):
    # F<= b is 0 on the first word and 1 on the second.  The dual accepts
    # no run on the first, and reaches 0 on the second, so a value off by
    # one at that boundary is a mismatch.
    monkeypatch.setattr(cltlbound.oracle, "value_inf", lambda phi, w, cap: wrong)
    code, data = run_json(
        capsys, "-f", "F<= b", "--mode", "value", "--word", word, "--oracle-check"
    )
    assert (code, data["value"]) == (4, wrong)
    assert data["oracle"].startswith("mismatch")


def test_usage_errors_exit_one(capsys):
    cases = [
        ("-f", "a", "--mode", "sup"),  # missing --model
        ("-f", "a", "--mode", "value"),  # missing --word
        ("-f", "a", "-m", L3, "--mode", "nope"),
        ("-f", "a U", "-m", L3, "--mode", "sup"),  # formula syntax
        ("-f", "a", "-m", "/nonexistent.model", "--mode", "sup"),
        ("-f", "F<= a & G> a", "-m", L3, "--mode", "sup"),  # mixed fragment
        ("-f", "a", "--mode", "value", "--word", "{a}"),  # lasso syntax
        ("-f", "a", "-m", L3, "--mode", "sup", "--word", "| {a}"),
        ("--mode", "sup", "-m", L3),  # no formula at all
        ("-f", "G> a", "-m", L3, "--mode", "sup", "--cutoff", "-5"),
        ("-f", "F<= a", "-m", L3, "--mode", "inf", "--cutoff", "-1"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error" in err.lower(), argv


def _a_run(m):
    return " ".join(["{a}"] * m)


def test_value_mode_past_the_word_length(capsys):
    # cap 600 is far deeper than an instantiated phi[n] can be built and
    # evaluated within Python's recursion limit
    cases = [
        ("F<= b", "{a} | {a}", "above-cap"),
        ("G> a", _a_run(601) + " | {} {a}", "above-cap"),
        ("G> a", _a_run(599) + " | {} {a}", 598),
    ]
    for formula, word, want in cases:
        code, data = run_json(
            capsys, "-f", formula, "--mode", "value", "--word", word,
            "--cutoff", "600", "--oracle-check",
        )
        assert (code, data["value"], data["oracle"]) == (0, want, "ok"), formula


def test_oracle_check_past_a_large_cutoff(tmp_path, capsys):
    # a* then !a forever: every G> a value is reachable, and the witness
    # past cutoff 3000 is checked at threshold 3001
    path = tmp_path / "a_then_not_a.model"
    path.write_text(
        "ap: a\nstates: 2\ninit: 0\naccsets: 1\n"
        "trans: 0 0 a {}\ntrans: 0 1 !a {}\ntrans: 1 1 !a {0}\n",
        encoding="utf-8",
    )
    code, data = run_json(
        capsys, "--mode", "sup", "-f", "G> a", "-m", str(path),
        "--cutoff", "3000", "--oracle-check",
    )
    assert (code, data["outcome"], data["oracle"]) == (2, "unbounded", "ok")


def test_internal_errors_exit_one(capsys, monkeypatch):
    for exc in (RecursionError("deep"), MemoryError("big"), RuntimeError("broken")):
        def boom(*args, exc=exc):
            raise exc

        monkeypatch.setattr(cltlbound.cli, "compute_sup_bound", boom)
        code, out, err = run(capsys, "-f", "G> a", "-m", L3, "--mode", "sup")
        assert code == 1 and out == ""
        assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cltlbound.cli, "compute_sup_bound", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["-f", "G> a", "-m", L3, "--mode", "sup"])


def test_user_cutoff_below_the_sound_one_claims_nothing(capsys):
    # A value past a user cutoff below the sound cutoff is no proof of
    # unboundedness: the sup of G> a over L3 is 2 and that of G (F<= !a)
    # is 3.  The inf of F<= a over L3 is 0, found at the cutoff itself.
    cases = [
        (("--mode", "sup", "-f", "G> a", "--cutoff", "0"), 5, "cutoff-reached", None),
        (("--mode", "sup", "-f", "G> a", "--cutoff", "1"), 5, "cutoff-reached", None),
        (("--mode", "sup", "-f", "G (F<= !a)", "--cutoff", "1"), 5, "cutoff-reached", None),
        (("--mode", "inf", "-f", "F<= a", "--cutoff", "0"), 0, "finite", 0),
    ]
    for argv, code, outcome, bound in cases:
        got, data = run_json(capsys, *argv, "-m", L3, "--oracle-check")
        assert (got, data["outcome"], data["bound"], data["oracle"]) == (
            code, outcome, bound, "ok",
        ), argv
        assert data["cutoff"] == int(argv[-1])


def test_inf_infinite_by_the_streett_check(tmp_path, capsys):
    # No L2 word satisfies G a, and b never holds on the 3-state cycle:
    # every value is infinite, proved without a scan of thresholds.
    cycle = tmp_path / "cycle3.model"
    cycle.write_text(
        "ap: a b\nstates: 3\ninit: 0\naccsets: 1\n"
        "trans: 0 1 !b {0}\ntrans: 1 2 !b {}\ntrans: 2 0 !b {}\n",
        encoding="utf-8",
    )
    for formula, path in [("F<= (G a)", str(ROOT / "models" / "L2.model")),
                          ("F<= b", str(cycle))]:
        code, data = run_json(
            capsys, "--mode", "inf", "-f", formula, "-m", path, "--trace"
        )
        assert (code, data["outcome"], data["bound"]) == (3, "infinite-inf", None)
        assert len(data["trace"]) <= 2
