import json
from pathlib import Path

import pytest

import cltlbound.oracle
from cltlbound.cli import main

ROOT = Path(__file__).resolve().parent.parent
L3 = str(ROOT / "models" / "L3.model")
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
