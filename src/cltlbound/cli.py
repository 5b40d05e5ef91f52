"""Command line front end.

Three modes: `sup` and `inf` bound the value of a formula over a model's
language, `value` evaluates a formula on one lasso word.  Results print
as `key: value` lines, or as JSON with --json; both renderings carry the
same fields.

Exit codes: 0 finite bound or computed value, 1 usage or input error,
2 unbounded, 3 infinite inf, 4 oracle cross-check mismatch, 5 cutoff
reached: a user --cutoff stopped the search before a proof (a sup value
above a cutoff below the sound one, or an inf above the cutoff).  Exit 1 also
covers an internal error (RecursionError, MemoryError or RuntimeError),
reported as `error: internal error: <Type>: <message>` so that a bug is
not taken for bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any

from . import oracle
from .automaton import to_dot, value_on_lasso
from .cegar import BoundResult, _pruned, compute_inf_bound, compute_sup_bound
from .formula import (
    COST_GT,
    COST_LE,
    LTL,
    MIXED,
    FragmentError,
    classify_fragment,
    format_formula,
    negate_dual,
    parse_formula,
)
from .model import load_model
from .translate import (
    Tableau,
    build_counter_automaton,  # noqa: F401  kept importable here for bench/tracing.py
    prune_dominated,  # noqa: F401  likewise
)
from .words import ABOVE_CAP, NO_RUN, parse_lasso


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _render(fields: dict[str, Any]) -> str:
    """The human rendering of a report: one `key: value` line per field,
    and one line per row under `trace:`."""
    lines = []
    for key, val in fields.items():
        if key == "trace":
            lines.append("trace:")
            for row in val:
                lines.append(
                    "  {kind} n={n} p={p} states={automaton_states}"
                    " product={product_states}/{product_transitions}"
                    " word={word}".format(
                        **{k: _human(v) for k, v in row.items()}
                    )
                )
        else:
            lines.append(f"{key}: {_human(val)}")
    return "\n".join(lines)


def _human(val) -> str:
    if val is None:
        return "none"
    return str(val)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cltlbound",
        description="Bound or evaluate counting LTL formulas over omega-automata.",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("-f", "--formula", help="formula text")
    src.add_argument("--formula-file", help="read the formula from a file")
    parser.add_argument(
        "--mode", required=True, choices=("sup", "inf", "value"),
        help="bound direction, or 'value' for one word",
    )
    parser.add_argument("-m", "--model", help="model file (sup and inf modes)")
    parser.add_argument(
        "--word", help="lasso word such as '{a} {} | {a} {b}' (value mode)"
    )
    parser.add_argument(
        "--cutoff", type=int,
        help="override the search cutoff, or the evaluation cap in value mode",
    )
    parser.add_argument(
        "--witness", action="store_true",
        help="include the witness word in the report",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="include per-pass search statistics in the report",
    )
    parser.add_argument(
        "--oracle-check", action="store_true",
        help="cross-check the result along an independent route; exit 4 on mismatch",
    )
    parser.add_argument(
        "--dot", metavar="PATH",
        help="also write the formula's automaton in DOT form",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    return parser


def _trace_rows(result: BoundResult) -> list[dict[str, Any]]:
    rows = []
    for row in result.trace:
        p: Any = row.p
        if isinstance(p, float) and math.isinf(p):
            p = "infinite"
        rows.append(
            {
                "kind": row.kind,
                "n": row.n,
                "p": p,
                "automaton_states": row.automaton_states,
                "product_states": row.product_states,
                "product_transitions": row.product_transitions,
                "word": None if row.word is None else str(row.word),
            }
        )
    return rows


def _check_bound(mode: str, phi, result: BoundResult) -> str:
    frag = classify_fragment(phi)
    witness = result.witness
    if witness is None:
        # Empty model language, or infinite inf: nothing to evaluate.
        return "ok"
    if result.outcome == "finite":
        cap = result.bound + 2
        if mode == "inf" or frag == COST_LE:
            got = oracle.value_inf(phi, witness, cap)
            want = result.bound
        elif frag == COST_GT:
            got = oracle.value_sup(phi, witness, cap)
            want = result.bound
        else:
            # A 0 sup of a plain formula promises the witness falsifies it.
            got = oracle.value_sup(phi, witness, 1)
            want = 0
        if got is ABOVE_CAP or got != want:
            return f"mismatch: witness value {got!r}, expected {want}"
        return "ok"
    # Unbounded, or a sup past a user cutoff: the last pass accepted the
    # witness at threshold n, which certifies a value beyond n on the
    # matching side.
    t = result.trace[-1].n + 1
    if frag == COST_LE:
        got = oracle.value_inf(phi, witness, t)
    else:
        got = oracle.value_sup(phi, witness, t)
    if got is not ABOVE_CAP:
        return f"mismatch: witness value {got!r} below threshold {t}"
    return "ok"


def _check_value(phi, frag: str, word, cap: int, val) -> str:
    # The formula's tableau is read along the word only, never built whole.
    if frag == LTL:
        side = value_on_lasso(Tableau(phi), word, 1)
        if val == 0:
            ok = side is ABOVE_CAP
        else:
            ok = side is NO_RUN
        return "ok" if ok else f"mismatch: automaton route says {side!r}"
    if frag == COST_GT:
        side = value_on_lasso(Tableau(phi), word, cap)
        side = 0 if side is NO_RUN else side  # the empty-sup convention
        expect = val
    else:
        # The dual value is the U<= value minus one, NO_RUN standing for -1.
        side = value_on_lasso(Tableau(negate_dual(phi)), word, cap)
        expect = val if val is ABOVE_CAP else NO_RUN if val == 0 else val - 1
    if (side is ABOVE_CAP) != (expect is ABOVE_CAP) or (
        side is not ABOVE_CAP and side != expect
    ):
        return f"mismatch: automaton route says {side!r}, expected {expect!r}"
    return "ok"


def _run_bound(args, phi) -> tuple[dict[str, Any], int]:
    if args.model is None:
        raise _UsageError(f"--mode {args.mode} needs --model")
    if args.word is not None:
        raise _UsageError("--word only applies to --mode value")
    model = load_model(args.model)
    start = time.perf_counter()
    if args.mode == "sup":
        result = compute_sup_bound(model, phi, args.cutoff)
    else:
        result = compute_inf_bound(model, phi, args.cutoff)
    elapsed = round(time.perf_counter() - start, 6)

    fields: dict[str, Any] = {
        "mode": args.mode,
        "formula": format_formula(phi),
        "model": args.model,
        "outcome": result.outcome,
        "bound": result.bound,
        "iterations": result.iterations,
        "cutoff": result.cutoff,
    }
    if args.witness:
        fields["witness"] = None if result.witness is None else str(result.witness)
    if args.trace:
        fields["trace"] = _trace_rows(result)
    code = {"finite": 0, "unbounded": 2, "infinite-inf": 3, "cutoff-reached": 5}[
        result.outcome
    ]
    if args.oracle_check:
        verdict = _check_bound(args.mode, phi, result)
        fields["oracle"] = verdict
        if verdict != "ok":
            code = 4
    fields["seconds"] = elapsed
    return fields, code


def _run_value(args, phi) -> tuple[dict[str, Any], int]:
    if args.word is None:
        raise _UsageError("--mode value needs --word")
    if args.model is not None:
        raise _UsageError("--model only applies to --mode sup and inf")
    word = parse_lasso(args.word)
    cap = args.cutoff
    if cap is None:
        cap = len(word.prefix) + 2 * len(word.cycle) + 4
    frag = classify_fragment(phi)
    if frag == MIXED:
        raise FragmentError("cannot evaluate a formula mixing U<= and R>")
    start = time.perf_counter()
    if frag == COST_LE:
        val = oracle.value_inf(phi, word, cap)
    elif frag == COST_GT:
        val = oracle.value_sup(phi, word, cap)
    else:
        val = 0 if oracle.eval_ltl_on_lasso(phi, word) else "infinite"
    elapsed = round(time.perf_counter() - start, 6)

    fields: dict[str, Any] = {
        "mode": "value",
        "formula": format_formula(phi),
        "word": str(word),
        "cap": cap,
        "value": "above-cap" if val is ABOVE_CAP else val,
    }
    code = 0
    if args.oracle_check:
        verdict = _check_value(phi, frag, word, cap, val)
        fields["oracle"] = verdict
        if verdict != "ok":
            code = 4
    fields["seconds"] = elapsed
    return fields, code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.formula is not None:
            text = args.formula
        else:
            with open(args.formula_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        phi = parse_formula(text)
        if args.dot is not None:
            # inf searches a U<= automaton itself, sup and value its R> dual
            le = classify_fragment(phi) == COST_LE
            shown = negate_dual(phi) if le and args.mode != "inf" else phi
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(to_dot(_pruned(shown)))
        if args.mode == "value":
            fields, code = _run_value(args, phi)
        else:
            fields, code = _run_bound(args, phi)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RuntimeError) as exc:  # RecursionError is a RuntimeError
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(fields, indent=2) if args.json else _render(fields))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
