"""Text format for counter-free omega-automaton models.

    # comment
    ap: a b
    states: 4
    init: 0
    accsets: 1
    trans: SRC DST CUBE ACC

CUBE is a &-joined conjunction of literals (or "true"), ACC the set of
acceptance-set indices the transition belongs to, written {0,2} or {}.
"""

from __future__ import annotations

import re

from .automaton import CounterAutomaton, Cube, Transition
from .words import NAME_RE

_ACC_RE = re.compile(r"\{\s*((\d+\s*(,\s*\d+\s*)*)?)\}\Z")


class ModelSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModelValidationError(ValueError):
    pass


def parse_model(text: str) -> CounterAutomaton:
    ap: tuple[str, ...] | None = None
    num_states = init = num_acc = None
    raw_trans: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ModelSyntaxError(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "ap":
            if ap is not None:
                raise ModelSyntaxError("duplicate ap declaration", lineno)
            names = rest.split()
            for name in names:
                if not NAME_RE.match(name):
                    raise ModelSyntaxError(f"bad proposition name {name!r}", lineno)
            if len(set(names)) != len(names):
                raise ModelSyntaxError("repeated proposition name", lineno)
            ap = tuple(names)
        elif key in ("states", "init", "accsets"):
            try:
                value = int(rest)
            except ValueError:
                raise ModelSyntaxError(f"{key} takes an integer, got {rest!r}", lineno) from None
            if key == "states":
                if num_states is not None:
                    raise ModelSyntaxError("duplicate states declaration", lineno)
                num_states = value
            elif key == "init":
                if init is not None:
                    raise ModelSyntaxError("duplicate init declaration", lineno)
                init = value
            else:
                if num_acc is not None:
                    raise ModelSyntaxError("duplicate accsets declaration", lineno)
                num_acc = value
        elif key == "trans":
            fields = rest.split()
            if len(fields) != 4:
                raise ModelSyntaxError(
                    "trans takes exactly: SRC DST CUBE ACC", lineno
                )
            raw_trans.append((lineno, fields))
        else:
            raise ModelSyntaxError(f"unknown directive {key!r}", lineno)

    for name, value in (("ap", ap), ("states", num_states), ("init", init), ("accsets", num_acc)):
        if value is None:
            raise ModelValidationError(f"missing {name} declaration")
    if num_states < 1:
        raise ModelValidationError("states must be at least 1")
    if num_acc < 0:
        raise ModelValidationError("accsets must be nonnegative")
    if not 0 <= init < num_states:
        raise ModelValidationError(f"init {init} out of range for {num_states} states")

    transitions = []
    for lineno, (src_s, dst_s, cube_s, acc_s) in raw_trans:
        try:
            src, dst = int(src_s), int(dst_s)
        except ValueError:
            raise ModelSyntaxError("transition endpoints must be integers", lineno) from None
        if not (0 <= src < num_states and 0 <= dst < num_states):
            raise ModelValidationError(f"line {lineno}: state out of range in transition")
        try:
            cube = Cube.from_text(cube_s)
        except ValueError as exc:
            raise ModelSyntaxError(str(exc), lineno) from None
        unknown = (cube.positive | cube.negative) - set(ap)
        if unknown:
            raise ModelValidationError(
                f"line {lineno}: undeclared proposition {sorted(unknown)[0]!r}"
            )
        m = _ACC_RE.match(acc_s)
        if not m:
            raise ModelSyntaxError(f"bad acceptance sets {acc_s!r}", lineno)
        acc = frozenset(int(x) for x in m.group(1).replace(",", " ").split())
        if any(i >= num_acc for i in acc):
            raise ModelValidationError(f"line {lineno}: acceptance index out of range")
        transitions.append(Transition(src, cube, (), acc, dst))

    return CounterAutomaton(
        num_states=num_states,
        init=init,
        num_counters=0,
        num_acc_sets=num_acc,
        transitions=tuple(transitions),
        ap=ap,
    )


def load_model(path: str) -> CounterAutomaton:
    """Parse the model file at path; missing files raise FileNotFoundError."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())
