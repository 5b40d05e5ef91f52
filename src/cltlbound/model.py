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

_DECLARATIONS = ("ap", "states", "init", "accsets")
_ACC_RE = re.compile(r"\{\s*((\d+\s*(,\s*\d+\s*)*)?)\}\Z")


class ModelSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModelValidationError(ValueError):
    pass


def parse_model(text: str) -> CounterAutomaton:
    declared: dict[str, object] = {}  # by directive, each given once
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
        if key == "trans":
            fields = rest.split()
            if len(fields) != 4:
                raise ModelSyntaxError(
                    "trans takes exactly: SRC DST CUBE ACC", lineno
                )
            raw_trans.append((lineno, fields))
            continue
        if key not in _DECLARATIONS:
            raise ModelSyntaxError(f"unknown directive {key!r}", lineno)
        if key in declared:
            raise ModelSyntaxError(f"duplicate {key} declaration", lineno)
        if key == "ap":
            names = rest.split()
            for name in names:
                if not NAME_RE.match(name):
                    raise ModelSyntaxError(f"bad proposition name {name!r}", lineno)
            if len(set(names)) != len(names):
                raise ModelSyntaxError("repeated proposition name", lineno)
            declared[key] = tuple(names)
        else:
            try:
                declared[key] = int(rest)
            except ValueError:
                raise ModelSyntaxError(f"{key} takes an integer, got {rest!r}", lineno) from None

    for name in _DECLARATIONS:
        if name not in declared:
            raise ModelValidationError(f"missing {name} declaration")
    ap, num_states, init, num_acc = (declared[name] for name in _DECLARATIONS)
    if num_states < 1:
        raise ModelValidationError("states must be at least 1")
    if num_acc < 0:
        raise ModelValidationError("accsets must be nonnegative")
    if not 0 <= init < num_states:
        raise ModelValidationError(f"init {init} out of range for {num_states} states")

    # Models repeat a few cube and acceptance texts over many lines: each
    # distinct text is read once.  A text that fails raises on its first
    # line, so only the ones that pass are kept.
    cubes: dict[str, Cube] = {}
    accs: dict[str, frozenset] = {}
    transitions = []
    for lineno, (src_s, dst_s, cube_s, acc_s) in raw_trans:
        try:
            src, dst = int(src_s), int(dst_s)
        except ValueError:
            raise ModelSyntaxError("transition endpoints must be integers", lineno) from None
        if not (0 <= src < num_states and 0 <= dst < num_states):
            raise ModelValidationError(f"line {lineno}: state out of range in transition")
        cube = cubes.get(cube_s)
        if cube is None:
            try:
                cube = Cube.from_text(cube_s)
            except ValueError as exc:
                raise ModelSyntaxError(str(exc), lineno) from None
            unknown = (cube.positive | cube.negative) - set(ap)
            if unknown:
                raise ModelValidationError(
                    f"line {lineno}: undeclared proposition {sorted(unknown)[0]!r}"
                )
            cubes[cube_s] = cube
        acc = accs.get(acc_s)
        if acc is None:
            m = _ACC_RE.match(acc_s)
            if not m:
                raise ModelSyntaxError(f"bad acceptance sets {acc_s!r}", lineno)
            acc = frozenset(int(x) for x in m.group(1).replace(",", " ").split())
            if any(i >= num_acc for i in acc):
                raise ModelValidationError(f"line {lineno}: acceptance index out of range")
            accs[acc_s] = acc
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
