"""Ultimately periodic words (lassos) and the text syntax for them.

A letter is the frozenset of propositions that hold at a position; every
proposition not listed is false.  The text form spells the prefix, a '|'
separator, then the repeated cycle: "{a,b} {} | {a}".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Letter = frozenset


class _Marker:
    """An out-of-band evaluation result shared by the oracle and the automaton side."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


ABOVE_CAP = _Marker("AboveCap")


class LassoSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class LassoWord:
    prefix: tuple[Letter, ...]
    cycle: tuple[Letter, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    def positions(self) -> int:
        """Number of distinct positions: prefix plus one turn of the cycle."""
        return len(self.prefix) + len(self.cycle)

    def letter(self, i: int) -> Letter:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def __str__(self) -> str:
        return format_lasso(self)


_GROUP = re.compile(r"\{([^{}|]*)\}")
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _letters(chunk: str, what: str, seen: dict[str, Letter]) -> tuple[Letter, ...]:
    """The letters of chunk, each distinct {...} body read and checked
    once: seen maps the bodies read so far to their letters."""
    rest = _GROUP.sub("", chunk)
    if rest.strip():
        raise LassoSyntaxError(f"stray text in {what}: {rest.strip()!r}")
    out = []
    for body in _GROUP.findall(chunk):
        letter = seen.get(body)
        if letter is None:
            names = [p.strip() for p in body.split(",") if p.strip()]
            for name in names:
                if not NAME_RE.match(name):
                    raise LassoSyntaxError(f"bad proposition name {name!r}")
            letter = seen[body] = frozenset(names)
        out.append(letter)
    return tuple(out)


def parse_lasso(text: str) -> LassoWord:
    if text.count("|") != 1:
        raise LassoSyntaxError("expected exactly one '|' between prefix and cycle")
    pre, _, cyc = text.partition("|")
    seen: dict[str, Letter] = {}
    prefix = _letters(pre, "prefix", seen)
    cycle = _letters(cyc, "cycle", seen)
    if not cycle:
        raise LassoSyntaxError("cycle must contain at least one letter")
    return LassoWord(prefix, cycle)


def format_lasso(word: LassoWord) -> str:
    texts: dict[Letter, str] = {}  # each distinct letter is written once

    def fmt(letters):
        out = []
        for letter in letters:
            got = texts.get(letter)
            if got is None:
                got = texts[letter] = "{" + ",".join(sorted(letter)) + "}"
            out.append(got)
        return " ".join(out)

    cyc = fmt(word.cycle)
    if word.prefix:
        return f"{fmt(word.prefix)} | {cyc}"
    return f"| {cyc}"
