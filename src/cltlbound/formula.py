"""Syntax for LTL extended with the counting operators U<= and R>.

Formulas are kept in negation normal form: negation only ever sits on
atomic propositions.  The U<= fragment carries min-counting semantics
(how many failures of the left operand can be tolerated), the dual R>
fragment max-counting semantics; plain LTL is the intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

LTL = "LTL"
COST_LE = "CostLE"
COST_GT = "CostGT"
MIXED = "Mixed"


class FragmentError(ValueError):
    """Raised when a formula is outside the fragment an operation supports."""


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Formula:
    """Base class for AST nodes; all nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Lit(Formula):
    name: str
    positive: bool = True


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class CostUntil(Formula):
    left: Formula
    right: Formula
    counter: int | None = None


@dataclass(frozen=True)
class CostRelease(Formula):
    left: Formula
    right: Formula
    counter: int | None = None


TRUE = TrueF()
FALSE = FalseF()

_BINARY = (And, Or, Until, Release, CostUntil, CostRelease)


def _cached_hash(self):
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash(
            (type(self).__name__,)
            + tuple(self.__dict__[name] for name in self.__dataclass_fields__)
        )
        object.__setattr__(self, "_hash", h)
    return h


# The set-based translation hashes deep formulas constantly; the generated
# dataclass hash walks the whole subtree every time, so cache it per node.
for _node in (TrueF, FalseF, Lit, And, Or, Next, Until, Release, CostUntil, CostRelease):
    _node.__hash__ = _cached_hash


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, _BINARY):
        return (phi.left, phi.right)
    if isinstance(phi, Next):
        return (phi.operand,)
    return ()


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Yield phi and all subformulas, depth-first, left to right.  An
    explicit stack: a recursive `yield from` passes each node up through
    every level above it."""
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(children(f)))


def propositions(phi: Formula) -> tuple[str, ...]:
    names = {f.name for f in subformulas(phi) if isinstance(f, Lit)}
    return tuple(sorted(names))


def node_count(phi: Formula) -> int:
    return sum(1 for _ in subformulas(phi))


def classify_fragment(phi: Formula) -> str:
    has_le = has_gt = False
    for f in subformulas(phi):
        if isinstance(f, CostUntil):
            has_le = True
        elif isinstance(f, CostRelease):
            has_gt = True
    if has_le and has_gt:
        return MIXED
    if has_le:
        return COST_LE
    if has_gt:
        return COST_GT
    return LTL


def cost_operator_count(phi: Formula) -> int:
    return sum(1 for f in subformulas(phi) if isinstance(f, (CostUntil, CostRelease)))


def negate_dual(phi: Formula) -> Formula:
    """The negation of phi, pushed down to the literals (an involution)."""
    if isinstance(phi, TrueF):
        return FALSE
    if isinstance(phi, FalseF):
        return TRUE
    if isinstance(phi, Lit):
        return Lit(phi.name, not phi.positive)
    if isinstance(phi, And):
        return Or(negate_dual(phi.left), negate_dual(phi.right))
    if isinstance(phi, Or):
        return And(negate_dual(phi.left), negate_dual(phi.right))
    if isinstance(phi, Next):
        return Next(negate_dual(phi.operand))
    if isinstance(phi, Until):
        return Release(negate_dual(phi.left), negate_dual(phi.right))
    if isinstance(phi, Release):
        return Until(negate_dual(phi.left), negate_dual(phi.right))
    if isinstance(phi, CostUntil):
        return CostRelease(negate_dual(phi.left), negate_dual(phi.right), phi.counter)
    if isinstance(phi, CostRelease):
        return CostUntil(negate_dual(phi.left), negate_dual(phi.right), phi.counter)
    raise TypeError(f"not a formula: {phi!r}")


def label_counters(phi: Formula) -> Formula:
    """Assign counter ids 1..k to the cost operators, depth-first.

    Always relabels from scratch, so the operation is idempotent and the
    ids are independent of any labels already present.
    """
    n = 0

    def walk(f: Formula) -> Formula:
        nonlocal n
        if isinstance(f, (CostUntil, CostRelease)):
            n += 1
            mine = n
            return type(f)(walk(f.left), walk(f.right), mine)
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, Next):
            return Next(walk(f.operand))
        return f

    return walk(phi)


# Constructors used by instantiate: constant folding is restricted to the
# unit laws below, anything more aggressive would change the shapes the
# rest of the pipeline (and its tests) expect.

def _mk_and(left: Formula, right: Formula) -> Formula:
    if isinstance(left, TrueF):
        return right
    if isinstance(right, TrueF):
        return left
    return And(left, right)


def _mk_or(left: Formula, right: Formula) -> Formula:
    if isinstance(left, FalseF):
        return right
    if isinstance(right, FalseF):
        return left
    return Or(left, right)


def _mk_until(left: Formula, right: Formula) -> Formula:
    if isinstance(left, FalseF):
        return right
    return Until(left, right)


def _mk_release(left: Formula, right: Formula) -> Formula:
    if isinstance(left, TrueF):
        return right
    return Release(left, right)


def instantiate(phi: Formula, n: int) -> Formula:
    """The plain LTL formula phi[n].

    For the U<= fragment, satisfaction of phi[n] means the value of phi is
    at most n; for the dual R> fragment (handled by negating, unfolding and
    negating back) it means the value is at least n.
    """
    if n < 0:
        raise ValueError("instantiation index must be nonnegative")
    frag = classify_fragment(phi)
    if frag == MIXED:
        raise FragmentError("cannot instantiate a formula mixing U<= and R>")
    if frag == COST_GT:
        return negate_dual(instantiate(negate_dual(phi), n))
    memo: dict[int, Formula] = {}
    return _inst(phi, n, memo)


def _inst(phi: Formula, n: int, memo: dict[int, Formula]) -> Formula:
    got = memo.get(id(phi))
    if got is not None:
        return got
    if isinstance(phi, (TrueF, FalseF, Lit)):
        out: Formula = phi
    elif isinstance(phi, And):
        out = _mk_and(_inst(phi.left, n, memo), _inst(phi.right, n, memo))
    elif isinstance(phi, Or):
        out = _mk_or(_inst(phi.left, n, memo), _inst(phi.right, n, memo))
    elif isinstance(phi, Next):
        out = Next(_inst(phi.operand, n, memo))
    elif isinstance(phi, Until):
        out = _mk_until(_inst(phi.left, n, memo), _inst(phi.right, n, memo))
    elif isinstance(phi, Release):
        out = _mk_release(_inst(phi.left, n, memo), _inst(phi.right, n, memo))
    elif isinstance(phi, CostUntil):
        # Nested cost operators are unfolded innermost first; once both
        # operands are plain LTL the counting operator itself unfolds.
        out = _unfold(_inst(phi.left, n, memo), _inst(phi.right, n, memo), n)
    else:
        raise FragmentError("R> cannot appear under a U<= instantiation")
    memo[id(phi)] = out
    return out


def _unfold(left: Formula, right: Formula, n: int) -> Formula:
    # (l U<= r)[0] = l U r, (l U<= r)[m+1] = (l or X (l U<= r)[m]) U r
    out = _mk_until(left, right)
    for _ in range(n):
        out = _mk_until(_mk_or(left, Next(out)), right)
    return out


def until_subformulas(phi: Formula) -> tuple[Until | CostUntil, ...]:
    """Distinct Until and U<= subformulas, in depth-first discovery order."""
    seen: list[Until | CostUntil] = []
    for f in subformulas(phi):
        if isinstance(f, (Until, CostUntil)) and f not in seen:
            seen.append(f)
    return tuple(seen)


def sort_key(phi: Formula) -> tuple[int, str]:
    """A total order on formulas, used to keep set iteration deterministic."""
    return (node_count(phi), _canon(phi))


def _canon(phi: Formula) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Lit):
        return phi.name if phi.positive else "!" + phi.name
    if isinstance(phi, Next):
        return f"X({_canon(phi.operand)})"
    tag = {And: "&", Or: "|", Until: "U", Release: "R"}.get(type(phi))
    if tag is None:
        tag = ("U<=" if isinstance(phi, CostUntil) else "R>") + f"[{phi.counter}]"
    return f"{tag}({_canon(phi.left)},{_canon(phi.right)})"


# -- parsing ---------------------------------------------------------------

_SIMPLE_TOKENS = {"(": "LPAREN", ")": "RPAREN", "&": "AND", "|": "OR", "!": "NOT"}
_WORD_OPS = {"U", "R", "X", "F", "G"}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _SIMPLE_TOKENS:
            tokens.append((_SIMPLE_TOKENS[c], c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            start_col = col
            col += j - i
            i = j
            if word in ("true", "false"):
                tokens.append((word.upper(), word, line, start_col))
            elif word in _WORD_OPS:
                # The counting variants are single tokens: U<=, R>, F<=, G>.
                if word in ("U", "F") and text.startswith("<=", i):
                    word += "<="
                    i += 2
                    col += 2
                elif word in ("R", "G") and text.startswith(">", i):
                    word += ">"
                    i += 1
                    col += 1
                tokens.append(("OP" + word, word, line, start_col))
            else:
                tokens.append(("IDENT", word, line, start_col))
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> FormulaSyntaxError:
        _, text, line, col = self.peek()
        shown = f"{message} (found {text!r})" if text else f"{message} (found end of input)"
        return FormulaSyntaxError(shown, line, col)

    def parse(self) -> Formula:
        phi = self.implication()
        if self.peek()[0] != "EOF":
            raise self.error("unexpected trailing input")
        return phi

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.take()
            return Or(negate_dual(left), self.implication())
        return left

    def disjunction(self) -> Formula:
        phi = self.conjunction()
        while self.peek()[0] == "OR":
            self.take()
            phi = Or(phi, self.conjunction())
        return phi

    def conjunction(self) -> Formula:
        phi = self.temporal()
        while self.peek()[0] == "AND":
            self.take()
            phi = And(phi, self.temporal())
        return phi

    def temporal(self) -> Formula:
        left = self.unary()
        kind = self.peek()[0]
        if kind in ("OPU", "OPR", "OPU<=", "OPR>"):
            self.take()
            right = self.temporal()  # right associative
            if kind == "OPU":
                return Until(left, right)
            if kind == "OPR":
                return Release(left, right)
            if kind == "OPU<=":
                return CostUntil(left, right)
            return CostRelease(left, right)
        return left

    def unary(self) -> Formula:
        kind = self.peek()[0]
        if kind == "OPX":
            self.take()
            return Next(self.unary())
        if kind == "OPF":
            self.take()
            return Until(TRUE, self.unary())
        if kind == "OPG":
            self.take()
            return Release(FALSE, self.unary())
        if kind == "OPF<=":
            self.take()
            return CostUntil(FALSE, self.unary())
        if kind == "OPG>":
            self.take()
            return CostRelease(TRUE, self.unary())
        if kind == "NOT":
            self.take()
            return negate_dual(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, text, _, _ = self.peek()
        if kind == "TRUE":
            self.take()
            return TRUE
        if kind == "FALSE":
            self.take()
            return FALSE
        if kind == "IDENT":
            self.take()
            return Lit(text)
        if kind == "LPAREN":
            self.take()
            phi = self.implication()
            if self.peek()[0] != "RPAREN":
                raise self.error("expected ')'")
            self.take()
            return phi
        raise self.error("expected a formula")


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax; F, G, F<=, G>, ! and -> are sugar."""
    return _Parser(_tokenize(text)).parse()


# -- printing --------------------------------------------------------------

_LVL_OR, _LVL_AND, _LVL_TEMP, _LVL_UNARY, _LVL_ATOM = 0, 1, 2, 3, 4


def format_formula(phi: Formula) -> str:
    """Print with minimal parentheses; reparsing yields the same formula
    (counter labels are not written)."""
    return _fmt(phi, _LVL_OR)


def _sugar(phi: Formula) -> tuple[str, Formula] | None:
    if isinstance(phi, Until) and phi.left == TRUE:
        return ("F", phi.right)
    if isinstance(phi, Release) and phi.left == FALSE:
        return ("G", phi.right)
    if isinstance(phi, CostUntil) and phi.left == FALSE:
        return ("F<=", phi.right)
    if isinstance(phi, CostRelease) and phi.left == TRUE:
        return ("G>", phi.right)
    return None


def _fmt(phi: Formula, need: int) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Lit):
        return phi.name if phi.positive else "!" + phi.name
    sweet = _sugar(phi)
    if sweet is not None:
        op, arg = sweet
        text = f"{op} {_unary_arg(arg)}"
        return text if need <= _LVL_UNARY else f"({text})"
    if isinstance(phi, Next):
        text = f"X {_unary_arg(phi.operand)}"
        return text if need <= _LVL_UNARY else f"({text})"
    if isinstance(phi, (Until, Release, CostUntil, CostRelease)):
        op = {Until: "U", Release: "R", CostUntil: "U<=", CostRelease: "R>"}[type(phi)]
        text = f"{_fmt(phi.left, _LVL_UNARY)} {op} {_fmt(phi.right, _LVL_TEMP)}"
        return text if need <= _LVL_TEMP else f"({text})"
    if isinstance(phi, And):
        text = f"{_fmt(phi.left, _LVL_AND)} & {_fmt(phi.right, _LVL_TEMP)}"
        return text if need <= _LVL_AND else f"({text})"
    if isinstance(phi, Or):
        text = f"{_fmt(phi.left, _LVL_OR)} | {_fmt(phi.right, _LVL_AND)}"
        return text if need <= _LVL_OR else f"({text})"
    raise TypeError(f"not a formula: {phi!r}")


def _unary_arg(arg: Formula) -> str:
    # Unary operands are parenthesized unless atomic; !a counts as atomic.
    if isinstance(arg, (TrueF, FalseF, Lit)):
        return _fmt(arg, _LVL_ATOM)
    return f"({_fmt(arg, _LVL_OR)})"
