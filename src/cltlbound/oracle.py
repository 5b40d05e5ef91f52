"""Reference evaluation on lasso words, straight from the semantics.

This module is the ground truth the rest of the pipeline is tested
against, so it stays independent of the automaton machinery.  Every
formula is evaluated by one table per subformula over the finitely many
lasso positions, filled by backward sweeps: plain LTL operators as
fixpoints of their one-step unrolling, and `l U<= r` by counting.

Counting tables.  `(l U<= r)[n]` holds at position i exactly when `l`
fails at most n times from i up to the first `r` at or after i.  That
count is 0 where `r` holds, one more than its successor's where `l`
fails, the successor's otherwise, and infinite where no `r` follows.
So `phi[n]` is evaluated directly at level n, without building the
instantiated formula, whose size grows with n.  An R> formula is the
dual of a U<= one, and is evaluated through `negate_dual`, as
`instantiate` unfolds it.

Level-free tables.  Only the tables on the paths from the root down to
the counting operators depend on n.  A `value_inf` or `value_sup` call
keeps the rest for all of its probes (`_Tables`, made once per call,
after the R> dual): the table of every subformula that holds no U<=,
and the failure counts of every U<= whose operands hold none, which a
probe only compares with n.  A probe rebuilds the tables of the U<=
nodes and of the subformulas above them, nothing else.

Why bisection is exact.  A finite count is at most the number of
positions |w|: the first `r` after a position comes within one turn of
the cycle.  So for n >= |w| every table is the same as at |w|, and a
value is either at most |w| or infinite.  phi[n] at n = min(cap, |w|)
thus answers as phi[cap] does, and satisfaction is monotone in n (upward
for U<=, downward for R>), so a bisection below that level finds the
exact value.  Nothing costs more for a larger cap.
"""

from __future__ import annotations

import math

from .formula import (
    COST_GT,
    COST_LE,
    LTL,
    MIXED,
    And,
    CostUntil,
    FalseF,
    Formula,
    FragmentError,
    Lit,
    Next,
    Or,
    Release,
    TrueF,
    Until,
    children,
    classify_fragment,
    instantiate,  # noqa: F401  kept importable here for bench/tracing.py
    negate_dual,
)
from .words import ABOVE_CAP, LassoWord


def eval_ltl_on_lasso(
    phi: Formula, word: LassoWord, n: int | None = None, tables: _Tables | None = None
) -> bool:
    """Does the lasso word satisfy phi at position 0?

    Without n, phi must be plain LTL.  With n, phi may also count, and
    the question is whether the word satisfies phi[n].  tables, made by
    `value_inf` or `value_sup`, keeps the level-free tables from one level
    to the next; unless made for this very phi and word, they are built
    here."""
    if n is not None and n < 0:
        raise ValueError("evaluation level must be nonnegative")
    if tables is None or tables.source is not phi or tables.word is not word:
        frag = classify_fragment(phi)
        if n is None and frag != LTL:
            raise FragmentError("lasso evaluation without a level handles plain LTL only")
        if frag == MIXED:
            raise FragmentError("cannot evaluate a formula mixing U<= and R>")
        tables = _Tables(phi, word, frag == COST_GT)
    return _table(tables.phi, tables, n, {})[0] != tables.dual


class _Tables:
    """One formula's level-free tables over one lasso word.  phi is the
    source formula, dualised when it is an R> one; fixed keeps the table
    of each subformula holding no U<=, and counts the failure counts of
    each U<= whose operands hold none."""

    def __init__(self, phi: Formula, word: LassoWord, dual: bool):
        self.source, self.word, self.dual = phi, word, dual
        self.phi = negate_dual(phi) if dual else phi
        self.letters, self.pre = word.prefix + word.cycle, len(word.prefix)
        self.fixed: dict[int, list[bool]] = {}
        self.counts: dict[int, list] = {}


def _table(phi: Formula, w: _Tables, n: int | None, memo) -> list[bool]:
    """phi's table at level n; memo keeps the level's other tables."""
    key = id(phi)
    got = w.fixed.get(key) or memo.get(key)  # a table is never empty
    if got is not None:
        return got
    letters, pre = w.letters, w.pre
    total = len(letters)
    if isinstance(phi, TrueF):
        out = [True] * total
    elif isinstance(phi, FalseF):
        out = [False] * total
    elif isinstance(phi, Lit):
        out = [(phi.name in letters[i]) == phi.positive for i in range(total)]
    elif isinstance(phi, And):
        l, r = _table(phi.left, w, n, memo), _table(phi.right, w, n, memo)
        out = [a and b for a, b in zip(l, r)]
    elif isinstance(phi, Or):
        l, r = _table(phi.left, w, n, memo), _table(phi.right, w, n, memo)
        out = [a or b for a, b in zip(l, r)]
    elif isinstance(phi, Next):
        v = _table(phi.operand, w, n, memo)
        out = [v[i + 1] if i + 1 < total else v[pre] for i in range(total)]
    elif isinstance(phi, (Until, Release)):
        a, b = _table(phi.left, w, n, memo), _table(phi.right, w, n, memo)
        if isinstance(phi, Until):
            out = _sweep(pre, total, False, lambda i, x: b[i] or (a[i] and x))
        else:
            out = _sweep(pre, total, True, lambda i, x: b[i] and (a[i] or x))
    elif isinstance(phi, CostUntil):
        count = w.counts.get(key)
        if count is None:
            a, b = _table(phi.left, w, n, memo), _table(phi.right, w, n, memo)
            # failures of the left operand before the first right operand
            count = _sweep(pre, total, math.inf, lambda i, x: 0 if b[i] else x + (not a[i]))
            if id(phi.left) in w.fixed and id(phi.right) in w.fixed:
                w.counts[key] = count
        memo[key] = out = [c <= n for c in count]
        return out
    else:
        # R> never gets here: eval_ltl_on_lasso dualises it or rejects it
        raise TypeError(f"not a formula: {phi!r}")
    if all(id(c) in w.fixed for c in children(phi)):
        w.fixed[key] = out
    else:
        memo[key] = out
    return out


def _sweep(pre: int, total: int, init, step) -> list:
    """The solution of x[i] = step(i, x[next(i)]) reached from init.

    Until starts from false (the least fixpoint), Release from true (the
    greatest) and the failure count from infinity (the least count).  Two
    backward sweeps of the cycle reach the fixpoint: the first settles
    windows inside one turn, the second carries the wrap-around, and no
    satisfying (or violating) window needs more.  One sweep of the prefix
    then finishes."""
    x = [init] * total
    for _ in range(2):
        for i in range(total - 1, pre - 1, -1):
            x[i] = step(i, x[pre] if i == total - 1 else x[i + 1])
    for i in range(pre - 1, -1, -1):
        x[i] = step(i, x[i + 1])
    return x


def _least_level(test, lo: int, hi: int) -> int | None:
    """The least level in [lo, hi] at which test holds, found by bisection;
    None when it fails at hi.  test must hold at every level above one
    where it holds."""
    if not test(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def value_inf(phi: Formula, word: LassoWord, cap: int):
    """Min-counting value: the least n with word |= phi[n], up to cap;
    ABOVE_CAP when none is satisfied up to it."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if classify_fragment(phi) not in (LTL, COST_LE):
        raise FragmentError("value_inf takes a U<= (or plain LTL) formula")
    tables = _Tables(phi, word, False)
    n = _least_level(
        lambda n: eval_ltl_on_lasso(phi, word, n, tables), 0, min(cap, word.positions())
    )
    return ABOVE_CAP if n is None else n


def value_sup(phi: Formula, word: LassoWord, cap: int):
    """Max-counting value: the greatest n with word |= phi[n].

    Satisfaction is downward closed in n, so the value is one less than
    the least level from 1 on that fails: 0 when level 1 fails (whether
    or not level 0 does), and ABOVE_CAP when none fails up to cap (the
    value is cap or more, possibly infinite).

    A plain formula is read the R> way: ABOVE_CAP where it holds and 0
    where it fails.  That is the dual of the convention every mode uses (0
    where it holds, infinite where it fails, as `value_inf` reads it), and
    no query passes one here: the duality tests of `tests/test_oracle.py`
    pass the plain duals of U<= formulas without a counter, and rely on
    this reading.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    frag = classify_fragment(phi)
    if frag not in (LTL, COST_GT):
        raise FragmentError("value_sup takes an R> (or plain LTL) formula")
    tables = _Tables(phi, word, frag == COST_GT)
    n = _least_level(
        lambda n: not eval_ltl_on_lasso(phi, word, n, tables), 1, min(cap, word.positions())
    )
    return ABOVE_CAP if n is None else n - 1
