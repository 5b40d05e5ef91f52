#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, end-to-end metrics only.

    python3 scripts/paired_bench.py OLD_TREE NEW_TREE --workload value-corpus \\
        --pairs 10 --seconds 20 --seed 601

Each pair runs every tree's own `bench/run.py --workload W --seed K
--seconds S --trace 0` once, in a fresh process started in that tree, the
old tree first in even pairs and the new one first in odd pairs, so that
neither always runs on a warmer or a busier machine.  The runs set
PYTHONDONTWRITEBYTECODE=1, so that `setup_s` times the same import in
both trees.  The script reads nothing of a tree but its `bench/`.

It prints one line per end-to-end metric: the old tree's median
[quartiles], the new tree's, the change of the medians, and in how many
pairs the new tree did better (higher `queries_per_s` and
`answered_share`, lower everything else).  A run that was not `correct`
or failed a query is listed first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HIGHER_IS_BETTER = {"queries_per_s", "answered_share"}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object that the tree's bench/run.py prints last."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=tree,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if done.returncode != 0:
        raise SystemExit(f"{tree}: bench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(pairs: list[tuple[dict, dict]]) -> list[str]:
    """The report's lines for (old result, new result) pairs."""
    lines = []
    for k, pair in enumerate(pairs):
        for side, result in zip(("old", "new"), pair):
            if not result["correct"] or result["failed"]:
                lines.append(f"pair {k} {side}: correct {result['correct']},"
                             f" failed {result['failed']} of {result['attempted']}")
    for name in pairs[0][0]["metrics"]:
        old = [a["metrics"][name]["value"] for a, _ in pairs]
        new = [b["metrics"][name]["value"] for _, b in pairs]
        sign = 1 if name in HIGHER_IS_BETTER else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (m0, lo0, hi0), (m1, lo1, hi1) = _spread(old), _spread(new)
        change = f"{(m1 - m0) / m0:+.1%}" if m0 else "n/a"
        lines.append(
            f"{name}: {m0:.4g} [{lo0:.4g}, {hi0:.4g}] -> {m1:.4g} [{lo1:.4g}, {hi1:.4g}]"
            f" ({change}), new better in {wins}/{len(pairs)}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the parent's checkout")
    parser.add_argument("new", type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=601)
    args = parser.parse_args(argv)
    trees = (args.old.resolve(), args.new.resolve())
    pairs = []
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        got = {i: run_once(trees[i], args.workload, args.seed, args.seconds) for i in order}
        pairs.append((got[0], got[1]))
        rates = [got[i]["metrics"]["queries_per_s"]["value"] for i in (0, 1)]
        print(f"pair {k}: queries_per_s {rates[0]:.4g} -> {rates[1]:.4g}",
              file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print("\n".join(summarize(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
