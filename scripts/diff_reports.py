#!/usr/bin/env python3
"""Compare two outputs of `scripts/report_matrix.py` query by query.

    python3 scripts/diff_reports.py A.jsonl B.jsonl

The two files hold one JSON report per line, in the same query order.
The script prints, for each field, how many lines differ in it, then
for each differing line its argv and, per changed field, the value in A
and the value in B.  A field missing from one side reads as null.  It
exits 0 when the files agree and 1 when some line differs.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path


def diff(a_lines: list[str], b_lines: list[str]) -> tuple[Counter, list[tuple]]:
    """Per-field counts of differing lines, and (argv, {field: (a, b)})
    for each differing line.  A line present on one side only counts as
    differing in every field it has."""
    counts: Counter = Counter()
    changed = []
    for k in range(max(len(a_lines), len(b_lines))):
        a = json.loads(a_lines[k]) if k < len(a_lines) else {}
        b = json.loads(b_lines[k]) if k < len(b_lines) else {}
        fields = {f: (a.get(f), b.get(f)) for f in sorted(a.keys() | b.keys())
                  if a.get(f) != b.get(f)}
        if fields:
            counts.update(fields.keys())
            changed.append((a.get("argv", b.get("argv")), fields))
    return counts, changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: diff_reports.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    a_lines, b_lines = (Path(path).read_text().splitlines() for path in argv)
    counts, changed = diff(a_lines, b_lines)
    print(f"{len(changed)} of {max(len(a_lines), len(b_lines))} lines differ")
    for field, count in sorted(counts.items()):
        print(f"  {field}: {count}")
    for query, fields in changed:
        print()
        print(" ".join(map(str, query or ())))
        for field, (a, b) in fields.items():
            print(f"  {field}: {json.dumps(a)} -> {json.dumps(b)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
