"""Print the largest absolute difference of every CSV column between two sets
of runs.

    python3 tools/csvdelta.py DIR_A DIR_B

``DIR_A`` and ``DIR_B`` hold one directory per run, each with the CLI's
``moments.csv`` and ``errors.csv``, as ``tools/bitcheck.py --out DIR``
leaves them. For every run directory found in both, and each of the two
files, the script prints one line,

    <run> <file> <column>=<delta> <column>=<delta> ...

where ``<delta>`` is ``=`` when the column's text is the same in both, and
otherwise the largest absolute difference of its values (the trailing
``GLOBAL`` row of ``errors.csv`` included). A run found in one directory
only, or a file whose header or row count differs, is reported on its own
line, and the script then exits 1.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

FILES = ("moments.csv", "errors.csv")


def read(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def column_deltas(a: list[list[str]], b: list[list[str]]) -> list[tuple[str, str]]:
    """(column, delta) of two CSVs with the same header and row count."""
    deltas = []
    for c, name in enumerate(a[0]):
        worst, same = 0.0, True
        for row_a, row_b in zip(a[1:], b[1:]):
            if row_a[c] == row_b[c]:
                continue
            same = False
            worst = max(worst, abs(float(row_a[c]) - float(row_b[c])), key=_order)
        deltas.append((name, "=" if same else f"{worst:.3g}"))
    return deltas


def _order(value: float) -> float:
    # A NaN difference ranks above every number, so it is the one shown.
    return math.inf if math.isnan(value) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    runs_a = {p.name for p in args.dir_a.iterdir() if p.is_dir()}
    runs_b = {p.name for p in args.dir_b.iterdir() if p.is_dir()}
    failed = False
    for run in sorted(runs_a ^ runs_b):
        failed = True
        side = args.dir_a if run in runs_a else args.dir_b
        print(f"{run} only in {side}")
    for run in sorted(runs_a & runs_b):
        for name in FILES:
            a, b = read(args.dir_a / run / name), read(args.dir_b / run / name)
            if a[0] != b[0] or len(a) != len(b):
                failed = True
                print(f"{run} {name} differs in header or row count ({len(a)} / {len(b)} rows)")
                continue
            cells = " ".join(f"{column}={delta}" for column, delta in column_deltas(a, b))
            print(f"{run} {name} {cells}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
