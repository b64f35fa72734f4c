#!/usr/bin/env python3
"""Check that two sweep CSVs agree in every column except `seconds`.

    python3 scripts/diff_sweeps.py A.csv B.csv

Cells are compared as the text `harness.emit_csv` wrote, so two floats
agree only when they are the same float64 (Python's repr round-trips).
Exits 0 and prints "identical" when the files agree; exits 1 and names
every differing cell (row, column, both values), one per line, when they
do not, or when their headers or row counts differ.  Exits 2 with one
line on stderr when a file cannot be read, and with this usage when not
given two files.
"""

import csv
import sys

IGNORED = {"seconds"}  # wall-clock time differs between any two runs


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def differences(a_rows, b_rows):
    """One message per differing cell, in row-major order; [] when the files agree."""
    if not a_rows or not b_rows:
        return ["a file is empty"]
    header = a_rows[0]
    if b_rows[0] != header:
        return [f"headers differ: {header} vs {b_rows[0]}"]
    if len(a_rows) != len(b_rows):
        return [f"row counts differ: {len(a_rows) - 1} vs {len(b_rows) - 1}"]
    found = []
    for row, (a, b) in enumerate(zip(a_rows[1:], b_rows[1:]), start=1):
        if len(a) != len(b):
            found.append(f"row {row}: {len(a)} vs {len(b)} cells")
            continue
        found += [
            f"row {row} ({' '.join(a[:3])}), column {column}: {x} vs {y}"
            for column, x, y in zip(header, a, b)
            if column not in IGNORED and x != y
        ]
    return found


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        rows = [read_rows(path) for path in argv]
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        print(f"cannot read a sweep CSV: {e}", file=sys.stderr)
        return 2
    found = differences(*rows)
    for diff in found:
        print(f"differ: {diff}")
    if found:
        return 1
    print("identical (every column but seconds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
