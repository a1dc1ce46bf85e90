#!/usr/bin/env python3
"""Compare two output trees of scripts/reference_outputs.sh column by column.

    scripts/compare_outputs.py OUT_A OUT_B

For every CSV file of the two trees it prints one line per numeric column
(a column whose non-empty cells all parse as numbers on both sides) with
the largest |a - b|, that move relative to max|a| of the column, and
relative to the column's spread max(a) - min(a); a file whose bytes agree
prints one line, "identical".  A relative figure whose scale is 0 prints
as "-".  Text columns are compared cell by cell.

Exits 1 when a file exists in one tree only, when two CSV files differ in
header or shape, or when a text cell (a scheme name, a verdict) or the
emptiness of a cell differs; else 0.  Other files (stdout.txt, meta.json)
are only checked for presence: ``diff`` compares them.
"""

import csv
import math
import pathlib
import sys


def read_csv(path: pathlib.Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def as_number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative(move: float, scale: float) -> str:
    return f"{move / scale:.3e}" if scale > 0.0 else "-"


def compare_csv(name: str, path_a: pathlib.Path,
                path_b: pathlib.Path) -> bool:
    """Print the column report of one CSV pair; False on a structural
    difference."""
    if path_a.read_bytes() == path_b.read_bytes():
        print(f"{name}: identical")
        return True
    head_a, rows_a = read_csv(path_a)
    head_b, rows_b = read_csv(path_b)
    if head_a != head_b:
        print(f"{name}: headers differ: {head_a} vs {head_b}")
        return False
    shape_a = [len(r) for r in rows_a]
    if shape_a != [len(r) for r in rows_b]:
        print(f"{name}: shapes differ: {len(rows_a)} vs {len(rows_b)} rows")
        return False
    ok = True
    for j, column in enumerate(head_a):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)]
        if any((a == "") != (b == "") for a, b in pairs):
            print(f"{name}:{column}: empty cells differ")
            ok = False
            continue
        cells = [(a, b) for a, b in pairs if a != ""]
        numbers = [(as_number(a), as_number(b)) for a, b in cells]
        if any(a is None or b is None for a, b in numbers):
            moved = sum(a != b for a, b in cells)
            if moved:
                print(f"{name}:{column}: {moved} text cells differ")
                ok = False
            continue
        if not numbers:
            continue
        move = max(0.0 if a == b else abs(a - b) for a, b in numbers)
        values = [a for a, _ in numbers if math.isfinite(a)]
        top = max((abs(a) for a in values), default=0.0)
        spread = max(values, default=0.0) - min(values, default=0.0)
        print(f"{name}:{column}: max|a-b| {move:.3e}, rel. max|a| "
              f"{relative(move, top)}, rel. spread {relative(move, spread)}")
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py OUT_A OUT_B", file=sys.stderr)
        return 2
    root_a, root_b = (pathlib.Path(p) for p in argv)
    files_a, files_b = ({p.relative_to(root) for p in root.rglob("*")
                         if p.is_file()} for root in (root_a, root_b))
    ok = True
    for name in sorted(files_a ^ files_b):
        side = root_a if name in files_a else root_b
        print(f"{name}: only in {side}")
        ok = False
    for name in sorted(files_a & files_b):
        if name.suffix == ".csv":
            ok &= compare_csv(str(name), root_a / name, root_b / name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
