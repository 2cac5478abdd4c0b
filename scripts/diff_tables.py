#!/usr/bin/env python3
"""Numeric diff of two directories of CLI tables (csv or json), such as two
runs of scripts/run_all_experiments.py.

    python scripts/diff_tables.py DIR_A DIR_B

Prints one line per file: `identical` when the bytes match; otherwise one
line per metadata key and per column that differs, with the number of rows
that differ, the largest absolute difference |a - b| and the largest
relative one |a - b| / max(|a|, |b|).  A column whose differing values all
changed sign also reports max |a + b|.  Exit code 0 when every file is
byte-identical, 1 otherwise.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def read_table(path: Path) -> tuple[dict, dict]:
    """(meta, columns) of a CLI table: columns maps each name to the list
    of its values as printed."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        rows = payload["rows"]
        names = list(rows[0]) if rows else []
        return payload["meta"], {k: [r[k] for r in rows] for k in names}
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and not body:
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    records = list(csv.reader(body))
    if not records:
        return meta, {}
    header, rows = records[0], records[1:]
    return meta, {k: [r[i] for r in rows] for i, k in enumerate(header)}


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def compare(a: list, b: list) -> str | None:
    """A one-line summary of how the values b differ from a, or None when
    they are equal as printed."""
    if len(a) != len(b):
        return f"rows {len(a)} vs {len(b)}"
    differ = [(x, y) for x, y in zip(a, b) if x != y]
    if not differ:
        return None
    pairs = [(_number(x), _number(y)) for x, y in differ]
    if any(x is None or y is None for x, y in pairs):
        shown = ", ".join(f"{x!r} -> {y!r}" for x, y in differ[:3])
        return f"{len(differ)}/{len(a)} differ: {shown}"
    abs_diff = max(abs(x - y) for x, y in pairs)
    rel_diff = max(abs(x - y) / max(abs(x), abs(y), 1e-300)
                   for x, y in pairs)
    line = (f"{len(differ)}/{len(a)} differ, max abs {abs_diff:.3g}, "
            f"max rel {rel_diff:.3g}")
    if all(x * y < 0 for x, y in pairs):
        flip = max(abs(x + y) for x, y in pairs)
        line += f", every change a sign flip (max |a + b| {flip:.3g})"
    return line


def diff_file(path_a: Path, path_b: Path) -> list[str]:
    """Lines describing how table b differs from table a."""
    if path_a.read_bytes() == path_b.read_bytes():
        return ["identical"]
    meta_a, cols_a = read_table(path_a)
    meta_b, cols_b = read_table(path_b)
    lines = []
    for key in sorted(set(meta_a) | set(meta_b)):
        if key not in meta_a or key not in meta_b:
            side = "A" if key in meta_a else "B"
            lines.append(f"meta {key}: only in {side}")
            continue
        if meta_a[key] != meta_b[key]:
            lines.append(f"meta {key}: {meta_a[key]} -> {meta_b[key]}")
    for name in list(cols_a) + [k for k in cols_b if k not in cols_a]:
        if name not in cols_a or name not in cols_b:
            lines.append(f"column {name}: only in "
                         f"{'A' if name in cols_a else 'B'}")
            continue
        note = compare(cols_a[name], cols_b[name])
        if note:
            lines.append(f"column {name}: {note}")
    return lines or ["bytes differ, values equal as printed"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    names = sorted({p.name for d in (args.dir_a, args.dir_b)
                    for p in d.iterdir() if p.suffix in (".csv", ".json")})
    same = True
    for name in names:
        path_a, path_b = args.dir_a / name, args.dir_b / name
        if not (path_a.exists() and path_b.exists()):
            print(f"{name}: only in {'A' if path_a.exists() else 'B'}")
            same = False
            continue
        lines = diff_file(path_a, path_b)
        same = same and lines == ["identical"]
        if len(lines) == 1:
            print(f"{name}: {lines[0]}")
        else:
            print(f"{name}:")
            for line in lines:
                print(f"  {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
