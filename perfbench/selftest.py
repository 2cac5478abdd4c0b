#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and metric names.

    python3 perfbench/selftest.py

A spectrum table at the closed form must pass the gate; the same table with
one level moved by 1e-2, or with one level removed, or cut short, must fail.
The metric names `run.py` prints must be the ones `BENCHMARK.json` lists.
`run.py` repeats the gate part at the start of every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402


def _spectrum_table(levels: list[float]) -> str:
    meta = {"tool": "susyspectra", "experiment": "spectrum", "family": "morse",
            "potential": "shifted", "lambda": "4.5", "gamma": "1",
            "bound_count": str(len(levels))}
    rows = [{"index": str(i), "energy": f"{e:.12g}"}
            for i, e in enumerate(levels)]
    return json.dumps({"meta": meta, "rows": rows})


def gate_problems() -> list[str]:
    exact = gate.closed_form(4.0)
    near = [e + 1e-4 for e in exact]
    moved = list(near)
    moved[2] += 1e-2
    cases = [
        ("closed form + 1e-4", _spectrum_table(near), True),
        ("one level moved by 1e-2", _spectrum_table(moved), False),
        ("one level removed", _spectrum_table(near[:-1]), False),
        ("truncated table", _spectrum_table(near)[:-20], False),
    ]
    problems = []
    for label, table, should_pass in cases:
        verdict = gate.check_op("spectrum", "morse", 0, table, "")
        if verdict.passed != should_pass:
            problems.append(f"gate self-test: {label} "
                            f"{'failed' if should_pass else 'passed'}")
    if gate.check_op("spectrum", "morse", 3, None, "GridTooSmallError").passed:
        problems.append("gate self-test: exit 3 passed")
    return problems


def name_problems() -> list[str]:
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if listed != layers.PER_LAYER:
        problems.append("per_layer names or units differ from layers.py: "
                        f"{sorted(set(listed.items()) ^ set(layers.PER_LAYER.items()))}")
    return problems


def main() -> int:
    problems = gate_problems() + name_problems()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
