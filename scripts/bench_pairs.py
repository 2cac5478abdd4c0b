#!/usr/bin/env python3
"""Alternated A/B pairs of the benchmark on two source trees.

    python scripts/bench_pairs.py DIR_A DIR_B --workload transform \\
        --seeds 1-6

For each seed, runs ``perfbench/run.py --workload W --seed S --trace 0``
once on each tree, the side that goes first alternating from one seed to
the next, each run as long as the ``run_seconds`` of A's
``BENCHMARK.json``.  Every run starts from a fresh copy of its tree
without ``__pycache__``, ``.bench_work`` or ``.git``, so both sides import
against the same (empty) bytecode cache.  Prints first the CPUs the runs
may use and the BLAS/OpenMP thread settings they inherit (on 2 CPUs the
``transform`` figures read the same, within run-to-run spread, at
``OPENBLAS_NUM_THREADS=1`` and unset) and whether
``PYTHONDONTWRITEBYTECODE`` is set, then each pair's metrics and then,
per metric, the medians and quartiles of both sides, the change of the
medians against the spread (interquartile range) of A's runs, and the
number of pairs in which B beats A, and last one verdict per metric: "gain
resolved" with at least 10 pairs, B better in at least 9 of 10 and the
change of the medians larger than A's interquartile range, "unresolved"
otherwise.  The direction of "better" also comes from A's
``BENCHMARK.json``.  A run that exits non-zero stops the script
with exit code 1, after printing its seed, side, exit code and the tail of
its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_SKIP = shutil.ignore_patterns("__pycache__", ".bench_work", ".git")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_TAIL = 10  # stderr lines shown of a failed run
_MIN_PAIRS = 10  # fewest pairs that can resolve a gain


def context_line(environ=os.environ) -> str:
    """The CPUs this process may run on, the thread settings the runs
    inherit and PYTHONDONTWRITEBYTECODE: set, the import probe behind
    ``setup_s`` compiles every source file on each import (~30 ms of
    ~120 ms on a 2-CPU machine)."""
    cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
    threads = ", ".join(f"{k}={environ.get(k, 'unset')}"
                        for k in _THREAD_VARS)
    bytecode = environ.get("PYTHONDONTWRITEBYTECODE", "unset")
    return f"cpus {cpus}; {threads}; PYTHONDONTWRITEBYTECODE={bytecode}"


def parse_seeds(text: str) -> list[int]:
    """'1-6' or '1,3,5' (or a mix, '1-3,7') as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_result(stdout: str) -> dict:
    """The metric values of a run: its last stdout line is one JSON
    object, {"correct": ..., "metrics": {name: {"value": v, ...}}}."""
    payload = json.loads(stdout.strip().splitlines()[-1])
    values = {k: m["value"] for k, m in payload["metrics"].items()}
    values["correct"] = bool(payload["correct"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _compare(pairs: list[tuple[dict, dict]], name: str, better: str):
    """(A quartiles, B quartiles, wins) of one metric over the pairs; a
    pair counts as a win when B is strictly better than A."""
    a = [p[0][name] for p in pairs]
    b = [p[1][name] for p in pairs]
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    return quartiles(a), quartiles(b), wins


def _metrics(pairs: list[tuple[dict, dict]]) -> list[str]:
    return [name for name in sorted(pairs[0][0]) if name != "correct"]


def summarise(pairs: list[tuple[dict, dict]],
              better: dict[str, str]) -> list[str]:
    """Per-metric summary lines of (A, B) result pairs.  better maps a
    metric to "lower" or "higher"."""
    lines = []
    for name in _metrics(pairs):
        (a1, am, a3), (b1, bm, b3), wins = _compare(
            pairs, name, better.get(name, "lower"))
        change = (bm - am) / abs(am) if am else 0.0
        lines.append(
            f"{name}: A median {am:.6g} [{a1:.6g}, {a3:.6g}], "
            f"B median {bm:.6g} [{b1:.6g}, {b3:.6g}], "
            f"change {change:+.1%}, |shift| {abs(bm - am):.3g} vs A IQR "
            f"{a3 - a1:.3g}, B better in {wins}/{len(pairs)}")
    correct = sum(p[0]["correct"] and p[1]["correct"] for p in pairs)
    lines.append(f"correct: {correct}/{len(pairs)} pairs on both sides")
    return lines


def verdicts(pairs: list[tuple[dict, dict]],
             better: dict[str, str]) -> list[str]:
    """One line per metric: "gain resolved" when there are at least
    _MIN_PAIRS pairs, B is better in at least 9 of 10 of them and the
    medians differ by more than A's interquartile range; "unresolved"
    otherwise."""
    lines = []
    for name in _metrics(pairs):
        (a1, am, a3), (_, bm, _), wins = _compare(
            pairs, name, better.get(name, "lower"))
        resolved = (len(pairs) >= _MIN_PAIRS and 10 * wins >= 9 * len(pairs)
                    and abs(bm - am) > a3 - a1)
        lines.append(f"{name} verdict: "
                     + ("gain resolved" if resolved else "unresolved"))
    return lines


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> subprocess.CompletedProcess:
    """One benchmark run on a fresh copy of tree."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_SKIP)
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True)


def load_spec(tree: Path) -> tuple[float, dict[str, str]]:
    """A tree's benchmark run length and each metric's "better"."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return (spec["run_seconds"],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    args = ap.parse_args(argv)
    seconds, better = load_spec(args.dir_a)
    print(context_line(), flush=True)
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        got = {}
        for side in order:
            done = run_once(args.dir_a if side == "A" else args.dir_b,
                            args.workload, seed, seconds)
            if done.returncode:
                tail = done.stderr.strip().splitlines()[-_TAIL:]
                print(f"seed {seed} side {side}: exit {done.returncode}",
                      *(f"  {line}" for line in tail), sep="\n")
                return 1
            got[side] = parse_result(done.stdout)
        pairs.append((got["A"], got["B"]))
        print(f"seed {seed} ({' then '.join(order)}): "
              + ", ".join(f"{k} {got['A'][k]:.6g} -> {got['B'][k]:.6g}"
                          for k in sorted(got["A"]) if k != "correct"),
              flush=True)
    for line in summarise(pairs, better) + verdicts(pairs, better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
