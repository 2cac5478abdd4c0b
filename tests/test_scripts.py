import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from susyspectra.cli import main

_ROOT = Path(__file__).resolve().parent.parent


def _diff_tables(dir_a: Path, dir_b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "diff_tables.py"),
         str(dir_a), str(dir_b)],
        capture_output=True, text=True, timeout=60)


def test_diff_tables_reports_identical_and_edited(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    table = dir_a / "spectrum_pt.json"
    assert main(["spectrum", "--family", "pt", "--format", "json",
                 "--reproducible", "--output", str(table)]) == 0
    shutil.copy(table, dir_b / table.name)

    same = _diff_tables(dir_a, dir_b)
    assert same.returncode == 0, same.stderr
    assert same.stdout == "spectrum_pt.json: identical\n"

    # the sech well's level 1 at mu = 4 is 7: moved by 0.5, relative to 7.5
    payload = json.loads(table.read_text())
    payload["rows"][1]["energy"] = "7.5"
    (dir_b / table.name).write_text(json.dumps(payload, indent=2,
                                               sort_keys=True) + "\n")
    edited = _diff_tables(dir_a, dir_b)
    assert edited.returncode == 1, edited.stderr
    assert edited.stdout == ("spectrum_pt.json: column energy: 1/4 differ, "
                             "max abs 0.5, max rel 0.0667\n")


def test_convergence_study_rows_for_both_grids(monkeypatch, tmp_path):
    # one row per family, spacing and stretch; the stretched grid at the
    # default x-spacing is the default grid, with fewer nodes than the
    # uniform one at the same spacing
    monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
    study = importlib.import_module("convergence_study")
    out = tmp_path / "conv.csv"
    monkeypatch.setattr(sys, "argv", ["convergence_study.py", "--out",
                                      str(out)])
    study.main()
    header, *lines = out.read_text().splitlines()
    assert header == "family,stretch,n_nodes,h,status,max_abs_error,seconds"
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 2 * 2 * len(study.SPACINGS)
    at_default = {(r["family"], r["stretch"]): r for r in rows
                  if abs(float(r["h"]) - 0.065) < 1e-3}
    assert {key: r["n_nodes"] for key, r in at_default.items()} == {
        ("morse", "0"): "421", ("morse", "1.5"): "121",
        ("pt", "0"): "619", ("pt", "1.5"): "171"}
    for r in at_default.values():
        assert r["status"] == "ok" and float(r["max_abs_error"]) < 1e-12


def _bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
    return importlib.import_module("bench_pairs")


def test_bench_pairs_summary(monkeypatch):
    # canned last lines of perfbench/run.py: B is faster in two of three
    # pairs, equal in digits, and the summary counts wins per direction
    bench_pairs = _bench_pairs(monkeypatch)
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]

    def line(wall, digits, correct=True):
        return ("# noise\n" + json.dumps({
            "correct": correct, "attempted": 4, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "digits": {"value": digits, "unit": "digits"}}}))

    pairs = [(bench_pairs.parse_result(line(a, 8.0)),
              bench_pairs.parse_result(line(b, 8.0, ok)))
             for a, b, ok in ((1.0, 0.8, True), (1.2, 0.9, True),
                              (0.9, 1.0, False))]
    out = bench_pairs.summarise(pairs, {"wall_s": "lower",
                                        "digits": "higher"})
    assert out == [
        "digits: A median 8 [8, 8], B median 8 [8, 8], change +0.0%, "
        "|shift| 0 vs A IQR 0, B better in 0/3",
        "wall_s: A median 1 [0.95, 1.1], B median 0.9 [0.85, 0.95], "
        "change -10.0%, |shift| 0.1 vs A IQR 0.15, B better in 2/3",
        "correct: 2/3 pairs on both sides"]


def test_bench_pairs_counts_strict_wins_in_each_direction(monkeypatch):
    # wall_s: B lower in pair 1, tied in pair 2, higher in pair 3; digits:
    # B higher in pair 1, tied in pair 2, lower in pair 3
    bench_pairs = _bench_pairs(monkeypatch)
    pairs = [({"wall_s": a, "digits": da, "correct": True},
              {"wall_s": b, "digits": db, "correct": ok})
             for a, b, da, db, ok in ((1.0, 0.9, 8.0, 9.0, True),
                                      (1.0, 1.0, 8.0, 8.0, True),
                                      (1.0, 1.1, 8.0, 7.0, False))]
    out = bench_pairs.summarise(pairs, {"wall_s": "lower",
                                        "digits": "higher"})
    assert [line.rsplit(", ", 1)[1] for line in out[:2]] == [
        "B better in 1/3", "B better in 1/3"]
    assert out[0].startswith("digits:") and out[1].startswith("wall_s:")
    assert out[2] == "correct: 2/3 pairs on both sides"
    # every pair tied: no wins on either side
    tied = bench_pairs.summarise(pairs[1:2] * 2, {"wall_s": "lower",
                                                  "digits": "higher"})
    assert [line.rsplit(", ", 1)[1] for line in tied[:2]] == [
        "B better in 0/2", "B better in 0/2"]


def test_bench_pairs_verdicts(monkeypatch):
    # A's wall_s steps by 0.01 (IQR 0.045 over 10 pairs): a gain is resolved
    # only with 10 pairs or more, 9 in 10 of them won, and a shift of the
    # medians above that IQR
    bench_pairs = _bench_pairs(monkeypatch)
    better = {"wall_s": "lower", "digits": "higher"}

    def verdict(shift, losses=0, count=10):
        a = [1.0 + 0.01 * i for i in range(count)]
        b = [x + 0.001 if i < losses else x - shift for i, x in enumerate(a)]
        pairs = [({"wall_s": x, "digits": 9.0, "correct": True},
                  {"wall_s": y, "digits": 9.0 + shift, "correct": True})
                 for x, y in zip(a, b)]
        lines = bench_pairs.verdicts(pairs, better)
        assert lines[0].startswith("digits verdict: ")
        return [line.split(": ", 1)[1] for line in lines]

    assert verdict(0.1) == ["gain resolved", "gain resolved"]
    assert verdict(0.1, losses=1) == ["gain resolved", "gain resolved"]
    assert verdict(0.1, losses=2)[1] == "unresolved"
    # digits: A reads 9 in every pair, so its IQR is 0
    assert verdict(0.01) == ["gain resolved", "unresolved"]
    assert verdict(0.1, count=4) == ["unresolved", "unresolved"]
    assert verdict(0.2, count=20, losses=2) == ["gain resolved"] * 2
    assert verdict(0.2, count=20, losses=3)[1] == "unresolved"


def test_bench_pairs_context_line(monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch)
    line = bench_pairs.context_line({"OPENBLAS_NUM_THREADS": "1"})
    cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
    assert line == (f"cpus {cpus}; OPENBLAS_NUM_THREADS=1, "
                    "OMP_NUM_THREADS=unset; PYTHONDONTWRITEBYTECODE=unset")
    # set, every import behind setup_s compiles the sources afresh
    line = bench_pairs.context_line({"PYTHONDONTWRITEBYTECODE": "1"})
    assert line.endswith("; OPENBLAS_NUM_THREADS=unset, "
                         "OMP_NUM_THREADS=unset; PYTHONDONTWRITEBYTECODE=1")


def test_bench_pairs_failed_run_named(monkeypatch, tmp_path, capsys):
    # a run that exits non-zero stops the script with its seed, side, exit
    # code and stderr tail; the runs are stand-ins, no subprocess starts
    bench_pairs = _bench_pairs(monkeypatch)
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    shutil.copy(_ROOT / "BENCHMARK.json", tmp_path / "a")
    ok = json.dumps({"correct": True,
                     "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}})

    def run_once(tree, workload, seed, seconds):
        failed = tree.name == "b" and seed == 2
        return subprocess.CompletedProcess(
            [], 3 if failed else 0, stdout="" if failed else ok,
            stderr="Traceback (most recent call last):\nValueError: boom\n"
            if failed else "")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "b"),
                             "--workload", "transform",
                             "--seeds", "1-2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("cpus ")
    assert out[1].startswith("seed 1 (A then B): wall_s 1 -> 1")
    assert out[2:] == ["seed 2 side B: exit 3",
                       "  Traceback (most recent call last):",
                       "  ValueError: boom"]
