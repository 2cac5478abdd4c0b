import json
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
