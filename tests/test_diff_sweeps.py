"""scripts/diff_sweeps.py: two sweep CSVs agree in every column but seconds; and both sweep
scripts reject a path they cannot use with exit 2, not a traceback."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from privcell.harness import MetricsRecord, emit_csv

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "diff_sweeps.py"
spec = importlib.util.spec_from_file_location("diff_sweeps", SCRIPT)
diff_sweeps = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_sweeps)


def write(path, nmse=0.5, seconds=1.0, rows=2, ser=(0.25,)):
    """rows records; record i has SER ser[i] (the last entry repeats)."""
    records = [
        MetricsRecord("fw", "epsilon", float(v), nmse, ser[min(v - 1, len(ser) - 1)], 3, 0, 7, seconds)
        for v in range(1, rows + 1)
    ]
    emit_csv(records, path)
    return str(path)


def test_seconds_are_ignored(tmp_path, capsys):
    a = write(tmp_path / "a.csv", seconds=1.0)
    b = write(tmp_path / "b.csv", seconds=9.5)
    assert diff_sweeps.main([a, b]) == 0
    assert "identical" in capsys.readouterr().out


def test_first_differing_cell_is_named(tmp_path, capsys):
    a = write(tmp_path / "a.csv", nmse=0.5)
    b = write(tmp_path / "b.csv", nmse=0.5000000000000001)  # one ulp apart
    assert diff_sweeps.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "row 1" in out and "column nmse" in out
    assert "0.5 vs 0.5000000000000001" in out


def test_every_differing_cell_is_named(tmp_path, capsys):
    """Two rows differ, one of them in two columns: three lines, in row-major order."""
    a = write(tmp_path / "a.csv", nmse=0.5, rows=3, ser=(0.25,))
    b = write(tmp_path / "b.csv", nmse=0.5, rows=3, ser=(0.25, 0.5, 0.75))
    assert diff_sweeps.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "differ: row 2 (fw epsilon 2.0), column ser: 0.25 vs 0.5",
        "differ: row 3 (fw epsilon 3.0), column ser: 0.25 vs 0.75",
    ]
    c = write(tmp_path / "c.csv", nmse=0.125, rows=3, ser=(0.25, 0.5, 0.75))
    assert diff_sweeps.main([a, c]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert [line.split(", column ")[1].split(":")[0] for line in lines] == ["nmse", "nmse", "ser", "nmse", "ser"]


def test_row_count_and_usage(tmp_path, capsys):
    a = write(tmp_path / "a.csv", rows=2)
    b = write(tmp_path / "b.csv", rows=3)
    assert diff_sweeps.main([a, b]) == 1
    assert "row counts differ" in capsys.readouterr().out
    assert diff_sweeps.main([a]) == 2


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_an_unreadable_file_is_exit_2_not_a_difference(tmp_path, capsys, bad, first):
    """A missing or unreadable CSV, either one, is one line on stderr and exit 2, never 1, the
    code of files that differ."""
    a = write(tmp_path / "a.csv")
    other = str(tmp_path / "none.csv") if bad == "missing" else str(tmp_path)
    assert diff_sweeps.main([other, a] if first else [a, other]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and other in err


@pytest.mark.parametrize("target", ["file", "under-a-file"])
def test_run_desk_sweeps_rejects_an_out_dir_it_cannot_make(tmp_path, target):
    """--out-dir naming a file, or a path under one, exits 2 with one line before any sweep runs:
    no traceback and no CSV."""
    (tmp_path / "taken").write_text("")
    out_dir = tmp_path / "taken" if target == "file" else tmp_path / "taken" / "sub"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_desk_sweeps.py"), "--out-dir", str(out_dir), "--trials", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
