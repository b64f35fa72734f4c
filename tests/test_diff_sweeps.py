"""scripts/diff_sweeps.py: two sweep CSVs agree in every column but seconds."""

import importlib.util
from pathlib import Path

from privcell.harness import MetricsRecord, emit_csv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_sweeps.py"
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
