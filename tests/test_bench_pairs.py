"""scripts/bench_pairs.py: parsing a benchmark run's output and summarising paired runs."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def stdout(rate, nmse=0.5, digest="ab12", correct=True, p50=None, attempted=40, points=(), threads=1):
    """What perfbench/run.py prints: a summary, a line per (label, p50) or (label, p50, nmse, ser)
    of points (nmse 0.5 and ser 0.1 when not given), the manifest with its BLAS thread count, then
    the result as its last line; trial_s.p50 is among the metrics when p50 is given."""
    metrics = {"trials_per_s": {"value": rate, "unit": "1/s"}, "nmse": {"value": nmse, "unit": "ratio"}}
    if p50 is not None:
        metrics["trial_s.p50"] = {"value": p50, "unit": "s"}
    result = {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}
    return (
        "workload desk-npfw seed 1 trace 0\n"
        f"  trials_per_s                                 {rate} 1/s\n"
        f"  {'output_digest':<44} {digest}\n"
        + "".join(
            f"  point {label:<24} trials   40  p50 {p:.4g} s  nmse {q[0]:.6g}  ser {q[1]:.6g}\n"
            for label, p, *q in (point if len(point) == 4 else (*point, 0.5, 0.1) for point in points)
        )
        + f'manifest {{"numpy": "2.4.6", "blas_threads": {json.dumps(threads)}}}\n'
        + json.dumps(result)
        + "\n"
    )


def pairs_of(rates, workload="desk-npfw", faults=None, p50s=None, threads=None):
    """Pair records from (parent, change) rates, one pair per seed, the first side alternating;
    faults, if given, holds each pair's (parent, change) minor page faults, p50s its
    (parent, change) trial_s.p50 and threads its (parent, change) BLAS thread counts (1 each
    when not given)."""
    out = []
    for seed, (parent, change) in enumerate(rates, start=1):
        first = "parent" if seed % 2 else "change"
        counts = faults[seed - 1] if faults else (None, None)
        medians = p50s[seed - 1] if p50s else (None, None)
        blas = threads[seed - 1] if threads else (1, 1)
        for side, rate, count, p50, n in zip(("parent", "change"), (parent, change), counts, medians, blas):
            result, digest, points, manifest, _ = bench_pairs.parse_run(stdout(rate, p50=p50, threads=n))
            out.append(bench_pairs.pair_record(workload, seed, side, side == first, result, digest, count, points,
                                               manifest.get("blas_threads")))
    return out


def test_a_run_is_its_last_line_and_its_digest():
    result, digest, points, manifest, means = bench_pairs.parse_run(stdout(5.25, digest="c0ffee", threads=2))
    assert digest == "c0ffee" and points == {} and means == {}
    assert manifest == {"numpy": "2.4.6", "blas_threads": 2}
    assert result["metrics"]["trials_per_s"]["value"] == 5.25
    rec = bench_pairs.pair_record("desk-npfw", 3, "change", False, result, digest, blas_threads=2)
    assert rec == {
        "workload": "desk-npfw", "seed": 3, "side": "change", "ran_first": False, "correct": True,
        "attempted": 40, "failed": 0, "metrics": {"trials_per_s": 5.25, "nmse": 0.5},
        "output_digest": "c0ffee", "point_p50_s": {}, "minor_faults": None, "minor_faults_per_trial": None,
        "blas_threads": 2, "point_means": {},
    }


@pytest.mark.parametrize("text", ["", "workload x\nnot json at the end\n"], ids=["empty", "no-result-line"])
def test_output_without_a_result_line_is_an_error(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_run(text)


def test_summary_has_each_sides_quartiles_and_the_changes_wins():
    rates = [(5.0, 5.9), (5.4, 6.1), (5.2, 5.1), (5.6, 6.4), (5.3, 5.3), (5.1, 6.0)]
    summary = bench_pairs.summarise(pairs_of(rates))
    entry = summary["desk-npfw"]["trials_per_s"]
    for side, values in (("parent", [p for p, _ in rates]), ("change", [c for _, c in rates])):
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert entry[side] == {"median": median, "q1": q1, "q3": q3, "n": 6}
    assert entry["change_wins"] == 4  # seed 3 lost, seed 5 tied
    assert summary["desk-npfw"]["nmse"]["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 6}
    assert "change_wins" not in summary["desk-npfw"]["nmse"]


def test_the_claimed_median_trial_time_wins_when_it_falls():
    """trial_s.p50 is counted too, in the direction BENCHMARK.json's `better` field gives it
    (lower wins), under the same digest, correctness and failure rules; nmse never is."""
    better = bench_pairs.directions()
    assert (better["trial_s.p50"], better["trials_per_s"]) == ("lower", "higher")
    p50s = [(5.5e-3, 4.6e-3), (5.4e-3, 5.6e-3), (5.6e-3, 4.8e-3), (5.5e-3, 5.5e-3), (5.4e-3, 4.7e-3)]
    pairs = pairs_of([(160.0, 170.0)] * 5, p50s=p50s)
    summary = bench_pairs.summarise(pairs)["desk-npfw"]
    assert summary["trial_s.p50"]["change_wins"] == 3  # seed 2 slower, seed 4 tied
    assert summary["trials_per_s"]["change_wins"] == 5
    assert "change_wins" not in summary["nmse"]
    pairs[9]["output_digest"] = "ffff"  # seed 5's change run: faster but other outputs
    assert bench_pairs.summarise(pairs)["desk-npfw"]["trial_s.p50"]["change_wins"] == 2


def test_each_end_to_end_metric_gets_a_verdict_against_its_bound():
    """worse_than_bound and unresolved read BENCHMARK.json's bound relative to the parent's median,
    in the metric's `better` direction: trials_per_s (higher, 0.25) falls from a median of 100 to
    74, worse by 26%; trial_s.p50 (lower, 0.25) rises from 10 ms to 12 ms, worse by 20%; nmse
    (lower, 0.25) falls, which is never worse.  Only the parent's trial_s.p50, q1 9 ms and q3 13 ms
    about a median of 10 ms, spreads more than its bound."""
    bound = {name: m["bound"] for name, m in bench_pairs.end_to_end().items()}
    assert (bound["trials_per_s"], bound["trial_s.p50"], bound["nmse"]) == (0.25, 0.25, 0.25)
    rates = [(99.0, 74.0), (100.0, 74.0), (101.0, 74.0)]
    p50s = [(9e-3, 12e-3), (10e-3, 12e-3), (13e-3, 12e-3)]
    pairs = pairs_of(rates, p50s=p50s)
    for p in pairs:
        p["metrics"]["nmse"] = 0.5 if p["side"] == "parent" else 0.3
    summary = bench_pairs.summarise(pairs)["desk-npfw"]
    verdicts = {
        name: (entry["worse_than_bound"], entry["unresolved"]) for name, entry in summary.items() if name in bound
    }
    assert verdicts == {"trials_per_s": (True, False), "trial_s.p50": (False, True), "nmse": (False, False)}
    pairs = pairs_of([(100.0, 76.0)] * 3)  # worse by 24%: within the bound
    assert not bench_pairs.summarise(pairs)["desk-npfw"]["trials_per_s"]["worse_than_bound"]
    lone = bench_pairs.summarise([p for p in pairs if p["side"] == "change"])["desk-npfw"]["trials_per_s"]
    assert "worse_than_bound" not in lone and "unresolved" not in lone  # no parent to judge against


def test_each_points_p50_is_recorded_and_spread_by_side():
    """The `point <label> trials N p50 X s` lines of a run's stdout land in its pair record,
    labels with spaces included, and the summary gives each point's quartiles for each side."""
    p50s = {"parent": [4.165e-3, 4.2e-3, 4.1e-3, 4.3e-3], "change": [2.692e-3, 2.7e-3, 2.75e-3, 2.6e-3]}
    pairs = []
    for seed in range(1, 5):
        for side in ("parent", "change"):
            points = (("svd epsilon=1", 0.01277), ("po epsilon=1", p50s[side][seed - 1]))
            result, digest, parsed, *_ = bench_pairs.parse_run(stdout(5.0, points=points))
            assert parsed == dict(points)
            pairs.append(bench_pairs.pair_record("m100k25-oneshot", seed, side, side == "parent", result, digest,
                                                 None, parsed))
    assert pairs[0]["point_p50_s"] == {"svd epsilon=1": 0.01277, "po epsilon=1": 4.165e-3}
    entry = bench_pairs.summarise(pairs)["m100k25-oneshot"]["point_p50_s"]
    assert list(entry) == ["svd epsilon=1", "po epsilon=1"]
    for side, values in p50s.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert entry["po epsilon=1"][side] == {"median": median, "q1": q1, "q3": q3, "n": 4}
    assert entry["svd epsilon=1"]["change"]["median"] == 0.01277
    assert "point_p50_s" not in bench_pairs.summarise(pairs_of([(5.0, 6.0)]))["desk-npfw"]


def test_each_seed_records_how_far_the_point_means_moved():
    """The nmse and ser of each `point` line land in the pair record, and output_moves gives, per
    seed at which both sides printed points, the largest relative difference of either between
    the sides: 0 where the outputs are identical or both 0, and no entry for a failed run."""
    runs = {
        1: {"parent": [("fw tau_d=20", 0.01, 0.9987, 0.3), ("npfw epsilon=1", 0.1, 0.2850, 0.0)],
            "change": [("fw tau_d=20", 0.01, 0.9987, 0.3), ("npfw epsilon=1", 0.1, 0.2731, 0.0)]},
        2: {"parent": [("fw tau_d=20", 0.01, 0.9987, 0.3), ("npfw epsilon=1", 0.1, 0.2850, 0.25)],
            "change": [("fw tau_d=20", 0.01, 0.9987, 0.35), ("npfw epsilon=1", 0.1, 0.2850, 0.25)]},
        3: {"parent": [("fw tau_d=20", 0.01, 0.9987, 0.3)], "change": None},
    }
    pairs = []
    for seed, sides in runs.items():
        for side, points in sides.items():
            if points is None:
                pairs.append(bench_pairs.pair_record("desk-npfw", seed, side, False, {"correct": False}, None))
                continue
            result, digest, parsed, manifest, means = bench_pairs.parse_run(stdout(5.0, points=points))
            assert parsed == {label: p50 for label, p50, *_ in points}
            pairs.append(bench_pairs.pair_record("desk-npfw", seed, side, side == "parent", result, digest, None,
                                                 parsed, manifest["blas_threads"], means))
    assert pairs[1]["point_means"] == {"fw tau_d=20": {"nmse": 0.9987, "ser": 0.3},
                                       "npfw epsilon=1": {"nmse": 0.2731, "ser": 0.0}}
    moves = bench_pairs.summarise(pairs)["desk-npfw"]["output_moves"]
    assert [m["seed"] for m in moves] == [1, 2]
    assert moves[0] == {"seed": 1, "nmse": pytest.approx((0.2850 - 0.2731) / 0.2850), "ser": 0.0}
    assert moves[1] == {"seed": 2, "nmse": 0.0, "ser": pytest.approx(0.05 / 0.35)}
    assert bench_pairs.summarise(pairs_of([(5.0, 6.0)]))["desk-npfw"]["output_moves"] == []  # no point lines


def test_summary_has_each_sides_minor_fault_quartiles():
    faults = [(1700, 1400), (1750, 1420), (1690, 1390), (1720, 1405)]
    summary = bench_pairs.summarise(pairs_of([(5.0, 6.0)] * 4, faults=faults))
    entry = summary["desk-npfw"]["minor_faults"]
    for side, values in (("parent", [p for p, _ in faults]), ("change", [c for _, c in faults])):
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert entry[side] == {"median": median, "q1": q1, "q3": q3, "n": 4}
    assert "minor_faults" not in bench_pairs.summarise(pairs_of([(5.0, 6.0)]))["desk-npfw"]


def test_faults_per_trial_divide_each_runs_faults_by_its_attempted_trials():
    """Runs of different lengths compare: 16,000 faults over 40 trials and 32,000 over 80
    both read 400 per trial; a run without faults or without trials has none."""
    runs = [(16000, 40, 12000, 40), (32000, 80, 23000, 100), (16400, 40, 12400, 40)]
    pairs = []
    for seed, (p_faults, p_trials, c_faults, c_trials) in enumerate(runs, start=1):
        for side, faults, trials in (("parent", p_faults, p_trials), ("change", c_faults, c_trials)):
            result, digest, *_ = bench_pairs.parse_run(stdout(5.0, attempted=trials))
            pairs.append(bench_pairs.pair_record("desk-npfw", seed, side, side == "parent", result, digest, faults))
    assert [p["minor_faults_per_trial"] for p in pairs] == [400.0, 300.0, 400.0, 230.0, 410.0, 310.0]
    entry = bench_pairs.summarise(pairs)["desk-npfw"]["minor_faults_per_trial"]
    for side, values in (("parent", [400.0, 400.0, 410.0]), ("change", [300.0, 230.0, 310.0])):
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert entry[side] == {"median": median, "q1": q1, "q3": q3, "n": 3}
    idle = bench_pairs.parse_run(stdout(5.0, attempted=0))[0]
    assert bench_pairs.pair_record("desk-npfw", 1, "parent", True, idle, None, 900)["minor_faults_per_trial"] is None
    assert "minor_faults_per_trial" not in bench_pairs.summarise(pairs_of([(5.0, 6.0)]))["desk-npfw"]


def test_a_run_records_its_childs_minor_faults(tmp_path):
    """run_side counts the faults of the run it starts: a run that touches 16 MB of fresh
    pages (4,096 at 4 KiB) shows at least 3,000 more than one that touches none."""
    runs = {}
    for name, touch in (("idle", "0"), ("touching", "16 << 20")):
        script = tmp_path / name / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(
            f"buf = bytearray({touch})\n"
            "for i in range(0, len(buf), 4096):\n    buf[i] = 1\n"
            f"print({stdout(5.0)!r}, end='')\n"
        )
        runs[name] = bench_pairs.run_side(script.parent.parent, "desk-npfw", 1)
    for result, digest, points, manifest, _, faults in runs.values():
        assert result["correct"] and digest == "ab12" and points == {} and faults > 0
        assert manifest["blas_threads"] == 1
        rec = bench_pairs.pair_record("desk-npfw", 1, "change", True, result, digest, faults)
        assert rec["minor_faults_per_trial"] == faults / 40
    assert runs["touching"][-1] - runs["idle"][-1] >= 3000


def test_summary_keeps_workloads_apart_and_skips_runs_without_metrics():
    pairs = pairs_of([(5.0, 6.0), (5.0, 6.0)]) + pairs_of([(40.0, 39.0)], workload="desk-fw-tau")
    pairs.append(bench_pairs.pair_record("desk-fw-tau", 2, "change", True, {"correct": False}, None))
    summary = bench_pairs.summarise(pairs)
    assert list(summary) == ["desk-npfw", "desk-fw-tau"]
    tau = summary["desk-fw-tau"]["trials_per_s"]
    assert tau["change"] == {"median": 39.0, "q1": 39.0, "q3": 39.0, "n": 1}
    assert tau["change_wins"] == 0
    assert summary["desk-npfw"]["trials_per_s"]["change_wins"] == 2


@pytest.mark.parametrize(
    "fault",
    [{"correct": False}, {"failed": 1}, {"output_digest": "ffff"}],
    ids=["incorrect", "more-failed", "other-digest"],
)
def test_a_faster_run_is_no_win_when_its_outputs_differ(fault):
    pairs = pairs_of([(5.0, 6.0), (5.0, 6.0)])
    pairs[3].update(fault)  # seed 2's change run
    entry = bench_pairs.summarise(pairs)["desk-npfw"]["trials_per_s"]
    assert entry["change_wins"] == 1
    assert entry["change"]["n"] == 2  # the run still counts in its side's spread


def test_change_faster_counts_the_faster_seeds_whatever_their_digests():
    """change_faster, beside output_moves, counts the seeds at which the change beat the parent on
    trials_per_s and trial_s.p50 under the same correctness and failure rules as change_wins but
    whatever either digest; change_wins still counts only seeds with the parent's digest."""
    rates = [(7.1, 9.2), (7.0, 9.3), (7.2, 7.2), (7.1, 6.9), (7.0, 9.1), (7.3, 9.0)]
    p50s = [(0.14, 0.10), (0.14, 0.11), (0.14, 0.14), (0.14, 0.15), (0.14, 0.10), (0.14, 0.12)]
    pairs = pairs_of(rates, p50s=p50s)
    for p in pairs[1::2]:  # every change run: other outputs, as a change that moves bits by design gives
        p["output_digest"] = "ffff"
    summary = bench_pairs.summarise(pairs)["desk-npfw"]
    assert summary["change_faster"] == {"trials_per_s": 4, "trial_s.p50": 4}  # seed 3 tied, seed 4 slower
    assert summary["trials_per_s"]["change_wins"] == summary["trial_s.p50"]["change_wins"] == 0
    assert list(summary).index("change_faster") == list(summary).index("output_moves") + 1
    pairs[9].update({"correct": False})  # seed 5's change run
    pairs[11].update({"failed": 1})  # seed 6's change run
    assert bench_pairs.summarise(pairs)["desk-npfw"]["change_faster"] == {"trials_per_s": 2, "trial_s.p50": 2}
    for p in pairs[1::2]:
        p["output_digest"] = "ab12"
    summary = bench_pairs.summarise(pairs)["desk-npfw"]
    assert summary["trials_per_s"]["change_wins"] == summary["change_faster"]["trials_per_s"] == 2
    assert bench_pairs.summarise(pairs_of([(5.0, 6.0)]))["desk-npfw"]["change_faster"] == {"trials_per_s": 1}


def test_the_parent_must_differ_from_the_working_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    (repo / "a.txt").write_text("parent\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "a.txt"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    with pytest.raises(ValueError, match="nothing to compare"):
        bench_pairs.unpack_parent("HEAD", tmp_path / "same")
    (repo / "a.txt").write_text("change\n")
    sha = bench_pairs.unpack_parent("HEAD", tmp_path / "parent")
    assert len(sha) == 40
    assert (tmp_path / "parent" / "a.txt").read_text() == "parent\n"


def test_the_parent_revision_is_required(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--tag", "x", "--workloads", "desk-npfw", "--seeds", "1"])
    assert "--rev" in capsys.readouterr().err


def test_a_workload_whose_sides_ran_with_different_blas_threads_is_flagged():
    """Two BLAS threads change numpy's bits and speed, so a pair that mixes thread counts is
    flagged; a run without a manifest (a failed run) reports no count and flags nothing."""
    summary = bench_pairs.summarise(pairs_of([(5.0, 6.0)] * 3))["desk-npfw"]
    assert summary["blas_threads"] == {"parent": [1], "change": [1], "differ": False}
    pairs = pairs_of([(5.0, 6.0)] * 3, threads=[(1, 1), (1, 2), (1, 1)])
    assert [p["blas_threads"] for p in pairs] == [1, 1, 1, 2, 1, 1]
    summary = bench_pairs.summarise(pairs)["desk-npfw"]
    assert summary["blas_threads"] == {"parent": [1], "change": [1, 2], "differ": True}
    pairs = pairs_of([(5.0, 6.0)])
    pairs.append(bench_pairs.pair_record("desk-npfw", 2, "change", True, {"correct": False}, None))
    assert not bench_pairs.summarise(pairs)["desk-npfw"]["blas_threads"]["differ"]


def test_both_sides_run_outside_git_and_the_change_runs_its_uncommitted_edits(tmp_path, monkeypatch):
    """main runs the parent from `git archive` and the change from a copy of the working tree's
    files: each run's stub reports whether a .git sits in its directory and reads a.txt, edited
    but not committed, and b.txt, new and untracked; an ignored file is not copied."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    (repo / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    (repo / "a.txt").write_text("parent\n")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "perfbench" / "run.py").write_text(
        "import json, os, pathlib\n"
        "read = lambda name: pathlib.Path(name).read_text().strip() if os.path.exists(name) else 'none'\n"
        "print(f\"output_digest git{int(os.path.exists('.git'))}-{read('a.txt')}-{read('b.txt')}-\"\n"
        "      f\"{read('ignored.txt')}\")\n"
        "print('manifest ' + json.dumps({'blas_threads': 1}))\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
        "                  'metrics': {'trials_per_s': {'value': 1.0, 'unit': '1/s'}}}))\n"
    )
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], check=True)
    (repo / "a.txt").write_text("change\n")
    (repo / "b.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("ignored\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--tag", "t", "--rev", "HEAD", "--workloads", "w", "--seeds", "1", "--out", str(out)]) == 0
    pairs = json.loads(out.read_text())["pairs"]
    digests = {p["side"]: p["output_digest"] for p in pairs}
    assert digests == {"parent": "git0-parent-none-none", "change": "git0-change-new-none"}
    assert [p["blas_threads"] for p in pairs] == [1, 1]


def test_each_side_records_the_line_count_of_the_package_it_ran(tmp_path, monkeypatch):
    """src_lines counts the lines of src/privcell/*.py alone, a last line without a newline
    included; main records it for the parent's committed tree and the change's working tree."""
    tree = tmp_path / "tree"
    (tree / "src" / "privcell" / "sub").mkdir(parents=True)
    (tree / "src" / "privcell" / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (tree / "src" / "privcell" / "b.py").write_text("w = 4\n\nv = 5")
    (tree / "src" / "privcell" / "notes.md").write_text("not\ncounted\n")
    (tree / "src" / "privcell" / "sub" / "c.py").write_text("not counted\n")
    (tree / "src" / "d.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tree) == 6
    assert bench_pairs.src_lines(tmp_path / "empty") == 0

    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "privcell").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    (repo / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    (repo / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
        "                  'metrics': {'trials_per_s': {'value': 1.0, 'unit': '1/s'}}}))\n"
    )
    (repo / "src" / "privcell" / "a.py").write_text("x = 1\ny = 2\nz = 3\nw = 4\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], check=True)
    (repo / "src" / "privcell" / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--tag", "t", "--rev", "HEAD", "--workloads", "w", "--seeds", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 4, "change": 1}
