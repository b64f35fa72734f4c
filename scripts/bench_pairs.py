#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --tag pr20 --rev HEAD~1 --workloads desk-npfw desk-fw-tau \\
        --seeds 1 2 3 4 5 6 [--out BENCH_pr20.json]

The parent is `git archive <rev>` unpacked into a temporary directory; the
change is a copy, in another temporary directory, of the files of the working
tree this script sits in that git tracks or would track (`git ls-files -co
--exclude-standard`), uncommitted edits included.  So neither side runs where
a `.git` is, and neither pays for a `git rev-parse` the other skips.  A rev
whose tree is the working tree's is refused, since the run would compare the
change with itself.  For each workload and seed, `perfbench/run.py --workload
W --seed N --trace 0` runs once in each directory, for the benchmark's own run_seconds,
one after the other; which side runs first swaps at each seed, so neither
side always meets the warmer or the quieter machine.  A run's result is the
JSON object on its last stdout line.

The output holds one record per run under "pairs" (workload, seed, side,
ran_first, correct, attempted, failed, the end-to-end metric values, the
run's output_digest, point_p50_s, each point's median wall-clock trial time
from the run's `point <label> trials N p50 X s nmse Y ser Z` lines,
point_means, each point's mean nmse and ser from the same lines, its minor
page faults, the `getrusage(RUSAGE_CHILDREN).ru_minflt` delta around the
child, and minor_faults_per_trial, those faults over the run's attempted
trials, so runs
of different lengths compare, and blas_threads, from the run's `manifest`
line) and, under "summary", each workload's median,
q1, q3 and n of every metric, of minor_faults, of minor_faults_per_trial and,
under point_p50_s, of each point's p50, for each side (quartiles by
`statistics.quantiles`, exclusive method), plus, for trials_per_s and
trial_s.p50, the number of seeds at which the change beat the parent with the
same outputs, "beat" read in the direction of the metric's `better` field in
BENCHMARK.json; the workload's change_faster gives, for the same two metrics,
the seeds at which it beat the parent whatever its outputs, so a change that
moves bits by design still shows its speed there.  Each end-to-end metric that both sides report also gets a
verdict against its BENCHMARK.json `bound`: worse_than_bound, the change's
median worse than the parent's by more than bound times the parent's median,
and unresolved, the parent's q3 - q1 wider than that.  Each workload's
blas_threads lists the thread counts each side's runs reported, and its
"differ" is true when they are not one and the same count: such runs give
neither comparable bits nor comparable speeds.  Each workload's output_moves
lists, for each seed at which both sides printed points, the largest relative
difference between the sides' point means of nmse and of ser, |change -
parent| / max(|change|, |parent|) over the points both sides ran (0 where they
are equal): how far a change that moves bits moved the outputs, at the 6
significant digits the run prints.  Under "src_lines", each side's line count
of src/privcell/*.py in the tree it ran from: the size a simplicity change
is judged on.  Nothing under perfbench/ is changed; a side whose run fails
is recorded as it came.
"""

import argparse
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_METRICS = ("trials_per_s", "trial_s.p50")  # the metrics a speed claim is judged on


def parse_run(stdout):
    """(result, output_digest, point p50s, manifest, point means) of one perfbench/run.py stdout:
    its last line as JSON, the digest line, {label: seconds} from each `point <label> trials N
    p50 X s nmse Y ser Z` line, the JSON of the `manifest ...` line ({} without one), and
    {label: {"nmse": Y, "ser": Z}} from the point lines that carry both."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run printed nothing")
    digest, points, manifest, means = None, {}, {}, {}
    for line in lines:
        words = line.split()
        if len(words) == 2 and words[0] == "output_digest":
            digest = words[1]
        elif words[:1] == ["point"] and "trials" in words and "p50" in words:
            label = " ".join(words[1:words.index("trials")])
            points[label] = float(words[words.index("p50") + 1])
            if "nmse" in words and "ser" in words:
                means[label] = {key: float(words[words.index(key) + 1]) for key in ("nmse", "ser")}
        elif line.startswith("manifest "):
            manifest = json.loads(line[len("manifest "):])
    return json.loads(lines[-1]), digest, points, manifest, means


def pair_record(workload, seed, side, ran_first, result, digest, minor_faults=None, points=None, blas_threads=None,
                means=None):
    """One run as a "pairs" entry: the result's counts, each metric's value, each point's p50, the
    run's faults, in all and per attempted trial (None without faults or trials), its BLAS
    thread count, and each point's mean nmse and ser."""
    attempted = result.get("attempted", 0)
    return {
        "workload": workload,
        "seed": seed,
        "side": side,
        "ran_first": ran_first,
        "correct": result.get("correct", False),
        "attempted": attempted,
        "failed": result.get("failed", 0),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "output_digest": digest,
        "point_p50_s": dict(points or {}),
        "minor_faults": minor_faults,
        "minor_faults_per_trial": minor_faults / attempted if minor_faults is not None and attempted else None,
        "blas_threads": blas_threads,
        "point_means": dict(means or {}),
    }


def spread(values):
    """median, q1, q3 and n of a list of at least one value."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end():
    """{metric: its BENCHMARK.json end_to_end entry, with its `better` and `bound` fields}."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def directions():
    """{metric: "higher" or "lower"}, the `better` field of each end-to-end metric in BENCHMARK.json."""
    return {name: m["better"] for name, m in end_to_end().items()}


def verdict(parent, change, better, bound):
    """The no-regression rule on two sides' spreads of one metric: worse_than_bound, whether the
    change's median is worse than the parent's, in the direction better, by more than bound times
    the parent's median; unresolved, whether the parent's q3 - q1 exceeds that amount, so that
    the runs spread too widely to tell."""
    scale = bound * abs(parent["median"])
    worse = change["median"] - parent["median"] if better == "lower" else parent["median"] - change["median"]
    return {"worse_than_bound": worse > scale, "unresolved": parent["q3"] - parent["q1"] > scale}


def summarise(pairs):
    """Per workload, each side's spread of every metric, of minor_faults, of
    minor_faults_per_trial and, under point_p50_s, of each point's p50; for each of
    WIN_METRICS also the change's wins, and for each end-to-end metric both sides report its
    `verdict`; under blas_threads, each side's thread counts and whether they differ; under
    output_moves, each seed's `output_move`, for the seeds at which both sides printed points;
    under change_faster, the seeds at which the change was `_faster`, per metric of WIN_METRICS
    that the runs report.

    A win is a seed at which both sides ran and the change was `_faster` and gave the parent's
    output_digest; a tie is not a win.
    """
    metrics = end_to_end()
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        names = dict.fromkeys(name for p in runs for name in p["metrics"])
        summary[workload], faster = {}, {}
        for name in names:
            entry = {
                side: spread([p["metrics"][name] for p in runs if p["side"] == side and name in p["metrics"]])
                for side in SIDES
                if any(p["side"] == side and name in p["metrics"] for p in runs)
            }
            if name in WIN_METRICS:
                by_seed = {}
                for p in runs:
                    if name in p["metrics"]:
                        by_seed.setdefault(p["seed"], {})[p["side"]] = p
                both = [v for v in by_seed.values() if len(v) == 2]
                entry["change_wins"] = sum(_won(v, name, metrics[name]["better"]) for v in both)
                faster[name] = sum(_faster(v, name, metrics[name]["better"]) for v in both)
            if name in metrics and all(side in entry for side in SIDES):
                entry.update(verdict(entry["parent"], entry["change"], metrics[name]["better"], metrics[name]["bound"]))
            summary[workload][name] = entry
        for key in ("minor_faults", "minor_faults_per_trial"):
            faults = {side: [p[key] for p in runs if p["side"] == side and p.get(key) is not None] for side in SIDES}
            if any(faults.values()):
                summary[workload][key] = {side: spread(v) for side, v in faults.items() if v}
        points = {}  # label -> side -> p50s
        for p in runs:
            for label, value in p.get("point_p50_s", {}).items():
                points.setdefault(label, {}).setdefault(p["side"], []).append(value)
        if points:
            summary[workload]["point_p50_s"] = {
                label: {side: spread(by_side[side]) for side in SIDES if side in by_side}
                for label, by_side in points.items()
            }
        threads = {
            side: sorted({p["blas_threads"] for p in runs if p["side"] == side and p.get("blas_threads") is not None})
            for side in SIDES
        }
        summary[workload]["blas_threads"] = {**threads, "differ": len(set(threads["parent"] + threads["change"])) > 1}
        means = {}  # seed -> side -> point means
        for p in runs:
            if p.get("point_means"):
                means.setdefault(p["seed"], {})[p["side"]] = p["point_means"]
        summary[workload]["output_moves"] = [
            {"seed": seed, **output_move(v["parent"], v["change"])} for seed, v in means.items() if len(v) == 2
        ]
        summary[workload]["change_faster"] = faster
    return summary


def output_move(parent, change):
    """{"nmse": d, "ser": d}, d the largest |c - p| / max(|c|, |p|) (0 where c = p) over the
    points both sides' point means hold."""

    def moved(p, c):
        return abs(c - p) / max(abs(c), abs(p)) if c != p else 0.0

    return {
        key: max((moved(parent[label][key], change[label][key]) for label in parent if label in change), default=0.0)
        for key in ("nmse", "ser")
    }


def _faster(sides, name, better):
    """Whether the change's run at one seed beats the parent's on metric name, which is better
    "higher" or "lower": the change's run is correct, fails no more trials than the parent's
    and has the better value, whatever either run's output_digest."""
    parent, change = sides["parent"], sides["change"]
    ahead, behind = (change, parent) if better == "higher" else (parent, change)
    return (
        change["correct"] and change["failed"] <= parent["failed"] and ahead["metrics"][name] > behind["metrics"][name]
    )


def _won(sides, name, better):
    """`_faster`, with the parent's output_digest: a win on metric name at one seed, outputs unchanged."""
    return _faster(sides, name, better) and sides["change"]["output_digest"] == sides["parent"]["output_digest"]


def unpack_parent(rev, dest):
    """Write the tree of git revision rev into dest; returns rev's full sha.

    Raises ValueError when rev's tracked files are the working tree's.
    """
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", sha]).returncode == 0:
        raise ValueError(f"{rev} has the working tree's files: nothing to compare (is the change committed?)")
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", sha], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python >= 3.10.12 / 3.11.4 vets each member
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return sha


def copy_worktree(dest):
    """Copy into dest each file of the working tree that git tracks or would track (`git ls-files
    -co --exclude-standard`), as it is on disk: uncommitted edits in, ignored files and .git out."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is still listed
            (Path(dest) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, Path(dest) / name)


def src_lines(directory):
    """The number of lines in the src/privcell/*.py files of the tree at directory (0 without any)."""
    return sum(len(path.read_text().splitlines()) for path in Path(directory).glob("src/privcell/*.py"))


def run_side(directory, workload, seed):
    """One perfbench/run.py run in directory; returns (result, digest, point p50s, manifest, point
    means, minor page faults), the result incorrect, the digest None, and no points, manifest or
    means when the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    try:
        return (*parse_run(proc.stdout), faults)
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        print(f"  run failed (exit {proc.returncode}): {err}; {proc.stderr.strip()[-300:]}", file=sys.stderr)
        return {"correct": False}, None, {}, {}, {}, faults


def main(argv=None):
    p = argparse.ArgumentParser(prog="scripts/bench_pairs.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    p.add_argument("--rev", required=True, help="parent git revision, e.g. HEAD~1 once the change is committed")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--out", help="output path (default BENCH_<tag>.json in the repository root)")
    args = p.parse_args(argv)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.tag}.json"
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change:
        try:
            sha = unpack_parent(args.rev, parent)
        except ValueError as err:
            p.error(str(err))
        copy_worktree(change)
        dirs = {"parent": parent, "change": change}
        lines = {side: src_lines(directory) for side, directory in dirs.items()}
        print(f"src/privcell lines: parent {lines['parent']}, change {lines['change']}", flush=True)
        for workload in args.workloads:
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, digest, points, manifest, means, faults = run_side(dirs[side], workload, seed)
                    pairs.append(pair_record(workload, seed, side, side == order[0], result, digest, faults, points,
                                             manifest.get("blas_threads"), means))
                    claimed = " ".join(f"{name} {pairs[-1]['metrics'].get(name)}" for name in WIN_METRICS)
                    print(f"{workload} seed {seed} {side}: {claimed} minor faults {faults} digest {digest}",
                          flush=True)
    record = {
        "tag": args.tag,
        "parent": sha,
        "how": f"python3 perfbench/run.py --workload W --seed N --trace 0 (run_seconds {run_seconds:g}), "
        "parent (git archive of the parent revision) and change (a copy of the working tree's files) "
        "in alternating order per seed; metrics are the run's last stdout line",
        "host": f"{platform.machine()} {platform.processor() or ''}, Python {platform.python_version()}, "
        f"numpy {metadata.version('numpy')}",
        "src_lines": lines,
        "summary": summarise(pairs),
        "pairs": pairs,
    }
    for workload, entry in record["summary"].items():
        if entry["blas_threads"]["differ"]:
            print(f"{workload}: the sides ran with different BLAS thread counts {entry['blas_threads']}; "
                  "their bits and speeds do not compare", file=sys.stderr)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
