"""Workloads, timed trial loops, output checks and result records.

Imported by run.py after the BLAS thread count is pinned and ./src is on
the path.  Every workload runs serially in this process: a set-up
(profile load, deployment draw, prepare, one warm-up trial per point
through harness.run_point), then a closed loop of harness.run_trial
calls, one trial per point per cycle, with trial index = cycle.  Each
trial gets its own protocol.Backhaul, which is audited after the trial,
outside the timed interval.  Untraced runs also time refspeed's reference
kernel around every import, set-up and cycle, and report the end-to-end
timings at its nominal speed.
"""

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import refspeed
import spans
from privcell import harness, protocol
from privcell.config import ExperimentConfig, load_experiment
from privcell.errors import PrivCellError

OUT_DIR = Path(__file__).resolve().parent / "out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RATE_BLOCKS = 5
# What run.py imports before a run can start, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import numpy, yaml, privcell.harness, privcell.protocol, privcell.config; "
    "print(time.perf_counter() - t0)"
)


@dataclass(frozen=True)
class Workload:
    config: str  # profile, relative to the checkout root
    points: tuple  # (method, axis, value) run once per cycle; value None = the profile's eps
    quality_cycles: int  # leading cycles whose (nmse, ser) give the means and the digest
    setup_repeats: int  # set-ups per run; setup_s takes their median


# Why each workload exists is in README.md.  quality_cycles is sized so the
# cycles fit in the default run length at the measured trial times.
WORKLOADS = {
    "desk-fw-tau": Workload(
        "configs/desk.yaml", (("fw", "tau_d", 20), ("fw", "tau_d", 56), ("fw", "tau_d", 160)), 24, 5
    ),
    "desk-npfw": Workload("configs/desk.yaml", (("npfw", "epsilon", None),), 30, 5),
    "m100k25-oneshot": Workload(
        "configs/m100_k25.yaml",
        (("svd", "epsilon", None), ("npsvd", "epsilon", None), ("po", "epsilon", None)),
        24,
        5,
    ),
    "m100k25-fw": Workload("configs/m100_k25.yaml", (("fw", "epsilon", None),), 2, 1),
}


@dataclass
class Point:
    method: str
    axis: str
    value: float
    scenario: object
    eps: float
    prepared: object
    warm: object  # harness.run_point record of trial 0, the reference for cycle 0

    @property
    def label(self):
        return f"{self.method} {self.axis}={self.value:g}"


@dataclass
class Trial:
    point: int
    cycle: int
    seconds: float
    scaled: float = math.nan  # seconds at the reference kernel's nominal speed
    nmse: float = math.nan
    ser: float = math.nan
    unicast: int = 0
    broadcast: int = 0
    traced: bool = False
    error: str = ""  # why the trial failed, empty if it did not
    wrong: bool = False  # failed a check rather than raising


def shrink(exp):
    """The --smoke profile: four APs and two FW rounds, same everything else."""
    return ExperimentConfig(
        scenario=dataclasses.replace(exp.scenario, M=4),
        run=dataclasses.replace(exp.run, fw_iters=2, np_fw_iters=2),
    )


def time_import(root):
    """Seconds a fresh interpreter takes for the imports a run needs.

    Timed in a child process because a module imports only once per
    process; the child has this process's environment (BLAS pinned to one
    thread) and ./src on its path, and is waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout)


def set_up(root, wl, seed, smoke):
    """Load the profile, draw the deployment, prepare and warm up every point."""
    exp = load_experiment(root / wl.config)
    if smoke:
        exp = shrink(exp)
    # The deployment stays the profile's own; --seed drives the trial streams,
    # so runs at different seeds measure the same geometry.
    beta = harness.draw_beta(exp.scenario, exp.scenario.seed)
    points = []
    for method, axis, value in wl.points:
        value = exp.run.eps if value is None else value
        scenario, eps = harness.apply_axis(exp.scenario, axis, value)
        eps = exp.run.eps if eps is None else eps
        prepared = harness.prepare(scenario, exp.run, beta)
        warm = harness.run_point(exp, method, axis, value, 1, seed, beta=beta)
        points.append(Point(method, axis, value, scenario, eps, prepared, warm))
    return exp, beta, points


def expected_messages(method, scenario, run):
    """Transcript length of one trial: releases, broadcasts, detections."""
    rounds = {"fw": run.fw_iters, "npfw": run.np_fw_iters, "svd": 1, "npsvd": 1}.get(method, 0)
    return scenario.M * rounds + rounds + scenario.M


def check_trial(point, run, cycle, res, net):
    sc = point.scenario
    errors = []
    if not (math.isfinite(res.nmse) and math.isfinite(res.ser)):
        errors.append(f"non-finite nmse={res.nmse} ser={res.ser}")
    report = protocol.audit_privacy_surface(
        net.transcript, tau_c=sc.tau_c, n_users=sc.K, n_payload=sc.tau_d
    )
    if not report.ok:
        errors.append(f"privacy audit failed: {report.failures[:3]}")
    want = expected_messages(point.method, sc, run)
    if len(net.transcript) != want:
        errors.append(f"transcript holds {len(net.transcript)} messages, the protocol {want}")
    if cycle == 0 and (res.nmse, res.ser) != (point.warm.nmse, point.warm.ser):
        errors.append(
            f"(nmse, ser) = {(res.nmse, res.ser)} but harness.run_point gave "
            f"{(point.warm.nmse, point.warm.ser)}"
        )
    return errors


def one_trial(exp, point, index, seed, cycle, tracer=None):
    """Time one run_trial call, then check its result and transcript."""
    net = protocol.Backhaul()
    res = raised = None
    if tracer is not None:
        tracer.trial = (cycle, index)
    t0 = perf_counter()
    try:
        res = harness.run_trial(
            point.scenario, exp.run, point.method, point.prepared, seed, cycle, point.eps, net=net
        )
    except (PrivCellError, np.linalg.LinAlgError) as e:
        raised = e
    t = Trial(index, cycle, perf_counter() - t0, traced=tracer is not None)
    if tracer is not None:
        tracer.trial = None
    if raised is not None:
        t.error = f"{type(raised).__name__}: {raised}"
        return t
    t.nmse, t.ser = res.nmse, res.ser
    t.unicast, t.broadcast = net.ledger.total_unicast_bytes, net.ledger.broadcast_bytes
    errors = check_trial(point, exp.run, cycle, res, net)
    if errors:
        t.error, t.wrong = "; ".join(errors), True
    return t


def run_trials(exp, points, seed, seconds, min_cycles, tracer=None, ref=None):
    """At least `min_cycles` cycles, then stop at the cycle boundary nearest
    to `seconds` of run_trial time.  With a tracer, each cycle runs twice on
    the same trial indices, untraced and then traced, so both halves see the
    same inputs and the same load from the rest of the machine.  With a
    refspeed.Reference, the kernel is sampled before the first cycle and
    after each, and each trial's time is scaled by the two samples around
    its cycle."""
    trials = []
    timed = cycle_s = 0.0
    cycle = 0
    before = ref.sample() if ref is not None else None
    while cycle < min_cycles or timed + cycle_s / 2 < seconds:
        batch = [one_trial(exp, p, i, seed, cycle) for i, p in enumerate(points)]
        if ref is not None:
            after = ref.sample()
            for t in batch:
                t.scaled = refspeed.scaled(t.seconds, before, after)
            before = after
        if tracer is not None:
            with tracer:
                batch += [one_trial(exp, p, i, seed, cycle, tracer) for i, p in enumerate(points)]
        cycle_s = sum(t.seconds for t in batch)
        timed += cycle_s
        trials += batch
        cycle += 1
    return trials


def per_second(trials, clock="seconds"):
    """Completed trials per second of `clock` ("seconds" or "scaled") time."""
    done = [t for t in trials if not t.error]
    return len(done) / sum(getattr(t, clock) for t in trials)


def median_per_second(trials, clock):
    """Median of per_second over up to RATE_BLOCKS equal runs of consecutive
    cycles, so a burst of load from outside the process moves it less."""
    cycles = sorted({t.cycle for t in trials})
    k = min(RATE_BLOCKS, len(cycles))
    rates = []
    for b in range(k):
        chunk = set(cycles[b * len(cycles) // k : (b + 1) * len(cycles) // k])
        rates.append(per_second([t for t in trials if t.cycle in chunk], clock))
    return statistics.median(rates)


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def end_to_end(wl, trials, setup_s):
    done = [t for t in trials if not t.error]
    quality = [t for t in done if t.cycle < wl.quality_cycles]
    return {
        "trials_per_s": median_per_second(trials, "scaled"),
        "trial_s.p50": statistics.median(t.scaled for t in done) if done else math.nan,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "nmse": mean(t.nmse for t in quality),
        "ser": mean(t.ser for t in quality),
        "backhaul_mb_per_trial": mean((t.unicast + t.broadcast) / 1e6 for t in quality),
    }


def output_digest(wl, trials):
    """sha256 of the quality cycles' (nmse, ser) as float64 pairs, in trial order."""
    h = hashlib.sha256()
    for t in trials:
        if t.cycle < wl.quality_cycles:
            h.update(struct.pack("<dd", t.nmse, t.ser))
    return h.hexdigest()


def point_summary(points, wl, trials):
    rows = []
    for i, p in enumerate(points):
        mine = [t for t in trials if t.point == i and not t.error]
        quality = [t for t in mine if t.cycle < wl.quality_cycles]
        rows.append(
            {
                "point": p.label,
                "trials": len(mine),
                "trial_s.p50": statistics.median(t.seconds for t in mine) if mine else math.nan,
                "nmse": mean(t.nmse for t in quality),
                "ser": mean(t.ser for t in quality),
            }
        )
    return rows


def run(root, spec, name, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (result line, full record, tracer or None)."""
    wl = WORKLOADS[name]
    ref = None if trace else refspeed.Reference()
    import_runs, setup_runs, import_scaled, setup_scaled = [], [], [], []
    before = ref.sample() if ref is not None else None
    for _ in range(1 if smoke else wl.setup_repeats):
        if ref is not None:  # each import and set-up is scaled by the samples around it
            import_runs.append(time_import(root))
            after = ref.sample()
            import_scaled.append(refspeed.scaled(import_runs[-1], before, after))
            before = after
        t0 = perf_counter()
        exp, beta, points = set_up(root, wl, seed, smoke)
        setup_runs.append(perf_counter() - t0)
        if ref is not None:
            after = ref.sample()
            setup_scaled.append(refspeed.scaled(setup_runs[-1], before, after))
            before = after
    warm_failures = [f"{p.label} warm-up failed" for p in points if p.warm.failures or p.warm.trials != 1]
    record = {"import_runs_s": import_runs, "setup_runs_s": setup_runs}
    tracer = None
    if trace:
        tracer = spans.Tracer()
        with tracer:
            for p in points:
                harness.prepare(p.scenario, exp.run, beta)
        trials = run_trials(exp, points, seed, seconds, 1, tracer)
        plain = [t for t in trials if not t.traced]
        traced = [t for t in trials if t.traced]
        metrics = spans.layer_metrics(
            tracer,
            len(traced),
            (sum(t.unicast for t in traced), sum(t.broadcast for t in traced)),
        )
        plain_rate = per_second(plain)
        metrics["trace.overhead_ratio"] = per_second(traced) / plain_rate if plain_rate else math.nan
        record["untraced_trials"] = len(plain)
        record["traced_trials"] = len(traced)
        record["layers_missing"] = tracer.missing
        wanted = spec["per_layer"]
    else:
        trials = run_trials(exp, points, seed, seconds, 1 if smoke else wl.quality_cycles, ref=ref)
        setup_s = statistics.median(import_scaled) + statistics.median(setup_scaled)
        metrics = end_to_end(wl, trials, setup_s)
        done = sum(1 for t in trials if not t.error)
        record["trial_s.samples"] = done
        record["wall"] = {
            "trials_per_s": median_per_second(trials, "seconds"),
            "trial_s.p50": statistics.median(t.seconds for t in trials if not t.error) if done else math.nan,
            "setup_s": statistics.median(import_runs) + statistics.median(setup_runs),
        }
        record["host_slowdown"] = statistics.median(ref.samples) / refspeed.NOMINAL_S
        record["ref_samples_s"] = ref.samples
        record["failure_ratio"] = (len(trials) - done) / len(trials)
        record["output_digest"] = output_digest(wl, trials)
        record["points"] = point_summary(points, wl, trials)
        wanted = spec["end_to_end"]
    errors = warm_failures + [
        f"{points[t.point].label} trial {t.cycle}: {t.error}" for t in trials if t.error
    ]
    values = [metrics[m["name"]] for m in wanted]
    correct = not warm_failures and not any(t.wrong for t in trials)
    correct = correct and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    result = {
        "correct": correct,
        "attempted": len(trials),
        "failed": sum(1 for t in trials if t.error),
        "metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m, v in zip(wanted, values)},
    }
    record["errors"] = errors
    record["trials"] = [[t.cycle, t.point, t.traced, t.seconds, t.scaled] for t in trials]
    return result, record, tracer


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha256(root):
    """Digest of every file under src/, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def manifest(root, name, seed, trace):
    wl = WORKLOADS[name]
    try:
        blas_version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "workload": name,
        "seed": seed,
        "trace": trace,
        "config_sha256": {wl.config: hashlib.sha256((root / wl.config).read_bytes()).hexdigest()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def schema_problems(result, wanted):
    """Ways a result line departs from the schema BENCHMARK.json sets, if any."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)}")
    if not result.get("correct"):
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not a whole number")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{m['name']}: {got}")
    return problems


def smoke(root, spec, only):
    """Reduced-size run of each workload in both trace modes; checks the schema."""
    ok = True
    for name in [only] if only else list(WORKLOADS):
        for trace in (0, 1):
            t0 = perf_counter()
            result, record, _ = run(root, spec, name, 0, 0.0, trace, smoke=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            problems = schema_problems(result, wanted) + record["errors"]
            print(
                f"smoke {name} trace {trace}: {'ok' if not problems else '; '.join(problems)}"
                f" ({perf_counter() - t0:.1f} s)"
            )
            ok = ok and not problems
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def print_summary(name, seed, trace, result, record, man):
    print(f"workload {name} seed {seed} trace {trace}")
    for key, m in result["metrics"].items():
        extra = f"  (n={record['trial_s.samples']})" if key == "trial_s.p50" else ""
        print(f"  {key:<44} {m['value']:.6g} {m['unit']}{extra}")
    if not trace:
        for key, value in record["wall"].items():
            print(f"  {key + ' (wall clock)':<44} {value:.6g} {result['metrics'][key]['unit']}")
        print(f"  {'host_slowdown (reference kernel)':<44} {record['host_slowdown']:.4g}")
        print(f"  {'failure_ratio':<44} {record['failure_ratio']:.6g} ratio")
        print(f"  {'output_digest':<44} {record['output_digest']}")
        for row in record["points"]:
            print(
                f"  point {row['point']:<24} trials {row['trials']:>4}  p50 {row['trial_s.p50']:.4g} s"
                f"  nmse {row['nmse']:.6g}  ser {row['ser']:.6g}"
            )
    else:
        print(f"  untraced/traced trials: {record['untraced_trials']}/{record['traced_trials']}")
        if record["layers_missing"]:
            print(f"  layers not found: {record['layers_missing']}")
    print("manifest " + json.dumps(man))


def parse_args(argv, spec):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description="privcell benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed (per-trial streams)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"], help="timed run_trial seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="reduced-size schema check of every workload")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if args.smoke:
        return smoke(root, spec, args.workload)
    result, record, tracer = run(root, spec, args.workload, args.seed, args.seconds, args.trace)
    man = manifest(root, args.workload, args.seed, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"manifest": man, "result": result, **record}, indent=1) + "\n"
    )
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    for err in record["errors"]:
        print(f"error: {err}", file=sys.stderr)
    print_summary(args.workload, args.seed, args.trace, result, record, man)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
