#!/usr/bin/env python3
"""Reproduce a profile's trade-off tables as CSV files.

Two sweeps over the profile given by --config, the shipped 20-AP desk
profile by default:
  * NMSE/SER versus the privacy budget epsilon, all five methods;
  * NMSE/SER versus the payload length tau_d at epsilon=1.

Each table is named after the profile file, <stem>_<axis>.csv: desk.yaml
writes desk_epsilon.csv and desk_tau_d.csv, m100_k5.yaml writes
m100_k5_epsilon.csv and m100_k5_tau_d.csv, so profiles never overwrite
each other's tables.  Each sweep is one `harness.run_sweep` call with
the whole method list.  It runs trial by trial, every axis value and
method of a trial in turn, so the trial's coherence block is drawn once
for the epsilon sweep (50 blocks at desk's 50 trials, not 13 per trial)
and once per tau_d for the payload sweep.  The non-private and
pilot-only rows are flat along the epsilon axis by construction, so
`run_sweep` runs each of them once and writes its record at every
epsilon; the CSV keeps one row per method and value, in method order,
and can be plotted without special cases.  At desk's 50 trials the
epsilon sweep takes about 9 s and the tau_d sweep about 4 s, both in one
run about 11 s (wall clock, 2-core Intel Xeon host, BLAS pinned to one
thread).

At each axis value the script also prints each completing method's
paired NMSE step from the pilot-only baseline `po` (`harness.paired`
over the trials both completed, the same channels, masks and noise):
the mean per-trial difference, its standard error and how many trials
rose.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# one BLAS thread, set before numpy loads: the bitwise determinism contract
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from privcell.config import COMPLETING, METHODS, load_experiment, with_overrides  # noqa: E402
from privcell.errors import ConfigError  # noqa: E402
from privcell.harness import emit_csv, paired, run_sweep  # noqa: E402

EPS_VALUES = (0.1, 0.5, 1.0, 5.0, 10.0)
TAU_VALUES = (20.0, 40.0, 80.0, 160.0)

SWEEPS = {
    "epsilon": (EPS_VALUES, tuple(METHODS)),
    "tau_d": (TAU_VALUES, ("fw", "svd", "po")),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "desk.yaml"))
    ap.add_argument("--sweep", choices=("epsilon", "tau_d", "both"), default="both")
    ap.add_argument("--trials", type=int, help="override the config trial count")
    ap.add_argument("--out-dir", default=str(ROOT / "results"))
    args = ap.parse_args()

    exp = with_overrides(load_experiment(args.config), trials=args.trials)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, or no permission: before any sweep runs
        print(f"--out-dir {out_dir} is not a usable directory: {e.strerror or e}", file=sys.stderr)
        sys.exit(2)

    axes = ("epsilon", "tau_d") if args.sweep == "both" else (args.sweep,)
    for axis in axes:
        values, methods = SWEEPS[axis]
        t0 = time.perf_counter()
        records = run_sweep(with_overrides(exp, sweep=axis, values=values), methods)
        out = out_dir / f"{Path(args.config).stem}_{axis}.csv"
        emit_csv(records, out)
        print(f"wrote {out} ({len(records)} rows, {time.perf_counter() - t0:.0f}s)")
        po = {rec.axis_value: rec for rec in records if rec.method == "po"}
        for value in values:
            for rec in records:
                if rec.axis_value == value and rec.method in COMPLETING:  # the step from po on shared trials
                    print("  {}={:g} {} - po: nmse {:+.5f} ± {:.5f}, {}/{} rising".format(
                        axis, value, rec.method, *paired(po[value], rec)))


if __name__ == "__main__":
    try:
        main()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        sys.exit(2)
