#!/usr/bin/env python3
"""Grid-search the completion knobs on a held-out seed family.

Scores the private iterative method's round count over a small grid,
and an iterative method's nuclear-norm budget over a 10-point uniform
grid given as a positive fraction of the bound derived from the scored
(held-out) deployment.  Prints one table per parameter the method reads,
and none for a method that reads neither.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# one BLAS thread, set before numpy loads: the bitwise determinism contract
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from privcell.config import COMPLETING, load_experiment, tunable, whole, with_overrides  # noqa: E402
from privcell.errors import ConfigError  # noqa: E402
from privcell.fw import nuclear_norm_budget  # noqa: E402
from privcell.harness import cross_validate, draw_beta, prepare  # noqa: E402
from privcell.seeding import derive_master  # noqa: E402


def numbers(name, text):
    """The comma-separated numbers of text; a ConfigError names the flag otherwise."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated numbers, got {text!r}") from None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "desk.yaml"))
    ap.add_argument("--method", default="fw", choices=COMPLETING)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--iters-grid", default="4,8,12,16,20")
    ap.add_argument("--nuc-fractions", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    args = ap.parse_args()

    exp = with_overrides(load_experiment(args.config), method=args.method, trials=args.trials)
    iters_grid = [whole("fw_iters", v) for v in numbers("--iters-grid", args.iters_grid)]
    fractions = numbers("--nuc-fractions", args.nuc_fractions)
    if not all(0 < f < float("inf") for f in fractions):
        raise ConfigError(f"--nuc-fractions must be positive and finite, got {args.nuc_fractions!r}")
    scen = exp.scenario
    params = tunable(args.method)
    if not params:
        print(f"{args.method} reads neither nuc_bound nor fw_iters: nothing to tune")

    if "fw_iters" in params:
        best, scores = cross_validate(exp, "fw_iters", iters_grid)
        print(f"\nround count ({args.method}, {args.trials} trials):")
        for value, score in scores:
            mark = " <-" if value == best else ""
            print(f"  T={value:<4d} nmse={score:.6f}{mark}")

    if "nuc_bound" not in params:
        return
    # nuclear-norm budget, expressed against the bound derived from the
    # deployment cross_validate scores on (its held-out seed family), so
    # the fractions do not depend on the scale of the gains
    beta = draw_beta(scen, derive_master(scen.seed, "crossval"))
    physical = nuclear_norm_budget(beta, scen.tau_c, scen.N_a)
    derived = nuclear_norm_budget(prepare(scen, exp.run, beta).beta, scen.tau_c, scen.N_a)
    grid = [f * physical for f in fractions]
    best, scores = cross_validate(exp, "nuc_bound", grid)
    print(f"\nnuclear budget ({args.method}, derived bound {derived:.3f} in working units):")
    for frac, (value, score) in zip(fractions, scores):
        mark = " <-" if value == best else ""
        print(f"  {frac:>4.2f} x bound  nmse={score:.6f}{mark}")
    print(f"best fraction: {fractions[grid.index(best)]:.2f}")


if __name__ == "__main__":
    try:
        main()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        sys.exit(2)
