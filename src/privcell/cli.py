"""Command-line front end: simulate, crossval, audit."""

import argparse
import logging
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, set before numpy loads: the bitwise determinism contract
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from .config import COMPLETING, METHODS, TUNABLE, load_experiment, with_overrides  # noqa: E402
from .errors import ConfigError, PrivCellError  # noqa: E402
from .harness import (  # noqa: E402
    cross_validate,
    draw_beta,
    emit_csv,
    paired,
    prepare,
    run_sweep,
    run_trial,
)
from .protocol import Backhaul, audit_privacy_surface, dump_transcript  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _floats(text):
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad value list {text!r}: {e}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty value list {text!r}")
    return values


def _out_path(text):
    """text, if its directory exists and takes new files; checked before any trial runs."""
    folder = Path(text).parent
    if Path(text).is_dir() or not folder.is_dir() or not os.access(folder, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: not a file in a writable directory")
    return text


def build_parser():
    p = argparse.ArgumentParser(prog="privcell", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo sweep and write a CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--method", choices=tuple(METHODS))
    sim.add_argument("--sweep", choices=("epsilon", "tau_d"))
    sim.add_argument("--values", type=_floats)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True, type=_out_path)

    cv = sub.add_parser("crossval", help="grid-search nuc_bound or fw_iters")
    cv.add_argument("--config", required=True)
    cv.add_argument("--method", choices=COMPLETING)
    cv.add_argument("--param", required=True, choices=TUNABLE)
    cv.add_argument("--values", required=True, type=_floats)
    cv.add_argument("--trials", type=int, default=10)
    cv.add_argument("--seed", type=int)

    au = sub.add_parser("audit", help="run one trial and audit its transcript")
    au.add_argument("--config", required=True)
    au.add_argument("--method", choices=tuple(METHODS))
    au.add_argument("--seed", type=int)
    au.add_argument("--out", type=_out_path, help="where to dump the transcript (JSON lines)")
    return p


def _experiment(args, *names):
    """The config file's experiment with the named flags and --seed applied."""
    flags = {name: getattr(args, name) for name in (*names, "method", "seed")}
    return with_overrides(load_experiment(args.config), **flags)


def cmd_simulate(args):
    records = run_sweep(_experiment(args, "sweep", "values", "trials"))
    emit_csv(records, args.out)
    for prev, rec in zip([None, *records], records):
        if prev is not None:  # the paired NMSE step from the previous axis value, on shared trials
            print("  step: nmse {:+.5f} ± {:.5f}, {}/{} rising".format(*paired(prev, rec)))
        print(
            f"{rec.method} {rec.axis}={rec.axis_value:g} "
            f"nmse={rec.nmse:.6g} ser={rec.ser:.6g} "
            f"trials={rec.trials} failures={rec.failures} ({rec.seconds:.1f}s)"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_crossval(args):
    exp = _experiment(args, "trials")
    best, scores = cross_validate(exp, args.param, list(args.values))
    for value, score in scores:
        print(f"{args.param}={value:g} nmse={score:.6g}")
    print(f"best {args.param}={best:g}")
    return EXIT_OK


def cmd_audit(args):
    exp = _experiment(args)
    scen = exp.scenario
    net = Backhaul()
    beta = draw_beta(scen, scen.seed)
    prepared = prepare(scen, exp.run, beta)
    run_trial(scen, exp.run, exp.run.method, prepared, scen.seed, 0, exp.run.eps, net=net)
    report = audit_privacy_surface(net.transcript, scen.tau_c, scen.K, scen.tau_d)
    out = args.out or str(Path(tempfile.gettempdir()) / "privcell_transcript.jsonl")
    dump_transcript(net.transcript, out)
    print(f"transcript: {len(net.transcript)} messages -> {out}")
    if report.ok:
        print("audit: PASS (only Gram releases and local detections left the APs)")
        return EXIT_OK
    for idx, reason in report.failures:
        print(f"audit: FAIL message {idx}: {reason}")
    return EXIT_RUNTIME


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "crossval":
            return cmd_crossval(args)
        if args.command == "audit":
            return cmd_audit(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PrivCellError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
