"""Command-line front end: simulate, crossval, audit."""

import argparse
import dataclasses
import logging
import sys
import tempfile
from pathlib import Path

from .config import COMPLETING, METHODS, TUNABLE, load_experiment
from .errors import ConfigError, PrivCellError
from .harness import (
    cross_validate,
    draw_beta,
    emit_csv,
    prepare,
    run_sweep,
    run_trial,
)
from .protocol import Backhaul, audit_privacy_surface, dump_transcript

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
    sim.add_argument("--out", required=True)

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
    au.add_argument("--out", help="where to dump the transcript (JSON lines)")
    return p


def _experiment(args):
    exp = load_experiment(args.config)
    overrides = {}
    for name in ("method", "trials", "sweep", "values"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    exp = dataclasses.replace(exp, run=dataclasses.replace(exp.run, **overrides))
    if getattr(args, "seed", None) is not None:
        exp = dataclasses.replace(
            exp, scenario=dataclasses.replace(exp.scenario, seed=args.seed)
        )
    return exp


def cmd_simulate(args):
    exp = _experiment(args)
    records = run_sweep(exp)
    emit_csv(records, args.out)
    for rec in records:
        print(
            f"{rec.method} {rec.axis}={rec.axis_value:g} "
            f"nmse={rec.nmse:.6g} ser={rec.ser:.6g} "
            f"trials={rec.trials} failures={rec.failures} ({rec.seconds:.1f}s)"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_crossval(args):
    exp = _experiment(args)
    method = args.method or exp.run.method
    best, scores = cross_validate(
        exp, method, args.param, list(args.values), args.trials
    )
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
    report = audit_privacy_surface(
        net.transcript, tau_c=scen.tau_c, n_users=scen.K, n_payload=scen.tau_d
    )
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
