"""Monte-Carlo harness: sweeps, cross-validation, CSV output.

A sweep point draws the large-scale fading from trial-independent
streams, so every axis value sees the same deployment, then runs
independently seeded trials.  Per-trial seeds derive from
(master seed, stage, trial index) only, so a trial gives identical
results whatever ran before it, and methods sharing a master seed see
identical channels, masks, and receiver noise.
"""

import csv
import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import estimation
from .channel import check_int, gen_pilots, gen_topology, large_scale_fading, make_block
from .config import ITERATIVE, ExperimentConfig, method_spec, tunable, whole
from .errors import ArgumentError, ConfigError, MetricUndefinedError, PrivCellError
from .fw import FwConfig, nuclear_norm_budget, run_fw
from .linalg import pinv
from .privacy import calibrate, frob_bound
from .protocol import Backhaul, MessageKind
from .seeding import derive_master, entropy_for, rng_for
from .svdmc import SvdConfig, run_svd

log = logging.getLogger(__name__)

CSV_HEADER = ("method", "axis", "axis_value", "nmse", "ser", "trials", "failures", "seed", "seconds")
_DETECT_BYTES = 1 << 19  # budget on the largest per-chunk detection temporary


@dataclass
class Prepared:
    """Per-sweep-point fixed quantities (large-scale draw, pilots, bounds)."""

    beta: np.ndarray  # (K, M), rescaled to unit median
    sigma2: float  # noise power on the same scale as beta
    pilots: np.ndarray
    pilot_pinv: np.ndarray  # pinv(pilots), shared by every AP and trial
    clip_bound: float
    nuc_bound: float


@dataclass
class TrialResult:
    nmse: float
    ser: float
    max_masked_norm: float = float("nan")  # FW only: peak observed-part norm


@dataclass
class MetricsRecord:
    method: str
    axis: str
    axis_value: float
    nmse: float
    ser: float
    trials: int
    failures: int
    seed: int
    seconds: float
    extras: Optional[dict] = None  # diagnostics, not serialised

    def row(self):
        return [getattr(self, name) for name in CSV_HEADER]


def draw_beta(scenario, master_seed):
    """Large-scale gains (K, M), from streams keyed by the master seed alone."""
    topo = gen_topology(scenario, rng_for(master_seed, "topology"))
    return large_scale_fading(topo, scenario, rng_for(master_seed, "shadowing"))


def prepare(scenario, run, beta):
    """Rescale the gains to unit median; fix pilots and the derived bounds for one sweep point.

    A ConfigError unless the rescaled gains and noise power are finite, which needs finite
    gains with a positive median: a path loss outside float range overflows or underflows.
    """
    beta = np.asarray(beta, dtype=float)
    med = float(np.median(beta))
    scale = 1.0 / med if 0 < med < math.inf else math.nan  # NaN fails the check below without a warning
    beta = beta * scale
    sigma2 = scenario.sigma2 * scale
    if not (np.isfinite(beta).all() and math.isfinite(sigma2)):
        raise ConfigError(
            "link gains must be finite with a positive median and the rescaled noise power finite, "
            f"got median gain {med!r}: the path loss (pl_a, pl_b, sigma_sh_db) or sigma2 "
            "is outside float range"
        )
    clip = run.clip_bound * np.sqrt(scale) if run.clip_bound else frob_bound(
        beta, scenario.K, scenario.N_a, scenario.tau_c, sigma2
    )
    nuc = run.nuc_bound * np.sqrt(scale) if run.nuc_bound else nuclear_norm_budget(
        beta, scenario.tau_c, scenario.N_a
    )
    pilots = gen_pilots(scenario.K, scenario.tau_p)
    return Prepared(
        beta=beta,
        sigma2=sigma2,
        pilots=pilots,
        pilot_pinv=pinv(pilots),
        clip_bound=clip,
        nuc_bound=nuc,
    )


def completion_config(method, prepared, scenario, run, eps):
    """FwConfig or SvdConfig of a completing method, on `privacy.calibrate`'s record."""
    spec = method_spec(method)
    if spec.completion is None:
        raise ArgumentError(f"method {method!r} runs no completion")
    cal = calibrate(spec, prepared.clip_bound, scenario.M, run, eps)
    if spec.completion == ITERATIVE:
        return FwConfig(prepared.nuc_bound, cal)
    return SvdConfig(scenario.K, cal, scenario.N_a / scenario.N_r)


def run_trial(scenario, run, method, prepared, master_seed, trial, eps, net=None):
    """One end-to-end trial on (M, ·, ·) AP stacks, detected in AP chunks; returns a TrialResult."""
    spec = method_spec(method)
    block = make_block(
        scenario, prepared.beta, prepared.pilots, master_seed, trial, prepared.sigma2
    )
    net = Backhaul() if net is None else net
    tau_p = scenario.tau_p
    if spec.completion is None:  # pilot-only: no completion traffic at all
        h_hat = estimation.pilot_only_ls(block.Y, prepared.pilots)
        detect = lambda aps: estimation.pilot_only_detect_block(  # noqa: E731
            h_hat[aps], block.Y[aps], block.omega[aps], prepared.sigma2, tau_p, scenario.N_r
        )
    else:
        cfg = completion_config(method, prepared, scenario, run, eps)
        entropy = entropy_for(master_seed, spec.stage, trial)
        complete = run_fw if spec.completion == ITERATIVE else run_svd
        res = complete(block.Y, block.omega, cfg, entropy, net=net)
        h_hat = estimation.estimate_channel(res.x_hat[..., :tau_p], prepared.pilot_pinv)
        detect = lambda aps: estimation.detect_local(h_hat[aps], res.x_hat[aps, :, tau_p:])  # noqa: E731
    # Each chunk of consecutive APs is sent in one call and added into one running sum in AP
    # order, so no (M, K, tau_d) stack is held.  A chunk keeps its largest per-AP temporary, the
    # (K, tau_d) detection or po's (N_a, tau_d) scattered solution and (N_r, N_r, tau_d) gathered
    # Grams, within _DETECT_BYTES; po's counting-pass index is (N_r, tau_d).  (po's K x K and
    # noiseless branches, which no shipped profile takes, still gather a (tau_d, N_r, K) stack.)
    s = scenario
    step = max(1, _DETECT_BYTES // (16 * s.tau_d * max(s.K, s.N_a, s.N_r * s.N_r)))
    total = None
    for lo in range(0, s.M, step):
        d = detect(slice(lo, lo + step))
        net.send_aps(MessageKind.LOCAL_DETECTION, lo, 0, d)
        total = estimation.combine(d, total)
    out = TrialResult(
        nmse=estimation.nmse(h_hat, block.H),
        ser=estimation.ser(estimation.slice_qpsk(total / scenario.M), block.D),
    )
    if spec.completion == ITERATIVE:
        out.max_masked_norm = float(res.masked_norms.max())
    return out


def apply_axis(scenario, axis, value):
    if axis == "epsilon":
        return scenario, float(value)
    if axis == "tau_d":
        return dataclasses.replace(scenario, tau_d=whole("tau_d", value)), None
    raise ArgumentError(f"unknown sweep axis {axis!r}")


def run_point(exp, method, axis, value, trials, master_seed, beta=None):
    """All trials of one method at one axis value; returns a MetricsRecord.

    trials must be an integer >= 1, else a ConfigError, as is raised from a trial (an input no
    trial can honour).  A trial that raises another PrivCellError or a LinAlgError, or whose
    NMSE or SER is not finite, is logged and counted as a failure, never averaged in.
    """
    check_int("trials", trials, 1)
    clipping = method_spec(method).completion == ITERATIVE
    scenario, eps_override = apply_axis(exp.scenario, axis, value)
    eps = eps_override if eps_override is not None else exp.run.eps
    t0 = time.perf_counter()
    if beta is None:
        beta = draw_beta(scenario, master_seed)
    prepared = prepare(scenario, exp.run, beta)
    results, failures = [], 0
    for trial in range(trials):
        try:
            res = run_trial(scenario, exp.run, method, prepared, master_seed, trial, eps)
            if not (math.isfinite(res.nmse) and math.isfinite(res.ser)):
                raise MetricUndefinedError(f"non-finite result nmse={res.nmse!r} ser={res.ser!r}")
            results.append(res)
        except ConfigError:
            raise
        except (PrivCellError, np.linalg.LinAlgError) as e:
            failures += 1
            log.warning("excluded trial %d: %s: %s", trial, type(e).__name__, e)
    nm = float(np.mean([r.nmse for r in results])) if results else float("nan")
    sr = float(np.mean([r.ser for r in results])) if results else float("nan")
    extras = {}
    if clipping and results:
        extras["max_masked_norm"] = max(r.max_masked_norm for r in results)
        extras["clip_bound"] = prepared.clip_bound
    return MetricsRecord(
        method=method,
        axis=axis,
        axis_value=float(value),
        nmse=nm,
        ser=sr,
        trials=len(results),
        failures=failures,
        seed=master_seed,
        seconds=time.perf_counter() - t0,
        extras=extras or None,
    )


def run_sweep(exp):
    """Sweep the config's method over its axis values, at its trial count and seed.

    A non-private method draws no release noise, so nothing it computes reads epsilon: an
    epsilon sweep runs it at the first value only and writes that record, seconds included,
    at every value.
    """
    run = exp.run
    if not run.values:
        raise ConfigError("sweep needs at least one axis value")
    seed = exp.scenario.seed
    if run.sweep == "epsilon" and not method_spec(run.method).private:
        rec = run_point(exp, run.method, run.sweep, run.values[0], run.trials, seed)
        return [dataclasses.replace(rec, axis_value=float(v)) for v in run.values]
    return [run_point(exp, run.method, run.sweep, v, run.trials, seed) for v in run.values]


def cross_validate(exp, param, grid):
    """Pick the grid value minimising mean NMSE on a held-out seed family.

    The method, trial count and seed are the config's.  Ties break toward
    the earlier grid entry, so pass the grid sorted ascending to prefer
    the smaller value.  A param the method never reads is a ConfigError:
    every grid value would score the same.  If every trial at every grid
    value fails, no value can be picked and a PrivCellError names the grid.
    """
    method = exp.run.method
    if param not in tunable(method):
        raise ConfigError(f"method {method!r} does not read {param!r}, so every value would score the same")
    if not grid:
        raise ArgumentError("empty cross-validation grid")
    cv_seed = derive_master(exp.scenario.seed, "crossval")
    scores = []
    for value in grid:
        run = dataclasses.replace(
            exp.run, **{param: whole(param, value) if param == "fw_iters" else float(value)}
        )
        cv_exp = ExperimentConfig(scenario=exp.scenario, run=run)
        rec = run_point(cv_exp, method, "epsilon", run.eps, run.trials, cv_seed)
        scores.append(rec.nmse)
        log.info("crossval %s=%s -> nmse %.6g", param, value, rec.nmse)
    if all(math.isnan(score) for score in scores):
        raise PrivCellError(f"every trial failed at every {param} value in {grid}; nothing to pick")
    best = int(np.nanargmin(scores))
    return grid[best], list(zip(grid, scores))


def emit_csv(records, path):
    """Write sweep records with the fixed header; raises on empty input."""
    if not records:
        raise ArgumentError("no records to write")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for rec in records:
            w.writerow(rec.row())

