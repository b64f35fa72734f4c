"""Monte-Carlo harness: sweeps, cross-validation, CSV output.

A sweep point draws the large-scale fading from trial-independent
streams, so every axis value sees the same deployment, then runs
independently seeded trials.  Per-trial seeds derive from
(master seed, stage, trial index) only, and methods sharing a master seed
see identical channels, masks, and receiver noise.  A sweep runs trial by
trial, and `run_trial` takes its block from a one-entry memo keyed by the
value of every `make_block` input and held read-only, so a trial gives
identical results whatever ran before it.  The memo also holds the
block's packed Gram (`privacy.stacked_gram`), formed by the first
one-shot trial on the block: every one-shot round on it (`svd` at each
epsilon, `npsvd`) adds its noise to that one Gram.

A trial's detection (`_detect`) forms only what the CPU reads: the sum of
every AP's (K, tau_d) detection, one GEMM over the APs' stacked factors per
solve chunk, sent as every AP's LocalDetection in one call.
"""

import csv
import dataclasses
import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import estimation
from .channel import check_int, gen_pilots, gen_topology, large_scale_fading, make_block
from .config import ITERATIVE, ONE_SHOT, ExperimentConfig, method_spec, tunable, whole
from .errors import ArgumentError, ConfigError, MetricUndefinedError, PrivCellError
from .fw import FwConfig, nuclear_norm_budget, run_fw
from .linalg import pinv
from .privacy import calibrate, frob_bound, stacked_gram
from .protocol import Backhaul, MessageKind
from .seeding import derive_master, entropy_for, rng_for
from .svdmc import SvdConfig, run_svd

log = logging.getLogger(__name__)

CSV_HEADER = ("method", "axis", "axis_value", "nmse", "ser", "trials", "failures", "seed", "seconds")
_DETECT_BYTES = 1 << 19  # budget on the largest temporary of a detection solve chunk


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
    trial_nmse: Optional[np.ndarray] = None  # per trial, NaN where it failed; not serialised
    trial_ser: Optional[np.ndarray] = None

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


_BLOCKS = {}  # one-entry memo: the bytes of make_block's inputs -> [the block they draw, its Gram or None]


def _block(scenario, prepared, master_seed, trial, gram=False):
    """(block, Gram): make_block's block, the held one if its inputs match, else a draw that replaces
    it (a miss drops it and its Gram first; a draw that raises holds none), and the block's packed
    `stacked_gram` of Y, formed on the first call with gram=True and held with it (None until then).
    Their arrays are read-only for later trials."""
    arrays = (np.asarray(prepared.beta), np.asarray(prepared.pilots), np.float64(prepared.sigma2))
    key = (repr(scenario), int(master_seed), int(trial), *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))
    if key not in _BLOCKS:
        _BLOCKS.clear()
        block = make_block(scenario, prepared.beta, prepared.pilots, master_seed, trial, prepared.sigma2)
        for a in (block.D, block.H, block.Y, block.omega):
            a.flags.writeable = False
        _BLOCKS[key] = [block, None]
    held = _BLOCKS[key]
    if gram and held[1] is None:
        held[1] = stacked_gram(held[0].Y)
        held[1].flags.writeable = False
    return tuple(held)


def _detect(s, net, solve, *stacks):
    """The soft output of scenario s, the mean of every AP's detection; solve(*(x[aps] for x in
    stacks)) gives the sum of the detections of the APs of slice aps, as `estimation.detect_local`
    and `pilot_only_detect` do, with no per-AP detection formed.

    The solve runs on as many consecutive APs as keep its largest per-AP temporary, the (N_a, tau_d)
    payload block, po's (N_r, N_r, tau_d) gathered Grams or the (K, N_a) detector, within
    _DETECT_BYTES (all 100 APs at m100_k25, 86 at m100_k5; po's noiseless branch with N_r < K takes
    more), and the chunks' sums are added.  Every AP's LocalDetection goes out in one call whose
    payload is that sum, the one thing the CPU reads of them.
    """
    step = max(1, _DETECT_BYTES // (16 * max(s.tau_d * max(s.N_a, s.N_r * s.N_r), s.K * s.N_a)))
    total = sum(solve(*(x[lo:lo + step] for x in stacks)) for lo in range(0, s.M, step))
    net.send_aps(MessageKind.LOCAL_DETECTION, 0, 0, total, s.M)
    return total / s.M


def run_trial(scenario, run, method, prepared, master_seed, trial, eps, net=None):
    """One end-to-end trial on (M, ·, ·) AP stacks, its detections summed for the CPU (`_detect`); returns a
    TrialResult."""
    spec = method_spec(method)
    block, gram = _block(scenario, prepared, master_seed, trial, gram=spec.completion == ONE_SHOT)
    net = Backhaul() if net is None else net
    tau_p = scenario.tau_p
    if spec.completion is None:  # pilot-only: no completion traffic at all
        h_hat = estimation.pilot_only_ls(block.Y, prepared.pilots)
        stacks = h_hat, block.Y, block.omega
        solve = functools.partial(estimation.pilot_only_detect, sigma2=prepared.sigma2, tau_p=tau_p, n_rf=scenario.N_r)
    else:
        cfg = completion_config(method, prepared, scenario, run, eps)
        entropy = entropy_for(master_seed, spec.stage, trial)
        if spec.completion == ITERATIVE:
            res = run_fw(block.Y, block.omega, cfg, entropy, net=net)
        else:  # every one-shot round on this block reads its one held Gram
            res = run_svd(block.Y, block.omega, cfg, entropy, net=net, gram=gram)
        h_hat = estimation.estimate_channel(res.x_hat[..., :tau_p], prepared.pilot_pinv)
        solve, stacks = estimation.detect_local, (h_hat, res.x_hat[..., tau_p:])
    out = TrialResult(
        nmse=estimation.nmse(h_hat, block.H),
        ser=estimation.ser(estimation.slice_qpsk(_detect(scenario, net, solve, *stacks)), block.D),
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


def _record(method, axis, value, master_seed, prepared, results, seconds):
    """One point's MetricsRecord from its trials' results, None where a trial failed."""
    done = [r for r in results if r is not None]
    nmse = float(np.mean([r.nmse for r in done])) if done else math.nan
    ser = float(np.mean([r.ser for r in done])) if done else math.nan
    trial_nmse = np.array([math.nan if r is None else r.nmse for r in results])
    trial_ser = np.array([math.nan if r is None else r.ser for r in results])
    extras = None
    if method_spec(method).completion == ITERATIVE and done:
        extras = {"max_masked_norm": max(r.max_masked_norm for r in done), "clip_bound": prepared.clip_bound}
    failures = len(results) - len(done)
    return MetricsRecord(
        method, axis, float(value), nmse, ser, len(done), failures, master_seed, seconds, extras, trial_nmse, trial_ser
    )


def _sweep(exp, methods, axis, values, trials, master_seed, beta=None):
    """Records of methods x values, method-major, from a trial -> value -> method loop, so a
    trial's block is drawn once (once per tau_d).  Each value is prepared once, on beta or the
    deployment of master_seed; a record's seconds is its share of that plus its trials' time.
    A ConfigError from a trial propagates (no trial can honour the input); a trial that raises
    another PrivCellError or a LinAlgError, or whose NMSE or SER is not finite, is logged and
    counted as a failure."""
    check_int("trials", trials, 1)
    points, results, seconds = {}, {}, {}  # points[i]: (scenario, eps, prepared) of values[i]
    for i, value in enumerate(values):
        # an epsilon sweep runs a method that reads no epsilon at its first value only
        here = [m for m in methods if i == 0 or axis != "epsilon" or method_spec(m).private]
        if here:
            t0 = time.perf_counter()
            scenario, eps = apply_axis(exp.scenario, axis, value)
            drawn = draw_beta(scenario, master_seed) if beta is None else beta
            points[i] = scenario, exp.run.eps if eps is None else eps, prepare(scenario, exp.run, drawn)
            share = (time.perf_counter() - t0) / len(here)
            for m in here:
                results[i, m] = []
                seconds[i, m] = share
    for trial in range(trials):
        for (i, method), out in results.items():  # value by value, each value's methods in order
            scenario, eps, prepared = points[i]
            t0 = time.perf_counter()
            try:
                res = run_trial(scenario, exp.run, method, prepared, master_seed, trial, eps)
                if not (math.isfinite(res.nmse) and math.isfinite(res.ser)):
                    raise MetricUndefinedError(f"non-finite result nmse={res.nmse!r} ser={res.ser!r}")
            except ConfigError:
                raise
            except (PrivCellError, np.linalg.LinAlgError) as e:
                log.warning("excluded trial %d: %s: %s", trial, type(e).__name__, e)
                res = None
            out.append(res)
            seconds[i, method] += time.perf_counter() - t0
    records = []
    for m in methods:
        for i, value in enumerate(values):
            if (i, m) in results:
                records.append(_record(m, axis, value, master_seed, points[i][2], results[i, m], seconds[i, m]))
            else:  # run at the first value only: that record, at this value
                records.append(dataclasses.replace(records[-1], axis_value=float(value)))
    return records


def run_point(exp, method, axis, value, trials, master_seed, beta=None):
    """All trials (an integer >= 1, else a ConfigError) of one method at one axis value; a MetricsRecord."""
    return _sweep(exp, (method,), axis, (value,), trials, master_seed, beta)[0]


def run_sweep(exp, methods=None):
    """Sweep methods (the config's one by default) over the config's axis values, at its trial
    count and seed, trial-major; records come back method by method, each in axis order.

    A non-private method draws no release noise, so nothing it computes reads epsilon: an
    epsilon sweep runs it at the first value only and writes that record, seconds included,
    at every value.
    """
    run = exp.run
    if not run.values:
        raise ConfigError("sweep needs at least one axis value")
    methods = (run.method,) if methods is None else tuple(methods)
    return _sweep(exp, methods, run.sweep, run.values, run.trials, exp.scenario.seed)


def paired(a, b):
    """(mean, standard error, rising count, count) of the per-trial NMSE change from record a to
    record b, over the trials both completed."""
    d = b.trial_nmse - a.trial_nmse
    d = d[~np.isnan(d)]
    se = float(np.std(d, ddof=1) / math.sqrt(len(d))) if len(d) > 1 else math.nan
    return float(np.mean(d)) if len(d) else math.nan, se, int(np.count_nonzero(d > 0)), len(d)


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

