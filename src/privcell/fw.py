"""Iterative private completion of the APs' observed blocks.

Distributed Frank-Wolfe over a nuclear-norm ball.  Per round, every AP
forms the residual between its current masked iterate and its observed
block, releases a privatised Gram of that residual, and the CPU
broadcasts the top eigenpair of the aggregate (with the eigenvalue
lifted by the expected noise inflation).  APs then take a rank-one step
against the broadcast direction and rescale so the observed part of the
iterate stays within the bound its release noise was calibrated for.

Step sizes are fixed: a full first step, then 1/T.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateStepError, ShapeError
from .linalg import observed_index, observed_norms, top_eigpair
from .privacy import Calibration, CompletionResult, ap_stack, gram_round
from .protocol import Backhaul, MessageKind


@dataclass(frozen=True)
class FwConfig:
    nuclear_bound: float  # radius of the nuclear-norm ball
    calibration: Calibration  # T rounds, the clip bound on each AP's observed entries, the noise std

    def __post_init__(self):
        if self.nuclear_bound <= 0:
            raise ArgumentError(f"nuclear_bound must be positive, got {self.nuclear_bound}")


def nuclear_norm_budget(beta, tau_c, n_antennas):
    """Default nuclear-norm radius from the large-scale gains.

    K * sqrt(tau_c * N_a * sum(beta)), the energy-based cap on the nuclear
    norm of the noiseless stacked signal.
    """
    beta = np.asarray(beta)
    if beta.ndim != 2:
        raise ShapeError(f"beta must be (K, M), got {beta.shape}")
    n_users = beta.shape[0]
    return n_users * math.sqrt(tau_c * n_antennas * float(beta.sum()))


def step_size(round_index, iterations):
    """Fixed schedule: 1 on the first round, then 1/T."""
    return 1.0 if round_index == 1 else 1.0 / iterations


def ap_residual(x, y, omega):
    """Every AP's masked iterate minus its observation; zero off the observed set."""
    j = np.where(omega, x, 0.0)
    j -= y
    return j


def cpu_aggregate_eig(w, noise_scale, n_aps):
    """Top eigenpair of the aggregated releases, eigenvalue lifted.

    Returns (v_top, lam_lifted): the phase-canonical top eigenvector of
    the sum w, and the square root of its (clamped) top eigenvalue plus
    the noise-inflation allowance sqrt(noise_scale) * (M * tau_c)^(1/4).
    """
    tau_c = w.shape[0]
    value, v_top = top_eigpair(w)
    lam = math.sqrt(max(value, 0.0))
    lam_lifted = lam + math.sqrt(noise_scale) * (n_aps * tau_c) ** 0.25
    return v_top, lam_lifted


def ap_update(x, j, v_top, lam_lifted, eta, cfg, index, out=None):
    """Every AP's local FW step against the broadcast direction, then clip.

    An AP whose observed-entry norm exceeds cfg.calibration.bound has its
    whole block scaled onto the bound.  Returns (x_new, norms after clip,
    clipped), x_new written into out (which may be x) when it is given.
    index is `linalg.observed_index(omega)`.
    """
    if lam_lifted == 0.0:
        raise DegenerateStepError("lifted top value is exactly zero")
    step = (j @ v_top)[..., None] * v_top.conj()
    x_new = np.multiply(1.0 - eta, x, out=out)
    x_new -= np.multiply(eta * cfg.nuclear_bound / lam_lifted, step, out=step)  # c * step, in place
    norms = observed_norms(x_new, index)
    clipped = ~(norms <= cfg.calibration.bound)  # a NaN norm counts as over the bound
    for m in np.flatnonzero(clipped):
        x_new[m] *= cfg.calibration.bound / norms[m]
        norms[m] = np.linalg.norm(x_new[m][index.mask[m]])
    return x_new, norms, clipped


def run_fw(y, omega, cfg, seed, net=None):
    """Run the full distributed completion on the APs' observed blocks.

    Args:
        y: (M, N_a, tau_c) stack of the APs' blocks, zeros off the observed set.
        omega: matching boolean observation mask.
        cfg: FwConfig.
        seed: int or tuple of ints; each round's noise seed derives from it.
        net: optional Backhaul to append to (a fresh one by default).

    Returns a CompletionResult.
    """
    y = ap_stack(y, omega)
    n_aps = y.shape[0]
    net = Backhaul() if net is None else net
    x = np.zeros_like(y)
    rounds, sigma = cfg.calibration.releases, cfg.calibration.sigma
    lam_path = np.empty(rounds)
    masked_norms = np.empty((rounds, n_aps))
    clip_events = 0
    index = observed_index(omega)
    for n in range(1, rounds + 1):
        j = ap_residual(x, y, omega)
        v_top, lam_lifted = gram_round(
            net, n, j, sigma, seed, MessageKind.EIG_BROADCAST,
            lambda w: cpu_aggregate_eig(w, sigma, n_aps), tail=(n,),
        )
        eta = step_size(n, rounds)
        x, masked_norms[n - 1], clipped = ap_update(x, j, v_top, lam_lifted, eta, cfg, index, out=x)
        clip_events += int(clipped.sum())
        lam_path[n - 1] = lam_lifted
    return CompletionResult(
        x_hat=x,
        rounds=rounds,
        masked_norms=masked_norms,
        clip_events=clip_events,
        lam_path=lam_path,
    )
