"""Iterative private completion of the stacked observation matrix.

Distributed Frank-Wolfe over a nuclear-norm ball.  Per round, every AP
forms the residual between its current masked iterate and its observed
block, releases a privatised Gram of that residual, and the CPU
broadcasts the top eigenpair of the aggregate (with the eigenvalue
lifted by the expected noise inflation).  APs then take a rank-one step
against the broadcast direction and rescale so the observed part of the
iterate never exceeds the sensitivity bound the noise was calibrated
for.

Step sizes are fixed: a full first step, then 1/T.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateStepError, ShapeError
from .linalg import apply_mask, hermitian_eig, masked_frob_norm
from .privacy import CompletionResult, gram_round, split_aps
from .protocol import Backhaul, MessageKind


@dataclass(frozen=True)
class FwConfig:
    iterations: int  # number of rounds (and of per-AP releases)
    nuclear_bound: float  # radius of the nuclear-norm ball
    clip_bound: float  # cap on the observed-entry Frobenius norm per AP
    noise_scale: float  # per-release Hermitian noise std (0 = non-private)
    keep_iterates: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ArgumentError(f"iterations must be >= 1, got {self.iterations}")
        if self.nuclear_bound <= 0:
            raise ArgumentError(f"nuclear_bound must be positive, got {self.nuclear_bound}")
        if self.clip_bound <= 0:
            raise ArgumentError(f"clip_bound must be positive, got {self.clip_bound}")
        if self.noise_scale < 0:
            raise ArgumentError(f"noise_scale must be non-negative, got {self.noise_scale}")


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


def ap_residual(x_m, y_m, omega_m):
    """Masked-iterate-minus-observation; supported on the observed set."""
    return apply_mask(x_m, omega_m) - y_m


def cpu_aggregate_eig(w, noise_scale, n_aps):
    """Top eigenpair of the aggregated releases, eigenvalue lifted.

    Returns (v_top, lam_lifted): the phase-canonical top eigenvector of
    the symmetrized sum w, and the square root of its (clamped) top
    eigenvalue plus the noise-inflation allowance
    sqrt(noise_scale) * (M * tau_c)^(1/4).
    """
    tau_c = w.shape[0]
    pair = hermitian_eig(w, 1)[0]
    lam = math.sqrt(max(pair.value, 0.0))
    lam_lifted = lam + math.sqrt(noise_scale) * (n_aps * tau_c) ** 0.25
    return pair.vector, lam_lifted


def clip_observed(x_m, omega_m, bound):
    """Scale the whole block so its observed-entry norm is within bound."""
    mn = masked_frob_norm(x_m, omega_m)
    if mn <= bound:
        return x_m, False
    return x_m * (bound / mn), True


def ap_update(x_m, j_m, v_top, lam_lifted, eta, cfg, omega_m):
    """One local FW step against the broadcast direction, then clip."""
    if lam_lifted == 0.0:
        raise DegenerateStepError("lifted top value is exactly zero")
    step = np.outer(j_m @ v_top, v_top.conj())
    x_new = (1.0 - eta) * x_m - (eta * cfg.nuclear_bound / lam_lifted) * step
    return clip_observed(x_new, omega_m, cfg.clip_bound)


def run_fw(y, omega, n_aps, cfg, seed, net=None):
    """Run the full distributed completion on a stacked observation matrix.

    Args:
        y: (M*N_a, tau_c) observed matrix, zeros off the observed set.
        omega: matching boolean observation mask.
        n_aps: number of row blocks (APs).
        cfg: FwConfig.
        seed: int or tuple of ints; per-release noise seeds derive from it.
        net: optional Backhaul to append to (a fresh one by default).

    Returns a CompletionResult.
    """
    y_blocks, omega_blocks = split_aps(y, omega, n_aps)
    if net is None:
        net = Backhaul()
    x_blocks = [np.zeros_like(b) for b in y_blocks]
    lam_path = np.empty(cfg.iterations)
    masked_norms = np.empty((cfg.iterations, n_aps))
    clip_events = 0
    iterates = [] if cfg.keep_iterates else None
    for n in range(1, cfg.iterations + 1):
        residuals = [ap_residual(*b) for b in zip(x_blocks, y_blocks, omega_blocks)]
        v_top, lam_lifted = gram_round(
            net, n, residuals, cfg.noise_scale, seed, MessageKind.EIG_BROADCAST,
            lambda w: cpu_aggregate_eig(w, cfg.noise_scale, n_aps), tail=(n,),
        )
        eta = step_size(n, cfg.iterations)
        for m in range(n_aps):
            x_blocks[m], clipped = ap_update(
                x_blocks[m], residuals[m], v_top, lam_lifted, eta, cfg, omega_blocks[m]
            )
            clip_events += int(clipped)
            masked_norms[n - 1, m] = masked_frob_norm(x_blocks[m], omega_blocks[m])
        lam_path[n - 1] = lam_lifted
        if iterates is not None:
            iterates.append(np.vstack(x_blocks))
    return CompletionResult(
        x_hat=np.vstack(x_blocks),
        rounds=cfg.iterations,
        masked_norms=masked_norms,
        clip_events=clip_events,
        lam_path=lam_path,
        iterates=iterates,
    )
