"""Cell-free uplink model: geometry, fading, pilots, payload, switches.

One coherence block is a low-rank receive matrix split across the
access points: M APs with N_a antennas each listen to K single-antenna
users for tau_c = tau_p + tau_d slots.  Each AP has only N_r RF chains
behind a switch, so per slot it observes N_r of its N_a antenna outputs;
the unobserved entries are structural zeros.

Conventions:
  * a complex Gaussian CN(0, s2) draw has real/imag parts N(0, s2/2);
  * large-scale gain beta = 10**(-(PL(d) + sigma_sh * z) / 10) with
    PL(d) = pl_a + pl_b * log10(d), d in metres, z standard normal;
  * every per-AP array is an (M, N_a, ·) stack, AP m at index m, from
    the channel draw on.
"""

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import shared_matmul
from .seeding import rng_for

log = logging.getLogger(__name__)

MIN_DIST_M = 1.0  # distances are floored here before the path-loss law


def check_real(name, value):
    """A ConfigError unless value is a finite real number (a bool is not one)."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # also no int too large for a float
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def check_int(name, value, minimum):
    """A ConfigError unless value is an integer >= minimum (a bool is not one)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass
class Scenario:
    """Physical parameters of one experiment."""

    M: int  # access points
    K: int  # users
    N_a: int  # antennas per AP
    N_r: int  # RF chains per AP (N_r <= N_a)
    tau_p: int  # pilot slots
    tau_d: int  # payload slots
    R_km: float = 1.0  # hexagon circumradius
    pl_a: float = 36.8  # path-loss intercept, dB
    pl_b: float = 36.7  # path-loss slope, dB per decade
    sigma_sh_db: float = 8.0  # shadowing std, dB
    sigma2: float = 1.0e-13  # receiver noise power, W
    seed: int = 0

    def __post_init__(self):
        for name in ("M", "K", "N_a", "N_r", "tau_p", "tau_d", "seed"):
            check_int(name, getattr(self, name), 0 if name == "seed" else 1)
        for name in ("R_km", "pl_a", "pl_b", "sigma_sh_db", "sigma2"):
            check_real(name, getattr(self, name))
        if self.N_r > self.N_a:
            raise ConfigError(f"N_r={self.N_r} exceeds N_a={self.N_a}")
        if self.tau_p < self.K:
            raise ConfigError(f"tau_p={self.tau_p} below user count K={self.K}")
        if self.R_km <= 0:
            raise ConfigError(f"R_km must be positive, got {self.R_km}")
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be non-negative, got {self.sigma2}")
        if self.sigma_sh_db < 0:
            raise ConfigError(f"sigma_sh_db must be non-negative, got {self.sigma_sh_db}")
        # The analysis regime assumes more stacked antennas than slots.  Long
        # payload sweeps leave it on purpose, so this is advisory only.
        if self.M * self.N_a <= self.tau_c:
            log.warning(
                "M*N_a=%d does not exceed tau_c=%d; outside the usual regime",
                self.M * self.N_a,
                self.tau_c,
            )

    @property
    def tau_c(self):
        return self.tau_p + self.tau_d


@dataclass
class Topology:
    ap_xy: np.ndarray  # (M, 2), metres
    user_xy: np.ndarray  # (K, 2), metres


@dataclass
class SignalBlock:
    """What one coherence block leaves for the APs and the metrics, pilot columns first."""

    D: np.ndarray  # (K, tau_d) payload symbols
    H: np.ndarray  # (M, N_a, K) channel of each AP
    Y: np.ndarray  # (M, N_a, tau_c) switch-sampled receive, zeros off the observed set
    omega: np.ndarray  # bool (M, N_a, tau_c), True where observed


def crandn(rng, shape, s2=1.0):
    """CN(0, s2) i.i.d. array; real and imaginary draws in fixed order."""
    if s2 == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = math.sqrt(s2 / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


def _in_hexagon(xy, a):
    """Point-in-regular-hexagon test, circumradius a, vertex on the x-axis."""
    x = np.abs(xy[..., 0])
    y = np.abs(xy[..., 1])
    s3 = math.sqrt(3.0)
    return (y <= s3 / 2.0 * a) & (s3 * x + y <= s3 * a)


def gen_topology(scenario, rng):
    """Drop APs and users uniformly in the hexagonal region (rejection)."""
    a = scenario.R_km * 1000.0

    def sample(n):
        out = np.empty((n, 2))
        got = 0
        while got < n:
            cand = rng.uniform(-a, a, size=(2 * (n - got) + 8, 2))
            cand[:, 1] *= math.sqrt(3.0) / 2.0
            keep = cand[_in_hexagon(cand, a)]
            take = min(len(keep), n - got)
            out[got : got + take] = keep[:take]
            got += take
        return out

    return Topology(ap_xy=sample(scenario.M), user_xy=sample(scenario.K))


def large_scale_fading(topology, scenario, rng):
    """Per-link gains beta, shape (K, M).

    Log-distance path loss plus log-normal shadowing with a standard real
    normal deviate z.  The other reading in circulation, the real part of
    a unit complex normal, is this draw at sigma_sh_db / sqrt(2).
    """
    d = np.linalg.norm(
        topology.user_xy[:, None, :] - topology.ap_xy[None, :, :], axis=-1
    )
    d = np.maximum(d, MIN_DIST_M)
    pl_db = scenario.pl_a + scenario.pl_b * np.log10(d)
    loss_db = pl_db + scenario.sigma_sh_db * rng.standard_normal(d.shape)
    with np.errstate(over="ignore"):  # a gain out of float range is inf; `harness.prepare` rejects it
        return 10.0 ** (-loss_db / 10.0)


def gen_channels(beta, scenario, rng):
    """Channel stack H of shape (M, N_a, K): sqrt(beta) times CN(0,1) fading."""
    beta = np.asarray(beta)
    if beta.shape != (scenario.K, scenario.M):
        raise ShapeError(f"beta shape {beta.shape}, expected {(scenario.K, scenario.M)}")
    g = crandn(rng, (scenario.M, scenario.N_a, scenario.K))
    return g * np.sqrt(beta.T)[:, None, :]


def gen_pilots(K, tau_p):
    """Orthonormal pilot rows: first K rows of the unitary DFT of size tau_p."""
    if tau_p < K:
        raise ShapeError(f"tau_p={tau_p} below K={K}")
    k = np.arange(K)[:, None]
    t = np.arange(tau_p)[None, :]
    return np.exp(-2j * np.pi * k * t / tau_p) / math.sqrt(tau_p)


def gen_payload(K, tau_d, rng):
    """Unit-power QPSK payload symbol matrix (K, tau_d)."""
    re = 2 * rng.integers(0, 2, size=(K, tau_d)) - 1
    im = 2 * rng.integers(0, 2, size=(K, tau_d)) - 1
    return (re + 1j * im) / math.sqrt(2.0)


def transmit(H, S, sigma2, rng):
    """Noisy receive R = H S + N, N i.i.d. CN(0, sigma2), for H (..., N_a, K)."""
    H = np.asarray(H)
    S = np.asarray(S)
    if H.shape[-1] != S.shape[0]:
        raise ShapeError(f"H {H.shape} and S {S.shape} do not chain")
    return shared_matmul(H, S) + crandn(rng, H.shape[:-1] + S.shape[1:], sigma2)


def sample_switch(R, scenario, rng):
    """Per-AP per-slot switch sampling of an (M, N_a, n) stack: keep N_r of N_a antennas, uniformly.

    Returns (Y, omega): Y equals R on the observed set and is exactly zero
    elsewhere; omega is the boolean observation mask.  Each (AP, slot)
    keeps the antennas holding the N_r smallest of N_a uniform draws, cut
    at the N_r-th smallest by a partition (a tie at the cut, which the
    53-bit draws make vanishingly rare, would keep both).
    """
    R = np.asarray(R)
    if R.ndim != 3 or R.shape[:2] != (scenario.M, scenario.N_a):
        raise ShapeError(f"R has shape {R.shape}, expected ({scenario.M}, {scenario.N_a}, n)")
    r = rng.random(R.shape)
    omega = r <= np.partition(r, scenario.N_r - 1, axis=1)[:, scenario.N_r - 1 : scenario.N_r]
    return np.where(omega, R, 0.0), omega


def make_block(scenario, beta, P, master_seed, trial, sigma2):
    """Draw one coherence block from the per-trial substreams.

    Pilot-slot noise and masks come from streams keyed independently of
    tau_d, so the pilot part of a block is identical across payload-length
    sweeps at the same master seed and trial.  sigma2 is the receiver
    noise power on the scale of beta (the harness passes the unit-rescaled
    value).
    """
    H = gen_channels(beta, scenario, rng_for(master_seed, "channel", trial))
    D = gen_payload(scenario.K, scenario.tau_d, rng_for(master_seed, "payload", trial))
    R_p = transmit(H, P, sigma2, rng_for(master_seed, "noise_pilot", trial))
    R_d = transmit(H, D, sigma2, rng_for(master_seed, "noise_data", trial))
    Y_p, om_p = sample_switch(R_p, scenario, rng_for(master_seed, "mask_pilot", trial))
    Y_d, om_d = sample_switch(R_d, scenario, rng_for(master_seed, "mask_data", trial))
    return SignalBlock(
        D=D,
        H=H,
        Y=np.concatenate([Y_p, Y_d], axis=-1),
        omega=np.concatenate([om_p, om_d], axis=-1),
    )
