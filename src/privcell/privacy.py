"""The private Gram release round, with its calibration and noise.

Each AP only ever reports tau_c x tau_c Gram matrices of its local
residual (or observed block).  Privacy against everything the CPU
and other APs see is bought by Hermitian complex Gaussian noise on the
releases.  A release is Hermitian by construction, so it travels in
packed form: tau_c^2 float64s, the real parts of the strict upper
triangle (row-major), then their imaginary parts, then the real
diagonal (`pack_hermitian` / `unpack_hermitian`; the layout is fixed in
`_hermitian_slots`).  Both completions run on the same round
(`gram_round`, the private Frank-Wolfe mechanism of Jain, Thakkar and
Thakurta, 2018): every AP releases, the CPU learns the sum of the
releases, unpacks it once and broadcasts what it derives from it.  The
two release schedules are:

  * iterative: T releases per AP across the FW-style completion; the
    per-release scale comes from advanced composition over T rounds,
    splitting the budget evenly and halving delta between the
    per-release mechanisms and the composition slack;
  * one-shot: a single release per AP for the spectral completion.

Scales are stated per AP; M released matrices are summed at the CPU, so
the aggregate per-entry variance is M times the per-AP variance.  That
per-AP calibration holds only if the CPU sees nothing but the sum, as
under secure aggregation, and it is the only trust model the simulator
can run: `gram_round` never forms a per-AP release.  It forms the sum
itself, the Gram of the stacked blocks plus one noise draw at scale
sqrt(M) times the per-AP one, which is equal in distribution to M
independent per-AP draws summed.  Each AP still sends its declared
release message, and each carries that sum.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, ShapeError
from .protocol import MessageKind


@dataclass
class CompletionResult:
    """Output of one distributed completion run."""

    x_hat: np.ndarray  # (M, N_a, tau_c) completed blocks, AP m at index m
    rounds: int
    clip_events: int = 0
    masked_norms: Optional[np.ndarray] = None  # FW only: (rounds, M) observed-entry norms after each round
    lam_path: Optional[np.ndarray] = None  # FW only: lifted top value per round


def frob_bound(beta, n_users, n_antennas, tau_c, sigma2):
    """Worst-case Frobenius bound on any AP's observed signal block.

    The signal part is bounded through the largest per-AP sum of link
    gains (channel hardening across K users and tau_c slots); the additive
    part allows for the thermal noise energy of a fully observed block.
    """
    beta = np.asarray(beta)
    if beta.ndim != 2:
        raise ArgumentError(f"beta must be (K, M), got shape {beta.shape}")
    per_ap = beta.sum(axis=0)  # (M,)
    sig = math.sqrt(n_users * tau_c * n_antennas * float(per_ap.max(initial=0.0)))
    noise = math.sqrt(n_antennas * tau_c * sigma2)
    return sig + noise


def fw_noise_scale(bound, iterations, n_aps, eps, delta):
    """Per-release std for `iterations` composed Gram releases per AP.

    Gaussian-mechanism scale for sensitivity 4*bound^2 at the per-release
    budget (eps / sqrt(8 T ln(2/delta)), delta / 2T), stated per AP for an
    M-AP aggregate.
    """
    _check_budget(eps, delta)
    if iterations < 1:
        raise ArgumentError(f"iterations must be >= 1, got {iterations}")
    if n_aps < 1:
        raise ArgumentError(f"n_aps must be >= 1, got {n_aps}")
    t = float(iterations)
    return (
        16.0
        * bound**2
        * math.sqrt((t / n_aps) * math.log(2.5 * t / delta) * math.log(2.0 / delta))
        / eps
    )


def svd_noise_scale(bound, n_aps, eps, delta):
    """Per-release std for one Gram release per AP at budget (eps, delta)."""
    _check_budget(eps, delta)
    if n_aps < 1:
        raise ArgumentError(f"n_aps must be >= 1, got {n_aps}")
    return bound**2 * math.sqrt((2.0 / n_aps) * math.log(1.25 / delta)) / eps


@functools.lru_cache(maxsize=16)
def _hermitian_slots(dim):
    """Where the packed layout reads a dim x dim matrix: (upper, lower) flat indices.

    upper lists the strict upper triangle row-major, lower the mirror of
    each entry.  The wire order is the real parts at upper, then their
    imaginary parts, then the real diagonal.
    """
    i, j = np.triu_indices(dim, k=1)
    return i * dim + j, j * dim + i


def pack_hermitian(h):
    """The packed wire form of (h + h^H)/2 for a square h: a fresh vector of dim^2 float64s.

    Formed on the packed slots alone (order: `_hermitian_slots`): a
    Hermitian h packs to exactly itself.
    """
    h = np.asarray(h, dtype=complex)
    upper, lower = _hermitian_slots(len(h))
    u, l, d, n_off = h.reshape(-1)[upper], h.reshape(-1)[lower], h.diagonal().real, upper.size
    p = np.empty(len(h) ** 2)
    np.add(u.real, l.real, out=p[:n_off])  # real parts: upper + lower
    np.subtract(u.imag, l.imag, out=p[n_off : 2 * n_off])  # imaginary parts: upper - lower
    np.add(d, d, out=p[2 * n_off :])  # diagonal: d + d
    p *= 0.5
    return p


def unpack_hermitian(p):
    """The exactly Hermitian matrix of a packed release p.

    The lower triangle's imaginary parts are 0.0 - upper (so a zero is
    +0.0) and the diagonal's imaginary parts are +0.0.
    """
    dim = math.isqrt(p.size)
    if p.ndim != 1 or dim * dim != p.size:
        raise ShapeError(f"a packed Hermitian release is 1-D of square length, got shape {p.shape}")
    upper, lower = _hermitian_slots(dim)
    h, n_off = np.zeros((dim, dim), dtype=complex), upper.size
    re, im = h.reshape(-1).real, h.reshape(-1).imag
    re[upper] = re[lower] = p[:n_off]
    im[upper], im[lower] = p[n_off : 2 * n_off], np.subtract(0.0, p[n_off : 2 * n_off])
    re[:: dim + 1] = p[2 * n_off :]
    return h


def _packed_noise(dim, scale, seed):
    """One Hermitian noise draw in packed form, as the scaled standard normals.

    The dim^2 normals are drawn in wire order (upper-real, upper-imag,
    diagonal); off-diagonal parts get std scale/sqrt(2), the diagonal scale.
    """
    if not 0 <= scale < math.inf:
        raise ArgumentError(f"scale must be finite and >= 0, got {scale}")
    z = np.random.default_rng(seed).standard_normal(dim * dim)
    n_off = dim * (dim - 1)
    z[:n_off] *= scale / math.sqrt(2.0)
    z[n_off:] *= scale
    return z


def _check_budget(eps, delta):
    if not 0 < eps < math.inf:
        raise ArgumentError(f"eps must be positive and finite, got {eps}")
    if not 0 < delta < 1:
        raise ArgumentError(f"delta must lie in (0, 1), got {delta}")


def ap_stack(y, omega):
    """y as complex, once it and omega are matching (M, N_a, tau_c) AP stacks."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 3 or y.shape != omega.shape:
        raise ShapeError(f"y {y.shape} and omega {omega.shape} are not matching (M, N_a, tau_c) stacks")
    return y


def gram_round(net, round_index, blocks, noise_scale, seed, kind, cpu, tail=()):
    """One release -> aggregate -> broadcast round over the backhaul.

    blocks is the (M, N_a, tau_c) stack of the APs' blocks.  The round
    forms the sum of the APs' Grams in one product over the stacked
    (M*N_a, tau_c) matrix, packs it (`pack_hermitian`) and, unless
    noise_scale == 0, adds one packed Hermitian draw at noise_scale *
    sqrt(M) seeded by SeedSequence([*seed, *tail]): the sum of M per-AP
    releases at noise_scale, in distribution.  Then APs 0..M-1 send their
    releases in one `send_aps` call, each message carrying that packed
    sum, and the CPU unpacks the sum once, broadcasts cpu(sum) as
    `kind` and returns it.
    """
    entropy = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    n_aps, _, tau_c = blocks.shape
    j = blocks.reshape(-1, tau_c)
    w = pack_hermitian(j.conj().T @ j)
    if noise_scale != 0.0:  # a NaN scale reaches the sampler and raises before any send
        w += _packed_noise(tau_c, noise_scale * math.sqrt(n_aps), np.random.SeedSequence([*entropy, *tail]))
    net.send_aps(MessageKind.GRAM_RELEASE, 0, round_index, np.broadcast_to(w, (n_aps, w.size)))
    payload = cpu(unpack_hermitian(w))
    net.broadcast(kind, round_index, payload)
    return payload
