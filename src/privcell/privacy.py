"""The private Gram release round, with its calibration and noise.

Each AP only ever reports tau_c x tau_c Gram matrices of its local
residual (or observed block).  Privacy against everything the CPU
and other APs see is bought by Hermitian complex Gaussian noise on the
releases.  A release is Hermitian by construction, so it travels in
packed form: tau_c^2 float64s, the real parts of the strict upper
triangle (row-major), then their imaginary parts, then the real
diagonal (`pack_hermitian`; the layout is fixed in `_hermitian_slots`).
Both completions run on the same round (`gram_round`, the private
Frank-Wolfe mechanism of Jain, Thakkar and Thakurta, 2018): every AP
releases, the CPU learns the packed sum of the releases and broadcasts
what it derives from it.  The CPU never forms the full matrix: LAPACK's
Hermitian eigensolvers read only a lower triangle, and `unpack_lower`
scatters the packed sum straight into that triangle of an F-ordered
matrix, one the caller may hold across rounds.  So `top_eigpair`, FW's
step, runs one `?heevr` call on a matrix its run holds
(`linalg.TopEigpair`), and the one-shot basis runs `eigh` on a fresh
one.

One record, `Calibration`, says how a run's releases are calibrated,
and one function, `calibrate`, makes it: T releases per AP for the
iterative (FW-style) completion, composed over the T rounds, or a
single one for the one-shot spectral completion.

Scales are stated per AP; M released matrices are summed at the CPU, so
the aggregate per-entry variance is M times the per-AP variance.  That
per-AP calibration holds only if the CPU sees nothing but the sum, as
under secure aggregation, and it is the only trust model the simulator
can run: no per-AP release is ever formed.  `stacked_gram` forms the
noiseless sum, the Gram of the stacked blocks, and `gram_round` adds one
noise draw at scale sqrt(M) times the per-AP one, which is equal in
distribution to M independent per-AP draws summed.  Each AP still sends
its declared release message, and each carries that sum.  The round
only reads the noiseless sum, so the one-shot completion can run every
round on one observed block from a single `stacked_gram` (the "Analyze
Gauss" mechanism of Dwork, Talwar, Thakurta and Zhang, 2014, at each
noise scale).
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import ITERATIVE
from .errors import ArgumentError, ConfigError, ShapeError
from .linalg import hermitian_eig
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


@dataclass(frozen=True)
class Calibration:
    """How every Gram release of one run is calibrated; made by `calibrate`.

    Sensitivity and neighbouring relation: iterative, 4*bound^2 for adding or removing a
    residual of norm <= 2*bound (an iterate clipped onto bound minus an observation within
    it); one-shot, bound^2 for adding or removing one block of norm <= bound.  No AP scales
    its block onto bound: that the block lies within it is assumed.
    """

    bound: float  # Frobenius bound the sensitivity assumes; FW clips each AP's observed entries onto it
    releases: int  # T, the Gram releases per AP: one per FW round, 1 for one-shot
    sigma: float  # each AP's Hermitian noise std per release, 0 when not private

    def __post_init__(self):
        if self.releases < 1:
            raise ArgumentError(f"releases must be >= 1, got {self.releases}")
        if not self.bound > 0:
            raise ArgumentError(f"bound must be positive, got {self.bound}")
        if not 0 <= self.sigma < math.inf:  # a NaN scale must never mean "no noise"
            raise ArgumentError(f"sigma must be finite and >= 0, got {self.sigma}")


def calibrate(spec, bound, n_aps, run, eps):
    """The Calibration of method spec's releases over n_aps APs at budget (eps, run.delta).

    T is run.fw_iters (run.np_fw_iters if not private) when iterative, else 1.  A private sigma is
    the Gaussian-mechanism scale of the sensitivity per AP of an M-AP sum: one-shot at (eps, delta),
    iterative at advanced composition's per-release (eps / sqrt(8 T ln(2/delta)), delta / 2T),
    the budget split evenly and delta halved.  A ConfigError unless sigma * sqrt(M) is finite.
    """
    if n_aps < 1:
        raise ArgumentError(f"n_aps must be >= 1, got {n_aps}")
    iterative = spec.completion == ITERATIVE
    releases = (run.fw_iters if spec.private else run.np_fw_iters) if iterative else 1
    cal = Calibration(bound, releases, 0.0)  # checks T and the bound before a formula reads them
    if not spec.private:
        return cal
    delta = run.delta
    if not (0 < eps < math.inf and 0 < delta < 1):
        raise ArgumentError(f"eps must be positive and finite and delta in (0, 1), got {eps} and {delta}")
    with np.errstate(over="ignore"):  # a numpy bound overflows to inf silently; the check rejects it
        if iterative:
            t = float(releases)
            sigma = 16.0 * bound**2 * math.sqrt(
                (t / n_aps) * math.log(2.5 * t / delta) * math.log(2.0 / delta)
            ) / eps
        else:
            sigma = bound**2 * math.sqrt((2.0 / n_aps) * math.log(1.25 / delta)) / eps
        if not sigma * math.sqrt(n_aps) < math.inf:  # gram_round draws the M-AP sum at that std
            raise ConfigError(f"noise std {sigma!r} x sqrt({n_aps}) at eps={eps!r}, delta={delta!r} overflows")
    return replace(cal, sigma=sigma)


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


def unpack_lower(p, out=None):
    """The lower triangle of the exactly Hermitian matrix of a packed release p, written into out
    and returned: all that LAPACK's Hermitian eigensolvers read with UPLO='L', `eigh` included.

    out is an F-ordered complex128 dim x dim matrix, a fresh zero one by default; its strict
    upper triangle is left as it was.  Below the diagonal the imaginary parts are 0.0 - upper (so
    a zero is +0.0), on it +0.0.  In F order the lower triangle lies at the upper slots of
    `_hermitian_slots`, so each part is one scatter.
    """
    dim = math.isqrt(p.size)
    if p.ndim != 1 or dim * dim != p.size:
        raise ShapeError(f"a packed Hermitian release is 1-D of square length, got shape {p.shape}")
    if out is None:
        out = np.zeros((dim, dim), dtype=complex, order="F")
    elif out.shape != (dim, dim):
        raise ShapeError(f"a packed release of side {dim} does not fit a matrix of shape {out.shape}")
    upper = _hermitian_slots(dim)[0]
    n_off = upper.size
    flat = out.reshape(-1, order="F", copy=False)  # raises unless out is F-contiguous
    re, im = flat.real, flat.imag
    re[upper] = p[:n_off]
    im[upper] = np.subtract(0.0, p[n_off : 2 * n_off])
    re[:: dim + 1] = p[2 * n_off :]
    im[:: dim + 1] = 0.0
    return out


def top_eigpair(p, eig):
    """Largest eigenvalue and phase-canonical unit eigenvector of the Hermitian matrix of a packed
    release p.

    eig is a `linalg.TopEigpair` of p's side, held by the caller across calls: p is unpacked
    straight into the lower triangle of its matrix, which one `?heevr` call reads.  Where eig
    returns None (no `?heevr` symbol, or INFO != 0) the pair is `hermitian_eig(unpack_lower(p), 1)`'s,
    on a fresh unpack of p, since the call overwrote eig's matrix.  A non-finite entry of p raises
    LinAlgError: eigh returns a finite top pair for some NaN matrices.
    """
    if not np.isfinite(p).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    unpack_lower(p, eig.a)
    pair = eig()
    if pair is None:
        vals, vecs = hermitian_eig(unpack_lower(p), 1)
        pair = vals[0], vecs[:, 0]
    return pair


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


def ap_stack(y, omega):
    """y as complex, once it and omega are matching (M, N_a, tau_c) AP stacks."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 3 or y.shape != omega.shape:
        raise ShapeError(f"y {y.shape} and omega {omega.shape} are not matching (M, N_a, tau_c) stacks")
    return y


def stacked_gram(blocks):
    """The packed sum of the Grams of an (M, N_a, tau_c) stack of AP blocks: one product over
    the stacked (M*N_a, tau_c) matrix, packed by `pack_hermitian`."""
    j = blocks.reshape(-1, blocks.shape[-1])
    return pack_hermitian(j.conj().T @ j)


def gram_round(net, round_index, gram, n_aps, noise_scale, seed, kind, cpu, tail=()):
    """One release -> aggregate -> broadcast round over the backhaul.

    gram is the packed sum of the n_aps APs' Grams (`stacked_gram`); it is
    read, never written.  Unless noise_scale == 0 the round adds it into one
    new packed Hermitian draw at noise_scale * sqrt(M) seeded by
    SeedSequence([*seed, *tail]): the sum of M per-AP releases at
    noise_scale, in distribution.  Then APs 0..M-1 send their releases in
    one `send_aps` call, each message carrying that packed sum, and the CPU
    broadcasts cpu(sum) of the packed sum as `kind` and returns it.
    """
    entropy = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    w = gram
    if noise_scale != 0.0:  # a NaN scale reaches the sampler and raises before any send
        seq = np.random.SeedSequence([*entropy, *tail])
        w = _packed_noise(math.isqrt(gram.size), noise_scale * math.sqrt(n_aps), seq)
        w += gram  # into the draw's own vector, so a round allocates no third one
    net.send_aps(MessageKind.GRAM_RELEASE, 0, round_index, np.broadcast_to(w, (n_aps, w.size)))
    payload = cpu(w)
    net.broadcast(kind, round_index, payload)
    return payload
