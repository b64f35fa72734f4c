"""Straight-line reference implementations used to cross-check the
distributed code paths.

These are written against the math only: stacked matrices, explicit
loops, numpy.linalg calls.  They deliberately share nothing with the
package implementation, the release noise included, so that agreement
between the two routes is evidence and not tautology.
"""

import math
from dataclasses import dataclass

import numpy as np


def hermitize(a):
    """(A + A^H)/2 as a fresh full matrix; on an exactly Hermitian A, A itself."""
    return (a + a.conj().T) * 0.5


def hermitian_noise(dim, scale, seed):
    """Hermitian Gaussian noise drawn in three calls: upper-real, upper-imag, diagonal.

    The strict upper triangle gets complex entries of total variance
    scale^2, mirrored conjugated below; the diagonal is real N(0, scale^2).
    This is the draw order the package's packed release noise follows.
    """
    g = np.zeros((dim, dim), dtype=complex)
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(dim, k=1)
    comp = scale / math.sqrt(2.0)
    re = rng.standard_normal(iu[0].size) * comp
    im = rng.standard_normal(iu[0].size) * comp
    g[iu] = re + 1j * im
    g = g + g.conj().T
    g[np.diag_indices(dim)] = rng.standard_normal(dim) * scale
    return g


def fw_noise_scale(bound, iterations, n_aps, eps, delta):
    """Per-AP std of each of T composed Gram releases: sensitivity 4*bound^2 at the
    per-release budget (eps / sqrt(8 T ln(2/delta)), delta / 2T), in the package's
    first float-operation order."""
    t = float(iterations)
    return (
        16.0
        * bound**2
        * math.sqrt((t / n_aps) * math.log(2.5 * t / delta) * math.log(2.0 / delta))
        / eps
    )


def svd_noise_scale(bound, n_aps, eps, delta):
    """Per-AP std of the one Gram release: sensitivity bound^2 at (eps, delta)."""
    return bound**2 * math.sqrt((2.0 / n_aps) * math.log(1.25 / delta)) / eps


def centralized_fw(y, omega, n_aps, iterations, nuclear_bound, clip_bound,
                   noise_scale=0.0, entropy=None):
    """Textbook iterative completion on the stacked matrix.

    Returns the list of iterates (one per round).  When noise_scale > 0,
    entropy must be given, and round n's sum of per-AP Grams gets one
    noise draw at noise_scale * sqrt(M) from the seed the distributed
    code uses, SeedSequence([*entropy, n]), so both routes see identical
    perturbations.
    """
    y = np.asarray(y, dtype=complex)
    n_rows, tau_c = y.shape
    n_ant = n_rows // n_aps
    x = np.zeros_like(y)
    iterates = []
    for n in range(1, iterations + 1):
        eta = 1.0 if n == 1 else 1.0 / iterations
        j = np.where(omega, x, 0.0) - y
        w = np.zeros((tau_c, tau_c), dtype=complex)
        for m in range(n_aps):
            jm = j[m * n_ant:(m + 1) * n_ant]
            g = jm.conj().T @ jm
            w = w + 0.5 * (g + g.conj().T)
        if noise_scale > 0.0:
            w = w + hermitian_noise(
                tau_c, noise_scale * math.sqrt(n_aps), np.random.SeedSequence([*entropy, n])
            )
        vals, vecs = np.linalg.eigh(0.5 * (w + w.conj().T))
        lam = np.sqrt(max(float(vals[-1]), 0.0))
        v = vecs[:, -1]
        lam_t = lam + np.sqrt(noise_scale) * (n_aps * tau_c) ** 0.25
        x = (1.0 - eta) * x - (eta * nuclear_bound / lam_t) * np.outer(j @ v, v.conj())
        for m in range(n_aps):
            sl = slice(m * n_ant, (m + 1) * n_ant)
            mn = np.linalg.norm(x[sl][omega[sl]])
            if mn > clip_bound:
                x[sl] = x[sl] * (clip_bound / mn)
        iterates.append(x.copy())
    return iterates


def centralized_svd(y, rank, upsample):
    """One-shot spectral completion on the stacked matrix."""
    y = np.asarray(y, dtype=complex)
    g = y.conj().T @ y
    vals, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
    basis = vecs[:, np.argsort(vals)[::-1][:rank]]
    return upsample * (y @ basis @ basis.conj().T)


def pilot_only_lmmse(h_hat, y_m, omega_m, sigma2, t, tau_p):
    """Per-slot reference for the batched pilot-only detector, slot t (0-based).

    Only the antennas observed in that slot enter; the Gram is
    regularised by the noise power, falling back to a pseudoinverse when
    sigma2 is zero.
    """
    col = tau_p + t
    obs = np.flatnonzero(omega_m[:, col])
    f = np.asarray(h_hat)[obs, :]
    yv = np.asarray(y_m)[obs, col]
    if sigma2 > 0:
        a = f.conj().T @ f + sigma2 * np.eye(f.shape[1])
        return np.linalg.solve(a, f.conj().T @ yv)
    return np.linalg.pinv(f, rcond=1e-12) @ yv


def switch_mask(rng, shape, n_rf):
    """Observation mask of an (M, N_a, n) stack: per (AP, slot), the N_r antennas whose
    uniform draws sort first, by a full argsort of one rng.random(shape) draw."""
    sel = np.argsort(rng.random(shape), axis=1)[:, :n_rf, :]
    omega = np.zeros(shape, dtype=bool)
    np.put_along_axis(omega, sel, True, axis=1)
    return omega


@dataclass(frozen=True)
class FrozenMessage:
    """The backhaul record as a frozen dataclass, the form the tuple records replaced."""

    kind: object
    sender: str
    receiver: str
    round_index: int
    nbytes: int
    shape: tuple = ()
    hermitian: bool = False


def _top_pair_dense_shift(a):
    """Top eigenpair of an exactly Hermitian matrix, the shift formed as a - sigma * eye(n).

    eigvalsh's value; the vector from two inverse-iteration solves from an
    all-ones start, kept if its residual is within 8 n eps |a|, else eigh's
    top pair; every vector norm by np.linalg.norm.
    """
    n, vals = len(a), np.linalg.eigvalsh(a)
    lam, tol = vals[-1], 8 * n * np.finfo(float).eps * max(-vals[0], vals[-1])
    shifted = a - (lam + tol) * np.eye(n)
    try:
        v = np.linalg.solve(shifted, np.ones(n))
        v = np.linalg.solve(shifted, v / np.linalg.norm(v))
        v /= np.linalg.norm(v)
    except np.linalg.LinAlgError:
        v = np.full(n, np.nan)
    if not np.linalg.norm(a @ v - lam * v) <= tol:
        vals, vecs = np.linalg.eigh(a)
        top = int(np.argsort(-vals, kind="stable")[0])
        lam, v = vals[top], vecs[:, top]
    i = int(np.argmax(np.abs(v)))
    return lam, v * (np.conj(v[i]) / np.abs(v[i]))


def straight_line_fw(y, omega, iterations, nuclear_bound, clip_bound, noise_scale, entropy):
    """The distributed FW round written out step by step, on (M, N_a, tau_c) stacks.

    Per round: the masked residual, the packed Hermitian sum of the APs'
    Grams plus one packed noise draw at noise_scale * sqrt(M) from
    SeedSequence([*entropy, n]), M release records and one broadcast record
    (`FrozenMessage`), the top eigenpair of the unpacked sum with a dense
    shift, the rank-one step, and the clip of each AP by its own
    np.linalg.norm over its observed entries.  Returns (x_hat, masked_norms,
    lam_path, clip_events, transcript).
    """
    n_aps, _, tau_c = y.shape
    upper = np.flatnonzero(np.triu(np.ones((tau_c, tau_c), dtype=bool), k=1))
    lower = (upper % tau_c) * tau_c + upper // tau_c
    n_off = upper.size
    x = np.zeros_like(y)
    masked_norms, lam_path, clip_events, transcript = np.empty((iterations, n_aps)), [], 0, []
    for n in range(1, iterations + 1):
        j = np.where(omega, x, 0.0)
        j -= y
        jj = j.reshape(-1, tau_c)
        g = (jj.conj().T @ jj).reshape(-1)
        w = np.empty(tau_c * tau_c)
        w[:n_off] = g[upper].real + g[lower].real
        w[n_off : 2 * n_off] = g[upper].imag - g[lower].imag
        w[2 * n_off :] = g[:: tau_c + 1].real + g[:: tau_c + 1].real
        w *= 0.5
        if noise_scale != 0.0:
            z = np.random.default_rng(np.random.SeedSequence([*entropy, n])).standard_normal(tau_c * tau_c)
            scale = noise_scale * math.sqrt(n_aps)
            z[: 2 * n_off] *= scale / math.sqrt(2.0)  # real and imaginary parts of the upper triangle
            z[2 * n_off :] *= scale
            w += z
        transcript += [
            FrozenMessage("GramRelease", f"ap{m}", "cpu", n, 8 * w.size, w.shape, True) for m in range(n_aps)
        ]
        h = np.zeros((tau_c, tau_c), dtype=complex)
        re, im = h.reshape(-1).real, h.reshape(-1).imag
        re[upper] = re[lower] = w[:n_off]
        im[upper], im[lower] = w[n_off : 2 * n_off], np.subtract(0.0, w[n_off : 2 * n_off])
        re[:: tau_c + 1] = w[2 * n_off :]
        value, v = _top_pair_dense_shift(h)
        lam = math.sqrt(max(value, 0.0)) + math.sqrt(noise_scale) * (n_aps * tau_c) ** 0.25
        transcript.append(FrozenMessage("EigBroadcast", "cpu", "all-aps", n, 16 * tau_c + 8))
        eta = 1.0 if n == 1 else 1.0 / iterations
        step = (j @ v)[..., None] * v.conj()
        x = (1.0 - eta) * x
        x -= (eta * nuclear_bound / lam) * step
        for m in range(n_aps):
            norm = np.linalg.norm(x[m][omega[m]])
            if not norm <= clip_bound:
                x[m] *= clip_bound / norm
                norm = np.linalg.norm(x[m][omega[m]])
                clip_events += 1
            masked_norms[n - 1, m] = norm
        lam_path.append(lam)
    return x, masked_norms, np.array(lam_path), clip_events, transcript
