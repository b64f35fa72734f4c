"""Straight-line reference implementations used to cross-check the
distributed code paths.

These are written against the math only: stacked matrices, explicit
loops, numpy.linalg calls.  They deliberately share nothing with the
package implementation, the release noise included, so that agreement
between the two routes is evidence and not tautology.
"""

import math

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
