"""Channel estimation, payload detection, slicing, and error metrics.

The completion-based path estimates the channel from the pilot columns of a
completed block and detects payload by least squares against that estimate,
each AP through the inverse of its min(N_a, K)-square Gram, batched, with
`linalg.pinv` kept for an AP whose Gram is not well conditioned.  The
pilot-only baseline skips completion: a correlation channel estimate from the
switch-sampled pilot slots, then per-slot regularised least squares on the
antennas observed, indexed by a counting pass and solved by one batched
Cholesky (`linalg.cholesky_solve`).  The channel estimates multiply every AP's
block by the shared pilot matrix in one GEMM (`linalg.shared_matmul`).

Both detectors run in two stages.  The solve (`detect_factors`,
`pilot_only_factors`) gives each AP's detection as factors (h, small): its
channel estimate H_hat and the (N_a, tau_d) solution of its small system, to be
lifted as H_hat^H @ small, or, where the solve forms the (K, tau_d) detection
itself, None and that.  `lifted` multiplies them out, so a caller can solve
many APs at once and lift a few at a time, and `combine` sums detections in AP
order by one reduction.  A stack of APs in which some Gram fails
`detect_factors`' certificate is left unsolved, (None, None); `detect_local`,
the one split rule, detects such a stack one AP at a time, and only a single
2-D AP falls back to `linalg.pinv`.
"""

import math

import numpy as np

from .errors import MetricUndefinedError, ShapeError
from .linalg import cholesky_solve, frob_norm, pinv, shared_matmul

SQRT_HALF = 1.0 / np.sqrt(2.0)


def estimate_channel(x_pilot, pilot_pinv):
    """Channel estimate from pilot columns: X_p @ pinv(P), pinv(P) given, per AP of a stack."""
    x_pilot = np.asarray(x_pilot)
    if x_pilot.shape[-1] != pilot_pinv.shape[0]:
        raise ShapeError(f"{x_pilot.shape[-1]} pilot columns, pinv(P) has {pilot_pinv.shape[0]} rows")
    return shared_matmul(x_pilot, pilot_pinv)


def detect_factors(h_hat, x_data):
    """`detect_local`'s detections as factors (h, small): AP m's is h[m]^H @ small[m], or small[m]
    where h is None.  Each AP is solved through the smaller Gram G by one batched inverse: h is H
    and small G^-1 X_d, G = H H^H, when N_a <= K; else h is None and small the detection
    G^-1 H^H X_d, G = H^H H.  Where some G is singular or has ||G||_F ||G^-1||_F >= 1e8, a stack
    of APs, even of one, is left unsolved, (None, None), for `detect_local` to split, and a 2-D AP
    is detected in full, as pinv(H) @ X_d with pinv's cutoff (h None)."""
    h_hat, x_data = np.asarray(h_hat), np.asarray(x_data)
    if h_hat.shape[-2] != x_data.shape[-2]:
        raise ShapeError(f"row mismatch {h_hat.shape} vs {x_data.shape}")
    hh = np.swapaxes(h_hat.conj(), -1, -2)
    wide = h_hat.shape[-2] <= h_hat.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the certificate
        g = h_hat @ hh if wide else hh @ h_hat
        try:
            gi = np.linalg.inv(g)
            trusted = (np.linalg.norm(g, axis=(-2, -1)) * np.linalg.norm(gi, axis=(-2, -1)) < 1e8).all()
        except np.linalg.LinAlgError:  # an exactly singular G
            trusted = False
    if trusted:
        return (h_hat, gi @ x_data) if wide else (None, gi @ (hh @ x_data))
    if h_hat.ndim > 2:
        return None, None
    return None, pinv(h_hat) @ x_data


def detect_local(h_hat, x_data):
    """Least-squares payload estimate pinv(H_hat) @ X_d, per AP of a stack: `detect_factors`, then
    `lifted`, one leading index at a time where the stack is left unsolved, down to 2-D APs.  Each
    AP's result is its own 2-D call's, bit for bit, whatever stack it arrives in."""
    h, small = detect_factors(h_hat, x_data)
    if small is None:
        return np.stack([detect_local(h, x) for h, x in zip(h_hat, x_data)])
    return lifted(h, small)


def lifted(h, small, out=None):
    """The detections of factors (h, small): h^H @ small, or small itself when h is None; written
    into out when it is given."""
    if h is not None:
        return np.matmul(np.swapaxes(h.conj(), -1, -2), small, out=out)
    if out is None:
        return small
    out[...] = small
    return out


def combine(d_locals):
    """The sum of an (m, K, tau_d) stack of detections, added in AP order, by one reduction.

    numpy adds the rows of a leading-axis reduction one at a time, so a stack
    whose row 0 is the sum of the APs before it continues that sum, and the sum
    over all M APs, divided by M, is np.mean(stack, axis=0) bit for bit.  Rows of
    one entry, which numpy would sum pairwise, are added one at a time as well, so
    the sum never depends on how the APs were split.
    """
    d_locals = np.asarray(d_locals)
    if len(d_locals) == 0:
        raise ShapeError("no local detections to combine")
    if d_locals[0].size == 1:
        return sum(d_locals[1:], d_locals[0].copy())
    return np.add.reduce(d_locals, axis=0)


def slice_qpsk(soft):
    """Quadrant slicer; boundary ties go to the positive side.  A non-finite soft value has
    no quadrant and raises MetricUndefinedError."""
    soft = np.asarray(soft)
    if not np.isfinite(soft).all():
        raise MetricUndefinedError("non-finite soft detection has no quadrant")
    re = np.where(soft.real >= 0, 1.0, -1.0)
    im = np.where(soft.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) * SQRT_HALF


def ser(decided, d_true):
    """Symbol error rate by quadrant disagreement."""
    decided = np.asarray(decided)
    d_true = np.asarray(d_true)
    if decided.shape != d_true.shape:
        raise ShapeError(f"shape mismatch {decided.shape} vs {d_true.shape}")
    if decided.size == 0:
        raise MetricUndefinedError("SER of an empty block")
    wrong = ((decided.real >= 0) != (d_true.real >= 0)) | (
        (decided.imag >= 0) != (d_true.imag >= 0)
    )
    return float(np.mean(wrong))


def nmse(h_hat, h_true):
    """Normalised squared channel error ||H_hat - H||_F^2 / ||H||_F^2."""
    h_hat = np.asarray(h_hat)
    h_true = np.asarray(h_true)
    if h_hat.shape != h_true.shape:
        raise ShapeError(f"shape mismatch {h_hat.shape} vs {h_true.shape}")
    denom = frob_norm(h_true)
    if denom == 0.0:
        raise MetricUndefinedError("NMSE reference is identically zero")
    return (frob_norm(h_hat - h_true) / denom) ** 2


def pilot_only_ls(y, pilots):
    """Correlation channel estimate from observed pilot slots: Y_p @ P^H, per AP of a stack."""
    y = np.asarray(y)
    tau_p = pilots.shape[1]
    if y.shape[-1] < tau_p:
        raise ShapeError(f"block has {y.shape[-1]} columns, needs >= {tau_p}")
    return shared_matmul(y[..., :tau_p], pilots.conj().T)


def observed_first(omega, n_rf):
    """Per slot of an (..., N_a, n) mask, the first n_rf antennas with the observed ones first.

    Equal to np.argsort(~omega, axis=-2, kind="stable")[..., :n_rf, :] with
    the row axis moved to the front, (n_rf, ..., n), for any mask.  It is a
    counting pass: one walk over the antennas counts the observed ones, a
    second counts the unobserved ones after them and runs only if some slot
    has fewer than n_rf observed.  Entry r is the number of walk steps at
    which the count was still <= r, which is the step that placed the r-th
    antenna of the order; modulo N_a, that is its index.
    """
    omega = np.asarray(omega)
    n_ant = omega.shape[-2]
    r = np.arange(n_rf).reshape(n_rf, *[1] * (omega.ndim - 1))
    count = np.zeros(omega.shape[:-2] + omega.shape[-1:], dtype=np.intp)
    pos = np.zeros((n_rf,) + count.shape, dtype=np.intp)
    for flags in (omega, ~omega):
        if count.min() >= n_rf:  # every slot has its n_rf antennas
            break
        for i in range(n_ant):
            count += flags[..., i, :]
            pos += count <= r
    return pos % n_ant


def pilot_only_factors(h_hat, y, omega, sigma2, tau_p, n_rf):
    """Regularised LS detection of all payload slots of each AP at once, as factors (h, small), as
    `detect_factors` gives them; it never leaves a stack unsolved.  Leading AP axes of h_hat
    (..., N_a, K), y and omega (..., N_a, tau_c) broadcast; `lifted` gives the (..., K, tau_d)
    detections.

    Per slot only the N_r observed antennas enter, in ascending index
    order (`observed_first`); F is their N_r rows of H_hat.  With noise
    the solve has size min(N_r, K): F^H (F F^H + s2 I)^-1 y when N_r < K
    (push-through), else (F^H F + s2 I)^-1 F^H y, both by one Cholesky
    batched over every slot of every AP.  When sigma2 is zero, pinv(F) y,
    with `linalg.pinv`'s cutoff.
    In the push-through branch each slot's F F^H is gathered from the
    AP's N_a x N_a Gram C = H_hat H_hat^H, and the solutions, scattered to
    their antennas' rows of an (N_a, tau_d) zero block, are small, with
    h = H_hat; the other branches return None and the (..., K, tau_d)
    detections.
    """
    lead = np.broadcast_shapes(*(np.shape(a)[:-2] for a in (h_hat, y, omega)))
    h_hat, y, omega = (np.broadcast_to(a, lead + np.shape(a)[-2:]) for a in (h_hat, y, omega))
    n_ant, n_users = h_hat.shape[-2:]
    idx = observed_first(omega[..., tau_p:], n_rf)  # (N_r, ..., tau_d)
    t = np.arange(idx.shape[-1])
    rows = np.arange(math.prod(lead)).reshape(*lead, 1) * n_ant + idx  # flat (AP, antenna) rows
    yv = y.reshape(-1)[rows * y.shape[-1] + tau_p + t]  # (N_r, ..., tau_d)
    if sigma2 > 0 and n_rf < n_users:
        c = (h_hat @ np.swapaxes(h_hat.conj(), -1, -2)).reshape(-1)  # every AP's N_a x N_a Gram, flat
        g = c[rows[:, None] * n_ant + idx]  # (N_r, N_r, ..., tau_d), g[i, j] = C[obs_i, obs_j]
        g[range(n_rf), range(n_rf)] += sigma2
        z = cholesky_solve(g, yv)
        del g, yv  # freed before the (N_a, tau_d) blocks are made, which may take their place
        x = np.zeros(lead + (n_ant, len(t)), dtype=z.dtype)
        x.reshape(-1)[rows * len(t) + t] = z
        return h_hat, x
    slots = np.moveaxis(idx, 0, -1)  # (..., tau_d, N_r)
    f = np.take_along_axis(h_hat[..., None, :, :], slots[..., None], axis=-2)  # (..., tau_d, N_r, K)
    yv = np.moveaxis(yv, 0, -1)[..., None]  # (..., tau_d, N_r, 1)
    if sigma2 > 0:
        fh = np.swapaxes(f.conj(), -1, -2)  # (..., tau_d, K, N_r)
        a = np.moveaxis(fh @ f + sigma2 * np.eye(n_users), (-2, -1), (0, 1))  # (K, K, ..., tau_d)
        return None, np.moveaxis(cholesky_solve(a, np.moveaxis((fh @ yv)[..., 0], -1, 0)), 0, -2)
    return None, np.swapaxes((pinv(f) @ yv)[..., 0], -1, -2)  # (..., K, tau_d)
