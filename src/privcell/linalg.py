"""Small dense linear-algebra layer used by the completion algorithms.

Everything works on complex128 ndarrays.  `hermitian_eig` keeps the top k
pairs of a LAPACK `eigh`; `top_eigpair` finds FW's one pair for less.
"""

import numpy as np

from .errors import ArgumentError, ShapeError


def canonical_phase(v):
    """Rotate v so its largest-magnitude entry is real and positive."""
    v = np.asarray(v)
    i = int(np.argmax(np.abs(v)))
    p = v[i]
    if p == 0:
        return v
    return v * (np.conj(p) / np.abs(p))


def hermitian_eig(a, k):
    """Largest k eigenpairs of a Hermitian matrix, descending.

    Returns (values, vectors): values (k,), and vectors (n, k) whose
    column i belongs to values[i].  Only the lower triangle is read, as
    `np.linalg.eigh` does, so a is taken to be exactly Hermitian (as
    `privacy.unpack_hermitian` returns it); eigenvectors are orthonormal
    and phase-canonicalised, and ties are broken by the solver's original
    ascending index (stable).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= k <= len(a):
        raise ArgumentError(f"k={k} out of range for dimension {len(a)}")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")[:k]
    return vals[order], np.column_stack([canonical_phase(vecs[:, i]) for i in order])


def top_eigpair(a):
    """Largest eigenvalue of an exactly Hermitian matrix and a phase-canonical unit eigenvector.

    The value is `eigvalsh`'s.  The vector takes two inverse-iteration solves
    on a - sigma*I, sigma just above the value, from an all-ones start.  The
    pair is kept if |a v - lam v| <= 8 n eps |a|, else `hermitian_eig`'s is.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # eigvalsh would skip a NaN it sorts below the top
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    n, vals = len(a), np.linalg.eigvalsh(a)
    lam, tol = vals[-1], 8 * n * np.finfo(float).eps * max(-vals[0], vals[-1])
    shifted = a - (lam + tol) * np.eye(n)
    try:
        v = np.linalg.solve(shifted, np.ones(n))
        v = np.linalg.solve(shifted, v / np.linalg.norm(v))
        v /= np.linalg.norm(v)
    except np.linalg.LinAlgError:  # a - sigma*I is singular, as when a = 0
        v = np.full(n, np.nan)
    if not np.linalg.norm(a @ v - lam * v) <= tol:
        vals, vecs = hermitian_eig(a, 1)
        return vals[0], vecs[:, 0]
    return lam, canonical_phase(v)


PINV_RCOND = 1e-12  # singular values below this times the largest are treated as zero


def pinv(a):
    """Moore-Penrose pseudoinverse (SVD-based) of a matrix or of each matrix of a stack."""
    a = np.asarray(a)
    if a.ndim < 2 or a.size == 0:
        raise ShapeError(f"pinv expects a non-empty matrix or stack, got shape {a.shape}")
    return np.linalg.pinv(a, rcond=PINV_RCOND)


def frob_norm(a):
    return float(np.linalg.norm(a))


def observed_norms(x, omega):
    """Per-AP Frobenius norm over the observed entries of an (M, N_a, tau_c) stack, as `np.linalg.norm`."""
    if x.shape != omega.shape:
        raise ShapeError(f"mask shape {omega.shape} does not match {x.shape}")
    v, ends = x[omega], np.cumsum(omega.sum(axis=(1, 2))).tolist()
    re, im = v.real, v.imag
    return np.sqrt([re[a:b].dot(re[a:b]) + im[a:b].dot(im[a:b]) for a, b in zip([0, *ends], ends)])
