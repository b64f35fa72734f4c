"""Small dense linear-algebra layer used by the completion algorithms.

Everything works on complex128 ndarrays.  The Hermitian eigensolver is
LAPACK-backed.
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


def pinv(a, rcond=1e-12):
    """Moore-Penrose pseudoinverse (SVD-based) of a matrix or of each matrix of a stack."""
    a = np.asarray(a)
    if a.ndim < 2 or a.size == 0:
        raise ShapeError(f"pinv expects a non-empty matrix or stack, got shape {a.shape}")
    return np.linalg.pinv(a, rcond=rcond)


def frob_norm(a):
    return float(np.linalg.norm(a))


def observed_norms(x, omega):
    """Per-AP Frobenius norm over the observed entries of an (M, N_a, tau_c) stack, as `np.linalg.norm`."""
    if x.shape != omega.shape:
        raise ShapeError(f"mask shape {omega.shape} does not match {x.shape}")
    v, ends = x[omega], np.cumsum(omega.sum(axis=(1, 2))).tolist()
    re, im = v.real, v.imag
    return np.sqrt([re[a:b].dot(re[a:b]) + im[a:b].dot(im[a:b]) for a, b in zip([0, *ends], ends)])
