"""Small dense linear-algebra layer used by the completion algorithms.

Everything works on complex128 ndarrays.  `hermitian_eig` keeps the top k
pairs of a LAPACK `eigh`, rotated as `canonical_phase` rotates one vector
but all k columns in one pass; `top_eigpair` finds FW's one pair for less,
its two inverse-iteration solves on one LU factorization through the
`?gesv` and `?getrs` of the LAPACK numpy links (`_bind_lapack`).  Those
solves equal two `np.linalg.solve` calls byte for byte under one BLAS
thread, the bitwise contract's setting; with two, the exported `?getrs`
runs threaded where `?gesv`'s own solve does not (n < 100) and changes
last bits, as numpy's `solve` and `eigvalsh` do at n = 164.
`shared_matmul` multiplies an AP stack by one shared matrix in a single
GEMM, and `cholesky_solve` solves many small Hermitian positive definite
systems at once, each step one vectorised operation over the whole batch.
"""

import ctypes
import math
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, ShapeError

EPS = np.finfo(float).eps
# |a| = max |eigenvalue| for which top_eigpair's inverse iteration stays in float range: an iterate's
# norm lies between sqrt(n) / (2|a|) and sqrt(n) / (8 n eps |a|), so its squared norm neither
# underflows to 0 (|a| <= 1e150) nor overflows (|a| >= 1e-130), with margin for n and rounding
_ITERATION_RANGE = (1e-130, 1e150)


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
    vecs = vecs[:, order]
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]  # never 0: the columns are unit vectors
    return vals[order], vecs * (np.conj(top) / np.abs(top))  # canonical_phase of every column at once


def top_eigpair(a):
    """Largest eigenvalue of an exactly Hermitian matrix and a phase-canonical unit eigenvector.

    The value is `eigvalsh`'s.  The vector takes two inverse-iteration solves
    on a - sigma*I, sigma just above the value, from an all-ones start, both
    from one LU factorization (`_solve_twice`), with the bits of two
    `np.linalg.solve` calls under one BLAS thread.  The pair is kept if
    |a v - lam v| <= 8 n eps |a|, else `hermitian_eig`'s is, as it is when
    a - sigma*I is singular or |a| lies outside _ITERATION_RANGE, where an
    iterate's squared norm could overflow or underflow to 0.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # eigvalsh would skip a NaN it sorts below the top
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    n, vals = len(a), np.linalg.eigvalsh(a)
    lam, scale = vals[-1], max(-vals[0], vals[-1])
    tol = 8 * n * EPS * scale
    v = None
    if _ITERATION_RANGE[0] <= scale <= _ITERATION_RANGE[1]:
        sigma = lam + tol
        # an F-ordered copy, as LAPACK takes it; its zeros signed as in a - sigma * eye(n)
        shifted = np.subtract(a, 0.0 * sigma, order="F")
        shifted.T.reshape(-1)[:: n + 1] -= sigma  # the transpose is C-ordered, so reshape gives a view
        try:
            v = _solve_twice(shifted)
        except np.linalg.LinAlgError:  # a - sigma*I is singular, as when a = 0
            v = None
    if v is None or not _norm(a @ v - lam * v) <= tol:
        vals, vecs = hermitian_eig(a, 1)
        return vals[0], vecs[:, 0]
    return lam, canonical_phase(v)


def _bind_lapack():
    """({dtype char: (?gesv, ?getrs)}, LAPACK integer ctype) for float64 ("d") and complex128
    ("D"), from the LAPACK numpy's own linalg extension links; None where no name resolves.

    dlsym on the extension's handle also searches the libraries it was linked against, so the
    routines found are the ones `np.linalg.solve` calls.  The names follow the symbol prefix and
    suffix of numpy's LAPACK builds: scipy-openblas, plain ILP64 and plain LP64.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    ilp64 = bool(getattr(_umath_linalg, "_ilp64", False))
    for name in ("scipy_{}_64_", "{}_64_", "{}64_") if ilp64 else ("scipy_{}_", "{}_"):
        try:
            routines = {
                char: (getattr(lib, name.format(t + "gesv")), getattr(lib, name.format(t + "getrs")))
                for char, t in (("d", "d"), ("D", "z"))
            }
        except AttributeError:
            continue
        for gesv, getrs in routines.values():
            gesv.argtypes = [ctypes.c_void_p] * 8  # n, nrhs, a, lda, ipiv, b, ldb, info
            # trans, n, nrhs, a, lda, ipiv, b, ldb, info, and the length of trans that gfortran passes
            getrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
            gesv.restype = getrs.restype = None
        return routines, ctypes.c_int64 if ilp64 else ctypes.c_int32
    return None


_LAPACK = _bind_lapack()


def _solve_twice(shifted):
    """The inverse-iteration vector of s = shifted: x = s^-1 ones, then s^-1 (x / |x|), normalised.

    s is a square matrix this function may overwrite.  With `_LAPACK`, and s F-ordered float64
    or complex128, the first solve is ?gesv, the routine `np.linalg.solve` calls, on s itself,
    which keeps the LU factors and pivots, and the second is ?getrs on those factors; both give
    `np.linalg.solve`'s bits under one BLAS thread.  Otherwise `np.linalg.solve` is called twice.
    A singular s raises np.linalg.LinAlgError, as `np.linalg.solve` does.
    """
    n = len(shifted)
    routines = _LAPACK and shifted.flags.f_contiguous and _LAPACK[0].get(shifted.dtype.char)
    if not routines:
        v = np.linalg.solve(shifted, np.ones(n))
        v = np.linalg.solve(shifted, v / _norm(v))
        v /= _norm(v)
        return v
    gesv, getrs = routines
    int_t = _LAPACK[1]
    size, one, info = int_t(n), int_t(1), int_t(0)  # size is n, lda and ldb
    p_n, p_one, p_info = ctypes.byref(size), ctypes.byref(one), ctypes.byref(info)
    ipiv = (int_t * n)()
    v = np.ones(n, dtype=shifted.dtype)
    lu, b = shifted.ctypes.data, v.ctypes.data
    gesv(p_n, p_one, lu, p_n, ipiv, b, p_n, p_info)
    if info.value != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    v /= _norm(v)
    getrs(b"N", p_n, p_one, lu, p_n, ipiv, b, p_n, p_info, 1)
    v /= _norm(v)
    return v


def _norm(v):
    """np.linalg.norm of a complex vector, without its wrapper: the same two dots and sqrt."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def shared_matmul(a, b, out=None):
    """a @ b for an (..., m, k) stack a and one shared (k, n) matrix b, as one GEMM.

    The stack is folded into its (...*m, k) rows, so BLAS is called once
    instead of once per matrix; every output entry is the same dot product
    as in the stacked `a @ b`.  out, if given, is the 2-D (...*m, n) product.
    """
    a = np.asarray(a)
    rows = np.matmul(a.reshape(math.prod(a.shape[:-1]), a.shape[-1]), b, out=out)
    return rows.reshape(*a.shape[:-1], b.shape[-1])


def cholesky_solve(a, b):
    """Solve a x = b for Hermitian positive definite a, batched over the trailing axes.

    a is (n, n, ...) and b (n, ...), so a[i, j] and b[i] are arrays over the
    batch and each step of the factorisation a = L L^H and of the two
    triangular solves is one vectorised operation on every system at once;
    returns x (n, ...).  Only the lower triangle and the real part of the
    diagonal are read, as LAPACK's potrf reads them.  A pivot that is not
    positive and finite, in any system, raises np.linalg.LinAlgError.
    """
    n = len(a)
    low, inv = {}, []  # L's strict lower triangle by (i, j); 1 / L[j, j] as complex, cast once
    for j in range(n):
        d = a[j, j].real
        for k in range(j):
            d = d - (low[j, k].real ** 2 + low[j, k].imag ** 2)
        if not (d.min() > 0 and d.max() < np.inf):  # a NaN fails both
            raise np.linalg.LinAlgError("matrix is not positive definite")
        inv.append((1.0 / np.sqrt(d)).astype(complex))
        for i in range(j + 1, n):
            s = a[i, j]
            for k in range(j):
                s = s - low[i, k] * low[j, k].conj()
            low[i, j] = s * inv[j]
    x = list(b)
    for i in range(n):  # L w = b, w kept in x
        for k in range(i):
            x[i] = x[i] - low[i, k] * x[k]
        x[i] = x[i] * inv[i]
    for i in reversed(range(n)):  # L^H x = w
        for k in range(i + 1, n):
            x[i] = x[i] - low[k, i].conj() * x[k]
        x[i] = x[i] * inv[i]
    return np.stack(x)


PINV_RCOND = 1e-12  # singular values below this times the largest are treated as zero


def pinv(a):
    """Moore-Penrose pseudoinverse (SVD-based) of a matrix or of each matrix of a stack."""
    a = np.asarray(a)
    if a.ndim < 2 or a.size == 0:
        raise ShapeError(f"pinv expects a non-empty matrix or stack, got shape {a.shape}")
    return np.linalg.pinv(a, rcond=PINV_RCOND)


def frob_norm(a):
    return float(np.linalg.norm(a))


class ObservedIndex(NamedTuple):
    """An (M, N_a, tau_c) mask with the flat C-order indices of its observed entries and per-AP counts."""

    mask: np.ndarray
    flat: np.ndarray
    counts: list


def observed_index(omega):
    """The `ObservedIndex` of a mask, taken once by a caller that keeps the mask."""
    return ObservedIndex(omega, np.flatnonzero(omega), omega.sum(axis=(1, 2)).tolist())


def observed_norms(x, index):
    """Per-AP Frobenius norm over the observed entries of an (M, N_a, tau_c) stack, as `np.linalg.norm`.

    index is `observed_index(omega)`.  When every AP observes the same count
    L, as under any switch mask, the gathered entries form an (M, L) matrix
    and each AP's sums of squares are batched (1, L) @ (L, 1) dots, the dots
    `np.linalg.norm` takes; otherwise the gather is split at each AP's count.
    """
    omega, flat, counts = index
    if x.shape != omega.shape:
        raise ShapeError(f"mask shape {omega.shape} does not match {x.shape}")
    v = x.reshape(-1).take(flat)
    if counts and min(counts) == max(counts):
        v = v.reshape(len(counts), counts[0])
        re, im = v.real, v.imag
        return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).reshape(-1))
    ends = np.cumsum(counts).tolist()
    return np.array([_norm(v[a:b]) for a, b in zip([0, *ends], ends)])
