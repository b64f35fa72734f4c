"""Small dense linear-algebra layer used by the completion algorithms.

Everything works on complex128 ndarrays.  `hermitian_eig` keeps the top k
pairs of a LAPACK `eigh`, rotated as `canonical_phase` rotates one vector
but all k columns in one pass; `TopEigpair` finds FW's one pair for less,
in one `?heevr` call that computes that pair alone, bound through `ctypes`
from the LAPACK numpy links (`_bind_lapack`), so no scipy import is needed.
Its matrix and workspace are held across calls, and the call's arguments
bound once, so a round pays for the solve alone.
`shared_matmul` multiplies an AP stack by one shared matrix in a single
GEMM, and `cholesky_solve` solves many small Hermitian positive definite
systems at once, each step one vectorised operation over the whole batch.
"""

import ctypes
import functools
import math
from typing import NamedTuple

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
    `np.linalg.eigh` does, so a is taken to be exactly Hermitian (the
    triangle `privacy.unpack_lower` writes is all it needs); eigenvectors
    are orthonormal and phase-canonicalised, and ties are broken by the
    solver's original ascending index (stable).
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


class TopEigpair:
    """Top eigenpairs of n x n exactly Hermitian matrices, one LAPACK `?heevr` call each, on arrays
    held for as long as the caller keeps this object.

    Write a matrix's lower triangle into `a`, an F-ordered complex128 matrix, then call.  `?heevr`
    reads that triangle alone (UPLO='L'), computes the top pair alone (JOBZ='V', RANGE='I',
    IL = IU = n, ABSTOL 0), scales a matrix near either end of float range itself, and overwrites
    a.  The workspace sizes are queried once per n (`_heevr_sizes`), and the call's arguments are
    bound once, here.
    """

    def __init__(self, n):
        self._a = np.zeros((n, n), dtype=complex, order="F")
        self._call = None
        if _LAPACK is not None and n:  # a 0x0 matrix has no top pair
            self._call, self._info, self._w, self._z, *self._work = _bound_heevr(self._a, *_heevr_sizes(n))

    @property
    def a(self):
        """The matrix the call reads; not rebindable, since the bound call holds its address."""
        return self._a

    def __call__(self):
        """(value, phase-canonical unit vector) of a's top eigenpair; None where no `?heevr` symbol
        resolved (`_LAPACK` is None), n is 0 or the call reports INFO != 0."""
        if self._call is None:
            return None
        self._call()
        if self._info.value != 0:
            return None
        return self._w[0], canonical_phase(self._z)


def _bind_lapack():
    """(zheevr, LAPACK integer ctype) from the LAPACK numpy's own linalg extension links; None
    where no name resolves.

    dlsym on the extension's handle also searches the libraries it was linked against, so the
    routine found is the one behind numpy's LAPACK calls.  The names follow the symbol prefix
    and suffix of numpy's LAPACK builds: scipy-openblas, plain ILP64 and plain LP64.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    ilp64 = bool(getattr(_umath_linalg, "_ilp64", False))
    for name in ("scipy_zheevr_64_", "zheevr_64_", "zheevr64_") if ilp64 else ("scipy_zheevr_", "zheevr_"):
        heevr = getattr(lib, name, None)
        if heevr is not None:
            # JOBZ, RANGE, UPLO; N through INFO; and the three string lengths gfortran passes
            heevr.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 20 + [ctypes.c_size_t] * 3
            heevr.restype = None
            return heevr, ctypes.c_int64 if ilp64 else ctypes.c_int32
    return None


_LAPACK = _bind_lapack()


def _bound_heevr(a, lwork=-1, lrwork=-1, liwork=-1):
    """(call, INFO, W, Z, WORK, RWORK, IWORK): one `?heevr` call for the top eigenpair of a, an
    F-ordered complex128 matrix it overwrites, bound with its arguments and its output arrays, so
    that `call()` runs it: JOBZ='V', RANGE='I', IL = IU = n, UPLO='L' and ABSTOL 0.  The call
    has only the addresses of a and the numpy arrays, so the caller holds them as long as it keeps
    the call.  With the default sizes it is LAPACK's workspace query, which leaves a as it is and
    returns the optimal sizes in WORK[0], RWORK[0] and IWORK[0]."""
    heevr, int_t = _LAPACK
    n = len(a)
    w, z, work = np.empty(n), np.empty(n, dtype=complex), np.empty(max(lwork, 1), dtype=complex)
    rwork, iwork, isuppz = np.empty(max(lrwork, 1)), (int_t * max(liwork, 1))(), (int_t * 2)()
    size, found, info, zero = int_t(n), int_t(0), int_t(0), ctypes.c_double(0.0)
    p_n, p_0, ref = ctypes.byref(size), ctypes.byref(zero), ctypes.byref
    call = functools.partial(
        heevr, b"V", b"I", b"L", p_n, a.ctypes.data, p_n, p_0, p_0, p_n, p_n, p_0, ref(found), w.ctypes.data,
        z.ctypes.data, p_n, isuppz, work.ctypes.data, ref(int_t(lwork)), rwork.ctypes.data,
        ref(int_t(lrwork)), iwork, ref(int_t(liwork)), ref(info), 1, 1, 1,
    )
    return call, info, w, z, work, rwork, iwork


@functools.cache
def _heevr_sizes(n):
    """The optimal (LWORK, LRWORK, LIWORK) of `_bound_heevr` at dimension n, queried once."""
    a = np.empty((n, n), dtype=complex, order="F")
    bound = _bound_heevr(a)
    bound[0]()
    work, rwork, iwork = bound[4:]
    return int(work[0].real), int(rwork[0]), int(iwork[0])


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
    """An (M, N_a, tau_c) mask with the flat C-order indices of its observed entries, its per-AP
    counts and the flat indices of its unobserved entries."""

    mask: np.ndarray
    flat: np.ndarray
    counts: list
    unobserved: np.ndarray


def observed_index(omega):
    """The `ObservedIndex` of a mask, taken once by a caller that keeps the mask."""
    return ObservedIndex(omega, np.flatnonzero(omega), omega.sum(axis=(1, 2)).tolist(), np.flatnonzero(~omega))


def observed_norms(x, index):
    """Per-AP Frobenius norm over the observed entries of an (M, N_a, tau_c) stack, as `np.linalg.norm`.

    index is `observed_index(omega)`.  When every AP observes the same count
    L, as under any switch mask, the gathered entries form an (M, L) matrix
    and each AP's sums of squares are batched (1, L) @ (L, 1) dots, the dots
    `np.linalg.norm` takes; otherwise the gather is split at each AP's count.
    """
    omega, flat, counts, _ = index
    if x.shape != omega.shape:
        raise ShapeError(f"mask shape {omega.shape} does not match {x.shape}")
    v = x.reshape(-1).take(flat)
    if counts and min(counts) == max(counts):
        v = v.reshape(len(counts), counts[0])
        re, im = v.real, v.imag
        return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).reshape(-1))
    ends = np.cumsum(counts).tolist()
    return np.array([np.linalg.norm(v[a:b]) for a, b in zip([0, *ends], ends)])
