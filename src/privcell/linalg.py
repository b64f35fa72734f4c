"""Small dense linear-algebra layer used by the completion algorithms.

Everything works on complex128 ndarrays.  `hermitian_eig` gives the top k
pairs of zheevd, the LAPACK routine behind `eigh`, rotated as
`canonical_phase` rotates one vector but all k columns in one pass.  It runs
zheevd's three stages itself (`_HeevdStages`): zhetrd's reduction to a
tridiagonal, zstedc's divide and conquer for all n pairs of that, and
zunmtr's back-transformation of the k kept columns alone, each stage with
the workspace zheevd gives it.  zunmtr reflects each column on its own, so
under one BLAS thread the pairs have `eigh`'s bits, while the n - k columns
dropped are never back-transformed.  `TopEigpair` finds FW's one pair in one
`?heevr` call that computes that pair alone.  Every routine is bound through
`ctypes` from the LAPACK numpy links (`_bind_lapack`), so no scipy import is
needed, and each holds its matrix and workspace across calls, with the
call's arguments bound once, so a call pays for the solve alone.
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

    A complex128 matrix of n > 1 goes through `_HeevdStages`, zheevd's own
    stages with only the k kept columns back-transformed: the bits of
    `eigh`'s top k pairs.  Any other input, or a matrix the stages decline,
    takes `eigh` itself.  The stages' arrays are held at module level, so
    one thread at a time may call this.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= k <= len(a):
        raise ArgumentError(f"k={k} out of range for dimension {len(a)}")
    pair = None
    if _STAGES is not None and a.dtype == np.complex128 and len(a) > 1:
        pair = _heevd_stages(len(a))(a, k)
    if pair is None:
        vals, vecs = np.linalg.eigh(a)
        order = np.argsort(-vals, kind="stable")[:k]
        pair = vals[order], vecs[:, order]
    vals, vecs = pair
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]  # never 0: the columns are unit vectors
    return vals, vecs * (np.conj(top) / np.abs(top))  # canonical_phase of every column at once


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


# Per routine: its leading character arguments and its other arguments; gfortran appends one
# string length per character argument.
_SIGNATURES = {"zheevr": (3, 20), "zheevd": (2, 11), "zhetrd": (1, 9), "zstedc": (1, 12), "zunmtr": (3, 10)}


def _bind_lapack(*names):
    """(routine, ..., LAPACK integer ctype), one routine per name of `_SIGNATURES`, from the LAPACK
    numpy's own linalg extension links; None where any name does not resolve.

    dlsym on the extension's handle also searches the libraries it was linked against, so each
    routine found is the one behind numpy's LAPACK calls.  The symbols follow the prefix and
    suffix of numpy's LAPACK builds: scipy-openblas, plain ILP64 and plain LP64.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    ilp64 = bool(getattr(_umath_linalg, "_ilp64", False))
    routines = []
    for name in names:
        symbols = (f"scipy_{name}_64_", f"{name}_64_", f"{name}64_") if ilp64 else (f"scipy_{name}_", f"{name}_")
        routine = next((r for r in (getattr(lib, s, None) for s in symbols) if r is not None), None)
        if routine is None:
            return None
        chars, others = _SIGNATURES[name]
        routine.argtypes = [ctypes.c_char_p] * chars + [ctypes.c_void_p] * others + [ctypes.c_size_t] * chars
        routine.restype = None
        routines.append(routine)
    return (*routines, ctypes.c_int64 if ilp64 else ctypes.c_int32)


_LAPACK = _bind_lapack("zheevr")
_STAGES = _bind_lapack("zheevd", "zhetrd", "zstedc", "zunmtr")


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


# zheevd scales a matrix whose largest entry (zlanhe's 'M' norm) lies outside
# [sqrt(SMLNUM), sqrt(BIGNUM)], with SMLNUM = dlamch('S') / dlamch('P') and BIGNUM = 1 / SMLNUM.
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_UNSCALED = (math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM))


class _HeevdStages:
    """The top k eigenpairs of n x n complex128 matrices (n > 1) through zheevd's own stages, bound
    once with the arrays they hold.

    zheevd (JOBZ='V', UPLO='L') reduces a to a real tridiagonal T (zhetrd), solves T by divide
    and conquer (zstedc, COMPZ='I') and back-transforms all n eigenvectors (zunmtr).  Here the
    three calls run with the workspace lengths zheevd gives each, from its optimal sizes queried
    once per n (`_heevd_sizes`); the top k are picked as `hermitian_eig` picks them, gathered to
    the front of zstedc's vectors, and zunmtr runs on those k columns alone.  Each column of
    zunmtr's output is its own sequence of reflections, so under one BLAS thread every kept pair
    has the bits of zheevd's, and so of `eigh`'s, which calls zheevd.

    zheevd scales a first when its largest entry lies outside `_UNSCALED` = [lo, hi].  T is a
    unitary similarity of a, so ||T||_F is ||a||_F to rounding; that largest entry lies in
    [||a||_F / n, ||a||_F], and T's own largest entry t in [||T||_F / sqrt(3 n), ||T||_F].  So a t
    inside [2 n lo, hi / (2 sqrt(3 n))] puts a inside zheevd's range; any other t (NaN included)
    gives None, as does a stage that reports INFO != 0.
    """

    def __init__(self, n):
        _, hetrd, stedc, unmtr, int_t = _STAGES
        lwork, lrwork, liwork = _heevd_sizes(n)
        self._a = np.empty((n, n), dtype=complex, order="F")
        work, rwork, iwork = np.empty(lwork, dtype=complex), np.empty(lrwork - n), (int_t * liwork)()
        self._t = np.empty(2 * n - 1)  # T's diagonal (then the eigenvalues), then its off-diagonal
        self._d = self._t[:n]
        self._z = work[n : n + n * n].reshape(n, n, order="F")  # zheevd's WORK(INDWRK): zstedc's vectors
        a, d, z, tau, rwork2 = (x.ctypes.data for x in (self._a, self._d, self._z, work, rwork))
        e, work2 = d + 8 * n, z + 16 * n * n  # work2 is zheevd's WORK(INDWK2), rwork2 its RWORK(INDRWK)
        self._info, self._k, size = int_t(0), int_t(n), int_t(n)
        p_n, ref = ctypes.byref(size), ctypes.byref
        info, lwork2 = ref(self._info), ref(int_t(lwork - n - n * n))
        self._tridiagonal = functools.partial(hetrd, b"L", p_n, a, p_n, d, e, tau, z, ref(int_t(lwork - n)), info, 1)
        self._solve = functools.partial(
            stedc, b"I", p_n, d, e, z, p_n, work2, lwork2, rwork2, ref(int_t(lrwork - n)), iwork,
            ref(int_t(liwork)), info, 1,
        )
        self._back = functools.partial(
            unmtr, b"L", b"L", b"N", p_n, ref(self._k), a, p_n, tau, z, p_n, work2, lwork2, info, 1, 1, 1,
        )
        self._unscaled = (2 * n * _UNSCALED[0], _UNSCALED[1] / (2 * math.sqrt(3 * n)))
        self._hold = (work, rwork, iwork)  # the calls have only their addresses

    def __call__(self, a, k):
        """(values, vectors) of a's top k pairs, unrotated; the vectors are a view of a held array,
        valid until the next call.  None where zheevd would scale a or a stage reports INFO != 0."""
        self._a[...] = a
        self._tridiagonal()
        if self._info.value != 0 or not self._unscaled[0] <= np.abs(self._t).max() <= self._unscaled[1]:
            return None
        self._solve()
        if self._info.value != 0:
            return None
        order = np.argsort(-self._d, kind="stable")[:k]
        kept = self._z[:, :k]  # the kept columns, gathered to the front of zstedc's and back-transformed there
        kept[...] = self._z[:, order]
        self._k.value = k
        self._back()
        if self._info.value != 0:
            return None
        return self._d[order], kept


@functools.lru_cache(maxsize=8)
def _heevd_stages(n):
    """The `_HeevdStages` of dimension n on `_STAGES`, held for the 8 dimensions last asked for: a
    trial-major payload sweep asks for a new n at every call, and the scripts sweep 4 of them."""
    return _HeevdStages(n)


@functools.cache
def _heevd_sizes(n):
    """zheevd's optimal (LWORK, LRWORK, LIWORK) for JOBZ='V' at dimension n, queried once."""
    heevd, *_, int_t = _STAGES
    a, w, work, rwork = np.empty((n, n), dtype=complex, order="F"), np.empty(n), np.empty(1, dtype=complex), np.empty(1)
    iwork, size, query, info, ref = (int_t * 1)(), int_t(n), int_t(-1), int_t(0), ctypes.byref
    heevd(
        b"V", b"L", ref(size), a.ctypes.data, ref(size), w.ctypes.data, work.ctypes.data, ref(query), rwork.ctypes.data,
        ref(query), iwork, ref(query), ref(info), 1, 1,
    )
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
