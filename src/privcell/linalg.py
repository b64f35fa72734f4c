"""Small dense linear-algebra layer used by the completion algorithms.

Everything works on complex128 ndarrays.  `hermitian_eig` is the LAPACK
half of the CPU's one eigensolve (`privacy.top_eigenpairs`): the top k pairs
of the exactly Hermitian matrix whose lower triangle the caller has written
into `held_matrix(n)`, one F-ordered matrix held per n.  At k = 1 it makes one `?heevr` call that computes that pair
alone.  At k > 1 it runs zheevd's three stages itself: zhetrd's reduction
to a tridiagonal, zstedc's divide and conquer for all n pairs of that, and
zunmtr's back-transformation of the k kept columns alone, each stage with
the workspace zheevd gives it.  zunmtr reflects each column on its own, so
under one BLAS thread the pairs have `eigh`'s bits, while the n - k columns
dropped are never back-transformed.  Every routine is bound through
`ctypes` from the LAPACK numpy links (`_bind_lapack`), so no scipy import is
needed.  Each is bound to the held matrix and its workspace on its first
use at that n, with the call's arguments bound once, so a call pays for the
solve alone.  The held state is module-level, so one thread at a time may
call `hermitian_eig`.
`shared_matmul` multiplies an AP stack by one shared matrix in a single
GEMM, and `cholesky_solve` solves many small Hermitian positive definite
systems at once, each step one vectorised operation over the whole batch.
"""

import ctypes
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ShapeError


def held_matrix(n):
    """The F-ordered n x n complex128 matrix `hermitian_eig` reads at n: write a lower triangle
    into it, then call.  Its strict upper triangle is never read."""
    return _held(n).a


def hermitian_eig(n, k):
    """(values, vectors) of the top k eigenpairs, descending and not phase-rotated, of the exactly
    Hermitian matrix whose lower triangle is in `held_matrix(n)`, for 1 <= k <= n.

    k = 1 is one `?heevr` call; k > 1 runs zheevd's stages (`_Held`), which give eigh's top k
    pairs bit for bit, ties broken by eigh's ascending index (stable).  Either overwrites the held
    matrix, and the vectors may be a view of held state, valid until the next call.  None where
    no routine resolved (`_LAPACK` is None), a routine reports INFO != 0, or zheevd would scale
    the matrix.
    """
    return None if _LAPACK is None else _held(n)(k)


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


_LAPACK = _bind_lapack("zheevr", "zheevd", "zhetrd", "zstedc", "zunmtr")


def _bound_heevr(a, lwork=-1, lrwork=-1, liwork=-1):
    """(call, INFO, W, Z, WORK, RWORK, IWORK): one `?heevr` call for the top eigenpair of a, an
    F-ordered complex128 matrix it overwrites, bound with its arguments and its output arrays, so
    that `call()` runs it: JOBZ='V', RANGE='I', IL = IU = n, UPLO='L' and ABSTOL 0.  The call
    has only the addresses of a and the numpy arrays, so the caller holds them as long as it keeps
    the call.  With the default sizes it is LAPACK's workspace query, which leaves a as it is and
    returns the optimal sizes in WORK[0], RWORK[0] and IWORK[0]."""
    heevr, *_, int_t = _LAPACK
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


# zheevd scales a matrix whose largest entry (zlanhe's 'M' norm) lies outside
# [sqrt(SMLNUM), sqrt(BIGNUM)], with SMLNUM = dlamch('S') / dlamch('P') and BIGNUM = 1 / SMLNUM.
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_UNSCALED = (math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM))


class _Held:
    """The matrix `a` that `hermitian_eig` reads at one n, and the LAPACK calls bound to it.  Each
    routine is bound, its workspace sizes queried, on its first use, so a side only ever asked
    for k = 1 holds no zheevd workspace.

    k = 1: `?heevr` reads the lower triangle alone (UPLO='L'), computes the top pair alone
    (JOBZ='V', RANGE='I', IL = IU = n, ABSTOL 0) and scales a matrix near either end of float
    range itself.

    k > 1: zheevd (JOBZ='V', UPLO='L') reduces a to a real tridiagonal T (zhetrd), solves T by
    divide and conquer (zstedc, COMPZ='I') and back-transforms all n eigenvectors (zunmtr).  Here
    the three calls run with the workspace lengths zheevd gives each, from its optimal sizes; the
    top k are picked by a stable sort on minus the values, gathered to the front of zstedc's
    vectors, and zunmtr runs on those k columns alone.  Each column of zunmtr's output is its own
    sequence of reflections, so under one BLAS thread every kept pair has the bits of zheevd's,
    and so of `eigh`'s, which calls zheevd.

    zheevd scales a first when its largest entry lies outside `_UNSCALED` = [lo, hi].  T is a
    unitary similarity of a, so ||T||_F is ||a||_F to rounding; that largest entry lies in
    [||a||_F / n, ||a||_F], and T's own largest entry t in [||T||_F / sqrt(3 n), ||T||_F].  So a t
    inside [2 n lo, hi / (2 sqrt(3 n))] puts a inside zheevd's range; any other t (NaN included)
    gives None, as does a stage that reports INFO != 0.
    """

    def __init__(self, n):
        self.a = np.empty((n, n), dtype=complex, order="F")
        self._heevr = self._back = None

    def __call__(self, k):
        if k == 1:
            if self._heevr is None:
                query = _bound_heevr(self.a)
                query[0]()
                work, rwork, iwork = query[4:]
                self._heevr = _bound_heevr(self.a, int(work[0].real), int(rwork[0]), int(iwork[0]))
            call, info, w, z, *_ = self._heevr
            call()
            return None if info.value != 0 else (w[:1].copy(), z[:, None])
        if self._back is None:
            self._bind_stages()
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

    def _bind_stages(self):
        _, heevd, hetrd, stedc, unmtr, int_t = _LAPACK
        n, ref = len(self.a), ctypes.byref
        self._t = np.empty(2 * n - 1)  # T's diagonal (then the eigenvalues), then its off-diagonal
        self._info, self._k, size, query = int_t(0), int_t(n), int_t(n), int_t(-1)
        p_n, info, a, t = ref(size), ref(self._info), self.a.ctypes.data, self._t.ctypes.data
        sizes = np.empty(1, dtype=complex), np.empty(1), (int_t * 1)()  # zheevd's optimal sizes, JOBZ='V'
        heevd(b"V", b"L", p_n, a, p_n, t, sizes[0].ctypes.data, ref(query), sizes[1].ctypes.data, ref(query),
              sizes[2], ref(query), info, 1, 1)
        lwork, lrwork, liwork = int(sizes[0][0].real), int(sizes[1][0]), int(sizes[2][0])
        work, rwork, iwork = np.empty(lwork, dtype=complex), np.empty(lrwork - n), (int_t * liwork)()
        self._d = self._t[:n]
        self._z = work[n : n + n * n].reshape(n, n, order="F")  # zheevd's WORK(INDWRK): zstedc's vectors
        z, tau, rwork2 = self._z.ctypes.data, work.ctypes.data, rwork.ctypes.data
        e, work2 = t + 8 * n, z + 16 * n * n  # work2 is zheevd's WORK(INDWK2), rwork2 its RWORK(INDRWK)
        lwork2 = ref(int_t(lwork - n - n * n))
        self._tridiagonal = functools.partial(hetrd, b"L", p_n, a, p_n, t, e, tau, z, ref(int_t(lwork - n)), info, 1)
        self._solve = functools.partial(
            stedc, b"I", p_n, t, e, z, p_n, work2, lwork2, rwork2, ref(int_t(lrwork - n)), iwork,
            ref(int_t(liwork)), info, 1,
        )
        self._back = functools.partial(
            unmtr, b"L", b"L", b"N", p_n, ref(self._k), a, p_n, tau, z, p_n, work2, lwork2, info, 1, 1, 1,
        )
        self._unscaled = (2 * n * _UNSCALED[0], _UNSCALED[1] / (2 * math.sqrt(3 * n)))
        self._hold = (work, rwork, iwork)  # the calls have only their addresses


@functools.lru_cache(maxsize=8)
def _held(n):
    """The `_Held` state of side n, kept for the 8 sides last asked for: a trial-major payload
    sweep asks for a new n at every call, and the scripts sweep 4 of them."""
    return _Held(n)


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
