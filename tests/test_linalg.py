from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import blocks_round
from privcell import linalg
from privcell.channel import sample_switch
from privcell.config import load_experiment
from privcell.errors import ArgumentError, ShapeError
from privcell.linalg import (
    canonical_phase,
    cholesky_solve,
    frob_norm,
    hermitian_eig,
    observed_index,
    observed_norms,
    pinv,
    shared_matmul,
    top_eigpair,
)
from privcell.protocol import Backhaul, MessageKind

# The two bounds that pin top_eigpair to eigh are fixed by the dtype alone:
# 8 n eps |a| on the eigenvalue and 8 n eps |a| / gap on the eigenvector.
EPS = np.finfo(np.complex128).eps


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def test_canonical_phase_largest_entry_real_positive(rng):
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    w = canonical_phase(v)
    i = np.argmax(np.abs(w))
    assert w[i].imag == pytest.approx(0.0, abs=1e-15)
    assert w[i].real > 0
    # only a global phase was applied
    np.testing.assert_allclose(np.abs(w), np.abs(v), rtol=1e-12)


def test_canonical_phase_zero_vector():
    v = np.zeros(3, dtype=complex)
    assert np.array_equal(canonical_phase(v), v)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 164), k=st.integers(1, 164), seed=st.integers(0, 2**32 - 1))
def test_hermitian_eig_rotates_every_column_as_canonical_phase_does(n, k, seed):
    """The one-pass rotation of the k kept eigenvectors equals canonical_phase applied to
    each column alone, byte for byte."""
    k = min(k, n)
    a = random_hermitian(n, np.random.default_rng(seed))
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")[:k]
    want = np.column_stack([canonical_phase(vecs[:, i]) for i in order])
    assert hermitian_eig(a, k)[1].tobytes() == want.tobytes()


def test_eig_identity():
    vals, vecs = hermitian_eig(np.eye(3), 1)
    assert (vals.shape, vecs.shape) == ((1,), (3, 1))
    assert vals[0] == pytest.approx(1.0)
    assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0)


def test_eig_diagonal():
    vals, vecs = hermitian_eig(np.diag([3.0, 1.0]), 1)
    assert vals[0] == pytest.approx(3.0)
    np.testing.assert_allclose(np.abs(vecs[:, 0]), [1.0, 0.0], atol=1e-12)


def test_eig_reconstruction(rng):
    """Full decomposition reassembles the matrix."""
    a = random_hermitian(6, rng)
    vals, vecs = hermitian_eig(a, 6)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, a, atol=1e-8)
    assert vals.tolist() == sorted(vals, reverse=True)


def test_eig_vectors_orthonormal(rng):
    a = random_hermitian(5, rng)
    vecs = hermitian_eig(a, 5)[1]
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-10)


def test_eig_k_out_of_range():
    with pytest.raises(ArgumentError):
        hermitian_eig(np.eye(3), 4)
    with pytest.raises(ArgumentError):
        hermitian_eig(np.eye(3), 0)


def test_eig_rejects_nonsquare():
    with pytest.raises(ShapeError):
        hermitian_eig(np.zeros((2, 3)), 1)


# ---------------------------------------------------------------- shared matrix products


def call_site_shapes():
    """(stack shape, matrix shape) of each shared_matmul call on the desk and m100_k25 profiles."""
    root = Path(__file__).resolve().parent.parent / "configs"
    out = []
    for profile in ("desk", "m100_k25"):
        s = load_experiment(root / f"{profile}.yaml").scenario
        m, n_a, k, tau_c = s.M, s.N_a, s.K, s.tau_c
        out += [
            pytest.param((m, n_a, k), (k, s.tau_p), id=f"{profile}-transmit-pilots"),
            pytest.param((m, n_a, k), (k, s.tau_d), id=f"{profile}-transmit-payload"),
            pytest.param((m, n_a, tau_c), (s.tau_p, k), id=f"{profile}-pilot_only_ls"),
            pytest.param((m, n_a, tau_c), (s.tau_p, k), id=f"{profile}-estimate_channel"),
            pytest.param((m, n_a, tau_c), (tau_c, k), id=f"{profile}-ap_complete-project"),
            pytest.param((m, n_a, k), (k, tau_c), id=f"{profile}-ap_complete-expand"),
        ]
    return out


@pytest.mark.parametrize("a_shape, b_shape", call_site_shapes())
def test_shared_matmul_equals_the_stacked_product(a_shape, b_shape, rng):
    """One GEMM over the folded rows gives the stacked a @ b byte for byte.  Both pilot
    products read the leading tau_p columns of an (M, N_a, tau_c) block, a strided view."""
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    if a_shape[-1] != b_shape[0]:
        a = a[..., : b_shape[0]]
    b = rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape)
    got = shared_matmul(a, b)
    assert got.shape == (*a.shape[:-1], b_shape[1])
    assert got.tobytes() == (a @ b).tobytes()


# ---------------------------------------------------------------- batched Cholesky


def hpd_stack(n, cond, batch, rng):
    """Hermitian positive definite (..., n, n) matrices with eigenvalues from 1 down to 1/cond."""
    q = np.linalg.qr(rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n)))[0]
    return (q * np.geomspace(1.0, 1.0 / cond, n)) @ np.swapaxes(q.conj(), -1, -2)


def trailing(a):
    """(..., n, n) -> (n, n, ...): the batch in the trailing axes, as cholesky_solve takes it."""
    return np.moveaxis(a, (-2, -1), (0, 1))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 8),
    log_cond=st.floats(0.0, 12.0),
    batch=st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, log_cond=12.0, batch=(3,), seed=0)
@example(n=1, log_cond=0.0, batch=(), seed=1)
def test_cholesky_solve_matches_lapack_solve(n, log_cond, batch, seed):
    """Every system of the batch agrees with np.linalg.solve to 8 n eps cond, relative."""
    rng = np.random.default_rng(seed)
    cond = 10.0**log_cond
    a = hpd_stack(n, cond, batch, rng)
    b = rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))
    want = np.linalg.solve(a, b[..., None])[..., 0]
    got = np.moveaxis(cholesky_solve(trailing(a), np.moveaxis(b, -1, 0)), 0, -1)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= 8 * n * EPS * cond * np.linalg.norm(want, axis=-1))


def test_cholesky_solve_reads_the_lower_triangle(rng):
    a = hpd_stack(3, 10.0, (4,), rng)
    b = rng.standard_normal((3, 4)) + 0j
    upper = np.triu(np.ones((3, 3), dtype=bool), 1)
    junk = np.where(upper, 7.0 - 3.0j, a)  # upper triangle overwritten
    assert cholesky_solve(trailing(junk), b).tobytes() == cholesky_solve(trailing(a), b).tobytes()


@pytest.mark.parametrize("where", [(0, 0), (1, 0), (2, 2)], ids=["pivot", "below", "last-pivot"])
def test_cholesky_solve_rejects_a_nan_entry(where, rng):
    """A NaN in any system's lower triangle reaches a pivot and raises, however many systems
    are fine."""
    a = hpd_stack(3, 10.0, (5,), rng)
    a[2][where] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_solve(trailing(a), np.ones((3, 5), dtype=complex))


@pytest.mark.parametrize(
    "bad", [np.diag([1.0, -1.0]), np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([np.inf, 1.0])],
    ids=["indefinite", "zero", "indefinite-offdiagonal", "infinite-pivot"],
)
def test_cholesky_solve_rejects_a_matrix_that_is_not_positive_definite(bad):
    a = np.stack([np.eye(2), bad, np.eye(2)]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_solve(trailing(a), np.ones((2, 3), dtype=complex))


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-12)


def test_pinv_orthonormal_rows(rng):
    # orthonormal-row matrices invert by conjugate transposition
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    p = q.conj().T  # (2, 5), P P^H = I
    np.testing.assert_allclose(pinv(p), p.conj().T, atol=1e-10)


def test_pinv_full_column_rank(rng):
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_allclose(pinv(a) @ a, np.eye(2), atol=1e-8)


def test_pinv_rejects_empty_and_1d():
    with pytest.raises(ShapeError):
        pinv(np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        pinv(np.zeros(3))


def test_norms_and_inner():
    assert frob_norm(np.zeros((4, 4))) == 0.0
    assert frob_norm(np.eye(9)) == pytest.approx(3.0)
    a = np.array([[1 + 1j, 2], [0, 1j]])
    # squared Frobenius norm is the trace inner product of a with itself
    assert frob_norm(a) ** 2 == pytest.approx(np.trace(a.conj().T @ a).real)


def test_masked_norm_and_mask(rng):
    a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    mask = rng.random((2, 3, 4)) < 0.5
    got = observed_norms(a, observed_index(mask))
    # one np.linalg.norm per AP over its observed entries, bit for bit
    assert got.tolist() == [np.linalg.norm(a[m][mask[m]]) for m in range(2)]
    # entries off the mask do not count
    np.testing.assert_array_equal(observed_norms(np.where(mask, a, 9.0), observed_index(mask)), got)
    with pytest.raises(ShapeError):
        observed_norms(a, observed_index(mask[:, :, :2]))


def test_observed_norms_split_by_ap_counts(rng):
    """The one gather is split at each AP's count: an AP with nothing observed reads 0.0,
    and every other AP its own np.linalg.norm, bit for bit."""
    a = rng.standard_normal((6, 4, 60)) + 1j * rng.standard_normal((6, 4, 60))
    mask = rng.random(a.shape) < 0.5
    mask[[0, 3]] = False
    mask[5] = True
    got = observed_norms(a, observed_index(mask))
    assert got[0] == got[3] == 0.0
    assert got.tolist() == [np.linalg.norm(a[m][mask[m]]) for m in range(6)]


@pytest.mark.parametrize("profile", ["desk", "m100_k25"])
def test_observed_norms_on_switch_masks_equal_per_ap_norms(profile, rng):
    """Under a switch mask every AP observes N_r * tau_c entries, so the norms take the
    batched (M, L) path; each equals that AP's np.linalg.norm, bit for bit."""
    s = load_experiment(Path(__file__).resolve().parent.parent / "configs" / f"{profile}.yaml").scenario
    shape = (s.M, s.N_a, s.tau_c)
    _, omega = sample_switch(np.zeros(shape), s, rng)
    index = observed_index(omega)
    assert index.mask is omega
    assert index.counts == [s.N_r * s.tau_c] * s.M
    np.testing.assert_array_equal(index.flat, np.flatnonzero(omega))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.array([np.linalg.norm(x[m][omega[m]]) for m in range(s.M)])
    assert observed_norms(x, index).tobytes() == want.tobytes()


# ---------------------------------------------------------------- top eigenpair


def eig_bound(a):
    """8 n eps |a|, |a| the spectral norm."""
    return 8 * len(a) * EPS * np.abs(np.linalg.eigvalsh(a)).max()


@pytest.fixture
def fallbacks(monkeypatch):
    """The matrices top_eigpair hands to its eigh fallback, in call order."""
    seen = []
    real = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda a, k: seen.append(a) or real(a, k))
    return seen


def assert_matches_eigh(a):
    lam, v = top_eigpair(a)
    vals, vecs = np.linalg.eigh(a)
    tol = eig_bound(a)
    gap = vals[-1] - vals[-2] if len(a) > 1 else np.inf
    assert abs(lam - vals[-1]) <= tol
    assert np.linalg.norm(v - canonical_phase(vecs[:, -1])) <= tol / gap
    assert np.linalg.norm(a @ v - lam * v) <= tol


def planted_gap(n, rel_gap, scale, seed):
    """A random exactly Hermitian matrix with top eigenvalue scale and the rest at most
    scale * (1 - rel_gap), down to -scale."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    d = scale * np.concatenate([[1.0], rng.uniform(-1.0, 1.0 - rel_gap, n - 1)])
    a = (q * d) @ q.conj().T
    return 0.5 * (a + a.conj().T)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 164),
    rel_gap=st.floats(1e-6, 1.0),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=164, rel_gap=1e-6, scale=1e6, seed=0)
@example(n=164, rel_gap=1.0, scale=1e-6, seed=1)
@example(n=2, rel_gap=1e-6, scale=1.0, seed=2)
@example(n=1, rel_gap=0.5, scale=3.0, seed=3)
def test_top_eigpair_matches_eigh_on_planted_gaps(n, rel_gap, scale, seed):
    assert_matches_eigh(planted_gap(n, rel_gap, scale, seed))


@settings(deadline=None, max_examples=30)
@given(
    tau_c=st.sampled_from([24, 60, 164]),
    noise_scale=st.sampled_from([0.0, 1.3]),
    magnitude=st.floats(1e-8, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_eigpair_matches_eigh_on_desk_gram_rounds(tau_c, noise_scale, magnitude, seed):
    """The unpacked sum of one desk round: 20 APs with 4 antennas each."""
    rng = np.random.default_rng(seed)
    blocks = magnitude * (rng.standard_normal((20, 4, tau_c)) + 1j * rng.standard_normal((20, 4, tau_c)))
    seen = []
    blocks_round(
        Backhaul(), 1, blocks, noise_scale, seed, MessageKind.EIG_BROADCAST,
        lambda w: seen.append(w) or (np.ones(tau_c, dtype=complex), 1.0),
    )
    assert_matches_eigh(seen[0])


def test_top_eigpair_takes_the_fast_path(fallbacks):
    assert_matches_eigh(planted_gap(60, 0.1, 1.0, 3))
    assert_matches_eigh(np.diag([3.0, 1.0]))
    # an F-ordered input is shifted as a C-ordered one: no fallback, the same bits
    a = planted_gap(60, 0.1, 1.0, 3)
    f = a.T.conj()
    assert f.flags.f_contiguous and not f.flags.c_contiguous
    assert_matches_eigh(f)
    lam, v = top_eigpair(f)
    want_lam, want_v = top_eigpair(np.ascontiguousarray(f))
    assert lam == want_lam and v.tobytes() == want_v.tobytes()
    assert fallbacks == []


@pytest.mark.parametrize(
    "a",
    [-3.0 * np.eye(4), np.eye(5), np.array([[2.5]]), np.array([[-1.0 + 0j]]), np.zeros((3, 3))],
    ids=["minus-3I", "I", "1x1", "1x1-negative", "zero"],
)
def test_top_eigpair_edge_cases(a):
    """Degenerate tops, 1x1 matrices and the zero matrix: the eigenvalue and the residual."""
    lam, v = top_eigpair(a)
    tol = eig_bound(a)
    assert abs(lam - np.linalg.eigvalsh(a)[-1]) <= tol
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(a @ v - lam * v) <= tol


def test_top_eigpair_falls_back_to_eigh(fallbacks):
    """An all-ones start orthogonal to the top eigenvector stays orthogonal through both
    solves; the residual check sends the matrix to eigh, whose top pair is returned."""
    a = np.array([[1.0, -1.0], [-1.0, 1.0]]) + 0j
    lam, v = top_eigpair(a)
    assert len(fallbacks) == 1
    vals, vecs = hermitian_eig(a, 1)
    assert lam == vals[0]
    np.testing.assert_array_equal(v, vecs[:, 0])
    assert abs(lam - 2.0) <= eig_bound(a)
    assert np.linalg.norm(a @ v - lam * v) <= eig_bound(a)
    np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("scale", [1e300, 1e-170])
def test_top_eigpair_falls_back_quietly_near_the_ends_of_float_range(scale, fallbacks):
    """A 6x6 Hermitian matrix scaled by 1e300 underflows the first inverse-iteration vector's
    norm to 0, and scaled by 1e-170 overflows it; either goes to eigh without a RuntimeWarning
    (an error under this suite's filter) and returns eigh's top pair."""
    a = scale * random_hermitian(6, np.random.default_rng(0))
    lam, v = top_eigpair(a)
    assert len(fallbacks) == 1
    vals, vecs = hermitian_eig(a, 1)
    assert lam == vals[0]
    assert v.tobytes() == vecs[:, 0].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(2, 1), (1, 1)])
def test_top_eigpair_rejects_a_non_finite_matrix(bad, where):
    """eigvalsh returns [1, nan, nan, 1] for the off-diagonal NaN, and eigh's top pair
    of it is a finite (1, e_0); top_eigpair raises instead."""
    a = np.eye(4, dtype=complex)
    a[where] = a[where[::-1]] = bad
    with pytest.raises(np.linalg.LinAlgError):
        top_eigpair(a)


def test_top_eigpair_rejects_nonsquare():
    with pytest.raises(ShapeError):
        top_eigpair(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        top_eigpair(np.zeros((2, 2, 2)))


# ------------------------------------------------- one LU factorization per eigenpair


def two_numpy_solves(s):
    """top_eigpair's inverse-iteration vector as two np.linalg.solve calls, each factoring s."""
    v = np.linalg.solve(s, np.ones(len(s)))
    v = np.linalg.solve(s, v / np.linalg.norm(v))
    return v / np.linalg.norm(v)


@pytest.fixture
def numpy_solve_only(monkeypatch):
    """top_eigpair as on a numpy whose LAPACK exports no ?gesv/?getrs under a known name."""
    monkeypatch.setattr(linalg, "_LAPACK", None)


def test_the_lapack_binding_resolves_on_numpys_scipy_openblas():
    config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if config.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {config.get('name')}, whose symbol names this test does not know")
    assert linalg._LAPACK is not None
    assert set(linalg._LAPACK[0]) == {"d", "D"}


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy's LAPACK exports no ?gesv/?getrs under a known name")
@pytest.mark.parametrize("dtype", [np.complex128, np.float64], ids=["complex", "real"])
@pytest.mark.parametrize("n", [1, 2, 24, 60, 100, 164])
def test_factoring_once_gives_two_numpy_solves_byte_for_byte(n, dtype, rng):
    """?gesv, then ?getrs on its factors, equals np.linalg.solve twice (one BLAS thread)."""
    a = random_hermitian(n, rng)
    a = (a if dtype is np.complex128 else a.real) - 3.0 * np.eye(n)
    s = np.asfortranarray(a, dtype=dtype)
    want = two_numpy_solves(s)
    got = linalg._solve_twice(s.copy(order="F"))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.float64], ids=["complex", "real"])
@pytest.mark.parametrize("bind", [True, False], ids=["lapack", "numpy-solve"])
def test_a_singular_shift_raises_as_numpy_solve_does(bind, dtype, monkeypatch):
    if not bind:
        monkeypatch.setattr(linalg, "_LAPACK", None)
    s = np.zeros((3, 3), dtype=dtype, order="F")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(s, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        linalg._solve_twice(s)


def test_top_eigpair_without_the_binding_returns_the_same_bits(rng, monkeypatch):
    """Forcing the two np.linalg.solve calls changes no bit of any pair, fast path or fallback."""
    cases = [planted_gap(n, 0.1, 1.0, n) for n in (1, 2, 24, 60, 100, 164)]
    cases += [random_hermitian(60, rng).real, np.diag([3.0, 1.0]), -3.0 * np.eye(4), np.zeros((3, 3))]
    with_binding = [top_eigpair(a) for a in cases]
    monkeypatch.setattr(linalg, "_LAPACK", None)
    for a, (lam, v) in zip(cases, with_binding):
        want_lam, want_v = top_eigpair(a)
        assert lam == want_lam and v.dtype == want_v.dtype and v.tobytes() == want_v.tobytes()


@pytest.mark.parametrize("bind", [True, False], ids=["lapack", "numpy-solve"])
def test_top_eigpair_edge_cases_take_the_same_branch_either_way(bind, fallbacks, monkeypatch):
    """The zero matrix lies below _ITERATION_RANGE and goes to eigh without a solve; -3I shifts
    to the regular -tol*I, which both solves invert exactly, so it stays on the fast path."""
    if not bind:
        monkeypatch.setattr(linalg, "_LAPACK", None)
    lam, v = top_eigpair(np.zeros((3, 3)))
    assert len(fallbacks) == 1 and lam == 0.0
    lam, v = top_eigpair(-3.0 * np.eye(4))
    assert len(fallbacks) == 1 and lam == -3.0
    assert v.tobytes() == np.full(4, 0.5).tobytes()


def test_a_c_ordered_shift_takes_numpy_solve(rng):
    """LAPACK reads columns, so a matrix that is not F-ordered goes to np.linalg.solve, not to
    ?gesv, which would solve with its transpose."""
    s = np.ascontiguousarray(random_hermitian(24, rng) + rng.standard_normal((24, 24)))
    assert not s.flags.f_contiguous
    assert linalg._solve_twice(s.copy()).tobytes() == two_numpy_solves(s).tobytes()
