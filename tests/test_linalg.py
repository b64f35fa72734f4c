import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import blocks_round, unpack_hermitian
from privcell import linalg, privacy
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
    TopEigpair,
    pinv,
    shared_matmul,
)
from privcell.privacy import pack_hermitian, top_eigpair
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


def top_pair(a, eig=None):
    """The packed CPU step on an exactly Hermitian a: `privacy.top_eigpair` of its packed form,
    with eig or a fresh `TopEigpair` of its side."""
    return top_eigpair(pack_hermitian(a), TopEigpair(len(a)) if eig is None else eig)


@pytest.fixture
def fallbacks(monkeypatch):
    """The matrices the packed CPU step hands to its eigh fallback, in call order."""
    seen = []
    real = privacy.hermitian_eig
    monkeypatch.setattr(privacy, "hermitian_eig", lambda a, k: seen.append(a) or real(a, k))
    return seen


def assert_matches_eigh(a):
    lam, v = top_pair(a)
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
    """The packed sum of one desk round: 20 APs with 4 antennas each."""
    rng = np.random.default_rng(seed)
    blocks = magnitude * (rng.standard_normal((20, 4, tau_c)) + 1j * rng.standard_normal((20, 4, tau_c)))
    seen = []
    blocks_round(
        Backhaul(), 1, blocks, noise_scale, seed, MessageKind.EIG_BROADCAST,
        lambda w: seen.append(w.copy()) or (np.ones(tau_c, dtype=complex), 1.0),
    )
    assert_matches_eigh(unpack_hermitian(seen[0]))


@pytest.mark.parametrize(
    "a",
    [-3.0 * np.eye(4), np.eye(5), np.array([[2.5]]), np.array([[-1.0 + 0j]]), np.zeros((3, 3))],
    ids=["minus-3I", "I", "1x1", "1x1-negative", "zero"],
)
def test_top_eigpair_edge_cases(a):
    """Degenerate tops, 1x1 matrices and the zero matrix: the eigenvalue and the residual."""
    lam, v = top_pair(a)
    tol = eig_bound(a)
    assert abs(lam - np.linalg.eigvalsh(a)[-1]) <= tol
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(a @ v - lam * v) <= tol


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 6, 12, 15], ids=["off-diagonal-real", "imaginary", "diagonal", "last-diagonal"])
def test_top_eigpair_rejects_a_non_finite_packed_sum(bad, slot, fallbacks):
    """A non-finite real part, imaginary part or diagonal entry of the packed sum of I_4 (6 real
    parts, 6 imaginary parts, 4 diagonal entries) raises before any solve: eigh's top pair of
    I_4 with one NaN off the diagonal is a finite (1, e_0)."""
    p = pack_hermitian(np.eye(4, dtype=complex))
    p[slot] = bad
    with pytest.raises(np.linalg.LinAlgError):
        top_eigpair(p, TopEigpair(4))
    assert fallbacks == []


def test_top_eigpair_rejects_a_packed_sum_of_no_or_another_side():
    with pytest.raises(ShapeError):
        top_eigpair(np.zeros(6), TopEigpair(2))
    with pytest.raises(ShapeError):
        top_eigpair(np.zeros((2, 2)), TopEigpair(2))
    with pytest.raises(ShapeError):
        top_eigpair(np.zeros(9), TopEigpair(2))


# ------------------------------------------------------------ one ?heevr call per eigenpair


def test_the_lapack_binding_resolves_to_heevr_on_numpys_scipy_openblas():
    config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if config.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {config.get('name')}, whose symbol names this test does not know")
    heevr, int_t = linalg._LAPACK
    assert heevr.__name__ in ("scipy_zheevr_64_", "scipy_zheevr_")
    assert ctypes.sizeof(int_t) == (8 if heevr.__name__.endswith("_64_") else 4)


@pytest.mark.parametrize("n", [1, 2, 24, 164])
def test_top_eigpair_leaves_the_packed_sum_unchanged(n, rng):
    """The packed sum is only read: a read-only one goes through unchanged."""
    p = pack_hermitian(random_hermitian(n, rng))
    before = p.tobytes()
    p.flags.writeable = False
    top_eigpair(p, TopEigpair(n))
    assert p.tobytes() == before


@pytest.mark.parametrize("n", [1, 2, 24, 60, 100, 164])
def test_a_held_top_eigpair_gives_a_fresh_ones_bits(n):
    """?heevr overwrites the held matrix and leaves its strict upper triangle as it finds it; each
    call on one held TopEigpair, whatever the calls before it left there, gives the bits of a
    fresh TopEigpair on the same packed sum."""
    eig = TopEigpair(n)
    eig.a[...] = np.nan + 1j * np.inf  # stale entries everywhere, the upper triangle included
    for seed in (n, n + 1, n):
        a = planted_gap(n, 0.1, 1.0, seed)
        (lam, v), (want_lam, want_v) = top_pair(a, eig), top_pair(a)
        assert lam == want_lam and v.tobytes() == want_v.tobytes()


def failing_heevr(monkeypatch):
    """Bind a ?heevr that runs and then reports INFO = 1, the code of a failed convergence."""
    heevr, int_t = linalg._LAPACK

    def routine(*args):
        heevr(*args)
        args[22]._obj.value = 1  # INFO, passed by reference

    monkeypatch.setattr(linalg, "_LAPACK", (routine, int_t))


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy's LAPACK exports no ?heevr under a known name")
@pytest.mark.parametrize("fail", [lambda m: m.setattr(linalg, "_LAPACK", None), failing_heevr], ids=["unbound", "info"])
def test_top_eigpair_without_heevr_returns_hermitian_eigs_pair(fail, fallbacks, rng, monkeypatch):
    """Unbound, or when the call reports INFO != 0, the pair is hermitian_eig's, byte for byte,
    on a matrix rebuilt from the packed sum: not the held matrix ?heevr overwrote.  A packed sum
    unpacks to complex128, so a real case is compared with hermitian_eig of its complex copy."""
    cases = [planted_gap(n, 0.1, 1.0, n) for n in (1, 2, 24, 60, 164)]
    cases += [random_hermitian(60, rng).real, np.diag([3.0, 1.0]), -3.0 * np.eye(4), np.zeros((3, 3))]
    fail(monkeypatch)
    for a in cases:
        eig = TopEigpair(len(a))
        lam, v = top_pair(a, eig)
        vals, vecs = hermitian_eig(a.astype(complex), 1)
        assert lam == vals[0] and v.dtype == vecs.dtype and v.tobytes() == vecs[:, 0].tobytes()
        handed = fallbacks[-1]
        assert handed is not eig.a and np.tril(handed).tobytes() == np.tril(a.astype(complex)).tobytes()
    assert len(fallbacks) == len(cases)


@pytest.mark.parametrize("scale", [1e300, 1e-170, 1e-300])
def test_top_eigpair_matches_eigh_near_the_ends_of_float_range(scale, fallbacks):
    """?heevr scales such a matrix itself: eigh's pair within eig_bound, without a
    RuntimeWarning (an error under this suite's filter) and without the fallback."""
    a = scale * random_hermitian(6, np.random.default_rng(0))
    lam, v = top_pair(a)
    vals, vecs = np.linalg.eigh(a)
    tol = eig_bound(a)
    assert abs(lam - vals[-1]) <= tol
    assert np.linalg.norm(v - canonical_phase(vecs[:, -1])) <= tol / (vals[-1] - vals[-2])
    assert fallbacks == [] or linalg._LAPACK is None


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy's LAPACK exports no ?heevr under a known name")
@pytest.mark.parametrize("n", [1, 2, 24, 60, 100, 164])
def test_top_eigpair_is_scipys_subset_evr_pair_bit_for_bit(n):
    """The straight-line FW oracle takes its pair from scipy's subset eigh (driver evr); the
    ctypes ?heevr call gives the same bits once both are phase-rotated."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    a = planted_gap(n, 0.1, 1.0, n)
    vals, vecs = scipy_linalg.eigh(a, subset_by_index=[n - 1, n - 1], driver="evr")
    lam, v = top_pair(a)
    assert lam == vals[0] and v.tobytes() == canonical_phase(vecs[:, 0]).tobytes()


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy's LAPACK exports no ?heevr under a known name")
def test_heevr_workspace_is_queried_once_per_dimension(fallbacks, rng, monkeypatch):
    """The sizes are cached by n; every TopEigpair after the first at an n binds them."""
    queries, real = [], linalg._bound_heevr

    def bound(a, *sizes):
        if not sizes:
            queries.append(len(a))
        return real(a, *sizes)

    monkeypatch.setattr(linalg, "_bound_heevr", bound)
    linalg._heevr_sizes.cache_clear()
    try:
        for n in (24, 60, 24, 60, 24):
            top_pair(random_hermitian(n, rng))
    finally:
        linalg._heevr_sizes.cache_clear()
    assert queries == [24, 60] and fallbacks == []


@pytest.mark.parametrize("bind", [True, False], ids=["heevr", "eigh"])
def test_top_eigpair_is_exact_on_diagonal_matrices(bind, monkeypatch):
    """A diagonal matrix's top pair is its largest entry and a coordinate vector on either path;
    with a repeated top entry the two paths may pick different coordinates."""
    if not bind:
        monkeypatch.setattr(linalg, "_LAPACK", None)
    for d in ([-3.0] * 4, [0.0] * 3, [1.0] * 5, [2.5], [3.0, 1.0], [-1.0, 4.0, 4.0, 0.5]):
        a = np.diag(d)
        lam, v = top_pair(a)
        assert lam == max(d)
        assert sorted(np.abs(v)) == [0.0] * (len(d) - 1) + [1.0]
        assert np.array_equal(a @ v, lam * v)
