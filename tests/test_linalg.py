import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import blocks_round, unpack_hermitian
from privcell import harness, linalg, privacy, svdmc
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
    """One lookup binds FW's ?heevr and hermitian_eig's zheevd stages, all under the symbol
    convention and integer width of numpy's scipy-openblas."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if config.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {config.get('name')}, whose symbol names this test does not know")
    heevr, int_t = linalg._LAPACK
    assert heevr.__name__ in ("scipy_zheevr_64_", "scipy_zheevr_")
    suffix = "_64_" if heevr.__name__.endswith("_64_") else "_"
    assert ctypes.sizeof(int_t) == (8 if suffix == "_64_" else 4)
    *stages, stage_int_t = linalg._STAGES
    assert [r.__name__ for r in stages] == [f"scipy_{n}{suffix}" for n in ("zheevd", "zhetrd", "zstedc", "zunmtr")]
    assert stage_int_t is int_t
    assert linalg._bind_lapack("zheevr", "no_such_routine") is None


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


# ------------------------------------------------ the top k through zheevd's own stages

stages_bound = pytest.mark.skipif(
    linalg._STAGES is None, reason="numpy's LAPACK exports no zheevd stages under a known name"
)


def eigh_top(a, k):
    """The top k pairs as hermitian_eig gave them before its staged route: eigh's, picked by a
    stable sort on minus the values and each column phase-rotated in one pass."""
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")[:k]
    vecs = vecs[:, order]
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    return vals[order], vecs * (np.conj(top) / np.abs(top))


def assert_same_bits(got, want):
    """Equal values and vectors, byte for byte, in the same dtype, shape and memory order."""
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.flags.f_contiguous) == (w.dtype, w.shape, w.flags.f_contiguous)
        assert g.tobytes() == w.tobytes()


@pytest.fixture
def staged(monkeypatch):
    """Whether each staged attempt of hermitian_eig gave the pair (True) or declined (False), in
    call order; a call that never asks the stages leaves no entry.  The held stages are dropped
    before and after, so a patched `_STAGES` is bound afresh and not kept."""
    seen, real = [], linalg._heevd_stages

    def stages(n):
        solve = real(n)

        def attempt(a, k):
            pair = solve(a, k)
            seen.append(pair is not None)
            return pair

        return attempt

    linalg._heevd_stages.cache_clear()
    monkeypatch.setattr(linalg, "_heevd_stages", stages)
    yield seen
    real.cache_clear()


def wishart(n, rng):
    x = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    return x @ x.conj().T


def graded(n, rng):
    """A random unitary similarity of a spectrum graded from 1 down to 1e-12."""
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    a = (q * np.geomspace(1.0, 1e-12, n)) @ q.conj().T
    return 0.5 * (a + a.conj().T)


@stages_bound
@pytest.mark.parametrize("n", [1, 2, 8, 24, 60, 100, 128, 129, 164, 300])
@pytest.mark.parametrize("spectrum", [wishart, graded], ids=["wishart", "graded"])
def test_hermitian_eig_is_eighs_top_k_bit_for_bit(n, spectrum, staged):
    """At k = 1, a middle k and k = n, in C and F order: eigh's top k pairs, as hermitian_eig
    picked and rotated them before, byte for byte; every n > 1 through the stages."""
    a = spectrum(n, np.random.default_rng(n))
    for k in sorted({1, (n + 1) // 2, n}):
        for order in "CF":
            assert_same_bits(hermitian_eig(np.asarray(a, order=order), k), eigh_top(a, k))
    assert staged == [True] * (0 if n == 1 else 2 * len({1, (n + 1) // 2, n}))


@stages_bound
@pytest.mark.parametrize(
    "diagonal",
    [
        np.ones(6),
        np.array([3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0]),
        np.array([1.0, 5.0, 2.0, 5.0, 2.0, 5.0, 0.5, 2.0]),
        np.repeat([-1.0, 4.0, 4.0, 0.0], 30),
    ],
    ids=["identity", "repeated", "interleaved", "repeated-120"],
)
def test_hermitian_eig_breaks_ties_as_eigh_did(diagonal, staged):
    """Exact ties inside the top k and across the k-th/(k+1)-th boundary pick eigh's columns:
    at every k, the bits of eigh's top k."""
    a = np.diag(diagonal).astype(complex)
    for k in range(1, len(a) + 1):
        assert_same_bits(hermitian_eig(a, k), eigh_top(a, k))
    assert staged == [True] * len(a)


def trial_grams(profile, tau_d=None, trials=2):
    """(matrix, k) of every `hermitian_eig` call in `run_trial` for `svd` (ε = 1, with release
    noise) and `npsvd` (without) at a profile's config seed: the lower triangles
    `svdmc.cpu_topk` hands over, from `channel.make_block`'s blocks."""
    exp = load_experiment(Path(__file__).resolve().parent.parent / "configs" / f"{profile}.yaml")
    s = exp.scenario if tau_d is None else harness.apply_axis(exp.scenario, "tau_d", tau_d)[0]
    prep = harness.prepare(s, exp.run, harness.draw_beta(s, s.seed))
    seen, real = [], svdmc.hermitian_eig
    svdmc.hermitian_eig = lambda a, k: seen.append((a.copy(order="K"), k)) or real(a, k)
    try:
        for method in ("svd", "npsvd"):
            for t in range(trials):
                harness.run_trial(s, exp.run, method, prep, s.seed, t, 1.0)
    finally:
        svdmc.hermitian_eig = real
    return seen


@stages_bound
@pytest.mark.parametrize(
    "profile, tau_d", [("desk", None), ("desk", 20), ("desk", 160), ("m100_k25", None)],
    ids=["desk", "desk-tau20", "desk-tau160", "m100_k25"],
)
def test_hermitian_eig_on_trial_grams_is_eighs_top_k(profile, tau_d, staged):
    """The release sums of real trials, noisy and noiseless, at k = K as `svd` asks and at k = 1
    and n: eigh's bits every time, all through the stages."""
    grams = trial_grams(profile, tau_d)
    assert len(grams) == 4
    for a, k in grams:
        assert a.flags.f_contiguous and not np.triu(a, 1).any()  # unpack_lower's fresh matrix
        for kk in sorted({1, k, len(a)}):
            assert_same_bits(hermitian_eig(a, kk), eigh_top(a, kk))
    assert staged and all(staged)


# --------------------------------------------------------------- the eigh fallback


def failing_stage(position):
    """A `_STAGES` binding whose routine at position runs and then reports INFO = 1."""
    *routines, int_t = linalg._STAGES
    real = routines[position]
    info_at = {1: 9, 2: 12, 3: 12}[position]  # zhetrd's, zstedc's and zunmtr's INFO argument

    def routine(*args):
        real(*args)
        args[info_at]._obj.value = 1

    routines[position] = routine
    return (*routines, int_t)


@stages_bound
@pytest.mark.parametrize("position", [1, 2, 3], ids=["zhetrd", "zstedc", "zunmtr"])
def test_a_stage_reporting_info_falls_back_to_eigh(position, staged, monkeypatch, rng):
    monkeypatch.setattr(linalg, "_STAGES", failing_stage(position))
    for n, k in ((2, 1), (24, 4), (100, 25)):
        a = wishart(n, rng)
        assert_same_bits(hermitian_eig(a, k), eigh_top(a, k))
    assert staged == [False] * 3


@pytest.mark.parametrize("n", [1, 2, 24, 100])
def test_hermitian_eig_without_the_stages_is_eighs_top_k(n, staged, monkeypatch, rng):
    monkeypatch.setattr(linalg, "_STAGES", None)
    a = wishart(n, rng)
    for k in sorted({1, n}):
        assert_same_bits(hermitian_eig(a, k), eigh_top(a, k))
    assert staged == []


@pytest.mark.parametrize("n", [1, 2, 24])
def test_real_input_and_n_1_take_eigh(n, staged, rng):
    """A real matrix is eigh's real solve (dsyevd), never the complex stages; a 1 x 1 complex
    matrix is eigh's too."""
    a = wishart(n, rng)
    for x in (a.real, a.real.astype(np.float32)) if n > 1 else (a, a.real):
        assert_same_bits(hermitian_eig(x, n), eigh_top(x, n))
    assert staged == []


# zheevd's unscaled range: its largest entry within [2^-485, 2^485]
RMIN, RMAX = 2.0**-485, 2.0**485


@stages_bound
@pytest.mark.parametrize(
    "top, takes_stages",
    [
        (1e300, False),
        (RMAX * 1.5, False),
        (RMAX / 1.5, False),
        (RMAX / 2**10, True),
        (2**10 * 24 * RMIN, True),
        (RMIN * 1.5, False),
        (RMIN / 1.5, False),
        (1e-170, False),
        (1e-300, False),
    ],
    ids=[
        "1e300", "above-rmax", "below-rmax", "inside-rmax", "inside-rmin",
        "above-rmin", "below-rmin", "1e-170", "1e-300",
    ],
)
def test_hermitian_eig_near_the_ends_of_float_range_is_eighs(top, takes_stages, staged):
    """A matrix zheevd scales first, its largest entry outside [RMIN, RMAX], and one next to
    that range on either side, take eigh; one well inside takes the stages.  Both give eigh's
    bits, without a RuntimeWarning (an error under this suite's filter)."""
    a = wishart(24, np.random.default_rng(3))
    a = a * (top / np.abs(a).max())
    assert_same_bits(hermitian_eig(a, 4), eigh_top(a, 4))
    assert staged == [takes_stages]


@stages_bound
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "nan-imag"])
@pytest.mark.parametrize("where", [(0, 0), (5, 2), (23, 23)], ids=["first-diagonal", "below", "last-diagonal"])
def test_hermitian_eig_on_a_non_finite_matrix_ends_as_eigh(bad, where, staged):
    """A non-finite entry in the lower triangle ends as eigh's top k does: the same exception,
    or the same NaN bytes.  The stages decline it, except a NaN imaginary part on the diagonal,
    which zheevd never reads: that matrix is finite to both routes."""

    def outcome(f):
        try:
            vals, vecs = f()
        except Exception as e:  # noqa: BLE001 -- the type is what is compared
            return type(e)
        return vals.tobytes(), vecs.tobytes()

    a = wishart(24, np.random.default_rng(4))
    a[where] = bad
    assert outcome(lambda: hermitian_eig(a, 4)) == outcome(lambda: eigh_top(a, 4))
    unread = where[0] == where[1] and np.isnan(complex(bad).imag)
    assert staged == [unread]


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("n", [2, 24, 100])
def test_hermitian_eig_leaves_its_input_unchanged(n, order, rng):
    """The stages overwrite their own copy: a read-only input goes through unchanged."""
    a = np.asarray(wishart(n, rng), order=order)
    a[np.triu_indices(n, 1)] = 7.0 - 3.0j  # an upper triangle the solve must not read
    before = a.tobytes()
    a.flags.writeable = False
    want = eigh_top(a, 3 if n > 2 else 1)
    assert_same_bits(hermitian_eig(a, 3 if n > 2 else 1), want)
    assert a.tobytes() == before


@stages_bound
def test_heevd_workspace_is_queried_once_per_dimension(staged, rng, monkeypatch):
    """zheevd's sizes are cached by n: however the held stages change hands between
    dimensions, zheevd's workspace query runs once at each."""
    heevd, *rest = linalg._STAGES
    queries = []
    monkeypatch.setattr(linalg, "_STAGES", (lambda *args: queries.append(args[2]._obj.value) or heevd(*args), *rest))
    linalg._heevd_sizes.cache_clear()
    try:
        for n in (24, 60, 24, 60, 24):
            a = wishart(n, rng)
            assert_same_bits(hermitian_eig(a, 4), eigh_top(a, 4))
    finally:
        linalg._heevd_sizes.cache_clear()
    assert queries == [24, 60] and staged == [True] * 5


@stages_bound
@pytest.mark.parametrize("n", [2, 24, 100])
def test_held_stages_give_fresh_bits_after_any_call(n, staged, rng):
    """The stages' arrays are held across calls: after a declined matrix (one zheevd scales), a
    k = n call and a k = 1 call, each matrix still gets eigh's bits, as from freshly bound stages."""
    tiny = 1e-300 * wishart(n, rng)
    cases = [(tiny, 1), (wishart(n, rng), n), (graded(n, rng), 1), (wishart(n, rng), (n + 1) // 2)]
    for a, k in cases:
        assert_same_bits(hermitian_eig(a, k), eigh_top(a, k))
    assert staged == [False, True, True, True]


@stages_bound
def test_a_trial_major_payload_sweep_binds_each_dimension_once(rng):
    """Desk's payload sweep runs trial by trial, so n goes 24, 44, 84, 164 and round again:
    every dimension keeps its held stages, so each is bound once."""
    linalg._heevd_stages.cache_clear()
    try:
        for n in (24, 44, 84, 164) * 3:
            a = wishart(n, rng)
            assert_same_bits(hermitian_eig(a, 4), eigh_top(a, 4))
        info = linalg._heevd_stages.cache_info()
    finally:
        linalg._heevd_stages.cache_clear()
    assert (info.misses, info.hits) == (4, 8)
