import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import canonical_phase, evr_pair
from support import blocks_round, unpack_hermitian
from privcell import harness, linalg, privacy, svdmc
from privcell.channel import sample_switch
from privcell.config import load_experiment
from privcell.errors import ArgumentError, ShapeError
from privcell.linalg import (
    cholesky_solve,
    frob_norm,
    held_matrix,
    observed_index,
    observed_norms,
    pinv,
    shared_matmul,
)
from privcell.privacy import pack_hermitian, top_eigenpairs
from privcell.protocol import Backhaul, MessageKind

# The two bounds that pin the top pair to eigh are fixed by the dtype alone:
# 8 n eps |a| on the eigenvalue and 8 n eps |a| / gap on the eigenvector.
EPS = np.finfo(np.complex128).eps


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


@pytest.fixture(autouse=True)
def fresh_held():
    """Every test starts and ends with no held eigensolver state, so one that patches `_LAPACK`
    binds its routines afresh and leaves none of them bound for the next."""
    linalg._held.cache_clear()
    yield
    linalg._held.cache_clear()


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


def eigh_top(a, k):
    """The top k pairs as the CPU's eigensolve gave them before its LAPACK routes: eigh's, picked
    by a stable sort on minus the values and each column phase-rotated in one pass."""
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")[:k]
    vecs = vecs[:, order]
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    return vals[order], vecs * (np.conj(top) / np.abs(top))


def evr_top(a):
    """scipy's subset `evr` pair of a as (values (1,), vectors (n, 1)), phase-rotated."""
    value, v = evr_pair(a)
    return np.array([value]), v[:, None]


def reference(a, k):
    """What `top_eigenpairs` gives for an exactly Hermitian a with LAPACK bound: `?heevr`'s pair,
    which is scipy's subset evr pair, at k = 1; eigh's top k, through zheevd's stages, at k > 1."""
    return evr_top(a) if k == 1 else eigh_top(a, k)


def packed_eig(a, k):
    """(top_eigenpairs of a's packed form, that form's full matrix): a need not be exactly Hermitian."""
    p = pack_hermitian(a)
    return top_eigenpairs(p, k), unpack_hermitian(p)


def assert_same_bits(got, want):
    """Equal values and vectors, byte for byte, in the same dtype, shape and memory order."""
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.flags.f_contiguous) == (w.dtype, w.shape, w.flags.f_contiguous)
        assert g.tobytes() == w.tobytes()


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 164), k=st.integers(1, 164), seed=st.integers(0, 2**32 - 1))
def test_top_eigenpairs_rotates_every_column_as_canonical_phase_does(n, k, seed):
    """The one-pass rotation of the k kept eigenvectors equals canonical_phase applied to
    each column alone, byte for byte: of eigh's columns at k > 1, of evr's at k = 1."""
    k = min(k, n)
    a = random_hermitian(n, np.random.default_rng(seed))
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")[:k]
    want = evr_pair(a)[1][:, None] if k == 1 else np.column_stack([canonical_phase(vecs[:, i]) for i in order])
    assert top_eigenpairs(pack_hermitian(a), k)[1].tobytes() == want.tobytes()


def test_eig_identity():
    vals, vecs = top_eigenpairs(pack_hermitian(np.eye(3)), 1)
    assert (vals.shape, vecs.shape) == ((1,), (3, 1))
    assert vals[0] == pytest.approx(1.0)
    assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0)


def test_eig_diagonal():
    vals, vecs = top_eigenpairs(pack_hermitian(np.diag([3.0, 1.0])), 1)
    assert vals[0] == pytest.approx(3.0)
    np.testing.assert_allclose(np.abs(vecs[:, 0]), [1.0, 0.0], atol=1e-12)


def test_eig_reconstruction(rng):
    """Full decomposition reassembles the matrix."""
    a = random_hermitian(6, rng)
    vals, vecs = top_eigenpairs(pack_hermitian(a), 6)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, a, atol=1e-8)
    assert vals.tolist() == sorted(vals, reverse=True)


def test_eig_vectors_orthonormal(rng):
    a = random_hermitian(5, rng)
    vecs = top_eigenpairs(pack_hermitian(a), 5)[1]
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-10)


def test_eig_k_out_of_range():
    with pytest.raises(ArgumentError):
        top_eigenpairs(pack_hermitian(np.eye(3)), 4)
    with pytest.raises(ArgumentError):
        top_eigenpairs(pack_hermitian(np.eye(3)), 0)


def test_eig_rejects_nonsquare():
    with pytest.raises(ShapeError):
        top_eigenpairs(np.zeros((2, 3)), 1)


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


def top_pair(a):
    """FW's CPU step on an exactly Hermitian a: `privacy.top_eigenpairs` of its packed form at
    k = 1, as (value, vector)."""
    vals, vecs = top_eigenpairs(pack_hermitian(a), 1)
    return vals[0], vecs[:, 0]


@pytest.fixture
def fallbacks(monkeypatch):
    """The matrices the CPU's eigensolve hands to its eigh fallback, in call order: each is a
    fresh `unpack_lower` of the packed sum, the only call it makes without a held matrix."""
    seen = []
    real = privacy.unpack_lower

    def unpack(p, out=None):
        a = real(p, out)
        if out is None:
            seen.append(a)
        return a

    monkeypatch.setattr(privacy, "unpack_lower", unpack)
    return seen


@pytest.fixture
def solves(monkeypatch):
    """Whether each `linalg.hermitian_eig` call of the CPU's eigensolve gave the pairs (True) or
    declined (False), in call order."""
    seen = []
    real = privacy.hermitian_eig

    def solve(n, k):
        pair = real(n, k)
        seen.append(pair is not None)
        return pair

    monkeypatch.setattr(privacy, "hermitian_eig", solve)
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
def test_top_pair_matches_eigh_on_planted_gaps(n, rel_gap, scale, seed):
    assert_matches_eigh(planted_gap(n, rel_gap, scale, seed))


@settings(deadline=None, max_examples=30)
@given(
    tau_c=st.sampled_from([24, 60, 164]),
    noise_scale=st.sampled_from([0.0, 1.3]),
    magnitude=st.floats(1e-8, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_pair_matches_eigh_on_desk_gram_rounds(tau_c, noise_scale, magnitude, seed):
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
def test_top_pair_edge_cases(a):
    """Degenerate tops, 1x1 matrices and the zero matrix: the eigenvalue and the residual."""
    lam, v = top_pair(a)
    tol = eig_bound(a)
    assert abs(lam - np.linalg.eigvalsh(a)[-1]) <= tol
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(a @ v - lam * v) <= tol


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 6, 12, 15], ids=["off-diagonal-real", "imaginary", "diagonal", "last-diagonal"])
def test_a_non_finite_packed_sum_raises_before_any_solve(bad, slot, k, fallbacks, solves):
    """A non-finite real part, imaginary part or diagonal entry of the packed sum of I_4 (6 real
    parts, 6 imaginary parts, 4 diagonal entries) raises before any solve, for FW's top pair and
    the one-shot top-K basis alike: eigh's top pair of I_4 with one NaN off the diagonal is a
    finite (1, e_0)."""
    p = pack_hermitian(np.eye(4, dtype=complex))
    p[slot] = bad
    with pytest.raises(np.linalg.LinAlgError):
        top_eigenpairs(p, k)
    assert fallbacks == [] and solves == []


def test_a_packed_sum_of_no_side_or_no_square_length_is_rejected():
    with pytest.raises(ShapeError):
        top_eigenpairs(np.zeros(6), 1)
    with pytest.raises(ShapeError):
        top_eigenpairs(np.zeros((2, 2)), 1)
    with pytest.raises(ArgumentError):
        top_eigenpairs(np.zeros(0), 1)


# ------------------------------------------------------------ one ?heevr call per eigenpair


def test_the_lapack_binding_resolves_to_heevr_on_numpys_scipy_openblas():
    """One lookup binds FW's ?heevr and the top-K basis's zheevd stages, all under the symbol
    convention and integer width of numpy's scipy-openblas."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if config.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {config.get('name')}, whose symbol names this test does not know")
    heevr, *stages, int_t = linalg._LAPACK
    assert heevr.__name__ in ("scipy_zheevr_64_", "scipy_zheevr_")
    suffix = "_64_" if heevr.__name__.endswith("_64_") else "_"
    assert ctypes.sizeof(int_t) == (8 if suffix == "_64_" else 4)
    assert [r.__name__ for r in stages] == [f"scipy_{n}{suffix}" for n in ("zheevd", "zhetrd", "zstedc", "zunmtr")]
    assert linalg._bind_lapack("zheevr", "no_such_routine") is None


@pytest.mark.parametrize("n", [1, 2, 24, 100, 164])
def test_top_eigenpairs_leaves_the_packed_sum_unchanged(n, rng):
    """The packed sum is only read: a read-only one goes through unchanged, at k = 1 and k > 1."""
    p = pack_hermitian(random_hermitian(n, rng))
    before = p.tobytes()
    p.flags.writeable = False
    for k in sorted({1, min(3, n)}):
        top_eigenpairs(p, k)
    assert p.tobytes() == before


def fresh(p, k):
    """top_eigenpairs(p, k) on held state bound afresh, dropped again after the call."""
    linalg._held.cache_clear()
    try:
        return top_eigenpairs(p, k)
    finally:
        linalg._held.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 24, 60, 100, 164])
def test_held_state_gives_fresh_bits_after_any_call(n, solves, rng):
    """Both routines overwrite the one held matrix of a side, and the stages leave their arrays
    as a call left them.  Whatever earlier calls left there, NaNs in the upper triangle included,
    and after a sum zheevd would scale (declined to eigh), a k = n call and a k = 1 call, each
    packed sum gets the bits that freshly bound state gives it."""
    cases = [(1e-300 * wishart(n, rng), min(2, n)), (wishart(n, rng), n)]
    cases += [(graded(n, rng), 1), (planted_gap(n, 0.1, 1.0, n), 1), (wishart(n, rng), (n + 1) // 2)]
    cases = [(pack_hermitian(a), k) for a, k in cases]
    wants = [fresh(p, k) for p, k in cases]
    held_matrix(n)[...] = np.nan + 1j * np.inf  # stale entries everywhere, the upper triangle included
    solves.clear()
    for (p, k), want in zip(cases, wants):
        assert_same_bits(top_eigenpairs(p, k), want)
    assert solves == [n == 1, True, True, True, True]


def failing(position, info_at):
    """A `_LAPACK` binding whose routine at position runs and then reports INFO = 1, the code of a
    failed convergence, through its argument info_at."""
    *routines, int_t = linalg._LAPACK
    real = routines[position]

    def routine(*args):
        real(*args)
        args[info_at]._obj.value = 1  # INFO, passed by reference

    routines[position] = routine
    return (*routines, int_t)


lapack_bound = pytest.mark.skipif(
    linalg._LAPACK is None, reason="numpy's LAPACK exports no ?heevr or zheevd stages under a known name"
)


@lapack_bound
@pytest.mark.parametrize("bind", [None, (0, 22)], ids=["unbound", "info"])
def test_top_pair_without_heevr_is_eighs_pair(bind, fallbacks, rng, monkeypatch):
    """Unbound, or when ?heevr reports INFO != 0, the pair is eigh's, byte for byte, on a matrix
    rebuilt from the packed sum: not the held matrix ?heevr overwrote.  A packed sum unpacks to
    complex128, so a real case is compared with eigh of its complex copy."""
    cases = [planted_gap(n, 0.1, 1.0, n) for n in (1, 2, 24, 60, 164)]
    cases += [random_hermitian(60, rng).real, np.diag([3.0, 1.0]), -3.0 * np.eye(4), np.zeros((3, 3))]
    monkeypatch.setattr(linalg, "_LAPACK", None if bind is None else failing(*bind))
    for a in cases:
        assert_same_bits(top_eigenpairs(pack_hermitian(a), 1), eigh_top(a.astype(complex), 1))
        handed = fallbacks[-1]
        assert handed is not held_matrix(len(a)) and np.tril(handed).tobytes() == np.tril(a.astype(complex)).tobytes()
    assert len(fallbacks) == len(cases)


@pytest.mark.parametrize("scale", [1e300, 1e-170, 1e-300])
def test_top_pair_matches_eigh_near_the_ends_of_float_range(scale, fallbacks):
    """?heevr scales such a matrix itself: eigh's pair within eig_bound, without a
    RuntimeWarning (an error under this suite's filter) and without the fallback."""
    a = scale * random_hermitian(6, np.random.default_rng(0))
    lam, v = top_pair(a)
    vals, vecs = np.linalg.eigh(a)
    tol = eig_bound(a)
    assert abs(lam - vals[-1]) <= tol
    assert np.linalg.norm(v - canonical_phase(vecs[:, -1])) <= tol / (vals[-1] - vals[-2])
    assert fallbacks == [] or linalg._LAPACK is None


@lapack_bound
@pytest.mark.parametrize("n", [1, 2, 24, 60, 100, 164])
def test_top_pair_is_scipys_subset_evr_pair_bit_for_bit(n):
    """The straight-line FW oracle takes its pair from scipy's subset eigh (driver evr); the
    ctypes ?heevr call gives the same bits once both are phase-rotated."""
    a = planted_gap(n, 0.1, 1.0, n)
    lam, v = top_pair(a)
    want_lam, want_v = evr_pair(a)
    assert lam == want_lam and v.tobytes() == want_v.tobytes()


@lapack_bound
def test_heevr_workspace_is_queried_once_per_dimension(fallbacks, rng, monkeypatch):
    """The sizes are queried when ?heevr is bound to a side's held matrix, once per n."""
    queries, real = [], linalg._bound_heevr

    def bound(a, *sizes):
        if not sizes:
            queries.append(len(a))
        return real(a, *sizes)

    monkeypatch.setattr(linalg, "_bound_heevr", bound)
    for n in (24, 60, 24, 60, 24):
        top_pair(random_hermitian(n, rng))
    assert queries == [24, 60] and fallbacks == []


@pytest.mark.parametrize("bind", [True, False], ids=["heevr", "eigh"])
def test_top_pair_is_exact_on_diagonal_matrices(bind, monkeypatch):
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


@lapack_bound
@pytest.mark.parametrize("d", [2.5, -1.0, 0.0, 5e-324])
def test_a_1x1_sum_takes_heevr(d, solves):
    """A 1 x 1 sum has k = 1 alone, so it takes ?heevr: its one entry and the vector 1."""
    vals, vecs = top_eigenpairs(np.array([d]), 1)
    assert vals.tolist() == [d] and vecs.tolist() == [[1.0 + 0.0j]]
    assert_same_bits((vals, vecs), evr_top(np.array([[complex(d)]])))
    assert solves == [True]


# ------------------------------------------------ the top k through zheevd's own stages


def wishart(n, rng):
    x = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    return x @ x.conj().T


def graded(n, rng):
    """A random unitary similarity of a spectrum graded from 1 down to 1e-12."""
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    a = (q * np.geomspace(1.0, 1e-12, n)) @ q.conj().T
    return 0.5 * (a + a.conj().T)


@lapack_bound
@pytest.mark.parametrize("n", [1, 2, 8, 24, 60, 100, 128, 129, 164, 300])
@pytest.mark.parametrize("spectrum", [wishart, graded], ids=["wishart", "graded"])
def test_top_eigenpairs_is_eighs_top_k_bit_for_bit(n, spectrum, solves):
    """At k = 1, a middle k and k = n: scipy's evr pair at k = 1 and eigh's top k pairs at k > 1,
    as the eigensolve picked and rotated them before, byte for byte; none declined."""
    ks = sorted({1, (n + 1) // 2, n})
    for k in ks:
        got, a = packed_eig(spectrum(n, np.random.default_rng(n)), k)
        assert_same_bits(got, reference(a, k))
    assert solves == [True] * len(ks)


@lapack_bound
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
def test_top_eigenpairs_breaks_ties_as_eigh_did(diagonal, solves):
    """Exact ties inside the top k and across the k-th/(k+1)-th boundary pick eigh's columns:
    at every k > 1, the bits of eigh's top k; at k = 1, evr's pair."""
    a = np.diag(diagonal).astype(complex)
    for k in range(1, len(a) + 1):
        assert_same_bits(top_eigenpairs(pack_hermitian(a), k), reference(a, k))
    assert solves == [True] * len(a)


def trial_grams(profile, tau_d=None, trials=2):
    """(packed sum, k) of every `top_eigenpairs` call in `run_trial` for `svd` (ε = 1, with release
    noise) and `npsvd` (without) at a profile's config seed, as `svdmc.cpu_topk` hands them
    over, from `channel.make_block`'s blocks."""
    exp = load_experiment(Path(__file__).resolve().parent.parent / "configs" / f"{profile}.yaml")
    s = exp.scenario if tau_d is None else harness.apply_axis(exp.scenario, "tau_d", tau_d)[0]
    prep = harness.prepare(s, exp.run, harness.draw_beta(s, s.seed))
    seen, real = [], svdmc.top_eigenpairs
    svdmc.top_eigenpairs = lambda p, k: seen.append((p.copy(), k)) or real(p, k)
    try:
        for method in ("svd", "npsvd"):
            for t in range(trials):
                harness.run_trial(s, exp.run, method, prep, s.seed, t, 1.0)
    finally:
        svdmc.top_eigenpairs = real
    return seen


@lapack_bound
@pytest.mark.parametrize(
    "profile, tau_d", [("desk", None), ("desk", 20), ("desk", 160), ("m100_k25", None)],
    ids=["desk", "desk-tau20", "desk-tau160", "m100_k25"],
)
def test_top_eigenpairs_on_trial_grams_is_the_reference(profile, tau_d, solves):
    """The release sums of real trials, noisy and noiseless, at k = K as `svd` asks and at k = 1
    and n: eigh's bits at k > 1 and evr's at k = 1 every time, none declined."""
    grams = trial_grams(profile, tau_d)
    assert len(grams) == 4
    solves.clear()
    for p, k in grams:
        a = unpack_hermitian(p)
        for kk in sorted({1, k, len(a)}):
            assert_same_bits(top_eigenpairs(p, kk), reference(a, kk))
    assert solves and all(solves)


# --------------------------------------------------------------- the eigh fallback


@lapack_bound
@pytest.mark.parametrize("position, info_at", [(2, 9), (3, 12), (4, 12)], ids=["zhetrd", "zstedc", "zunmtr"])
def test_a_stage_reporting_info_falls_back_to_eigh(position, info_at, solves, fallbacks, monkeypatch, rng):
    monkeypatch.setattr(linalg, "_LAPACK", failing(position, info_at))
    for n, k in ((2, 2), (24, 4), (100, 25)):
        got, a = packed_eig(wishart(n, rng), k)
        assert_same_bits(got, eigh_top(a, k))
    assert solves == [False] * 3 and len(fallbacks) == 3


@pytest.mark.parametrize("n", [1, 2, 24, 100])
def test_top_eigenpairs_without_lapack_is_eighs_top_k(n, solves, fallbacks, monkeypatch, rng):
    monkeypatch.setattr(linalg, "_LAPACK", None)
    ks = sorted({1, n})
    for k in ks:
        got, a = packed_eig(wishart(n, rng), k)
        assert_same_bits(got, eigh_top(a, k))
    assert solves == [False] * len(ks) and len(fallbacks) == len(ks)


# zheevd's unscaled range: its largest entry within [2^-485, 2^485]
RMIN, RMAX = 2.0**-485, 2.0**485


@lapack_bound
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
def test_top_k_near_the_ends_of_float_range_is_eighs(top, takes_stages, solves):
    """A sum zheevd scales first, its largest entry outside [RMIN, RMAX], and one next to that
    range on either side, take eigh; one well inside takes the stages.  Both give eigh's bits,
    without a RuntimeWarning (an error under this suite's filter)."""
    a = wishart(24, np.random.default_rng(3))
    got, a = packed_eig(a * (top / np.abs(a).max()), 4)
    assert_same_bits(got, eigh_top(a, 4))
    assert solves == [takes_stages]


@lapack_bound
def test_heevd_workspace_is_queried_once_per_dimension(solves, rng, monkeypatch):
    """zheevd's sizes are queried when the stages are bound to a side's held matrix: however the
    calls change hands between dimensions, zheevd's workspace query runs once at each."""
    heevr, heevd, *rest = linalg._LAPACK
    queries = []
    monkeypatch.setattr(
        linalg, "_LAPACK", (heevr, lambda *args: queries.append(args[2]._obj.value) or heevd(*args), *rest)
    )
    for n in (24, 60, 24, 60, 24):
        got, a = packed_eig(wishart(n, rng), 4)
        assert_same_bits(got, eigh_top(a, 4))
    assert queries == [24, 60] and solves == [True] * 5


@lapack_bound
def test_each_routine_is_bound_on_its_first_use_at_a_side(rng):
    """A side asked only for k = 1 binds ?heevr alone and holds no zheevd workspace; the stages are
    bound on the first k > 1 at that side, and ?heevr is kept."""
    held = linalg._held(24)
    top_eigenpairs(pack_hermitian(wishart(24, rng)), 1)
    heevr = held._heevr
    assert heevr is not None and held._back is None
    top_eigenpairs(pack_hermitian(wishart(24, rng)), 4)
    assert held._heevr is heevr and held._back is not None


@lapack_bound
def test_a_trial_major_payload_sweep_binds_each_dimension_once(rng):
    """Desk's payload sweep runs trial by trial, so n goes 24, 44, 84, 164 and round again:
    every dimension keeps its held state, so each is bound once."""
    for n in (24, 44, 84, 164) * 3:
        got, a = packed_eig(wishart(n, rng), 4)
        assert_same_bits(got, eigh_top(a, 4))
    info = linalg._held.cache_info()
    assert info.misses == 4 and info.currsize == 4
