import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import fw_noise_scale, hermitian_noise, hermitize, svd_noise_scale
from support import RecordingBackhaul, blocks_round, fw_sigma, svd_sigma, unpack_hermitian
from privcell.errors import ArgumentError, ConfigError, ShapeError
from privcell.fw import FwConfig
from privcell.linalg import canonical_phase, hermitian_eig
from privcell.privacy import (
    Calibration,
    frob_bound,
    gram_round,
    pack_hermitian,
    stacked_gram,
    unpack_lower,
)
from privcell.protocol import Backhaul, MessageKind
from privcell.svdmc import SvdConfig


# ---------------------------------------------------------------- bound

def test_frob_bound_zero_channel():
    beta = np.zeros((3, 5))
    assert frob_bound(beta, 3, 4, 100, 1.0) == pytest.approx(20.0)


def test_frob_bound_single_ap_hand_value():
    beta = np.array([[1e-11]])
    got = frob_bound(beta, 1, 4, 100, 1e-13)
    # sqrt(4e-9) + sqrt(4e-11), evaluated at high precision separately
    assert got == pytest.approx(6.9570108523704345e-05, rel=1e-12)


def test_frob_bound_uses_worst_ap():
    beta = np.array([[1.0, 2.0], [1.0, 3.0]])  # per-AP sums 2 and 5
    got = frob_bound(beta, 2, 4, 10, 0.0)
    assert got == pytest.approx(math.sqrt(2 * 10 * 4 * 5.0))


def test_frob_bound_monotone_in_beta(rng):
    beta = rng.random((2, 4))
    base = frob_bound(beta, 2, 4, 10, 1e-3)
    bumped = beta.copy()
    bumped[1, 2] += 0.5
    assert frob_bound(bumped, 2, 4, 10, 1e-3) >= base


def test_frob_bound_rejects_bad_shape():
    with pytest.raises(ArgumentError):
        frob_bound(np.zeros(4), 2, 2, 10, 0.0)


# ---------------------------------------------------------------- scales

def test_iterative_scale_frozen_value():
    # L=1, T=1, M=1, eps=1, delta=0.1, high-precision reference
    assert fw_sigma(1.0, 1, 1, 1.0, 0.1) == pytest.approx(
        49.684805418143892, rel=1e-12
    )


def test_one_shot_scale_frozen_value():
    assert svd_sigma(1.0, 1, 1.0, 0.1) == pytest.approx(
        2.2475447244974928, rel=1e-12
    )


def test_scale_proportionality():
    base = fw_sigma(1.0, 5, 3, 1.0, 0.05)
    assert fw_sigma(1.0, 5, 3, 2.0, 0.05) == base / 2
    assert fw_sigma(2.0, 5, 3, 1.0, 0.05) == pytest.approx(4 * base, rel=1e-14)
    one = svd_sigma(1.5, 2, 0.7, 0.05)
    assert svd_sigma(1.5, 2, 1.4, 0.05) == one / 2
    # 1/sqrt(M) dependence
    assert svd_sigma(1.5, 8, 0.7, 0.05) == pytest.approx(one / 2, rel=1e-14)


def test_scale_validation():
    with pytest.raises(ArgumentError):
        fw_sigma(1.0, 1, 1, 0.0, 0.1)
    with pytest.raises(ArgumentError):
        fw_sigma(1.0, 1, 1, 1.0, 1.0)
    with pytest.raises(ArgumentError):
        fw_sigma(1.0, 0, 1, 1.0, 0.1)
    with pytest.raises(ArgumentError):
        svd_sigma(1.0, 0, 1.0, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_budget_or_scale_is_rejected(bad):
    """A NaN or infinite eps or noise scale is an error, never a noiseless release."""
    with pytest.raises(ArgumentError):
        fw_sigma(1.0, 4, 2, bad, 0.1)
    with pytest.raises(ArgumentError):
        svd_sigma(1.0, 2, bad, 0.1)
    with pytest.raises(ArgumentError):
        noise_releases(3, bad, (0,))
    with pytest.raises(ArgumentError):
        FwConfig(1.0, Calibration(1.0, 1, bad))
    with pytest.raises(ArgumentError):
        SvdConfig(2, Calibration(1.0, 1, bad), 1.0)


def test_calibrated_scales_are_the_formulas_bit_for_bit():
    """On criterion 2's 100-point grid, calibrate's sigma for both schedules is byte-equal
    to the straight-line formulas of `oracles`."""
    rng = np.random.default_rng(20260823)
    for _ in range(100):
        bound = float(10.0 ** rng.uniform(-5, 2))
        iters = int(rng.integers(1, 201))
        n_aps = int(rng.integers(1, 101))
        eps = float(10.0 ** rng.uniform(-2, 2))
        delta = float(rng.uniform(1e-6, 0.5))
        for got, want in (
            (fw_sigma(bound, iters, n_aps, eps, delta), fw_noise_scale(bound, iters, n_aps, eps, delta)),
            (svd_sigma(bound, n_aps, eps, delta), svd_noise_scale(bound, n_aps, eps, delta)),
        ):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("bound, eps", [(1e3, 1e-305), (np.float64(1e3), 1e-305), (np.float64(1e200), 1.0)])
def test_a_noise_scale_out_of_float_range_is_a_config_error(bound, eps):
    """A budget whose sigma overflows, through eps or the square of a numpy bound, is an
    input no run can honour: a ConfigError, with no numpy warning on the way."""
    with pytest.raises(ConfigError, match="overflows"):
        fw_sigma(bound, 20, 4, eps, 0.1)
    with pytest.raises(ConfigError, match="overflows"):
        svd_sigma(bound, 4, eps, 0.1)


@pytest.mark.parametrize("bound", [1e4, np.float64(1e4)])
def test_a_finite_scale_whose_aggregate_overflows_is_a_config_error(bound):
    """sigma is finite but the sum's std, sigma * sqrt(M), is not: gram_round could not draw it."""
    assert svd_noise_scale(bound, 4, 1e-300, 0.1) < math.inf
    with pytest.raises(ConfigError, match="overflows"):
        svd_sigma(bound, 4, 1e-300, 0.1)
    assert fw_noise_scale(bound, 1, 4, 2e-299, 0.1) < math.inf
    with pytest.raises(ConfigError, match="overflows"):
        fw_sigma(bound, 1, 4, 2e-299, 0.1)


# ---------------------------------------------------------------- release round

def ref_round(blocks, noise_scale, entropy, tail=()):
    """Reference of the sum one round releases over an (M, N_a, tau_c) stack: the
    hermitized Gram of the stacked (M*N_a, tau_c) matrix plus, unless the scale
    is 0, one scattered three-call noise draw at noise_scale * sqrt(M) from
    SeedSequence([*entropy, *tail])."""
    j = blocks.reshape(-1, blocks.shape[-1])
    w = hermitize(j.conj().T @ j)
    if noise_scale != 0.0:
        seed = np.random.SeedSequence([*entropy, *tail])
        w = w + hermitian_noise(j.shape[1], noise_scale * math.sqrt(len(blocks)), seed)
    return w


@pytest.mark.parametrize("tail", [(), (3,)])
def test_gram_round_sums_releases_in_ap_order(rng, tail):
    """APs 0..M-1 send in ascending order, each release carrying the round's packed sum, and
    the CPU reads that packed sum."""
    blocks = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    entropy = (8, 9)
    net = RecordingBackhaul()
    got = blocks_round(net, 2, blocks, 0.4, entropy, MessageKind.BASIS_BROADCAST, lambda w: w, tail)
    want = ref_round(blocks, 0.4, entropy, tail)
    assert unpack_hermitian(got).tobytes() == want.tobytes()
    for payload in net.payloads[:3]:
        assert payload.tobytes() == got.tobytes()
    assert [m.sender for m in net.transcript] == ["ap0", "ap1", "ap2", "cpu"]
    assert all(m.round_index == 2 for m in net.transcript)
    assert net.transcript[-1].kind is MessageKind.BASIS_BROADCAST


def test_stacked_gram_is_the_packed_gram_of_the_stacked_blocks(rng):
    """One product over the (M*N_a, tau_c) stack, packed: byte-equal to pack_hermitian(J^H J)."""
    blocks = rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5))
    j = blocks.reshape(-1, 5)
    want = pack_hermitian(j.conj().T @ j)
    got = stacked_gram(blocks)
    assert got.dtype == want.dtype and got.shape == (25,) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [0.0, 0.4])
def test_gram_round_reads_its_gram_and_never_writes_it(rng, scale):
    """A read-only packed sum goes through the round unchanged; the noise is added into a new
    vector, and the CPU's packed sum unpacks to the reference's."""
    blocks = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    gram = stacked_gram(blocks)
    kept = gram.tobytes()
    gram.flags.writeable = False
    net = RecordingBackhaul()
    got = gram_round(net, 1, gram, 3, scale, (8, 9), MessageKind.BASIS_BROADCAST, lambda w: w)
    assert gram.tobytes() == kept
    assert unpack_hermitian(got).tobytes() == ref_round(blocks, scale, (8, 9)).tobytes()
    assert [m.sender for m in net.transcript] == ["ap0", "ap1", "ap2", "cpu"]


def grid_round(tau_c, kind, scale):
    """Blocks of one round of the grid, and the packed sum the CPU reads."""
    rng = np.random.default_rng([tau_c, 31])
    n_aps = 20 if tau_c == 164 else 5  # 20 APs at tau_c 164: the desk-fw-tau round at tau_d 160
    blocks = rng.standard_normal((n_aps, 3, tau_c)) + 1j * rng.standard_normal((n_aps, 3, tau_c))
    if kind == "real":
        blocks = blocks.real + 0j
    elif kind == "zero-heavy":
        blocks = np.where(rng.random(blocks.shape) < 0.15, blocks, -0.0 * blocks)
    seen = []
    blocks_round(
        Backhaul(), 2, blocks.copy(), scale, (4, tau_c), MessageKind.EIG_BROADCAST,
        lambda w: seen.append(w) or (np.ones(tau_c, dtype=complex), 1.0), (2,),
    )
    return blocks, seen[0]


@pytest.mark.parametrize("tau_c", [1, 2, 24, 60, 164])
@pytest.mark.parametrize("kind", ["complex", "real", "zero-heavy"])
@pytest.mark.parametrize("scale", [0.0, 1.3, 5e-324])
def test_gram_round_matches_full_matrix_sum(tau_c, kind, scale):
    """The packed sum the CPU reads unpacks to the full-matrix reference sum, sign bits included."""
    blocks, got = grid_round(tau_c, kind, scale)
    want = ref_round(blocks, scale, (4, tau_c), (2,))
    assert unpack_hermitian(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("tau_c", [1, 2, 24, 60, 164])
@pytest.mark.parametrize("kind", ["complex", "real", "zero-heavy"])
@pytest.mark.parametrize("scale", [0.0, 1.3, 5e-324])
def test_eig_of_the_unpacked_sum_matches_eigh_of_its_hermitized_copy(tau_c, kind, scale):
    """hermitian_eig reads the lower triangle `unpack_lower` writes of the packed sum, as
    `svdmc.cpu_topk` hands it over, and its eigenpairs equal, byte for byte, those of eigh on
    a hermitized copy of the full unpacked sum, ordered and phased as hermitian_eig orders and
    phases them."""
    p = grid_round(tau_c, kind, scale)[1]
    vals, vecs = np.linalg.eigh(hermitize(unpack_hermitian(p)))
    for k in sorted({1, tau_c}):
        order = np.argsort(-vals, kind="stable")[:k]
        want = np.column_stack([canonical_phase(vecs[:, i]) for i in order])
        got_vals, got_vecs = hermitian_eig(unpack_lower(p), k)
        assert got_vals.tobytes() == vals[order].tobytes()
        assert got_vecs.tobytes() == want.tobytes()


def test_pack_reads_upper_triangle_in_draw_order():
    h = np.array([[1.0, 2 + 3j, 4 - 5j], [2 - 3j, 6.0, 7 + 8j], [4 + 5j, 7 - 8j, 9.0]])
    np.testing.assert_array_equal(pack_hermitian(h), [2, 4, 7, 3, -5, 8, 1, 6, 9])
    np.testing.assert_array_equal(unpack_hermitian(pack_hermitian(h)), h)


@pytest.mark.parametrize("dim", [1, 2, 7, 60])
def test_pack_of_a_raw_matrix_is_the_pack_of_its_hermitized_copy(dim):
    """Packing forms (h + h^H)/2 on the packed entries: the values of `hermitize`'s
    full matrix, subnormals included, and its bytes wherever the value is not zero;
    h itself is left alone."""
    rng = np.random.default_rng([dim, 7])
    parts = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.5, -2.0], (2, dim, dim))
    g = parts[0] * np.where(rng.random((dim, dim)) < 0.5, 1.0, rng.standard_normal((dim, dim))) + 0j
    g.imag = parts[1]
    kept = g.copy()
    got = pack_hermitian(g)
    h = hermitize(g)
    i, j = np.triu_indices(dim, k=1)
    want = np.concatenate([h[i, j].real, h[i, j].imag, h.diagonal().real])
    np.testing.assert_array_equal(got, want)
    assert got[want != 0].tobytes() == want[want != 0].tobytes()
    np.testing.assert_array_equal(got, pack_hermitian(h))
    assert g.tobytes() == kept.tobytes()


def test_gram_round_memory_does_not_grow_with_the_ap_count():
    """The round holds one conjugate copy of the blocks and tau_c x tau_c matrices,
    never an (M, tau_c, tau_c) stack of per-AP Grams."""
    def round_(blocks):
        blocks_round(Backhaul(), 1, blocks, 0.5, 3, MessageKind.BASIS_BROADCAST, lambda w: w)

    round_(np.ones((5, 2, 60), dtype=complex))  # fill the caches before measuring
    peaks = []
    for n_aps in (5, 80):
        blocks = np.ones((n_aps, 2, 60), dtype=complex)
        tracemalloc.start()
        try:
            round_(blocks)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one copy of the extra 75 APs' blocks plus one tau_c x tau_c complex matrix
    assert peaks[1] - peaks[0] < 75 * 2 * 60 * 16 + 60 * 60 * 16


def test_unpack_rejects_non_square_length():
    with pytest.raises(ShapeError):
        unpack_lower(np.zeros(5))
    with pytest.raises(ShapeError):
        unpack_lower(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        unpack_lower(np.zeros(9), np.zeros((2, 2), dtype=complex, order="F"))


@pytest.mark.parametrize("dim", [1, 2, 7, 60])
def test_unpack_lower_writes_the_lower_triangle_into_a_held_matrix(dim):
    """Into a held F-ordered matrix whose every entry is stale, unpack_lower writes the lower
    triangle and the diagonal of the full unpack byte for byte, imaginary parts of the diagonal
    +0.0 included, and leaves the strict upper triangle as it was."""
    rng = np.random.default_rng([dim, 5])
    p = np.where(rng.random(dim * dim) < 0.3, -0.0, rng.standard_normal(dim * dim))
    stale = np.asfortranarray(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    out = stale.copy(order="F")
    assert unpack_lower(p, out) is out
    want = unpack_hermitian(p)
    low = np.tril_indices(dim)
    assert out[low].tobytes() == want[low].tobytes()
    up = np.triu_indices(dim, k=1)
    assert out[up].tobytes() == stale[up].tobytes()
    if dim > 1:
        with pytest.raises(ValueError):  # a C-ordered matrix would be written through a copy
            unpack_lower(p, np.zeros((dim, dim), dtype=complex))


def test_gram_round_at_nan_scale_sends_nothing(rng):
    blocks = rng.standard_normal((2, 2, 3)) + 0j
    net = Backhaul()
    with pytest.raises(ArgumentError):
        blocks_round(net, 1, blocks, math.nan, 5, MessageKind.EIG_BROADCAST, lambda w: w)
    assert net.transcript == []


@pytest.mark.parametrize("scale", [math.inf, -0.5])
def test_gram_round_at_an_infinite_or_negative_scale_sends_nothing(rng, scale):
    """The aggregate draw comes before any send, so a scale the sampler rejects
    leaves the backhaul empty."""
    blocks = rng.standard_normal((3, 2, 4)) + 0j
    net = Backhaul()
    with pytest.raises(ArgumentError):
        blocks_round(net, 1, blocks, scale, 5, MessageKind.BASIS_BROADCAST, lambda w: w)
    assert net.transcript == []


def test_gram_round_reads_an_int_seed_as_its_one_tuple(rng):
    """An int or numpy integer seed draws the round's noise from SeedSequence([seed,
    *tail]), the stream of the 1-tuple (seed,)."""
    blocks = rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5))

    def round_(seed):
        return blocks_round(Backhaul(), 1, blocks, 0.7, seed, MessageKind.BASIS_BROADCAST, lambda w: w, (4,))

    want = round_((9,))
    assert unpack_hermitian(want).tobytes() == ref_round(blocks, 0.7, (9,), (4,)).tobytes()
    for seed in (9, np.int64(9)):
        assert round_(seed).tobytes() == want.tobytes()
    assert round_(10).tobytes() != want.tobytes()


# ---------------------------------------------------------------- release noise


def noise_releases(dim, scale, entropy, n_aps=1):
    """The unpacked releases of one round over zero (n_aps, 1, dim) blocks, read
    from the packed payloads the APs sent: each is the round's noise alone, one
    draw at scale * sqrt(n_aps) from SeedSequence(entropy).
    """
    net = RecordingBackhaul()
    blocks = np.zeros((n_aps, 1, dim), dtype=complex)
    blocks_round(net, 1, blocks, scale, entropy, MessageKind.BASIS_BROADCAST, lambda w: w)
    return [unpack_hermitian(p) for p in net.payloads[:n_aps]]


def test_noise_zero_scale_is_zero():
    g = noise_releases(6, 0.0, (42,))[0]
    assert np.array_equal(g, np.zeros((6, 6)))


def test_noise_exact_hermitian():
    g = noise_releases(40, 2.5, (42,))[0]
    assert np.array_equal(g, g.conj().T)
    assert np.all(np.diag(g).imag == 0)


def test_noise_deterministic():
    a = noise_releases(10, 1.0, (7,))[0]
    b = noise_releases(10, 1.0, (7,))[0]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, noise_releases(10, 1.0, (8,))[0])


def test_noise_variances():
    g = noise_releases(200, 3.0, (11,))[0]
    off = g[np.triu_indices(200, k=1)]
    assert np.mean(np.abs(off) ** 2) == pytest.approx(9.0, rel=0.05)
    assert np.var(np.diag(g).real) == pytest.approx(9.0, rel=0.10)


def test_noise_scales_linearly():
    unit = noise_releases(15, 1.0, (5,))[0]
    scaled = noise_releases(15, 4.0, (5,))[0]
    np.testing.assert_allclose(scaled, 4.0 * unit, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 24, 60, 164])
@pytest.mark.parametrize("scale", [1.0, 3.7e5, 5e-324])  # 5e-324 rounds many draws to +-0
def test_noise_matches_three_call_draw_order(dim, scale):
    """Each release is the (zero) stacked Gram plus the oracle's three-call noise draw
    at scale * sqrt(M), sign bits included."""
    got = noise_releases(dim, scale, (dim, 17), n_aps=2)
    assert len(got) == 2
    for release in got:
        want = hermitize(np.zeros((dim, dim), dtype=complex)) + hermitian_noise(
            dim, scale * math.sqrt(2), np.random.SeedSequence([dim, 17])
        )
        np.testing.assert_array_equal(release, want)
        if scale < 1e-300 and dim > 1:
            assert (release.real == 0).any()  # the signed-zero case is exercised
        for part in ("real", "imag"):
            a, b = getattr(release, part), getattr(want, part)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def test_noise_validation():
    with pytest.raises(ArgumentError):
        noise_releases(3, -1.0, (0,))


def test_aggregate_draw_is_the_sum_of_per_ap_draws_in_distribution():
    """One round's noise at scale * sqrt(20) against the sum of 20 per-AP oracle draws
    at scale, pooled over 30 fixed seeds at dim 60: the per-entry variances of the
    off-diagonal real and imaginary parts and of the diagonal, and a two-sample KS
    test on each part; both sums are exactly Hermitian."""
    dim, n_aps, scale, rounds = 60, 20, 1.7, 30
    iu = np.triu_indices(dim, k=1)
    parts = {"real": ([], []), "imag": ([], []), "diagonal": ([], [])}
    for r in range(rounds):
        seen = []
        blocks_round(
            Backhaul(), 1, np.zeros((n_aps, 1, dim), dtype=complex), scale, (61, r),
            MessageKind.BASIS_BROADCAST, seen.append,
        )
        per_ap = sum(hermitian_noise(dim, scale, np.random.SeedSequence([62, r, m])) for m in range(n_aps))
        for side, g in enumerate((unpack_hermitian(seen[0]), per_ap)):
            assert np.array_equal(g, g.conj().T)
            parts["real"][side].append(g[iu].real)
            parts["imag"][side].append(g[iu].imag)
            parts["diagonal"][side].append(g.diagonal().real)
    total = n_aps * scale**2
    for part, want in (("real", total / 2), ("imag", total / 2), ("diagonal", total)):
        agg, summed = (np.concatenate(x) for x in parts[part])
        for x in (agg, summed):
            assert np.var(x) == pytest.approx(want, rel=0.10 if part == "diagonal" else 0.05)
        assert stats.ks_2samp(agg, summed).pvalue > 0.01
