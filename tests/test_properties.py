"""Property-based checks for the invariants the rest of the suite leans on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from privcell.estimation import ser, slice_qpsk
from privcell.fw import FwConfig, ap_update
from support import RecordingBackhaul, blocks_round, fw_sigma, svd_sigma, unpack_hermitian
from privcell.linalg import frob_norm, observed_index, pinv
from privcell.privacy import (
    Calibration,
    frob_bound,
    pack_hermitian,
    unpack_lower,
)
from privcell.protocol import MessageKind

COMMON = settings(deadline=None, max_examples=40)

dims = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.floats(min_value=1e-6, max_value=1e6)
budgets = st.floats(min_value=1e-3, max_value=50.0)


def _complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------- privacy


@COMMON
@given(dim=dims, scale=scales, seed=seeds)
def test_noise_release_is_exactly_hermitian(dim, scale, seed):
    """The packed release an AP sends for a zero block, its noise alone, unpacks exactly Hermitian."""
    net = RecordingBackhaul()
    blocks = np.zeros((1, 1, dim), dtype=complex)
    blocks_round(net, 1, blocks, scale, seed, MessageKind.BASIS_BROADCAST, lambda w: w)
    e = unpack_hermitian(net.payloads[0])
    np.testing.assert_array_equal(e, e.conj().T)


@COMMON
@given(
    dim=st.integers(min_value=1, max_value=40),
    seed=seeds,
    kind=st.sampled_from(["complex", "real", "zero-heavy", "negative-zero"]),
)
def test_packed_release_round_trip(dim, seed, kind):
    """unpack(pack(h)) is h byte for byte, sign bits included, for an exactly
    Hermitian h built as U + U^H + D (U strictly upper, D real diagonal),
    and pack(unpack(p)) is p for any packed vector.  unpack_lower writes h's
    lower triangle, diagonal included, into an F-ordered matrix, byte for byte."""
    rng = np.random.default_rng(seed)
    a = _complex_matrix(rng, dim, dim)
    if kind == "real":
        a = a.real + 0j
    elif kind == "zero-heavy":
        a = np.where(rng.random((dim, dim)) < 0.2, a, 0j)
    elif kind == "negative-zero":
        a = np.where(rng.random((dim, dim)) < 0.5, a, -0.0 * a)
    u = np.triu(a, 1)
    h = u + u.conj().T + np.diag(a.diagonal().real)
    np.testing.assert_array_equal(h, h.conj().T)
    p = pack_hermitian(h)
    assert p.dtype == np.float64 and p.shape == (dim * dim,)
    assert unpack_hermitian(p).tobytes() == h.tobytes()
    low = unpack_lower(p)
    assert low.flags.f_contiguous and np.tril(low).tobytes() == np.tril(h).tobytes()
    q = np.where(rng.random(dim * dim) < 0.3, -0.0, rng.standard_normal(dim * dim))
    assert pack_hermitian(unpack_hermitian(q)).tobytes() == q.tobytes()


@COMMON
@given(eps=budgets, bound=scales, iters=st.integers(1, 200), aps=st.integers(1, 100))
def test_noise_scales_halve_exactly_when_eps_doubles(eps, bound, iters, aps):
    # one multiply and one divide on each route, so no rounding slack needed
    assert fw_sigma(bound, iters, aps, 2 * eps, 0.1) == fw_sigma(
        bound, iters, aps, eps, 0.1
    ) / 2
    assert svd_sigma(bound, aps, 2 * eps, 0.1) == svd_sigma(
        bound, aps, eps, 0.1
    ) / 2


@COMMON
@given(seed=seeds, extra=st.floats(min_value=1e-14, max_value=1e-9))
def test_frob_bound_monotone_in_gains(seed, extra):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(1e-13, 1e-10, size=(3, 4))
    base = frob_bound(beta, 3, 2, 10, 1e-13)
    assert frob_bound(beta + extra, 3, 2, 10, 1e-13) > base


# ---------------------------------------------------------------- linalg


@COMMON
@given(rows=dims, cols=dims, seed=seeds)
def test_pinv_satisfies_penrose_conditions(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = _complex_matrix(rng, rows, cols)
    p = pinv(a)
    np.testing.assert_allclose(a @ p @ a, a, atol=1e-8)
    np.testing.assert_allclose(p @ a @ p, p, atol=1e-8)
    np.testing.assert_allclose(a @ p, (a @ p).conj().T, atol=1e-8)
    np.testing.assert_allclose(p @ a, (p @ a).conj().T, atol=1e-8)


# ---------------------------------------------------------------- clipping


@COMMON
@given(seed=seeds, bound=st.floats(min_value=0.05, max_value=20.0))
def test_clip_keeps_observed_energy_inside_bound(seed, bound):
    rng = np.random.default_rng(seed)
    x = np.stack([_complex_matrix(rng, 4, 6) for _ in range(3)])
    omega = rng.random((3, 4, 6)) < 0.6
    # eta = 0 and a zero residual: the step leaves x as it is, only the clip acts
    cfg = FwConfig(1.0, Calibration(bound, 1, 0.0))
    index = observed_index(omega)
    clipped, norms, did_clip = ap_update(x.copy(), np.zeros_like(x), np.ones(6), 1.0, 0.0, cfg, index)
    for m in range(3):
        assert np.linalg.norm(clipped[m][omega[m]]) <= bound * (1 + 1e-12)
        assert norms[m] == np.linalg.norm(clipped[m][omega[m]])
        assert did_clip[m] == (np.linalg.norm(x[m][omega[m]]) > bound)
        # scaling is a single nonnegative factor applied to the whole block
        if frob_norm(x[m]) > 0:
            big = np.abs(x[m]) > 1e-12
            ratios = clipped[m][big] / x[m][big]
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
            assert 0 <= ratios[0].real <= 1 + 1e-12
            assert abs(ratios[0].imag) < 1e-12


# ---------------------------------------------------------------- slicing


@COMMON
@given(seed=seeds, shape=st.tuples(dims, dims))
def test_slicer_lands_on_the_constellation(seed, shape):
    rng = np.random.default_rng(seed)
    soft = _complex_matrix(rng, *shape)
    hard = slice_qpsk(soft)
    np.testing.assert_allclose(np.abs(hard), 1.0, rtol=1e-12)
    root = 1 / np.sqrt(2)
    np.testing.assert_allclose(np.abs(hard.real), root, rtol=1e-12)
    np.testing.assert_allclose(np.abs(hard.imag), root, rtol=1e-12)
    # hard decisions are a fixed point
    assert ser(slice_qpsk(hard), hard) == 0.0
