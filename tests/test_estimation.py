from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import pilot_only_lmmse
from privcell import estimation
from privcell.channel import crandn, gen_pilots, make_block
from privcell.config import load_experiment
from privcell.errors import MetricUndefinedError, ShapeError
from privcell.estimation import (
    combine,
    detect_local,
    estimate_channel,
    lifted,
    nmse,
    observed_first,
    pilot_only_factors,
    pilot_only_ls,
    ser,
    slice_qpsk,
)
from privcell.harness import draw_beta, prepare
from privcell.linalg import pinv


# ---------------------------------------------------------------- channel

def test_estimate_channel_exact(rng):
    p = gen_pilots(2, 4)
    h = crandn(rng, (6, 2))
    np.testing.assert_allclose(estimate_channel(h @ p, pinv(p)), h, atol=1e-10)


def test_estimate_channel_zero(rng):
    p = gen_pilots(2, 4)
    np.testing.assert_allclose(
        estimate_channel(np.zeros((6, 4)), pinv(p)), np.zeros((6, 2)), atol=1e-14
    )


def test_estimate_channel_is_correlation_for_orthonormal_pilots(rng):
    # pinv of an orthonormal-row matrix is its conjugate transpose
    p = gen_pilots(3, 5)
    x = crandn(rng, (4, 5))
    np.testing.assert_allclose(estimate_channel(x, pinv(p)), x @ p.conj().T, atol=1e-10)
    with pytest.raises(ShapeError):
        estimate_channel(x[:, :4], pinv(p))


# ---------------------------------------------------------------- detection

def test_detect_local_consistent(rng):
    h = crandn(rng, (6, 2))
    d = crandn(rng, (2, 7))
    np.testing.assert_allclose(detect_local(h, h @ d), d, atol=1e-8)
    assert np.all(detect_local(h, np.zeros((6, 7))) == 0)


def test_detect_local_normal_equations(rng):
    h = crandn(rng, (5, 2))
    x = crandn(rng, (5, 3))
    want = np.linalg.solve(h.conj().T @ h, h.conj().T @ x)
    np.testing.assert_allclose(detect_local(h, x), want, atol=1e-9)
    with pytest.raises(ShapeError):
        detect_local(h, x[:4])


def fro(a):
    return np.linalg.norm(a)


@settings(deadline=None, max_examples=150)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    n_ant=st.integers(1, 8),
    n_users=st.integers(1, 30),
    tau_d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_detect_local_matches_pinv(lead, n_ant, n_users, tau_d, seed):
    """Wide, square and tall H with 0 to 2 leading AP axes, against pinv(h) @ x per AP.

    Tolerance: ||d - pinv(h) x||_F <= 1e-6 ||pinv(h)||_F ||x||_F.  The Gram route's error is
    about cond(G) eps ||pinv(h)|| ||x||, and the certificate admits cond(G) up to 1e8, so
    about 2e-8 of that scale; pinv's own error, cond(h) eps of it, is smaller.  Each AP's
    output is also its own 2-D call's, byte for byte."""
    rng = np.random.default_rng(seed)
    h = crandn(rng, lead + (n_ant, n_users))
    x = crandn(rng, lead + (n_ant, tau_d))
    got = detect_local(h, x)
    assert got.shape == lead + (n_users, tau_d)
    for i in np.ndindex(lead):
        p = pinv(h[i])
        assert fro(got[i] - p @ x[i]) <= 1e-6 * fro(p) * fro(x[i])
        assert got[i].tobytes() == detect_local(h[i], x[i]).tobytes()


def gram_route(h, x):
    """The fast path of detect_local written out for one AP."""
    hh = h.conj().T
    if len(h) <= h.shape[1]:
        return hh @ (np.linalg.inv(h @ hh) @ x)
    return np.linalg.inv(hh @ h) @ (hh @ x)


@pytest.mark.parametrize("fault", ["repeated", "zero", "ill-conditioned"])
@pytest.mark.parametrize("n_ant, n_users", [(4, 25), (4, 4), (6, 3)], ids=["wide", "square", "tall"])
def test_detect_local_sends_only_the_rank_deficient_ap_to_pinv(fault, n_ant, n_users, monkeypatch):
    """One AP of a (2, 3) stack is rank deficient, by a repeated row (a repeated column when H
    is tall) or all zeros, or ill conditioned, with singular values 1 and 1e-6.  A zero AP's
    Gram, and here a repeated row's unless H is square, is exactly singular and stops the
    batched inverse; the square repeated-row and the ill-conditioned Grams fail the
    certificate instead.  Either way that AP is pinv(h) @ x byte for byte and is the only
    matrix pinv sees; every other AP is the Gram route's bytes and its own 2-D call's."""
    rng = np.random.default_rng(5)
    h = crandn(rng, (2, 3, n_ant, n_users))
    x = crandn(rng, (2, 3, n_ant, 7))
    bad = (1, 1)
    if fault == "zero":
        h[bad] = 0.0
    elif fault == "repeated" and n_ant <= n_users:
        h[bad][1] = h[bad][0]
    elif fault == "repeated":
        h[bad][:, 1] = h[bad][:, 0]
    else:
        u, _, vh = np.linalg.svd(h[bad], full_matrices=False)
        h[bad] = (u * np.r_[1.0, [1e-6] * (len(vh) - 1)]) @ vh
    seen = []

    def spy(a):
        seen.append(np.asarray(a))
        return pinv(a)

    monkeypatch.setattr(estimation, "pinv", spy)
    got = detect_local(h, x)
    assert got[bad].tobytes() == (pinv(h[bad]) @ x[bad]).tobytes()
    assert seen and all(a.reshape(h[bad].shape).tobytes() == h[bad].tobytes() for a in seen)
    for i in np.ndindex(2, 3):
        if i != bad:
            assert got[i].tobytes() == gram_route(h[i], x[i]).tobytes() == detect_local(h[i], x[i]).tobytes()


def test_only_a_2d_ap_falls_back_to_pinv(rng):
    """A stack whose Gram fails the certificate is left unsolved even when it holds one AP; the
    same AP as a 2-D call is pinv(h) @ x byte for byte, with no lift."""
    h = crandn(rng, (4, 6))
    h[1] = h[0]
    x = crandn(rng, (4, 5))
    assert estimation.detect_factors(h[None], x[None]) == (None, None)
    lift, d = estimation.detect_factors(h, x)
    assert lift is None and d.tobytes() == (pinv(h) @ x).tobytes()
    assert detect_local(h[None], x[None])[0].tobytes() == d.tobytes()


def test_combine(rng):
    """The sum over M APs, divided by M, is the stack's mean bit for bit, in one call or in chunks
    whose first row is the sum before them, as run_trial's fan-in sums them."""
    d = crandn(rng, (2, 4))
    want = np.mean(np.stack([d, d, d]), axis=0)
    assert (combine([d, d, d]) / 3).tobytes() == want.tobytes()
    assert np.all(combine([d, -d]) == 0)
    for m in (1, 20, 100):
        stack = crandn(rng, (m, 25, 75))
        want = np.mean(stack, axis=0)
        assert (combine(stack) / m).tobytes() == want.tobytes()
        total = combine(stack[:7])
        for lo in range(7, m, 7):
            total = combine(np.concatenate([total[None], stack[lo:lo + 7]]))
        assert (total / m).tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        combine([])


def test_combine_adds_single_entry_rows_in_order(rng):
    """Rows of one entry, which np.add.reduce sums pairwise from 8 rows on, are added one at a
    time too, so the sum does not depend on the chunks: 100 rows spread over 12 decades."""
    stack = crandn(rng, (100, 1, 1)) * 10.0 ** rng.uniform(-6, 6, (100, 1, 1))
    want = stack[0].copy()
    for d in stack[1:]:
        want += d
    assert combine(stack).tobytes() == want.tobytes()
    total = combine(stack[:17])
    for lo in range(17, 100, 17):
        total = combine(np.concatenate([total[None], stack[lo:lo + 17]]))
    assert total.tobytes() == want.tobytes()
    one = stack[:1]
    assert combine(one).tobytes() == one[0].tobytes() and not np.shares_memory(combine(one), one)


def test_slicer_matches_sign_rule(rng):
    soft = crandn(rng, (3, 40))
    hard = slice_qpsk(soft)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(np.abs(hard), 1.0, atol=1e-15)
    np.testing.assert_array_equal(hard.real, np.where(soft.real >= 0, s, -s))
    np.testing.assert_array_equal(hard.imag, np.where(soft.imag >= 0, s, -s))


def test_slicer_tie_break():
    hard = slice_qpsk(np.array([0.0 + 0.0j, -0.0 - 1.0j]))
    s = 1 / np.sqrt(2)
    assert hard[0] == pytest.approx(s + 1j * s)
    assert hard[1] == pytest.approx(s - 1j * s)  # -0.0 counts as >= 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 1.0)])
def test_slicer_rejects_a_non_finite_soft_value(bad):
    """A soft value with no quadrant raises rather than slicing to -1-1j."""
    soft = np.full((2, 3), 0.3 - 0.2j)
    soft[1, 2] = bad
    with pytest.raises(MetricUndefinedError):
        slice_qpsk(soft)


def test_ser_counting():
    truth = np.array([[1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]]) / np.sqrt(2)
    assert ser(truth, truth) == 0.0
    assert ser(-truth, truth) == 1.0
    half = truth.copy()
    half[0, :2] = -half[0, :2]
    assert ser(half, truth) == 0.5
    with pytest.raises(ShapeError):
        ser(truth, truth[:, :2])
    with pytest.raises(MetricUndefinedError):
        ser(np.zeros((1, 0)), np.zeros((1, 0)))


def test_nmse_reference_points(rng):
    h = crandn(rng, (4, 3))
    assert nmse(h, h) == 0.0
    assert nmse(np.zeros_like(h), h) == pytest.approx(1.0)
    assert nmse(2 * h, h) == pytest.approx(1.0)
    with pytest.raises(MetricUndefinedError):
        nmse(h, np.zeros_like(h))
    with pytest.raises(ShapeError):
        nmse(h, h[:2])


# ---------------------------------------------------------------- pilot-only

def test_pilot_only_ls_full_observation(rng):
    p = gen_pilots(2, 2)
    h = crandn(rng, (4, 2))
    y = np.hstack([h @ p, crandn(rng, (4, 3))])
    np.testing.assert_allclose(pilot_only_ls(y, p), h, atol=1e-10)


def test_pilot_only_ls_hand_product():
    p = np.ones((1, 1), dtype=complex)  # single user, single pilot slot
    y = np.array([[2.0 + 1.0j, 9.0], [0.5 - 0.5j, 9.0]])
    got = pilot_only_ls(y, p)
    np.testing.assert_allclose(got, [[2.0 + 1.0j], [0.5 - 0.5j]])
    with pytest.raises(ShapeError):
        pilot_only_ls(y[:, :0], p)


def test_pilot_only_ls_sees_only_masked_entries(rng):
    p = gen_pilots(2, 3)
    omega = rng.random((4, 3)) < 0.5
    y = np.where(omega, crandn(rng, (4, 3)), 0.0)
    tampered = y + np.where(omega, 0.0, crandn(rng, (4, 3)))
    np.testing.assert_array_equal(
        pilot_only_ls(np.where(omega, tampered, 0.0), p), pilot_only_ls(y, p)
    )


def test_lmmse_unitary_columns_zero_noise(rng):
    q, _ = np.linalg.qr(crandn(rng, (4, 2)))
    y = np.zeros((4, 3), dtype=complex)
    d = crandn(rng, (2,))
    y[:, 2] = q @ d
    omega = np.ones((4, 3), dtype=bool)
    got = pilot_only_lmmse(q, y, omega, 0.0, t=1, tau_p=1)
    np.testing.assert_allclose(got, d, atol=1e-10)


def test_lmmse_large_noise_shrinks_to_zero(rng):
    f = crandn(rng, (4, 2))
    y = crandn(rng, (4, 2))
    omega = np.ones((4, 2), dtype=bool)
    got = pilot_only_lmmse(f, y, omega, 1e9, t=0, tau_p=1)
    np.testing.assert_allclose(got, f.conj().T @ y[:, 1] / 1e9, rtol=1e-6)
    assert np.linalg.norm(got) < 1e-6


def test_lmmse_hand_solve():
    f = np.array([[1.0, 1.0j], [1.0, -1.0j]])
    yv = np.array([1.0 + 1.0j, 2.0])
    omega = np.ones((2, 2), dtype=bool)
    y = np.zeros((2, 2), dtype=complex)
    y[:, 1] = yv
    s2 = 0.5
    want = np.linalg.solve(f.conj().T @ f + s2 * np.eye(2), f.conj().T @ yv)
    got = pilot_only_lmmse(f, y, omega, s2, t=0, tau_p=1)
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(
    data=st.data(),
    lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    n_ant=st.integers(1, 6),
    n_slots=st.integers(1, 5),
)
def test_observed_first_is_the_stable_argsort(data, lead, n_ant, n_slots):
    """Any mask, 0 to N_a observed per slot, N_r from 1 to N_a, leading AP axes."""
    omega = data.draw(arrays(bool, lead + (n_ant, n_slots)))
    n_rf = data.draw(st.integers(1, n_ant))
    want = np.argsort(~omega, axis=-2, kind="stable")[..., :n_rf, :]
    got = observed_first(omega, n_rf)
    assert got.shape == (n_rf,) + lead + (n_slots,)
    np.testing.assert_array_equal(got, np.moveaxis(want, -2, 0))


@pytest.mark.parametrize("sigma2", [0.0, 0.3])
def test_detect_block_matches_per_slot(sigma2, rng):
    """Batched detector equals the slot loop on a realistic masked block."""
    n_ant, n_rf, n_users, tau_p, tau_d = 4, 2, 2, 2, 6
    h = crandn(rng, (n_ant, n_users))
    y = crandn(rng, (n_ant, tau_p + tau_d))
    omega = np.zeros((n_ant, tau_p + tau_d), dtype=bool)
    for t in range(tau_p + tau_d):
        omega[rng.choice(n_ant, n_rf, replace=False), t] = True
    y = np.where(omega, y, 0.0)
    got = lifted(*pilot_only_factors(h, y, omega, sigma2, tau_p, n_rf))
    assert got.shape == (n_users, tau_d)
    for t in range(tau_d):
        want = pilot_only_lmmse(h, y, omega, sigma2, t, tau_p)
        np.testing.assert_allclose(got[:, t], want, atol=1e-9)


def test_noiseless_detect_block_cuts_tiny_singular_values(rng):
    """s2 = 0 with every antenna seen: a singular value of 1e-14 is cut as the reference cuts it."""
    u, _ = np.linalg.qr(crandn(rng, (2, 2)))
    v, _ = np.linalg.qr(crandn(rng, (2, 2)))
    h = u @ np.diag([1.0, 1e-14]) @ v.conj().T
    tau_p, tau_d = 2, 5
    y = crandn(rng, (2, tau_p + tau_d))
    omega = np.ones(y.shape, dtype=bool)
    got = lifted(*pilot_only_factors(h, y, omega, 0.0, tau_p, 2))
    want = np.stack([pilot_only_lmmse(h, y, omega, 0.0, t, tau_p) for t in range(tau_d)], axis=1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.abs(got).max() < 10.0


def assert_matches_reference(got, h, y, omega, sigma2, tau_p):
    """Every slot of a detected block against the per-slot K x K reference.

    Relative tolerance 1e-9, in the 2-norm of the slot's K soft outputs.
    Where the reference's Gram F^H F + s2 I is worse conditioned than
    that allows (N_r < K with s2 far below |F|^2, so F^H F is singular),
    the reference's own rounding, 4 eps cond, is the tolerance instead.
    Returns the reference block.
    """
    want = np.stack(
        [pilot_only_lmmse(h, y, omega, sigma2, t, tau_p) for t in range(got.shape[1])], axis=1
    )
    for t in range(got.shape[1]):
        f = h[omega[:, tau_p + t]]
        cond = (np.linalg.norm(f, 2) ** 2 + sigma2) / sigma2
        tol = max(1e-9, 4 * np.finfo(float).eps * cond)
        assert np.linalg.norm(got[:, t] - want[:, t]) <= tol * np.linalg.norm(want[:, t]), t
    return want


@settings(deadline=None, max_examples=60)
@given(
    n_rf=st.integers(1, 6),
    n_users=st.integers(1, 6),
    spare=st.integers(0, 3),
    tau_p=st.integers(1, 3),
    tau_d=st.integers(1, 8),
    log_ratio=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_detect_block_matches_kxk_reference(n_rf, n_users, spare, tau_p, tau_d, log_ratio, seed):
    """N_r < K, = K and > K; s2 from 1e-6 to 1e6 times the mean |F|^2."""
    rng = np.random.default_rng(seed)
    n_ant, tau_c = n_rf + spare, tau_p + tau_d
    h = crandn(rng, (n_ant, n_users))
    omega = np.zeros((n_ant, tau_c), dtype=bool)
    for t in range(tau_c):
        omega[rng.choice(n_ant, n_rf, replace=False), t] = True
    y = np.where(omega, crandn(rng, (n_ant, tau_c)), 0.0)
    sigma2 = 10.0**log_ratio * np.mean(np.abs(h) ** 2)
    got = lifted(*pilot_only_factors(h, y, omega, sigma2, tau_p, n_rf))
    assert got.shape == (n_users, tau_d)
    assert_matches_reference(got, h, y, omega, sigma2, tau_p)


def test_detect_block_at_m100_k25_keeps_every_decision():
    """The m100_k25 shape (K 25, N_r 2, N_a 4) at the profile's normalised s2."""
    exp = load_experiment(Path(__file__).resolve().parent.parent / "configs" / "m100_k25.yaml")
    scen = exp.scenario
    prep = prepare(scen, exp.run, draw_beta(scen, scen.seed))
    block = make_block(scen, prep.beta, prep.pilots, scen.seed, 0, sigma2=prep.sigma2)
    gots, wants = [], []
    for y, omega in zip(block.Y, block.omega):
        h = pilot_only_ls(y, prep.pilots)
        got = lifted(*pilot_only_factors(h, y, omega, prep.sigma2, scen.tau_p, scen.N_r))
        want = assert_matches_reference(got, h, y, omega, prep.sigma2, scen.tau_p)
        np.testing.assert_array_equal(slice_qpsk(got), slice_qpsk(want))
        gots.append(got)
        wants.append(want)
    np.testing.assert_array_equal(slice_qpsk(combine(gots)), slice_qpsk(combine(wants)))
