import functools
import math
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
    detect_local,
    estimate_channel,
    nmse,
    observed_first,
    pilot_only_detect,
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
    about 2e-8 of that scale; pinv's own error, cond(h) eps of it, is smaller.  A stack's
    result is the sum of its APs' 2-D calls within 1e-12 of the sum of those scales: one GEMM
    adds the same products in another order."""
    rng = np.random.default_rng(seed)
    h = crandn(rng, lead + (n_ant, n_users))
    x = crandn(rng, lead + (n_ant, tau_d))
    got = detect_local(h, x)
    assert got.shape == (n_users, tau_d)
    want, scale = 0.0, 0.0
    for i in np.ndindex(lead):
        p, d = pinv(h[i]), detect_local(h[i], x[i])
        assert d.shape == (n_users, tau_d)
        assert fro(d - p @ x[i]) <= 1e-6 * fro(p) * fro(x[i])
        want, scale = want + d, scale + fro(p) * fro(x[i])
    assert fro(got - want) <= 1e-12 * scale


def gram_route(h, x):
    """detect_local's Gram route written out for one AP: its detector matrix, then that times x."""
    hh = h.conj().T
    if len(h) <= h.shape[1]:
        return (hh @ np.linalg.inv(h @ hh)) @ x
    return (np.linalg.inv(hh @ h) @ hh) @ x


def close_to_sum(got, ds):
    """got is the sum of the detections ds within 1e-12 of the largest of them."""
    want = np.sum(ds, axis=0)
    return got.shape == want.shape and np.abs(got - want).max() <= 1e-12 * np.abs(ds).max()


@pytest.mark.parametrize("fault", ["repeated", "zero", "ill-conditioned"])
@pytest.mark.parametrize("n_ant, n_users", [(4, 25), (4, 4), (6, 3)], ids=["wide", "square", "tall"])
def test_detect_local_sends_only_the_rank_deficient_ap_to_pinv(fault, n_ant, n_users, monkeypatch):
    """One AP of a (2, 3) stack is rank deficient, by a repeated row (a repeated column when H
    is tall) or all zeros, or ill conditioned, with singular values 1 and 1e-6.  A zero AP's
    Gram, and here a repeated row's unless H is square, is exactly singular and stops the
    batched inverse; the square repeated-row and the ill-conditioned Grams fail the
    certificate instead.  Either way the stack's call gives that AP's estimate, and only it, to
    pinv, and sums to its APs' 2-D calls within rounding: pinv(h) @ x byte for byte for that AP,
    the Gram route's bytes for every other."""
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
        seen.append(np.array(a))
        return pinv(a)

    monkeypatch.setattr(estimation, "pinv", spy)
    got = detect_local(h, x)
    assert seen and all(a.reshape(h[bad].shape).tobytes() == h[bad].tobytes() for a in seen)
    ds = [detect_local(h[i], x[i]) for i in np.ndindex(2, 3)]
    for i, d in zip(np.ndindex(2, 3), ds):
        want = pinv(h[i]) @ x[i] if i == bad else gram_route(h[i], x[i])
        assert d.tobytes() == want.tobytes()
    assert close_to_sum(got, ds)


def test_a_one_ap_stack_falls_back_to_pinv_as_its_2d_call(rng, monkeypatch):
    """An AP whose Gram fails the certificate gets pinv(h) @ x byte for byte, in a stack of one AP
    as in a 2-D call, and pinv sees that AP alone."""
    h = crandn(rng, (4, 6))
    h[1] = h[0]
    x = crandn(rng, (4, 5))
    seen = []
    monkeypatch.setattr(estimation, "pinv", lambda a: seen.append(np.array(a)) or pinv(a))
    want = (pinv(h) @ x).tobytes()
    assert detect_local(h[None], x[None]).tobytes() == detect_local(h, x).tobytes() == want
    assert len(seen) == 2 and all(a.tobytes() == h.tobytes() for a in seen)


def summed_cases():
    """(detector, its stacked arguments), named: detect_local on wide, tall and pinv-fallback APs,
    and pilot_only_detect on its push-through, K x K and noiseless branches, 6 APs each."""
    rng = np.random.default_rng(3)
    cases = []
    for name, n_ant, n_users in (("wide", 4, 25), ("tall", 6, 3), ("pinv-fallback", 4, 6)):
        h, x = crandn(rng, (6, n_ant, n_users)), crandn(rng, (6, n_ant, 9))
        if name == "pinv-fallback":
            h[2, 1] = h[2, 0]
        cases.append(pytest.param(detect_local, (h, x), id=name))
    for name, n_users, sigma2 in (("po-push-through", 5, 0.3), ("po-kxk", 2, 0.3), ("po-noiseless", 5, 0.0)):
        n_ant, n_rf, tau_p = 4, 2, 2
        omega = np.zeros((6, n_ant, tau_p + 9), dtype=bool)
        for m, t in np.ndindex(6, tau_p + 9):
            omega[m, rng.choice(n_ant, n_rf, replace=False), t] = True
        y = np.where(omega, crandn(rng, omega.shape), 0.0)
        detect = functools.partial(pilot_only_detect, sigma2=sigma2, tau_p=tau_p, n_rf=n_rf)
        cases.append(pytest.param(detect, (crandn(rng, (6, n_ant, n_users)), y, omega), id=name))
    return cases


@pytest.mark.parametrize("detect, stacks", summed_cases())
def test_summed_detections_are_the_sum_of_the_per_ap_ones(detect, stacks):
    """Each detector called on a stack of APs gives the (K, tau_d) sum of its APs' 2-D calls within
    1e-12 of their largest entry, over one, six and a (2, 3) stack of APs, on every branch."""
    for lead in ((1,), (6,), (2, 3)):
        args = [a[:math.prod(lead)].reshape(lead + a.shape[1:]) for a in stacks]
        ds = [detect(*(a[i] for a in args)) for i in np.ndindex(lead)]
        assert close_to_sum(detect(*args), ds)


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
    got = pilot_only_detect(h, y, omega, sigma2, tau_p, n_rf)
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
    got = pilot_only_detect(h, y, omega, 0.0, tau_p, 2)
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
    got = pilot_only_detect(h, y, omega, sigma2, tau_p, n_rf)
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
        got = pilot_only_detect(h, y, omega, prep.sigma2, scen.tau_p, scen.N_r)
        want = assert_matches_reference(got, h, y, omega, prep.sigma2, scen.tau_p)
        np.testing.assert_array_equal(slice_qpsk(got), slice_qpsk(want))
        gots.append(got)
        wants.append(want)
    np.testing.assert_array_equal(slice_qpsk(np.sum(gots, axis=0)), slice_qpsk(np.sum(wants, axis=0)))
