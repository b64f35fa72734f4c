import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import switch_mask
from privcell.channel import (
    MIN_DIST_M,
    Scenario,
    Topology,
    _in_hexagon,
    crandn,
    gen_channels,
    gen_payload,
    gen_pilots,
    gen_topology,
    large_scale_fading,
    make_block,
    sample_switch,
    transmit,
)
from privcell.config import load_experiment
from privcell.errors import ConfigError, ShapeError
from privcell.harness import draw_beta, prepare
from privcell.seeding import rng_for

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def prepared_profile(name):
    """A shipped profile's scenario and its config-seed deployment, as the harness prepares it."""
    exp = load_experiment(CONFIGS / f"{name}.yaml")
    return exp.scenario, prepare(exp.scenario, exp.run, draw_beta(exp.scenario, exp.scenario.seed))


# ---------------------------------------------------------------- scenario

def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(M=2, K=2, N_a=2, N_r=3, tau_p=2, tau_d=4)  # N_r > N_a
    with pytest.raises(ConfigError):
        Scenario(M=2, K=3, N_a=2, N_r=2, tau_p=2, tau_d=4)  # tau_p < K
    with pytest.raises(ConfigError):
        Scenario(M=0, K=1, N_a=1, N_r=1, tau_p=1, tau_d=1)
    with pytest.raises(ConfigError):
        Scenario(M=2, K=2, N_a=2, N_r=2, tau_p=2, tau_d=4, sigma2=-1.0)
    # equality of N_r and N_a is allowed (no switch)
    Scenario(M=2, K=2, N_a=2, N_r=2, tau_p=2, tau_d=4)


def test_scenario_derived_fields(tiny):
    assert tiny.tau_c == tiny.tau_p + tiny.tau_d


# ---------------------------------------------------------------- geometry

def test_topology_inside_hexagon(tiny):
    topo = gen_topology(tiny, np.random.default_rng(0))
    a = tiny.R_km * 1000.0
    assert _in_hexagon(topo.ap_xy, a).all()
    assert _in_hexagon(topo.user_xy, a).all()
    assert topo.ap_xy.shape == (tiny.M, 2)
    assert topo.user_xy.shape == (tiny.K, 2)


def test_topology_deterministic(tiny):
    t1 = gen_topology(tiny, np.random.default_rng(5))
    t2 = gen_topology(tiny, np.random.default_rng(5))
    np.testing.assert_array_equal(t1.ap_xy, t2.ap_xy)
    np.testing.assert_array_equal(t1.user_xy, t2.user_xy)


def test_topology_centroid():
    """Uniform samples over the hexagon average to its centre."""
    sc = Scenario(M=10000, K=1, N_a=1, N_r=1, tau_p=1, tau_d=1)
    pts = gen_topology(sc, np.random.default_rng(17)).ap_xy
    n = len(pts)
    for axis in range(2):
        se = pts[:, axis].std() / math.sqrt(n)
        assert abs(pts[:, axis].mean()) < 3 * se


def test_hexagon_predicate_vertices():
    a = 100.0
    inside = np.array([[0.0, 0.0], [a, 0.0], [a / 2, a * math.sqrt(3) / 2]])
    outside = np.array([[a * 1.01, 0.0], [0.0, a * math.sqrt(3) / 2 * 1.01]])
    assert _in_hexagon(inside, a).all()
    assert not _in_hexagon(outside, a).any()


# ---------------------------------------------------------------- fading

def _one_link_scenario(**kw):
    base = dict(M=1, K=1, N_a=4, N_r=2, tau_p=1, tau_d=99)
    base.update(kw)
    return Scenario(**base)


def test_path_loss_hand_value():
    # d = 100 m, no shadowing: loss 36.8 + 36.7*2 = 110.2 dB
    sc = _one_link_scenario(sigma_sh_db=0.0)
    topo = Topology(ap_xy=np.array([[0.0, 0.0]]), user_xy=np.array([[100.0, 0.0]]))
    beta = large_scale_fading(topo, sc, np.random.default_rng(0))
    assert beta.shape == (1, 1)
    assert beta[0, 0] == pytest.approx(9.54992586021436e-12, rel=1e-12)


def test_path_loss_symmetry():
    sc = _one_link_scenario(K=2, tau_p=2, tau_d=98, sigma_sh_db=0.0)
    topo = Topology(
        ap_xy=np.array([[0.0, 0.0]]),
        user_xy=np.array([[50.0, 0.0], [0.0, 50.0]]),
    )
    beta = large_scale_fading(topo, sc, np.random.default_rng(0))
    assert beta[0, 0] == pytest.approx(beta[1, 0], rel=1e-14)


def test_distance_floor():
    sc = _one_link_scenario(sigma_sh_db=0.0)
    at_zero = Topology(ap_xy=np.zeros((1, 2)), user_xy=np.zeros((1, 2)))
    at_floor = Topology(ap_xy=np.zeros((1, 2)), user_xy=np.array([[MIN_DIST_M, 0.0]]))
    b0 = large_scale_fading(at_zero, sc, np.random.default_rng(0))
    b1 = large_scale_fading(at_floor, sc, np.random.default_rng(0))
    np.testing.assert_allclose(b0, b1)


def test_shadowing_spread():
    """log10(beta) scatters about the path-loss line with std sigma_sh/10, also
    at 8/sqrt(2) dB, the "complex" reading of 8 dB shadowing."""
    for sigma_sh_db in (8.0, 8.0 / math.sqrt(2.0)):
        sc = Scenario(M=100, K=100, N_a=2, N_r=2, tau_p=100, tau_d=1, sigma_sh_db=sigma_sh_db)
        topo = gen_topology(sc, np.random.default_rng(3))
        beta = large_scale_fading(topo, sc, np.random.default_rng(4))
        d = np.linalg.norm(topo.user_xy[:, None] - topo.ap_xy[None, :], axis=-1)
        d = np.maximum(d, MIN_DIST_M)
        pl_db = sc.pl_a + sc.pl_b * np.log10(d)
        resid = np.log10(beta) + pl_db / 10.0
        assert resid.std() == pytest.approx(sigma_sh_db / 10.0, rel=0.05)


# ---------------------------------------------------------------- signals

def test_crandn_variance_and_zero(rng):
    z = crandn(rng, (200, 200), 2.0)
    assert z.real.var() + z.imag.var() == pytest.approx(2.0, rel=0.05)
    assert np.array_equal(crandn(rng, (3, 3), 0.0), np.zeros((3, 3)))


def test_crandn_is_the_complex_product_bit_for_bit():
    """crandn's real and imaginary parts are scale * re and scale * im, each one rounded
    product, and so is the oracle's complex product scale * (re + 1j * im), whose cross terms
    only add a zero.  Shapes: a small matrix and the channel, pilot and payload stacks of
    desk and m100_k25; s2: 1, 0.3 and desk's rescaled noise power.  Where sqrt(s2 / 2)
    underflows to 0 every entry is a zero whose sign the product takes from both draws and
    crandn from one, so there the arrays are compared by value."""
    shapes, desk_sigma2 = [(6, 2)], None
    for name in ("desk", "m100_k25"):
        sc, prep = prepared_profile(name)
        shapes += [(sc.M, sc.N_a, n) for n in (sc.K, sc.tau_p, sc.tau_d)]
        desk_sigma2 = desk_sigma2 or prep.sigma2
    for i, shape in enumerate(shapes):
        for s2 in (1.0, 0.3, desk_sigma2):
            got = crandn(np.random.default_rng(i), shape, s2)
            want = oracles.crandn(np.random.default_rng(i), shape, s2)
            assert got.tobytes() == want.tobytes(), (shape, s2)
    assert math.sqrt(5e-324 / 2.0) == 0.0
    got = crandn(np.random.default_rng(0), (6, 2), 5e-324)
    np.testing.assert_array_equal(got, oracles.crandn(np.random.default_rng(0), (6, 2), 5e-324))
    assert not got.any()


def test_channel_hardening():
    sc = Scenario(M=100, K=2, N_a=64, N_r=64, tau_p=2, tau_d=200)
    beta = np.ones((sc.K, sc.M))
    h = gen_channels(beta, sc, np.random.default_rng(8))
    # squared norm of each per-AP column block concentrates at N_a
    blocks = h.reshape(sc.M, sc.N_a, sc.K)
    energies = np.sum(np.abs(blocks) ** 2, axis=1)  # (M, K)
    assert energies.mean() == pytest.approx(sc.N_a, rel=0.05)


def test_channel_zero_beta_row(tiny):
    beta = np.ones((tiny.K, tiny.M))
    beta[1, :] = 0.0
    h = gen_channels(beta, tiny, np.random.default_rng(0))
    assert np.all(h[..., 1] == 0)
    assert np.any(h[..., 0] != 0)


def test_channel_deterministic(tiny):
    beta = np.full((tiny.K, tiny.M), 1e-9)
    h1 = gen_channels(beta, tiny, np.random.default_rng(11))
    h2 = gen_channels(beta, tiny, np.random.default_rng(11))
    np.testing.assert_array_equal(h1, h2)
    with pytest.raises(ShapeError):
        gen_channels(beta.T, tiny, np.random.default_rng(0))


def test_pilots_orthonormal():
    assert np.array_equal(gen_pilots(1, 1), np.ones((1, 1), dtype=complex))
    p = gen_pilots(5, 5)
    np.testing.assert_allclose(p @ p.conj().T, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(np.linalg.pinv(p), p.conj().T, atol=1e-10)
    p2 = gen_pilots(3, 7)
    np.testing.assert_allclose(p2 @ p2.conj().T, np.eye(3), atol=1e-12)
    with pytest.raises(ShapeError):
        gen_pilots(4, 3)


def test_payload_qpsk(rng):
    d = gen_payload(3, 50, rng)
    np.testing.assert_allclose(np.abs(d), 1.0, atol=1e-15)
    # all four quadrants show up
    assert len({(s.real > 0, s.imag > 0) for s in d.ravel()}) == 4


def test_payload_empty(rng):
    assert gen_payload(3, 0, rng).shape == (3, 0)


def test_transmit_noiseless(rng):
    h = crandn(rng, (6, 2))
    s = crandn(rng, (2, 5))
    np.testing.assert_array_equal(transmit(h, s, 0.0, rng), h @ s)
    with pytest.raises(ShapeError):
        transmit(h, crandn(rng, (3, 5)), 0.0, rng)


def test_transmit_noise_variance(rng):
    r = transmit(np.zeros((100, 2)), np.zeros((2, 100)), 0.25, rng)
    assert np.mean(np.abs(r) ** 2) == pytest.approx(0.25, rel=0.05)


def test_transmit_rank_bound(rng):
    h = crandn(rng, (12, 3))
    s = crandn(rng, (3, 10))
    sv = np.linalg.svd(h @ s, compute_uv=False)
    assert np.sum(sv > 1e-9 * sv[0]) <= 3


# ---------------------------------------------------------------- switch

def test_switch_full_observation(full_obs, rng):
    r = crandn(rng, (full_obs.M, full_obs.N_a, full_obs.tau_c))
    y, omega = sample_switch(r, full_obs, rng)
    assert omega.all()
    np.testing.assert_array_equal(y, r)


def test_switch_count_per_slot(tiny, rng):
    r = crandn(rng, (tiny.M, tiny.N_a, tiny.tau_c))
    y, omega = sample_switch(r, tiny, rng)
    np.testing.assert_array_equal(omega.sum(axis=1), tiny.N_r)
    assert np.all(y[~omega] == 0)
    np.testing.assert_array_equal(y[omega], r[omega])


def test_switch_selection_frequency():
    sc = Scenario(M=2, K=2, N_a=4, N_r=2, tau_p=2, tau_d=4)
    n_slots = 10000
    r = np.ones((sc.M, sc.N_a, n_slots))
    _, omega = sample_switch(r, sc, np.random.default_rng(21))
    p = sc.N_r / sc.N_a
    se = math.sqrt(p * (1 - p) / n_slots)
    freq = omega.mean(axis=-1)
    assert np.all(np.abs(freq - p) < 3 * se)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    n_ant=st.integers(1, 8),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_switch_mask_matches_argsort_reference(m, n_ant, n, seed, data):
    """The mask is, bit for bit, the argsort-and-put selection from the same draw, keeps
    exactly N_r antennas per (AP, slot), and Y is R on it and zero off it."""
    n_rf = data.draw(st.integers(1, n_ant), label="N_r")
    sc = Scenario(M=m, K=1, N_a=n_ant, N_r=n_rf, tau_p=1, tau_d=1)
    r = crandn(np.random.default_rng(seed + 1), (m, n_ant, n))
    y, omega = sample_switch(r, sc, np.random.default_rng(seed))
    want = switch_mask(np.random.default_rng(seed), (m, n_ant, n), n_rf)
    assert omega.dtype == bool and omega.tobytes() == want.tobytes()
    np.testing.assert_array_equal(omega.sum(axis=1), n_rf)
    assert np.all(y[~omega] == 0)
    np.testing.assert_array_equal(y[omega], r[omega])


def test_switch_shape_check(tiny, rng):
    with pytest.raises(ShapeError):
        sample_switch(np.zeros((tiny.M, tiny.N_a + 1, 4)), tiny, rng)


# ---------------------------------------------------------------- blocks

def test_make_block_shapes(tiny):
    p = gen_pilots(tiny.K, tiny.tau_p)
    blk = make_block(tiny, np.full((tiny.K, tiny.M), 1e-10), p, 7, 0, tiny.sigma2)
    assert blk.H.shape == (tiny.M, tiny.N_a, tiny.K)
    assert blk.Y.shape == (tiny.M, tiny.N_a, tiny.tau_c)
    assert blk.omega.shape == blk.Y.shape
    assert blk.D.shape == (tiny.K, tiny.tau_d)
    # each AP sees N_r antennas per slot, and its own H[m] times [P D] there
    np.testing.assert_array_equal(blk.omega.sum(axis=1), tiny.N_r)
    assert np.all(blk.Y[~blk.omega] == 0)
    noiseless = make_block(tiny, np.full((tiny.K, tiny.M), 1e-10), p, 7, 0, sigma2=0.0)
    x = np.stack([h @ np.hstack([p, noiseless.D]) for h in noiseless.H])
    np.testing.assert_allclose(noiseless.Y, np.where(noiseless.omega, x, 0.0), atol=1e-12)


def test_make_block_deterministic(tiny):
    p = gen_pilots(tiny.K, tiny.tau_p)
    beta = np.full((tiny.K, tiny.M), 1e-10)
    b1 = make_block(tiny, beta, p, 7, 3, tiny.sigma2)
    b2 = make_block(tiny, beta, p, 7, 3, tiny.sigma2)
    np.testing.assert_array_equal(b1.Y, b2.Y)
    b3 = make_block(tiny, beta, p, 7, 4, tiny.sigma2)
    assert not np.array_equal(b1.Y, b3.Y)


def test_make_block_pilot_part_ignores_payload_length(tiny):
    """Pilot slots replay bitwise when only tau_d differs."""
    longer = dataclasses.replace(tiny, tau_d=2 * tiny.tau_d)
    p = gen_pilots(tiny.K, tiny.tau_p)
    beta = np.full((tiny.K, tiny.M), 1e-10)
    a = make_block(tiny, beta, p, 7, 0, tiny.sigma2)
    b = make_block(longer, beta, p, 7, 0, tiny.sigma2)
    tp = tiny.tau_p
    np.testing.assert_array_equal(a.Y[..., :tp], b.Y[..., :tp])
    np.testing.assert_array_equal(a.omega[..., :tp], b.omega[..., :tp])
    np.testing.assert_array_equal(a.H, b.H)


def test_make_block_sigma2_override(tiny):
    p = gen_pilots(tiny.K, tiny.tau_p)
    beta = np.full((tiny.K, tiny.M), 1e-10)
    blk = make_block(tiny, beta, p, 7, 0, sigma2=0.0)
    # no receiver noise: Y is the switch-sampled H [P D], bit for bit
    x = np.concatenate([blk.H @ p, blk.H @ blk.D], axis=-1)
    np.testing.assert_array_equal(blk.Y, np.where(blk.omega, x, 0.0))
    noisy = make_block(tiny, beta, p, 7, 0, tiny.sigma2)
    np.testing.assert_array_equal(noisy.omega, blk.omega)
    assert not np.array_equal(noisy.Y, blk.Y)


def _flat_block(sc, beta, p, master_seed, trial, sigma2):
    """make_block as one (M*N_a, ·) draw, AP m owning rows m*N_a : (m+1)*N_a."""
    n_rows = sc.M * sc.N_a

    def switch(r, rng):
        omega = switch_mask(rng, (sc.M, sc.N_a, r.shape[1]), sc.N_r).reshape(n_rows, r.shape[1])
        return np.where(omega, r, 0.0), omega

    def noise(stage, cols):
        return oracles.crandn(rng_for(master_seed, stage, trial), (n_rows, cols), sigma2)

    g = oracles.crandn(rng_for(master_seed, "channel", trial), (n_rows, sc.K))
    h = g * np.sqrt(np.repeat(beta.T, sc.N_a, axis=0))
    d = gen_payload(sc.K, sc.tau_d, rng_for(master_seed, "payload", trial))
    y_p, om_p = switch(h @ p + noise("noise_pilot", sc.tau_p), rng_for(master_seed, "mask_pilot", trial))
    y_d, om_d = switch(h @ d + noise("noise_data", sc.tau_d), rng_for(master_seed, "mask_data", trial))
    aps = (sc.M, sc.N_a, -1)
    return h.reshape(aps), np.hstack([y_p, y_d]).reshape(aps), np.hstack([om_p, om_d]).reshape(aps), d


def test_make_block_matches_flat_draw(tiny):
    """The stacked draw gives the flat (M*N_a, ·) draw's H, Y, omega and D bit for bit, the
    flat draw's noise and fading by the oracle's complex product.  Cases: desk and m100_k25
    at their rescaled noise power and with none, and three small scenarios."""
    cases = []
    for name in ("desk", "m100_k25"):
        sc, prep = prepared_profile(name)
        cases += [(sc, prep.beta, prep.pilots, s2) for s2 in (prep.sigma2, 0.0)]
    for sc in (tiny, dataclasses.replace(tiny, N_r=tiny.N_a), dataclasses.replace(tiny, M=1)):
        cases.append((sc, draw_beta(sc, 5), gen_pilots(sc.K, sc.tau_p), 0.3))
    for sc, beta, p, sigma2 in cases:
        for trial in range(3):
            blk = make_block(sc, beta, p, sc.seed, trial, sigma2=sigma2)
            h, y, omega, d = _flat_block(sc, beta, p, sc.seed, trial, sigma2)
            np.testing.assert_array_equal(blk.H, h)
            np.testing.assert_array_equal(blk.Y, y)
            np.testing.assert_array_equal(blk.omega, omega)
            np.testing.assert_array_equal(blk.D, d)
