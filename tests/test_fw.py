import numpy as np
import pytest

from oracles import centralized_fw
from privcell.errors import ArgumentError, DegenerateStepError, ShapeError
from privcell.fw import (
    FwConfig,
    ap_residual,
    ap_update,
    clip_observed,
    cpu_aggregate_eig,
    nuclear_norm_budget,
    run_fw,
    step_size,
)
from privcell.privacy import release_gram
from privcell.protocol import Backhaul, MessageKind


def make_instance(seed, n_aps=3, n_ant=2, tau_c=8, density=0.5):
    """Random masked observation with a planted low-rank part."""
    rng = np.random.default_rng(seed)
    rows = n_aps * n_ant
    truth = np.outer(
        rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
        rng.standard_normal(tau_c) + 1j * rng.standard_normal(tau_c),
    )
    omega = rng.random((rows, tau_c)) < density
    y = np.where(omega, truth + 0.05 * rng.standard_normal((rows, tau_c)), 0.0)
    return y, omega, truth


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


# ---------------------------------------------------------------- pieces

def test_config_validation():
    FwConfig(1, 1.0, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        FwConfig(0, 1.0, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        FwConfig(1, 0.0, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        FwConfig(1, 1.0, -1.0, 0.0)
    with pytest.raises(ArgumentError):
        FwConfig(1, 1.0, 1.0, -0.1)


def test_step_schedule():
    assert step_size(1, 10) == 1.0
    assert step_size(2, 10) == 0.1
    assert step_size(10, 10) == 0.1


def test_budget_formula(rng):
    beta = rng.random((4, 6))
    got = nuclear_norm_budget(beta, 60, 4)
    assert got == pytest.approx(np.sqrt(4**2 * 60 * 4 * beta.sum()), rel=1e-12)
    with pytest.raises(ShapeError):
        nuclear_norm_budget(beta.ravel(), 60, 4)


def test_residual_cases(rng):
    y = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    omega = rng.random((2, 5)) < 0.6
    y = np.where(omega, y, 0.0)
    # zero iterate: residual is minus the observation
    np.testing.assert_array_equal(ap_residual(np.zeros_like(y), y, omega), -y)
    # iterate matching the observation: residual vanishes
    assert np.all(ap_residual(y, y, omega) == 0)
    j = ap_residual(rng.standard_normal((2, 5)) + 0j, y, omega)
    assert np.all(j[~omega] == 0)


def test_release_gram_hand_value():
    j = np.array([[1.0, 1.0j], [2.0, 0.0]])
    g = release_gram(j, 0.0, 0)
    np.testing.assert_allclose(g, np.array([[5.0, 1.0j], [-1.0j, 1.0]]), atol=1e-14)
    # the first FW round releases exactly this Gram of the residual -y
    net = Backhaul()
    run_fw(-j, np.ones(j.shape, dtype=bool), 1, FwConfig(1, 1.0, 10.0, 0.0), 0, net=net)
    np.testing.assert_array_equal(net.transcript[0].payload, g)


def test_release_gram_psd_when_noiseless(rng):
    j = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    g = release_gram(j, 0.0, 0)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_release_gram_pure_noise():
    g = release_gram(np.zeros((3, 6), dtype=complex), 1.5, 99)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.norm(g) > 0


def test_aggregate_eig_matches_svd(rng):
    j = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    v, lam = cpu_aggregate_eig(release_gram(j, 0.0, 0), 0.0, 1)
    _, s, vh = np.linalg.svd(j)
    assert lam == pytest.approx(s[0], rel=1e-10)
    assert abs(np.vdot(v, vh[0].conj())) == pytest.approx(1.0, abs=1e-8)


def test_aggregate_eig_clamps_negative():
    lifted = cpu_aggregate_eig(-3.0 * np.eye(4), 0.5, 2)[1]
    assert lifted == pytest.approx(np.sqrt(0.5) * (2 * 4) ** 0.25)


def test_clip_observed(rng):
    x = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    omega = rng.random((2, 6)) < 0.5
    mn = np.linalg.norm(x[omega])
    same, flag = clip_observed(x, omega, mn * 1.01)
    assert not flag and same is x
    scaled, flag = clip_observed(x, omega, mn / 2)
    assert flag
    assert np.linalg.norm(scaled[omega]) == pytest.approx(mn / 2, rel=1e-12)
    # whole block scales together, not just the observed part
    np.testing.assert_allclose(scaled, x * (mn / 2 / mn), rtol=1e-12)


def test_update_is_rank_one_step(rng):
    cfg = FwConfig(4, nuclear_bound=2.0, clip_bound=100.0, noise_scale=0.0)
    y, omega, _ = make_instance(3, n_aps=1)
    j = ap_residual(np.zeros_like(y), y, omega)
    v = rng.standard_normal(y.shape[1]) + 1j * rng.standard_normal(y.shape[1])
    v /= np.linalg.norm(v)
    x1, clipped = ap_update(np.zeros_like(y), j, v, 3.0, 1.0, cfg, omega)
    assert not clipped
    sv = np.linalg.svd(x1, compute_uv=False)
    assert sv[1] <= 1e-12 * max(sv[0], 1.0)


def test_update_degenerate_lambda(rng):
    cfg = FwConfig(4, 2.0, 100.0, 0.0)
    y, omega, _ = make_instance(3, n_aps=1)
    v = np.ones(y.shape[1], dtype=complex)
    with pytest.raises(DegenerateStepError):
        ap_update(np.zeros_like(y), -y, v, 0.0, 1.0, cfg, omega)


# ---------------------------------------------------------------- runs

def test_zero_noise_matches_centralized_oracle():
    """Distributed rounds track a straight-line stacked implementation."""
    y, omega, _ = make_instance(11, n_aps=3, n_ant=2, tau_c=8)
    cfg = FwConfig(6, nuclear_bound=5.0, clip_bound=4.0, noise_scale=0.0,
                   keep_iterates=True)
    res = run_fw(y, omega, 3, cfg, 0)
    ref = centralized_fw(y, omega, 3, 6, 5.0, 4.0)
    assert len(res.iterates) == 6
    for got, want in zip(res.iterates, ref):
        assert rel_err(got, want) <= 1e-9


def test_noisy_run_matches_centralized_with_shared_draws():
    y, omega, _ = make_instance(12, n_aps=3, n_ant=2, tau_c=8)
    entropy = (77, 9, 0)
    cfg = FwConfig(5, nuclear_bound=5.0, clip_bound=6.0, noise_scale=0.3,
                   keep_iterates=True)
    res = run_fw(y, omega, 3, cfg, entropy)
    ref = centralized_fw(y, omega, 3, 5, 5.0, 6.0, noise_scale=0.3, entropy=entropy)
    for got, want in zip(res.iterates, ref):
        assert rel_err(got, want) <= 1e-9


def test_noiseless_rank_one_converges():
    rng = np.random.default_rng(5)
    rows, tau_c = 8, 10
    truth = np.outer(
        rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
        rng.standard_normal(tau_c) + 1j * rng.standard_normal(tau_c),
    )
    omega = np.ones((rows, tau_c), dtype=bool)
    nuc = np.linalg.svd(truth, compute_uv=False)[0]  # nuclear norm of rank one
    cfg = FwConfig(50, nuclear_bound=float(nuc),
                   clip_bound=float(np.linalg.norm(truth)) + 1.0, noise_scale=0.0)
    res = run_fw(truth, omega, 4, cfg, 0)
    assert rel_err(res.x_hat, truth) <= 0.05


def test_single_round_output_rank(rng):
    y, omega, _ = make_instance(9, n_aps=2, n_ant=3, tau_c=7)
    cfg = FwConfig(1, 4.0, 50.0, 0.0)
    res = run_fw(y, omega, 2, cfg, 0)
    for m in range(2):
        block = res.x_hat[m * 3:(m + 1) * 3]
        sv = np.linalg.svd(block, compute_uv=False)
        assert sv[1] <= 1e-10 * max(sv[0], 1.0)


def test_run_telemetry_and_transcript():
    y, omega, _ = make_instance(4)
    cfg = FwConfig(5, 5.0, 1.5, 0.2)  # tight clip bound, forces rescaling
    net = Backhaul()
    res = run_fw(y, omega, 3, cfg, 0, net=net)
    assert res.rounds == 5
    assert res.masked_norms.shape == (5, 3)
    assert np.all(res.masked_norms <= 1.5 + 1e-9)
    assert res.clip_events > 0
    assert res.lam_path.shape == (5,)
    assert net.ledger.count(MessageKind.GRAM_RELEASE) == 15
    assert net.ledger.count(MessageKind.EIG_BROADCAST) == 5
    assert res.iterates is None


def test_run_deterministic():
    y, omega, _ = make_instance(6)
    cfg = FwConfig(3, 5.0, 4.0, 0.7)
    a = run_fw(y, omega, 3, cfg, 123)
    b = run_fw(y, omega, 3, cfg, 123)
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    c = run_fw(y, omega, 3, cfg, 124)
    assert not np.array_equal(a.x_hat, c.x_hat)


def test_run_shape_checks():
    y, omega, _ = make_instance(6)
    cfg = FwConfig(2, 5.0, 4.0, 0.0)
    with pytest.raises(ShapeError):
        run_fw(y, omega[:, :4], 3, cfg, 0)
    with pytest.raises(ShapeError):
        run_fw(y, omega, 4, cfg, 0)  # 6 rows do not split over 4 APs
