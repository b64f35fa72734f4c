import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles import centralized_fw, straight_line_fw
from support import RecordingBackhaul, kind_count, recorded_iterates
from test_privacy import ref_round
from privcell import harness
from privcell.channel import make_block
from privcell.config import load_experiment
from privcell.errors import ArgumentError, DegenerateStepError, ShapeError
from privcell.fw import (
    FwConfig,
    ap_residual,
    ap_update,
    cpu_aggregate_eig,
    nuclear_norm_budget,
    run_fw,
    step_size,
)
from privcell.linalg import observed_index
from privcell.privacy import Calibration, gram_round, unpack_hermitian
from privcell.protocol import Backhaul, MessageKind


def make_instance(seed, n_aps=3, n_ant=2, tau_c=8, density=0.5):
    """Random masked observation with a planted low-rank part, as (M, N_a, tau_c) stacks."""
    rng = np.random.default_rng(seed)
    rows = n_aps * n_ant
    truth = np.outer(
        rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
        rng.standard_normal(tau_c) + 1j * rng.standard_normal(tau_c),
    )
    omega = rng.random((rows, tau_c)) < density
    y = np.where(omega, truth + 0.05 * rng.standard_normal((rows, tau_c)), 0.0)
    return tuple(a.reshape(n_aps, n_ant, tau_c) for a in (y, omega, truth))


def flat(a):
    """An (M, N_a, tau_c) stack as the (M*N_a, tau_c) matrix the oracles take."""
    return a.reshape(-1, a.shape[-1])


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def ref_update(x_m, j_m, v, lam, eta, nuclear_bound, clip_bound, omega_m):
    """Per-AP reference FW step and clip of the whole block onto the bound."""
    x_new = (1.0 - eta) * x_m - (eta * nuclear_bound / lam) * np.outer(j_m @ v, v.conj())
    mn = np.linalg.norm(x_new[omega_m])
    return (x_new, False) if mn <= clip_bound else (x_new * (clip_bound / mn), True)


def one_ap_release(j, noise_scale, seed):
    """What a lone AP with block j sends in one Gram round, unpacked."""
    net = RecordingBackhaul()
    gram_round(net, 1, j[None], noise_scale, seed, MessageKind.BASIS_BROADCAST, lambda w: w)
    return unpack_hermitian(net.payloads[0])


# ---------------------------------------------------------------- pieces

def test_config_validation():
    FwConfig(1.0, Calibration(1.0, 1, 0.0))
    with pytest.raises(ArgumentError):
        FwConfig(1.0, Calibration(1.0, 0, 0.0))
    with pytest.raises(ArgumentError):
        FwConfig(0.0, Calibration(1.0, 1, 0.0))
    with pytest.raises(ArgumentError):
        FwConfig(1.0, Calibration(-1.0, 1, 0.0))
    with pytest.raises(ArgumentError):
        FwConfig(1.0, Calibration(1.0, 1, -0.1))


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
    # on an (M, N_a, tau_c) stack each slice is that AP's own residual
    x3, y3, o3 = (np.stack([a, 2 * a]) for a in (j, y, omega))
    np.testing.assert_array_equal(ap_residual(x3, y3, o3)[1], ap_residual(2 * j, 2 * y, omega))


def test_release_gram_hand_value():
    j = np.array([[1.0, 1.0j], [2.0, 0.0]])
    g = one_ap_release(j, 0.0, 0)
    np.testing.assert_allclose(g, np.array([[5.0, 1.0j], [-1.0j, 1.0]]), atol=1e-14)
    np.testing.assert_array_equal(g, ref_round(j[None], 0.0, (0,)))
    # the first FW round releases exactly this Gram of the residual -y
    net = RecordingBackhaul()
    run_fw(-j[None], np.ones((1, *j.shape), dtype=bool), FwConfig(1.0, Calibration(10.0, 1, 0.0)), 0, net=net)
    np.testing.assert_array_equal(unpack_hermitian(net.payloads[0]), g)


def test_release_gram_psd_when_noiseless(rng):
    j = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    g = one_ap_release(j, 0.0, 0)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_release_gram_pure_noise():
    g = one_ap_release(np.zeros((3, 6), dtype=complex), 1.5, 99)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.norm(g) > 0
    np.testing.assert_array_equal(g, ref_round(np.zeros((1, 3, 6)), 1.5, (99,)))


def test_aggregate_eig_matches_svd(rng):
    j = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    v, lam = cpu_aggregate_eig(one_ap_release(j, 0.0, 0), 0.0, 1)
    _, s, vh = np.linalg.svd(j)
    assert lam == pytest.approx(s[0], rel=1e-10)
    assert abs(np.vdot(v, vh[0].conj())) == pytest.approx(1.0, abs=1e-8)


def test_zero_aggregate_is_a_degenerate_step():
    """A noiseless run on all-zero blocks sums to the zero matrix, whose top value 0
    leaves nothing to step along."""
    y = np.zeros((2, 2, 5), dtype=complex)
    with pytest.raises(DegenerateStepError):
        run_fw(y, np.ones(y.shape, dtype=bool), FwConfig(1.0, Calibration(1.0, 3, 0.0)), 0)


def test_aggregate_eig_clamps_negative():
    lifted = cpu_aggregate_eig(-3.0 * np.eye(4), 0.5, 2)[1]
    assert lifted == pytest.approx(np.sqrt(0.5) * (2 * 4) ** 0.25)


def test_clip_observed(rng):
    """The batched step clips exactly the APs over the bound, as the per-AP reference does."""
    x = rng.standard_normal((4, 2, 6)) + 1j * rng.standard_normal((4, 2, 6))
    j = rng.standard_normal((4, 2, 6)) + 1j * rng.standard_normal((4, 2, 6))
    omega = rng.random((4, 2, 6)) < 0.5
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    ref = [ref_update(x[m], j[m], v, 3.0, 0.25, 2.0, np.inf, omega[m])[0] for m in range(4)]
    bound = float(np.median([np.linalg.norm(r[o]) for r, o in zip(ref, omega)]))
    cfg = FwConfig(2.0, Calibration(bound, 4, 0.0))
    got, norms, clipped = ap_update(x, j, v, 3.0, 0.25, cfg, observed_index(omega))
    assert 0 < clipped.sum() < 4
    for m in range(4):
        want, flag = ref_update(x[m], j[m], v, 3.0, 0.25, 2.0, bound, omega[m])
        np.testing.assert_array_equal(got[m], want)
        assert clipped[m] == flag
        assert norms[m] == np.linalg.norm(want[omega[m]])
        assert norms[m] <= bound * (1 + 1e-12)
    # whole block scales together, not just the observed part
    m = int(np.flatnonzero(clipped)[0])
    np.testing.assert_allclose(got[m], ref[m] * (bound / np.linalg.norm(ref[m][omega[m]])), rtol=1e-12)


def test_update_into_out_is_the_fresh_update(rng):
    """Written into out=x, the step and clip give the fresh result bit for bit; without
    out, x is left as it was.  ap_residual leaves its inputs alone too."""
    x = rng.standard_normal((4, 2, 6)) + 1j * rng.standard_normal((4, 2, 6))
    y = rng.standard_normal((4, 2, 6)) + 1j * rng.standard_normal((4, 2, 6))
    omega = rng.random((4, 2, 6)) < 0.5
    x_in, y_in = x.copy(), y.copy()
    j = ap_residual(x, y, omega)
    np.testing.assert_array_equal(j, np.where(omega, x_in, 0.0) - y_in)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    cfg = FwConfig(2.0, Calibration(1.0, 4, 0.0))
    fresh, norms, clipped = ap_update(x, j, v, 3.0, 0.25, cfg, observed_index(omega))
    assert clipped.any()
    np.testing.assert_array_equal(x, x_in)
    np.testing.assert_array_equal(y, y_in)
    got, got_norms, got_clipped = ap_update(x, j, v, 3.0, 0.25, cfg, observed_index(omega), out=x)
    assert got is x
    assert got.tobytes() == fresh.tobytes()
    np.testing.assert_array_equal(got_norms, norms)
    np.testing.assert_array_equal(got_clipped, clipped)


def test_update_is_rank_one_step(rng):
    cfg = FwConfig(2.0, Calibration(100.0, 4, 0.0))
    y, omega, _ = make_instance(3, n_aps=1)
    j = ap_residual(np.zeros_like(y), y, omega)
    v = rng.standard_normal(y.shape[2]) + 1j * rng.standard_normal(y.shape[2])
    v /= np.linalg.norm(v)
    x1, _norms, clipped = ap_update(np.zeros_like(y), j, v, 3.0, 1.0, cfg, observed_index(omega))
    assert not clipped.any()
    sv = np.linalg.svd(x1[0], compute_uv=False)
    assert sv[1] <= 1e-12 * max(sv[0], 1.0)


def test_update_degenerate_lambda(rng):
    cfg = FwConfig(2.0, Calibration(100.0, 4, 0.0))
    y, omega, _ = make_instance(3, n_aps=1)
    v = np.ones(y.shape[2], dtype=complex)
    with pytest.raises(DegenerateStepError):
        ap_update(np.zeros_like(y), -y, v, 0.0, 1.0, cfg, observed_index(omega))


# ---------------------------------------------------------------- runs

def test_zero_noise_matches_centralized_oracle():
    """Distributed rounds track a straight-line stacked implementation."""
    y, omega, _ = make_instance(11, n_aps=3, n_ant=2, tau_c=8)
    cfg = FwConfig(5.0, Calibration(4.0, 6, 0.0))
    with recorded_iterates() as iterates:
        run_fw(y, omega, cfg, 0)
    ref = centralized_fw(flat(y), flat(omega), 3, 6, 5.0, 4.0)
    assert len(iterates) == 6
    for got, want in zip(iterates, ref):
        assert rel_err(flat(got), want) <= 1e-9


def test_noisy_run_matches_centralized_with_shared_draws():
    y, omega, _ = make_instance(12, n_aps=3, n_ant=2, tau_c=8)
    entropy = (77, 9, 0)
    cfg = FwConfig(5.0, Calibration(6.0, 5, 0.3))
    with recorded_iterates() as iterates:
        run_fw(y, omega, cfg, entropy)
    ref = centralized_fw(flat(y), flat(omega), 3, 5, 5.0, 6.0, noise_scale=0.3, entropy=entropy)
    assert len(iterates) == 5
    for got, want in zip(iterates, ref):
        assert rel_err(flat(got), want) <= 1e-9


def test_noiseless_rank_one_converges():
    rng = np.random.default_rng(5)
    rows, tau_c = 8, 10
    truth = np.outer(
        rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
        rng.standard_normal(tau_c) + 1j * rng.standard_normal(tau_c),
    )
    omega = np.ones((rows, tau_c), dtype=bool)
    nuc = np.linalg.svd(truth, compute_uv=False)[0]  # nuclear norm of rank one
    cfg = FwConfig(float(nuc), Calibration(float(np.linalg.norm(truth)) + 1.0, 50, 0.0))
    res = run_fw(truth.reshape(4, 2, tau_c), omega.reshape(4, 2, tau_c), cfg, 0)
    assert rel_err(flat(res.x_hat), truth) <= 0.05


def test_single_round_output_rank(rng):
    y, omega, _ = make_instance(9, n_aps=2, n_ant=3, tau_c=7)
    cfg = FwConfig(4.0, Calibration(50.0, 1, 0.0))
    res = run_fw(y, omega, cfg, 0)
    for block in res.x_hat:
        sv = np.linalg.svd(block, compute_uv=False)
        assert sv[1] <= 1e-10 * max(sv[0], 1.0)


def test_run_telemetry_and_transcript():
    y, omega, _ = make_instance(4)
    cfg = FwConfig(5.0, Calibration(1.5, 5, 0.2))  # tight clip bound, forces rescaling
    net = Backhaul()
    res = run_fw(y, omega, cfg, 0, net=net)
    assert res.rounds == 5
    assert res.masked_norms.shape == (5, 3)
    assert np.all(res.masked_norms <= 1.5 + 1e-9)
    assert res.clip_events > 0
    assert res.lam_path.shape == (5,)
    assert kind_count(net.transcript, MessageKind.GRAM_RELEASE) == 15
    assert kind_count(net.transcript, MessageKind.EIG_BROADCAST) == 5


def test_run_reports_observed_entry_norms():
    """masked_norms[n-1, m] is the norm of AP m's iterate after round n over its
    observed entries, after the clip; the last row is that of x_hat."""
    y, omega, _ = make_instance(14, n_aps=3, n_ant=2, tau_c=8)
    cfg = FwConfig(5.0, Calibration(1.5, 4, 0.3))
    with recorded_iterates() as iterates:
        res = run_fw(y, omega, cfg, (3, 1))
    assert res.clip_events > 0
    want = [[np.linalg.norm(x[o]) for x, o in zip(it, omega)] for it in iterates]
    np.testing.assert_allclose(res.masked_norms, want, rtol=1e-12)
    last = [np.linalg.norm(x[o]) for x, o in zip(res.x_hat, omega)]
    np.testing.assert_allclose(res.masked_norms[-1], last, rtol=1e-12)
    # the iterates are dense, so the full-block norms are larger
    assert all(w < np.linalg.norm(x) for x, w in zip(res.x_hat, res.masked_norms[-1]))


def test_transcript_after_batched_run():
    """Round n of a noisy multi-round run has M releases from ap0..ap{M-1}, each
    carrying the reference sum of that round's residuals, in memory of its own
    round; the inputs stay as given."""
    y, omega, _ = make_instance(13, n_aps=3, n_ant=2, tau_c=8)
    y_in, omega_in = y.copy(), omega.copy()
    entropy = (5, 1, 2)
    cfg = FwConfig(5.0, Calibration(1.5, 4, 0.3))
    net = RecordingBackhaul()
    with recorded_iterates() as iterates:
        res = run_fw(y, omega, cfg, entropy, net=net)
    assert res.clip_events > 0
    releases = [
        (msg, p) for msg, p in zip(net.transcript, net.payloads)
        if msg.kind is MessageKind.GRAM_RELEASE
    ]
    assert len(releases) == 12
    x_prev = np.zeros_like(y)
    for n in range(1, 5):
        want = ref_round(np.where(omega, x_prev, 0.0) - y, 0.3, entropy, (n,))
        for m in range(3):
            msg, payload = releases[3 * (n - 1) + m]
            assert (msg.sender, msg.round_index) == (f"ap{m}", n)
            assert unpack_hermitian(payload).tobytes() == want.tobytes()
        x_prev = iterates[n - 1]
    for a, pa in releases:
        for b, pb in releases:
            if a.round_index != b.round_index:
                assert not np.shares_memory(pa, pb)
    np.testing.assert_array_equal(y, y_in)
    np.testing.assert_array_equal(omega, omega_in)


DESK = load_experiment(Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")


@pytest.mark.parametrize(
    "method, tau_d, clip_bound",
    [("fw", 20, None), ("fw", 56, None), ("fw", 160, None), ("npfw", 56, None), ("fw", 56, 1.0)],
    ids=["fw-24", "fw-60", "fw-164", "npfw-60", "fw-60-clipped"],
)
def test_run_is_bitwise_the_straight_line_round(method, tau_d, clip_bound):
    """On desk blocks (tau_c 24, 60 and 164 for fw, 60 for npfw's 200 rounds), run_fw's
    x_hat, masked_norms, lam_path, clip_events and transcript records are those of
    `oracles.straight_line_fw`, the round with a dense eigen shift, one np.linalg.norm
    per AP and frozen-dataclass records, byte for byte.  The desk clip bound is far
    above fw's iterates, so one case clips at 1.0, below them."""
    scen = dataclasses.replace(DESK.scenario, tau_d=tau_d)
    prep = harness.prepare(scen, DESK.run, harness.draw_beta(scen, scen.seed))
    block = make_block(scen, prep.beta, prep.pilots, scen.seed, 3, prep.sigma2)
    cfg = harness.completion_config(method, prep, scen, DESK.run, DESK.run.eps)
    if clip_bound is not None:
        cfg = dataclasses.replace(cfg, calibration=dataclasses.replace(cfg.calibration, bound=clip_bound))
    entropy = (scen.seed, 1, 3)
    net = Backhaul()
    res = run_fw(block.Y, block.omega, cfg, entropy, net=net)
    cal = cfg.calibration
    x, norms, lams, clips, records = straight_line_fw(
        block.Y, block.omega, cal.releases, cfg.nuclear_bound, cal.bound, cal.sigma, entropy
    )
    assert res.x_hat.tobytes() == x.tobytes()
    assert res.masked_norms.tobytes() == norms.tobytes()
    assert res.lam_path.tobytes() == lams.tobytes()
    assert res.clip_events == clips
    assert clips > 0 or clip_bound is None
    fields = [f.name for f in dataclasses.fields(records[0])]  # kind first, as its .value
    got = [(m.kind.value, *(getattr(m, f) for f in fields[1:])) for m in net.transcript]
    assert got == [dataclasses.astuple(r) for r in records]


def test_run_deterministic():
    y, omega, _ = make_instance(6)
    cfg = FwConfig(5.0, Calibration(4.0, 3, 0.7))
    a = run_fw(y, omega, cfg, 123)
    b = run_fw(y, omega, cfg, 123)
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    c = run_fw(y, omega, cfg, 124)
    assert not np.array_equal(a.x_hat, c.x_hat)


def test_run_shape_checks():
    y, omega, _ = make_instance(6)
    cfg = FwConfig(5.0, Calibration(4.0, 2, 0.0))
    with pytest.raises(ShapeError):
        run_fw(y, omega[..., :4], cfg, 0)
    with pytest.raises(ShapeError):
        run_fw(flat(y), flat(omega), cfg, 0)  # one matrix, not a stack of AP blocks
