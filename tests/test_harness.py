"""Sweep plumbing: seeding discipline, gain normalization, CSV round trips."""

import dataclasses
import tracemalloc
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import RecordingBackhaul, read_csv
from privcell import fw, harness
from privcell.channel import Scenario, make_block
from privcell.config import METHODS, ExperimentConfig, RunConfig, load_experiment, with_overrides
from privcell.errors import ArgumentError, ConfigError, DegenerateStepError, PrivCellError
from privcell.estimation import (
    detect_local,
    estimate_channel,
    nmse,
    pilot_only_detect_block,
    pilot_only_ls,
    ser,
    slice_qpsk,
)
from privcell.harness import (
    cross_validate,
    draw_beta,
    emit_csv,
    prepare,
    run_point,
    run_sweep,
    run_trial,
)
from privcell.protocol import ALL_APS, CPU, Backhaul, MessageKind, ap_name, audit_privacy_surface

M100_K25 = Path(__file__).resolve().parent.parent / "configs" / "m100_k25.yaml"


@pytest.fixture
def toy_exp(tiny):
    return ExperimentConfig(
        scenario=tiny, run=RunConfig(trials=3, fw_iters=4, values=(1.0,))
    )


# ---------------------------------------------------------------- prepare


def test_prepare_normalized_rescales_to_unit_median(tiny):
    beta = draw_beta(tiny, 5)
    prep = prepare(tiny, RunConfig(), beta)
    assert np.median(prep.beta) == pytest.approx(1.0)
    assert prep.sigma2 == pytest.approx(tiny.sigma2 / np.median(beta))


def test_prepare_override_scales_with_sqrt(tiny):
    """Explicit bounds are given in physical units and follow the amplitude scale."""
    beta = draw_beta(tiny, 5)
    run = RunConfig(clip_bound=2.0, nuc_bound=3.0)
    prep = prepare(tiny, run, beta)
    unit_scale = 1.0 / np.median(beta)
    assert prep.clip_bound == pytest.approx(2.0 * np.sqrt(unit_scale))
    assert prep.nuc_bound == pytest.approx(3.0 * np.sqrt(unit_scale))


def test_prepare_derives_bounds_when_unset(tiny):
    beta = draw_beta(tiny, 5)
    prep = prepare(tiny, RunConfig(), beta)
    assert prep.clip_bound > 0
    assert prep.nuc_bound > 0


def test_prepare_holds_the_pilot_pseudoinverse(tiny):
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    np.testing.assert_array_equal(prep.pilot_pinv, np.linalg.pinv(prep.pilots, rcond=1e-12))


DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.yaml"


def test_completion_config_carries_one_calibration_per_method():
    """On desk: T is fw_iters (8) for fw, np_fw_iters (200) for npfw and 1 for the one-shot
    methods; every record's bound is the prepared clip bound, and sigma is 0 exactly when
    the method is not private.  The one-shot config keeps rank K and upsample N_a / N_r."""
    exp = load_experiment(DESK)
    scen, run = exp.scenario, exp.run
    prep = prepare(scen, run, draw_beta(scen, scen.seed))
    releases = {"fw": 8, "npfw": 200, "svd": 1, "npsvd": 1}
    for method, want in releases.items():
        cfg = harness.completion_config(method, prep, scen, run, run.eps)
        cal = cfg.calibration
        assert (cal.releases, cal.bound) == (want, prep.clip_bound)
        assert (cal.sigma == 0.0) == (not METHODS[method].private)
        assert isinstance(cfg, fw.FwConfig) == (method in ("fw", "npfw"))
    svd = harness.completion_config("svd", prep, scen, run, run.eps)
    assert (svd.rank, svd.upsample) == (scen.K, scen.N_a / scen.N_r)
    with pytest.raises(ArgumentError):
        harness.completion_config("po", prep, scen, run, run.eps)


@pytest.mark.parametrize("method", ["svd", "npsvd"])
def test_run_trial_channel_estimate_is_per_ap_pilot_product(tiny, method, monkeypatch):
    """Each AP's estimate is its own x[:, :tau_p] @ pinv(P), bit for bit."""
    scen = dataclasses.replace(tiny, tau_p=3)  # K=2 < tau_p: a non-square pinv
    run = RunConfig(trials=1)
    prep = prepare(scen, run, draw_beta(scen, 5))
    completed, estimates = [], []

    def record(fn, into):
        def wrapped(*args, **kwargs):
            into.append(fn(*args, **kwargs))
            return into[-1]
        return wrapped

    monkeypatch.setattr(harness, "run_svd", record(harness.run_svd, completed))
    monkeypatch.setattr(
        harness.estimation, "estimate_channel",
        record(harness.estimation.estimate_channel, estimates),
    )
    res = run_trial(scen, run, method, prep, 7, 0, 1.0)
    want = [x[:, : scen.tau_p] @ np.linalg.pinv(prep.pilots, rcond=1e-12)
            for x in completed[0].x_hat]
    assert len(estimates) == 1  # one call on the stack
    assert len(estimates[0]) == scen.M
    for got, ref in zip(estimates[0], want):
        np.testing.assert_array_equal(got, ref)
    block = make_block(scen, prep.beta, prep.pilots, 7, 0, sigma2=prep.sigma2)
    assert res.nmse == nmse(np.stack(want), block.H)


# ---------------------------------------------------------------- backhaul


def _holds_array(obj, seen=None):
    """Whether any np.ndarray can be reached from obj through its attributes and items."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        return True
    if obj is None or isinstance(obj, (str, bytes, int, float, complex, Enum)) or id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = list(vars(obj).values())
    return any(_holds_array(c, seen) for c in children)


@pytest.mark.parametrize("method", ["fw", "svd", "po"])
def test_backhaul_keeps_no_payload_after_a_trial(tiny, method):
    run = RunConfig(trials=1, fw_iters=3)
    prep = prepare(tiny, run, draw_beta(tiny, 5))
    net = Backhaul()
    run_trial(tiny, run, method, prep, 7, 0, 1.0, net=net)
    assert len(net.transcript) == {"fw": 3 * (tiny.M + 1), "svd": tiny.M + 1, "po": 0}[method] + tiny.M
    assert not _holds_array(net)
    assert not _holds_array(net.ledger)
    assert not any(_holds_array(msg) for msg in net.transcript)
    assert audit_privacy_surface(
        net.transcript, tau_c=tiny.tau_c, n_users=tiny.K, n_payload=tiny.tau_d
    ).ok


@pytest.mark.parametrize("method", ["fw", "svd", "po"])
def test_trial_transcript_order(tiny, method):
    """Per completion round every AP's release in AP order, then one broadcast; then each AP's detection."""
    run = RunConfig(trials=1, fw_iters=3)
    prep = prepare(tiny, run, draw_beta(tiny, 5))
    net = Backhaul()
    run_trial(tiny, run, method, prep, 7, 0, 1.0, net=net)
    aps = [ap_name(m) for m in range(tiny.M)]
    release, detection = 8 * tiny.tau_c**2, 16 * tiny.K * tiny.tau_d
    casts = {  # the CPU's broadcast of each completion round
        "fw": [(MessageKind.EIG_BROADCAST, 16 * tiny.tau_c + 8)] * 3,
        "svd": [(MessageKind.BASIS_BROADCAST, 16 * tiny.tau_c * tiny.K)],
        "po": [],
    }[method]
    want = []
    for rnd, (kind, nbytes) in enumerate(casts, start=1):
        want += [(MessageKind.GRAM_RELEASE, ap, CPU, rnd, release) for ap in aps]
        want.append((kind, CPU, ALL_APS, rnd, nbytes))
    want += [(MessageKind.LOCAL_DETECTION, ap, CPU, 0, detection) for ap in aps]
    got = [(m.kind, m.sender, m.receiver, m.round_index, m.nbytes) for m in net.transcript]
    assert got == want


EDGE_SCENARIO = Scenario(M=3, K=2, N_a=4, N_r=2, tau_p=3, tau_d=5, R_km=0.5, seed=21)
EDGES = {
    "N_r=1": {"N_r": 1},
    "K=tau_p": {"K": 3},
    "tau_d=1": {"tau_d": 1},
    "M=1": {"M": 1},
    "sigma2=0": {"sigma2": 0.0},
}


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("edge", list(EDGES))
@settings(deadline=None, max_examples=3)
@given(others=st.sets(st.sampled_from(list(EDGES))))
def test_scenario_edges_run_every_method(edge, method, others):
    """Each edge of the scenario space, combined with any set of the others,
    gives finite metrics, the protocol's message count and a clean audit,
    whatever the method."""
    edges = {edge, *others}
    scen = dataclasses.replace(EDGE_SCENARIO, **{k: v for e in edges for k, v in EDGES[e].items()})
    run = RunConfig(trials=1, fw_iters=3, np_fw_iters=5)
    prep = prepare(scen, run, draw_beta(scen, scen.seed))
    net = Backhaul()
    res = run_trial(scen, run, method, prep, scen.seed, 0, 1.0, net=net)
    assert np.isfinite(res.nmse) and np.isfinite(res.ser)
    rounds = {"fw": run.fw_iters, "npfw": run.np_fw_iters, "svd": 1, "npsvd": 1, "po": 0}[method]
    assert len(net.transcript) == scen.M * rounds + rounds + scen.M
    assert audit_privacy_surface(
        net.transcript, tau_c=scen.tau_c, n_users=scen.K, n_payload=scen.tau_d
    ).ok


@pytest.mark.parametrize("method", list(METHODS))
def test_run_trial_matches_per_ap_detection(tiny, method, monkeypatch):
    """The stacked estimate, detection and average give the per-AP loop's numbers bit for bit."""
    run = RunConfig(trials=1, fw_iters=3, np_fw_iters=5)
    completed = []

    def record(fn):
        def wrapped(*args, **kwargs):
            completed.append(fn(*args, **kwargs))
            return completed[-1]
        return wrapped

    monkeypatch.setattr(harness, "run_fw", record(harness.run_fw))
    monkeypatch.setattr(harness, "run_svd", record(harness.run_svd))
    # N_r < K, N_r = K, and no receiver noise: each branch of the pilot-only detector
    for scen in (tiny, EDGE_SCENARIO, dataclasses.replace(EDGE_SCENARIO, sigma2=0.0)):
        prep = prepare(scen, run, draw_beta(scen, scen.seed))
        net = RecordingBackhaul()
        res = run_trial(scen, run, method, prep, 7, 0, 1.0, net=net)
        block = make_block(scen, prep.beta, prep.pilots, 7, 0, sigma2=prep.sigma2)
        tp = scen.tau_p
        h_hats, ds = [], []
        for m in range(scen.M):
            if method == "po":
                h_hats.append(pilot_only_ls(block.Y[m], prep.pilots))
                ds.append(pilot_only_detect_block(
                    h_hats[m], block.Y[m], block.omega[m], prep.sigma2, tp, scen.N_r
                ))
            else:
                x = completed[-1].x_hat[m]
                h_hats.append(estimate_channel(x[:, :tp], prep.pilot_pinv))
                ds.append(detect_local(h_hats[m], x[:, tp:]))
        acc = np.zeros_like(ds[0])
        for d in ds:
            acc = acc + d
        sent = [p for msg, p in zip(net.transcript, net.payloads)
                if msg.kind is MessageKind.LOCAL_DETECTION]
        assert len(sent) == scen.M
        for got, want in zip(sent, ds):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(res.nmse, nmse(np.stack(h_hats), block.H))
        assert res.ser == ser(slice_qpsk(acc / scen.M), block.D)


# ---------------------------------------------------------------- detection in AP chunks


def spy(fn, calls):
    """fn, appending (args, result) of each call to calls."""
    def wrapped(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]
    return wrapped


def whole_stack_detection(scen, prep, method, block, x_hat):
    """Reference: all M APs detected in one call, the soft output the stack's mean."""
    tp = scen.tau_p
    if method == "po":
        h_hat = pilot_only_ls(block.Y, prep.pilots)
        d = pilot_only_detect_block(h_hat, block.Y, block.omega, prep.sigma2, tp, scen.N_r)
    else:
        h_hat = estimate_channel(x_hat[..., :tp], prep.pilot_pinv)
        d = detect_local(h_hat, x_hat[..., tp:])
    return h_hat, d, np.mean(d, axis=0)


@pytest.mark.parametrize("method, detector", [("po", "pilot_only_detect_block"), ("npsvd", "detect_local")])
@pytest.mark.parametrize("n_aps, budget", [(1, None), (5, None), (100, None), (5, 1)])
def test_chunked_detection_matches_the_whole_stack(method, detector, n_aps, budget, monkeypatch):
    """At the m100_k25 shape, detection in AP chunks gives the whole-stack soft output,
    NMSE and SER bit for bit, and sends ap0 .. ap{M-1} in order.  Cases: M = 1; M below
    one chunk; M = 100, not a multiple of the chunk; and one AP per chunk."""
    exp = load_experiment(M100_K25)
    scen = dataclasses.replace(exp.scenario, M=n_aps)
    prep = prepare(scen, exp.run, draw_beta(scen, scen.seed))
    if budget is not None:
        monkeypatch.setattr(harness, "_DETECT_BYTES", budget)
    completions, detections, softs = [], [], []
    monkeypatch.setattr(harness, "run_svd", spy(harness.run_svd, completions))
    monkeypatch.setattr(harness.estimation, detector, spy(getattr(harness.estimation, detector), detections))
    monkeypatch.setattr(harness.estimation, "slice_qpsk", spy(slice_qpsk, softs))
    net = RecordingBackhaul()
    res = run_trial(scen, exp.run, method, prep, scen.seed, 0, 1.0, net=net)

    block = make_block(scen, prep.beta, prep.pilots, scen.seed, 0, sigma2=prep.sigma2)
    x_hat = completions[0][1].x_hat if completions else None
    h_hat, d, soft = whole_stack_detection(scen, prep, method, block, x_hat)
    ((got,), _), = softs
    assert got.tobytes() == soft.tobytes()
    assert res.nmse == nmse(h_hat, block.H)
    assert res.ser == ser(slice_qpsk(soft), block.D)
    sent = [(msg.sender, p) for msg, p in zip(net.transcript, net.payloads)
            if msg.kind is MessageKind.LOCAL_DETECTION]
    assert [sender for sender, _ in sent] == [ap_name(m) for m in range(n_aps)]
    for (_, got_m), want_m in zip(sent, d):
        assert got_m.tobytes() == want_m.tobytes()
    sizes = [len(out) for _, out in detections]
    assert sum(sizes) == n_aps and len(set(sizes[:-1])) <= 1
    if budget == 1:
        assert sizes == [1] * n_aps
    elif n_aps == 100:
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
    else:
        assert sizes == [n_aps]


@pytest.mark.parametrize("method", ["svd", "npsvd", "po"])
def test_m100_k25_trial_peaks_at_most_4_mb(method):
    """Detection in AP chunks keeps one full-scale trial's traced peak within 4 MB;
    detecting the whole (M, ·, ·) stack at once peaked at 4.9 MB (svd, npsvd) and
    16.8 MB (po)."""
    exp = load_experiment(M100_K25)
    scen = exp.scenario
    prep = prepare(scen, exp.run, draw_beta(scen, scen.seed))
    run_trial(scen, exp.run, method, prep, scen.seed, 0, 1.0)  # first-call set-up outside the count
    tracemalloc.start()
    try:
        run_trial(scen, exp.run, method, prep, scen.seed, 1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


# ---------------------------------------------------------------- run_point


def test_run_point_deterministic(toy_exp):
    a = run_point(toy_exp, "po", "epsilon", 1.0, 3, 11)
    b = run_point(toy_exp, "po", "epsilon", 1.0, 3, 11)
    assert a.nmse == b.nmse
    assert a.ser == b.ser


@pytest.mark.parametrize("method", ["fw", "npfw", "svd", "po"])
def test_trial_results_do_not_depend_on_trial_order(toy_exp, method):
    """Each trial's (nmse, ser) is bitwise the same whatever ran before it."""
    sc = toy_exp.scenario
    prepared = prepare(sc, toy_exp.run, draw_beta(sc, 5))

    def trial(t):
        res = run_trial(sc, toy_exp.run, method, prepared, 5, t, 1.0)
        return res.nmse, res.ser

    forward = {t: trial(t) for t in (0, 1, 2)}
    backward = {t: trial(t) for t in (2, 1, 0)}
    assert forward == backward


def test_run_point_fw_extras(toy_exp):
    rec = run_point(toy_exp, "fw", "epsilon", 1.0, 2, 11)
    assert rec.extras is not None
    assert np.isfinite(rec.extras["max_masked_norm"])
    assert rec.extras["max_masked_norm"] <= rec.extras["clip_bound"] + 1e-9


def test_run_point_counts_failures(toy_exp, monkeypatch):
    calls = {"n": 0}
    real = harness.run_trial

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise PrivCellError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", flaky)
    rec = run_point(toy_exp, "po", "epsilon", 1.0, 3, 11)
    assert rec.trials == 2
    assert rec.failures == 1
    assert np.isfinite(rec.nmse)


@pytest.mark.parametrize("field", ["nmse", "ser"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_run_point_counts_non_finite_results_as_failures(toy_exp, monkeypatch, caplog, field, bad):
    """A trial whose NMSE or SER is not finite is a logged failure, not part of the mean."""
    calls = {"n": 0}
    real = harness.run_trial

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        res = real(*args, **kwargs)
        if calls["n"] == 2:
            setattr(res, field, bad)
        return res

    want = run_point(toy_exp, "po", "epsilon", 1.0, 3, 11)
    monkeypatch.setattr(harness, "run_trial", poisoned)
    with caplog.at_level("WARNING", logger="privcell.harness"):
        rec = run_point(toy_exp, "po", "epsilon", 1.0, 3, 11)
    assert (rec.trials, rec.failures) == (2, 1)
    assert np.isfinite(rec.nmse) and np.isfinite(rec.ser)
    assert rec.nmse != want.nmse or rec.ser != want.ser  # trial 1 left the mean
    assert "excluded trial 1" in caplog.text and "non-finite" in caplog.text


def test_run_point_counts_a_non_finite_aggregate_as_a_failure(toy_exp, monkeypatch, caplog):
    """An FW aggregate poisoned with a NaN in round 2 fails each trial, through the
    LinAlgError of the CPU's eigensolve."""
    real = fw.gram_round

    def poisoned(net, n, j, scale, seed, kind, cpu, tail=()):
        return real(net, n, j, scale, seed, kind, lambda w: cpu(w * np.nan if n == 2 else w), tail)

    monkeypatch.setattr(fw, "gram_round", poisoned)
    with caplog.at_level("WARNING", logger="privcell.harness"):
        rec = run_point(toy_exp, "npfw", "epsilon", 1.0, 3, 11)
    assert (rec.trials, rec.failures) == (0, 3)
    assert np.isnan(rec.nmse)
    assert caplog.text.count("LinAlgError") == 3


@pytest.mark.parametrize("method, target", [("npsvd", "detect_local"), ("po", "pilot_only_ls")])
def test_run_point_counts_non_finite_detections_as_failures(method, target, monkeypatch):
    """A NaN soft detection fails its trial instead of slicing to -1-1j: desk at 3 trials.
    po's NaN channel estimate already fails in the detector's Cholesky."""
    exp = load_experiment(Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")
    real = getattr(harness.estimation, target)
    monkeypatch.setattr(harness.estimation, target, lambda *args: real(*args) * np.nan)
    rec = run_point(exp, method, "epsilon", 1.0, 3, exp.scenario.seed)
    assert (rec.trials, rec.failures) == (0, 3)
    assert np.isnan(rec.nmse) and np.isnan(rec.ser)


@pytest.mark.parametrize("method", ["fw", "svd"])
def test_run_point_nan_epsilon_fails_every_trial(toy_exp, method):
    rec = run_point(toy_exp, method, "epsilon", float("nan"), 2, 11)
    assert (rec.trials, rec.failures) == (0, 2)
    assert np.isnan(rec.nmse)


def test_apply_axis():
    from privcell.channel import Scenario

    scen = Scenario(M=2, K=2, N_a=2, N_r=2, tau_p=2, tau_d=4)
    same, eps = harness.apply_axis(scen, "epsilon", 0.5)
    assert same is scen and eps == 0.5
    longer, eps = harness.apply_axis(scen, "tau_d", 8.0)
    assert longer.tau_d == 8 and eps is None
    with pytest.raises(ArgumentError):
        harness.apply_axis(scen, "snr", 1.0)


# ---------------------------------------------------------------- invariances


def test_pilot_only_nmse_ignores_payload_length(tiny):
    """Channel estimates ride on the pilot slots only, so stretching the
    payload cannot move the pilot-only NMSE at matched seeds."""
    run = RunConfig()
    nmses = []
    for tau_d in (4, 12):
        scen = dataclasses.replace(tiny, tau_d=tau_d)
        prep = prepare(scen, run, draw_beta(scen, 31))
        res = run_trial(scen, run, "po", prep, 31, 0, 1.0)
        nmses.append(res.nmse)
    assert nmses[0] == nmses[1]


@pytest.mark.parametrize("method", ["fw", "svd"])
def test_gain_scale_does_not_move_nmse(tiny, method):
    """Gains and noise power given in another power unit describe the same
    experiment: prepare rescales both to unit median gain, so the NMSE holds."""
    beta = draw_beta(tiny, 13)
    run = RunConfig(fw_iters=4)
    out = []
    for scen, b in ((tiny, beta), (dataclasses.replace(tiny, sigma2=tiny.sigma2 * 1e10), beta * 1e10)):
        out.append(run_trial(scen, run, method, prepare(scen, run, b), 13, 0, 1.0).nmse)
    assert out[0] == pytest.approx(out[1], rel=1e-8)


# ---------------------------------------------------------------- run_sweep


def test_run_sweep_uses_config_defaults(toy_exp):
    recs = run_sweep(with_overrides(toy_exp, method="po"))
    assert len(recs) == 1
    assert recs[0].axis == "epsilon"
    assert recs[0].trials == 3


def test_run_sweep_rejects_empty_values(toy_exp):
    exp = with_overrides(toy_exp, method="po", values=())
    with pytest.raises(ConfigError, match="at least one"):
        run_sweep(exp)


def test_run_sweep_unknown_method(toy_exp):
    with pytest.raises(ConfigError):
        run_sweep(with_overrides(toy_exp, method="ridge"))


def test_run_sweep_shares_one_draw(toy_exp):
    """Every sweep point draws the same geometry, so the non-private
    methods give the same numbers at every epsilon, and run_sweep writes
    its one point's record at each of them."""
    for method in ("npfw", "npsvd", "po"):
        a, b = (run_point(toy_exp, method, "epsilon", eps, 3, 5) for eps in (0.5, 5.0))
        assert (a.nmse, a.ser, a.extras) == (b.nmse, b.ser, b.extras)
        recs = run_sweep(with_overrides(toy_exp, method=method, values=(0.5, 5.0), seed=5))
        assert [r.axis_value for r in recs] == [0.5, 5.0]
        for rec in recs:
            assert (rec.nmse, rec.ser, rec.trials, rec.failures) == (a.nmse, a.ser, a.trials, a.failures)


@pytest.mark.parametrize("trials", [0, -1])
def test_no_trials_is_a_config_error(toy_exp, trials):
    """A trial count below 1 is rejected, never replaced by the config's or
    reported as if every trial had failed."""
    with pytest.raises(ConfigError, match="trials must be an integer >= 1"):
        run_sweep(with_overrides(toy_exp, method="po", trials=trials))
    with pytest.raises(ConfigError, match="trials must be an integer >= 1"):
        cross_validate(with_overrides(toy_exp, method="fw", trials=trials), "fw_iters", [2, 4])


# ---------------------------------------------------------------- crossval


def test_cross_validate_prefers_longer_runs(full_obs):
    exp = ExperimentConfig(
        scenario=full_obs, run=RunConfig(eps=1e9, trials=2, method="fw")
    )
    best, scores = cross_validate(exp, "fw_iters", [1, 40])
    assert best == 40
    assert dict(scores)[40] < dict(scores)[1]


def test_cross_validate_single_point(full_obs):
    exp = ExperimentConfig(scenario=full_obs, run=RunConfig(trials=1, method="npfw"))
    best, scores = cross_validate(exp, "nuc_bound", [0.7])
    assert best == 0.7
    assert len(scores) == 1


def test_cross_validate_names_the_grid_when_every_trial_fails(toy_exp, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateStepError("lifted top value is exactly zero")

    monkeypatch.setattr(harness, "run_trial", degenerate)
    with pytest.raises(PrivCellError, match=r"every fw_iters value in \[2, 4\]"):
        cross_validate(with_overrides(toy_exp, method="fw", trials=2), "fw_iters", [2, 4])


def test_cross_validate_validation(toy_exp):
    with pytest.raises(ConfigError):
        cross_validate(with_overrides(toy_exp, method="fw", trials=1), "delta", [0.1])
    # a knob the method never reads would score every grid value the same
    for method, param in (("npfw", "fw_iters"), ("svd", "nuc_bound"), ("po", "nuc_bound")):
        with pytest.raises(ConfigError, match="does not read"):
            cross_validate(with_overrides(toy_exp, method=method, trials=1), param, [1.0, 2.0])
    with pytest.raises(ArgumentError):
        cross_validate(with_overrides(toy_exp, method="fw", trials=1), "fw_iters", [])


# ---------------------------------------------------------------- CSV


def test_csv_round_trip(toy_exp, tmp_path):
    recs = run_sweep(with_overrides(toy_exp, method="po"))
    path = tmp_path / "out.csv"
    emit_csv(recs, path)
    rows = read_csv(path)
    assert len(rows) == 1
    assert rows[0]["method"] == "po"
    assert rows[0]["nmse"] == pytest.approx(recs[0].nmse)
    assert rows[0]["seed"] == toy_exp.scenario.seed


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ArgumentError):
        emit_csv([], tmp_path / "x.csv")


def test_read_csv_rejects_foreign_file(tmp_path):
    p = tmp_path / "foreign.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_csv(p)
