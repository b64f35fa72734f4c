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
    lifted,
    nmse,
    pilot_only_factors,
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
from privcell.privacy import pack_hermitian
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
                ds.append(lifted(*pilot_only_factors(
                    h_hats[m], block.Y[m], block.omega[m], prep.sigma2, tp, scen.N_r
                )))
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


# ---------------------------------------------------------------- detection in two stages


def spy(fn, calls):
    """fn, appending (args, result) of each call to calls."""
    def wrapped(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]
    return wrapped


def traced(fn, log):
    """fn, appending (its name, the leading AP shape of its first argument, outcome) to log in the
    order the calls start: a solve's outcome is (h is not None, small is not None), so (False,
    False) is a stack left unsolved, and detect_local's is None.  No array is held, so a traced
    trial's memory peak is its own."""
    def wrapped(*args, **kwargs):
        log.append(None)
        at = len(log) - 1
        out = fn(*args, **kwargs)
        outcome = tuple(part is not None for part in out) if isinstance(out, tuple) else None
        log[at] = (fn.__name__, np.shape(args[0])[:-2], outcome)
        return out
    return wrapped


def fallback(lead, aps, bad=1):
    """The log of a solve of a stack of leading shape lead that an ill-conditioned AP bad leaves
    unsolved: detect_local on the stack, whose own solve fails too, then on each AP of aps as a
    2-D call, whose solve lifts (wide H) except AP bad's pinv."""
    return [("detect_factors", lead, (False, False)), ("detect_local", lead, None),
            ("detect_factors", lead, (False, False))] + [
        e for m in aps for e in (("detect_local", (), None), ("detect_factors", (), (m != bad, True)))
    ]


def ill_conditioned_ap(estimate, bad=1):
    """estimate, with AP bad's channel estimate given singular values 1 and 1e-6, so its Gram
    has ||G||_F ||G^-1||_F near 1e12 and fails detect_factors' certificate."""
    def faulty(*args):
        h = estimate(*args)
        u, _, vh = np.linalg.svd(h[bad], full_matrices=False)
        h[bad] = (u * np.r_[1.0, [1e-6] * (len(vh) - 1)]) @ vh
        return h
    return faulty


def detect_in_two_stages(scen, run, method, budget, monkeypatch, fault=False):
    """One trial of scen, every AP's LocalDetection payload, the soft output, NMSE and SER checked
    byte for byte against one whole-stack detector call on the trial's channel estimate and its
    np.mean; the payloads must go out from ap0 to ap{M-1} in order.  budget, if given, replaces
    _DETECT_BYTES; fault makes AP 1's channel estimate ill conditioned.  Returns the `traced` log
    of the solver's and detect_local's calls and the sizes of the LOCAL_DETECTION sends."""
    prep = prepare(scen, run, draw_beta(scen, scen.seed))
    if budget is not None:
        monkeypatch.setattr(harness, "_DETECT_BYTES", budget)
    po = method == "po"
    estimator = "pilot_only_ls" if po else "estimate_channel"
    if fault:
        monkeypatch.setattr(harness.estimation, estimator, ill_conditioned_ap(getattr(harness.estimation, estimator)))
    completions, estimates, log, softs, sends = [], [], [], [], []
    monkeypatch.setattr(harness, "run_svd", spy(harness.run_svd, completions))
    monkeypatch.setattr(harness.estimation, estimator, spy(getattr(harness.estimation, estimator), estimates))
    for name in ("pilot_only_factors" if po else "detect_factors", "detect_local"):
        monkeypatch.setattr(harness.estimation, name, traced(getattr(harness.estimation, name), log))
    monkeypatch.setattr(harness.estimation, "slice_qpsk", spy(slice_qpsk, softs))
    net = RecordingBackhaul()
    net.send_aps = spy(net.send_aps, sends)
    res = run_trial(scen, run, method, prep, scen.seed, 0, 1.0, net=net)
    log = list(log)  # run_trial's, before the reference call below adds its own

    block = make_block(scen, prep.beta, prep.pilots, scen.seed, 0, sigma2=prep.sigma2)
    (_, h_hat), = estimates
    tp = scen.tau_p
    x_hat = None if po else completions[0][1].x_hat
    want_h = pilot_only_ls(block.Y, prep.pilots) if po else estimate_channel(x_hat[..., :tp], prep.pilot_pinv)
    assert fault or h_hat.tobytes() == want_h.tobytes()
    if po:
        d = lifted(*pilot_only_factors(h_hat, block.Y, block.omega, prep.sigma2, tp, scen.N_r))
    else:
        d = detect_local(h_hat, x_hat[..., tp:])
    soft = np.mean(d, axis=0)
    ((got,), _), = softs
    assert got.tobytes() == soft.tobytes()
    assert res.nmse == nmse(h_hat, block.H)
    assert res.ser == ser(slice_qpsk(soft), block.D)
    sent = [(msg.sender, p) for msg, p in zip(net.transcript, net.payloads)
            if msg.kind is MessageKind.LOCAL_DETECTION]
    assert [sender for sender, _ in sent] == [ap_name(m) for m in range(scen.M)]
    for (_, got_m), want_m in zip(sent, d):
        assert got_m.tobytes() == want_m.tobytes()
    return log, [len(args[3]) for args, _ in sends if args[0] is MessageKind.LOCAL_DETECTION]


@pytest.mark.parametrize("method", ["po", "npsvd"])
@pytest.mark.parametrize("n_aps, budget", [(1, None), (5, None), (100, None), (5, 1)])
def test_chunked_detection_matches_the_whole_stack(method, n_aps, budget, monkeypatch):
    """At the m100_k25 shape, detection in two stages gives the whole-stack payloads, soft output,
    NMSE and SER bit for bit.  The solve takes every AP in one call, and the lift chunks hold 17
    APs.  Cases: M = 1; M below one chunk; M = 100, not a multiple of the chunk; and one AP per
    solve and per lift chunk."""
    exp = load_experiment(M100_K25)
    scen = dataclasses.replace(exp.scenario, M=n_aps)
    log, sends = detect_in_two_stages(scen, exp.run, method, budget, monkeypatch)
    solver = "pilot_only_factors" if method == "po" else "detect_factors"
    # every solve lifts (po's push-through, detect_factors' wide branch) and none is left unsolved,
    # so detect_local never runs, at M = 100 a normal m100_k25 trial
    if budget == 1:
        assert log == [(solver, (1,), (True, True))] * n_aps
        assert sends == [1] * n_aps
    else:
        assert log == [(solver, (n_aps,), (True, True))]
        assert sends == ([17] * 5 + [15] if n_aps == 100 else [n_aps])


BRANCHES = {  # name: (method, changes to a 5-AP scenario with K = 4, N_a = 4, N_r = 2, fault)
    "po-push-through": ("po", {}, False),  # N_r < K
    "po-kxk": ("po", {"K": 2, "tau_p": 2}, False),  # N_r >= K
    "po-noiseless": ("po", {"sigma2": 0.0}, False),
    "wide": ("npsvd", {"K": 6, "tau_p": 6}, False),  # N_a <= K
    "tall": ("npsvd", {"K": 2, "tau_p": 2}, False),  # N_a > K
    "pinv-fallback": ("npsvd", {"K": 6, "tau_p": 6}, True),  # AP 1's Gram fails the certificate
}


@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "one-ap-chunks"])
@pytest.mark.parametrize("branch", list(BRANCHES))
def test_two_stage_detection_matches_the_whole_stack_on_every_branch(branch, budget, monkeypatch):
    """Every branch of both detectors, solved and lifted in two stages, gives the whole-stack
    detector call's payloads, soft output, NMSE and SER byte for byte, in one chunk and in one-AP
    chunks.  Branches that form the (K, tau_d) detection in their solve (po's K x K and noiseless
    ones, detect_local's tall one, and an ill-conditioned AP's pinv) return it with no lift; po's
    push-through and detect_local's wide branch return H_hat, whose conjugate transpose lifts their
    small factor.  A solve left unsolved by an ill-conditioned AP, and only that, sends its chunk
    to detect_local, which splits it down to 2-D APs."""
    method, changes, fault = BRANCHES[branch]
    scen = dataclasses.replace(
        Scenario(M=5, K=4, N_a=4, N_r=2, tau_p=4, tau_d=6, R_km=0.5, seed=7), **changes
    )
    log, sends = detect_in_two_stages(scen, RunConfig(), method, budget, monkeypatch, fault)
    solver = "pilot_only_factors" if method == "po" else "detect_factors"
    lifts = branch in ("po-push-through", "wide")
    if not fault:
        assert (log, sends) == (
            ([(solver, (1,), (lifts, True))] * scen.M, [1] * scen.M) if budget == 1
            else ([(solver, (scen.M,), (lifts, True))], [scen.M])
        )
    elif budget == 1:  # AP 1's one-AP stack alone is left unsolved
        want = [
            e for m in range(scen.M)
                for e in (fallback((1,), [1]) if m == 1 else [(solver, (1,), (True, True))])
        ]
        assert (log, sends) == (want, [1] * scen.M)
    else:  # the 5-AP solve and lift chunk
        assert (log, sends) == (fallback((scen.M,), range(scen.M)), [scen.M])


def test_m100_k25_ill_conditioned_ap_keeps_detection_in_budget(monkeypatch):
    """At m100_k25, npsvd with AP 1's Gram ill conditioned: the 100-AP solve is left unsolved, so
    each 17-AP lift chunk is detected by detect_local, which splits the chunk holding AP 1 down to
    2-D APs, and the trial's traced peak stays within 4 MB; detecting all 100 APs in full on that
    path peaked at 8.0 MB."""
    exp = load_experiment(M100_K25)
    scen = exp.scenario
    prep = prepare(scen, exp.run, draw_beta(scen, scen.seed))
    monkeypatch.setattr(harness.estimation, "estimate_channel", ill_conditioned_ap(estimate_channel))
    log = []
    for name in ("detect_factors", "detect_local"):
        monkeypatch.setattr(harness.estimation, name, traced(getattr(harness.estimation, name), log))
    run_trial(scen, exp.run, "npsvd", prep, scen.seed, 0, 1.0)  # first-call set-up outside the count
    net, sends = Backhaul(), []
    send = net.send_aps
    net.send_aps = lambda kind, first, r, payloads: sends.append(len(payloads)) or send(kind, first, r, payloads)
    log.clear()
    tracemalloc.start()
    try:
        run_trial(scen, exp.run, "npsvd", prep, scen.seed, 1, 1.0, net=net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sends == [scen.M] + [17] * 5 + [15]  # the Gram release, then the detections
    assert log == [("detect_factors", (scen.M,), (False, False))] + fallback((17,), range(17))[1:] + [
        e for n in [17] * 4 + [15] for e in (("detect_local", (n,), None), ("detect_factors", (n,), (True, True)))
    ]
    assert peak <= 4e6


@pytest.mark.parametrize("method", ["svd", "npsvd", "po"])
def test_m100_k25_trial_peaks_at_most_4_mb(method, monkeypatch):
    """Detection in AP chunks keeps one full-scale trial's traced peak within 4 MB, a
    miss's block draw and (svd, npsvd) its held Gram included; detecting the whole
    (M, ·, ·) stack at once peaked at 4.9 MB (svd, npsvd) and 16.8 MB (po)."""
    exp = load_experiment(M100_K25)
    scen = exp.scenario
    prep = prepare(scen, exp.run, draw_beta(scen, scen.seed))
    run_trial(scen, exp.run, method, prep, scen.seed, 0, 1.0)  # first-call set-up outside the count
    draws = []
    monkeypatch.setattr(harness, "make_block", lambda *args: draws.append(1) or make_block(*args))
    tracemalloc.start()
    try:
        run_trial(scen, exp.run, method, prep, scen.seed, 1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == [1]  # trial 1 missed the memo, which held trial 0: its block is counted
    assert (held_gram() is not None) == (method != "po")  # and so is a one-shot trial's Gram
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


def test_trial_results_do_not_depend_on_the_held_block(toy_exp):
    """svd, po, svd on one trial, and on neighbouring trials, give each trial's (nmse, ser)
    of a run that started with no block held."""
    sc = toy_exp.scenario
    prepared = prepare(sc, toy_exp.run, draw_beta(sc, 5))

    def trial(method, t):
        res = run_trial(sc, toy_exp.run, method, prepared, 5, t, 1.0)
        return res.nmse, res.ser

    want = {}
    for key in [(m, t) for m in ("svd", "po") for t in (0, 1)]:
        harness._BLOCKS.clear()
        want[key] = trial(*key)
    for key in [("svd", 0), ("po", 0), ("svd", 0), ("svd", 1), ("po", 0), ("svd", 1), ("po", 1), ("svd", 0)]:
        assert trial(*key) == want[key], key


# ---------------------------------------------------------------- the block memo

BLOCK_ARRAYS = ("D", "H", "Y", "omega")


def test_block_memo_hit_returns_the_held_block_without_a_draw(tiny, monkeypatch):
    """Inputs equal by value, held in other objects, hit: the same block comes back and
    make_block is not called again, also through run_trial across methods."""
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    calls = []
    monkeypatch.setattr(harness, "make_block", spy(make_block, calls))
    harness._BLOCKS.clear()
    block, _ = harness._block(tiny, prep, 5, 0)
    twin = dataclasses.replace(prep, beta=prep.beta.copy(), pilots=prep.pilots.copy())
    assert harness._block(dataclasses.replace(tiny), twin, 5, 0)[0] is block
    for method in ("svd", "po", "fw"):
        run_trial(tiny, RunConfig(fw_iters=2), method, prep, 5, 0, 1.0)
    assert len(calls) == 1


KEY_CHANGES = {
    "beta": lambda scen, prep: (scen, dataclasses.replace(
        prep, beta=np.where(np.arange(prep.beta.size).reshape(prep.beta.shape) == 3,
                            np.nextafter(prep.beta, np.inf), prep.beta))),
    "pilots": lambda scen, prep: (scen, dataclasses.replace(prep, pilots=prep.pilots[::-1].copy())),
    "tau_d": lambda scen, prep: (dataclasses.replace(scen, tau_d=scen.tau_d + 1), prep),
    "sigma2": lambda scen, prep: (scen, dataclasses.replace(prep, sigma2=np.nextafter(prep.sigma2, 1.0))),
}


@pytest.mark.parametrize("change", [*KEY_CHANGES, "seed", "trial"])
def test_block_memo_misses_when_any_input_changes(tiny, change):
    """Each key input changed alone draws a new block, byte-identical to a fresh make_block
    of the changed inputs: one beta entry one ulp up, the pilots, tau_d, sigma2 one ulp up,
    the master seed, the trial."""
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    held, _ = harness._block(tiny, prep, 5, 0)
    scen, prep2 = KEY_CHANGES[change](tiny, prep) if change in KEY_CHANGES else (tiny, prep)
    seed, trial = (6, 0) if change == "seed" else (5, 1) if change == "trial" else (5, 0)
    got, _ = harness._block(scen, prep2, seed, trial)
    want = make_block(scen, prep2.beta, prep2.pilots, seed, trial, prep2.sigma2)
    assert got is not held
    for name in BLOCK_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("name", BLOCK_ARRAYS)
def test_held_block_is_read_only(tiny, name):
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    a = getattr(harness._block(tiny, prep, 5, 0)[0], name)
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_a_raising_draw_leaves_no_block_held(tiny, monkeypatch):
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    harness._block(tiny, prep, 5, 0)

    def broken(*args):
        raise ArgumentError("draw failed")

    monkeypatch.setattr(harness, "make_block", broken)
    with pytest.raises(ArgumentError):
        harness._block(tiny, prep, 5, 1)
    assert harness._BLOCKS == {}
    with pytest.raises(ArgumentError):  # trial 0's block went with the miss
        harness._block(tiny, prep, 5, 0)


# ---------------------------------------------------------------- the held Gram

DESK_EPS = (0.1, 0.5, 1.0, 5.0, 10.0)


def held_gram():
    """The Gram the memo holds beside its block: None if none is formed or nothing is held."""
    return next(iter(harness._BLOCKS.values()))[1] if harness._BLOCKS else None


@pytest.mark.parametrize(
    "methods, per_block",
    [(("svd", "npsvd"), 1), (tuple(METHODS), 1), (("fw", "npfw", "po"), 0)],
    ids=["one-shot", "all", "no-one-shot"],
)
def test_one_gram_per_block_for_every_one_shot_round(toy_exp, methods, per_block, monkeypatch):
    """A spy on the memo's stacked_gram: an epsilon sweep over the five desk values forms one
    Gram per trial's block for svd at every epsilon and npsvd together, none for fw, npfw or po."""
    grams = []
    monkeypatch.setattr(harness, "stacked_gram", spy(harness.stacked_gram, grams))
    harness._BLOCKS.clear()
    run_sweep(with_overrides(toy_exp, values=DESK_EPS, np_fw_iters=5), methods)
    assert len(grams) == per_block * toy_exp.run.trials
    assert all(args[0].flags.writeable is False for args, _ in grams)  # formed from the held block's Y


def test_held_gram_is_read_only_and_the_blocks_packed_gram(tiny):
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    harness._BLOCKS.clear()
    block, gram = harness._block(tiny, prep, 5, 0)
    assert gram is None  # no one-shot call asked for it yet
    got_block, gram = harness._block(tiny, prep, 5, 0, gram=True)
    assert got_block is block and harness._block(tiny, prep, 5, 0, gram=True)[1] is gram
    j = make_block(tiny, prep.beta, prep.pilots, 5, 0, prep.sigma2).Y.reshape(-1, tiny.tau_c)
    want = pack_hermitian(j.conj().T @ j)
    assert (gram.dtype, gram.shape, gram.tobytes()) == (want.dtype, want.shape, want.tobytes())
    with pytest.raises(ValueError, match="read-only"):
        gram[0] = gram[0]


def test_a_miss_or_a_raising_draw_holds_no_gram(tiny, monkeypatch):
    prep = prepare(tiny, RunConfig(), draw_beta(tiny, 5))
    harness._block(tiny, prep, 5, 0, gram=True)
    assert held_gram() is not None
    assert harness._block(tiny, prep, 5, 1)[1] is None  # trial 0's Gram went with its block
    assert held_gram() is None
    harness._block(tiny, prep, 5, 1, gram=True)

    def broken(*args):
        raise ArgumentError("draw failed")

    monkeypatch.setattr(harness, "make_block", broken)
    with pytest.raises(ArgumentError):
        harness._block(tiny, prep, 5, 2, gram=True)
    assert harness._BLOCKS == {} and held_gram() is None


def test_one_shot_trials_on_the_held_gram_equal_fresh_rounds(tiny, monkeypatch):
    """svd at each desk epsilon and then npsvd, run in turn on one held block and Gram, give the
    NMSE, SER, x_hat, transcript, payloads and byte counts of trials that each draw a fresh
    block and form their own Gram inside run_svd."""
    run = RunConfig()
    prep = prepare(tiny, run, draw_beta(tiny, 5))
    real = harness.run_svd

    def trial(method, eps, memo):
        completed, net = [], RecordingBackhaul()

        def complete(y, omega, cfg, seed, net, gram):
            completed.append(real(y, omega, cfg, seed, net=net, gram=gram if memo else None))
            return completed[-1]

        monkeypatch.setattr(harness, "run_svd", complete)
        if not memo:
            harness._BLOCKS.clear()
        res = run_trial(tiny, run, method, prep, 5, 0, eps, net=net)
        return res, completed[0].x_hat, net

    cases = [*(("svd", eps) for eps in DESK_EPS), ("npsvd", 1.0)]
    want = [trial(method, eps, memo=False) for method, eps in cases]
    harness._BLOCKS.clear()
    got = [trial(method, eps, memo=True) for method, eps in cases]
    for case, (res, x_hat, net), (res0, x_hat0, net0) in zip(cases, got, want):
        assert np.float64([res.nmse, res.ser]).tobytes() == np.float64([res0.nmse, res0.ser]).tobytes(), case
        assert x_hat.tobytes() == x_hat0.tobytes(), case
        assert net.transcript == net0.transcript, case
        assert [np.asarray(p).tobytes() for p in net.payloads] == [np.asarray(p).tobytes() for p in net0.payloads]
        assert (net.ledger.total_unicast_bytes, net.ledger.broadcast_bytes) == (
            net0.ledger.total_unicast_bytes, net0.ledger.broadcast_bytes)
    assert len({np.float64(res.nmse).tobytes() for res, _, _ in got[:5]}) > 1  # epsilon moved the svd rounds


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

    def poisoned(net, n, gram, n_aps, scale, seed, kind, cpu, tail=()):
        return real(net, n, gram, n_aps, scale, seed, kind, lambda w: cpu(w * np.nan if n == 2 else w), tail)

    monkeypatch.setattr(fw, "gram_round", poisoned)
    with caplog.at_level("WARNING", logger="privcell.harness"):
        rec = run_point(toy_exp, "npfw", "epsilon", 1.0, 3, 11)
    assert (rec.trials, rec.failures) == (0, 3)
    assert np.isnan(rec.nmse)
    assert caplog.text.count("LinAlgError") == 3


@pytest.mark.parametrize("method, target", [("npsvd", "detect_factors"), ("po", "pilot_only_ls")])
def test_run_point_counts_non_finite_detections_as_failures(method, target, monkeypatch):
    """A NaN soft detection fails its trial instead of slicing to -1-1j: desk at 3 trials.
    po's NaN channel estimate already fails in the detector's Cholesky."""
    exp = load_experiment(Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")
    real = getattr(harness.estimation, target)

    def poisoned(*args):
        out = real(*args)
        return (out[0], out[1] * np.nan) if isinstance(out, tuple) else out * np.nan

    monkeypatch.setattr(harness.estimation, target, poisoned)
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


def point_major(exp, methods):
    """Reference: each method's sweep point by point, every point through run_point."""
    run = exp.run
    return [run_point(exp, m, run.sweep, v, run.trials, exp.scenario.seed) for m in methods for v in run.values]


def assert_same_records(got, want):
    """Equal in every CSV column but seconds, and in each trial's (nmse, ser)."""
    assert [r.row()[:-1] for r in got] == [r.row()[:-1] for r in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.trial_nmse, b.trial_nmse)
        np.testing.assert_array_equal(a.trial_ser, b.trial_ser)
        assert a.extras == b.extras


SWEEPS = {"epsilon": ((0.5, 5.0), tuple(METHODS)), "tau_d": ((4.0, 9.0), ("fw", "svd", "po"))}


@pytest.mark.parametrize("axis", list(SWEEPS))
def test_trial_major_sweep_equals_point_major_runs(toy_exp, axis, monkeypatch):
    """run_sweep over several methods gives each method's point-by-point records, in method
    order, and draws one block per trial (per trial and tau_d on a tau_d sweep)."""
    values, methods = SWEEPS[axis]
    exp = with_overrides(toy_exp, sweep=axis, values=values, np_fw_iters=20)
    calls = []
    monkeypatch.setattr(harness, "make_block", spy(make_block, calls))
    harness._BLOCKS.clear()
    got = run_sweep(exp, methods)
    assert len(calls) == exp.run.trials * (len(values) if axis == "tau_d" else 1)
    assert_same_records(got, point_major(exp, methods))
    assert [(r.method, r.axis_value) for r in got] == [(m, v) for m in methods for v in values]


def test_trial_major_sweep_counts_a_failure_at_its_own_point(toy_exp, monkeypatch):
    """One trial raising at one (method, epsilon) is that point's failure alone."""
    real = harness.run_trial

    def flaky(scenario, run, method, prepared, master_seed, trial, eps, net=None):
        if (method, trial, eps) == ("svd", 1, 5.0):
            raise PrivCellError("synthetic failure")
        return real(scenario, run, method, prepared, master_seed, trial, eps, net)

    monkeypatch.setattr(harness, "run_trial", flaky)
    exp = with_overrides(toy_exp, values=(0.5, 5.0))
    got = run_sweep(exp, ("svd", "po", "fw"))
    assert [(r.method, r.axis_value, r.failures) for r in got if r.failures] == [("svd", 5.0, 1)]
    svd = got[1]
    assert np.isnan(svd.trial_nmse[1]) and np.isnan(svd.trial_ser[1]) and svd.trials == 2
    assert_same_records(got, point_major(exp, ("svd", "po", "fw")))


def test_trial_major_sweep_propagates_a_config_error(toy_exp, monkeypatch):
    real = harness.run_trial

    def refusing(scenario, run, method, *args, **kwargs):
        if method == "po":
            raise ConfigError("no trial can honour this")
        return real(scenario, run, method, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", refusing)
    with pytest.raises(ConfigError, match="no trial can honour"):
        run_sweep(with_overrides(toy_exp, values=(0.5, 5.0)), ("svd", "po"))


def test_paired_steps_over_the_trials_both_points_completed():
    """Mean later-minus-earlier difference, its standard error and the rising count, with a
    trial failed at either point left out."""
    def rec(nmse):
        nmse = np.array(nmse)
        return harness.MetricsRecord("svd", "epsilon", 1.0, 0.0, 0.0, 4, 0, 1, 0.0, None, nmse, nmse / 2)

    a, b = rec([1.0, 2.0, np.nan, 4.0, 5.0]), rec([1.5, 2.0, 3.0, 5.0, np.nan])
    d = np.array([0.5, 0.0, 1.0])
    assert harness.paired(a, b) == (d.mean(), d.std(ddof=1) / np.sqrt(3), 2, 3)
    assert harness.paired(a, rec([np.nan] * 5))[3] == 0


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
