import numpy as np
import pytest

from oracles import centralized_svd
from support import RecordingBackhaul, kind_count, unpack_hermitian
from privcell.errors import ArgumentError, ShapeError
from privcell.privacy import Calibration, pack_hermitian, stacked_gram
from privcell.protocol import Backhaul, MessageKind
from privcell.svdmc import SvdConfig, ap_complete, cpu_topk, run_svd


def low_rank(seed, rows, tau_c, rank):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    b = rng.standard_normal((rank, tau_c)) + 1j * rng.standard_normal((rank, tau_c))
    return a @ b


def stacks(a, n_aps):
    """A (rows, tau_c) matrix as the (M, rows / M, tau_c) stack of its AP blocks."""
    return a.reshape(n_aps, -1, a.shape[-1])


def noiseless(bound=1.0):
    return Calibration(bound, 1, 0.0)


def test_config_validation():
    with pytest.raises(ArgumentError):
        SvdConfig(0, noiseless(), 1.0)
    with pytest.raises(ArgumentError):
        SvdConfig(2, Calibration(1.0, 1, -1.0), 1.0)
    for upsample in (0.0, -1.0, float("nan")):
        with pytest.raises(ArgumentError):
            SvdConfig(2, noiseless(), upsample)


def test_release_gram_hand_value():
    """The one-shot round releases the Gram of the block."""
    j = np.array([[1.0, 1.0j, 0.0], [2.0, 0.0, 0.0]])
    net = RecordingBackhaul()
    run_svd(j[None], j[None] != 0, SvdConfig(1, noiseless(), 1.0), 0, net=net)
    want = np.array([[5.0, 1.0j, 0.0], [-1.0j, 1.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(unpack_hermitian(net.payloads[0]), want, atol=1e-14)


def test_topk_projects_onto_row_space():
    y = low_rank(2, rows=10, tau_c=8, rank=3)
    basis = cpu_topk(pack_hermitian(y.conj().T @ y), 3)
    np.testing.assert_allclose(
        basis.conj().T @ basis, np.eye(3), atol=1e-10
    )
    proj = basis @ basis.conj().T
    # projector onto the row space: reapplying it to y changes nothing
    np.testing.assert_allclose(y @ proj, y, atol=1e-8)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
    assert np.allclose(proj, proj.conj().T, atol=1e-12)


def test_topk_complete_basis_is_identity(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    basis = cpu_topk(pack_hermitian(a @ a.conj().T), 5)
    np.testing.assert_allclose(basis @ basis.conj().T, np.eye(5), atol=1e-10)


def test_complete_block():
    y = low_rank(3, rows=4, tau_c=6, rank=2)
    basis = cpu_topk(pack_hermitian(y.conj().T @ y), 2)
    out = ap_complete(y, basis, 1.0)
    np.testing.assert_allclose(out, y, atol=1e-8)
    np.testing.assert_allclose(ap_complete(y, basis, 2.0), 2.0 * out, rtol=1e-12)
    # basis orthogonal to the rows kills the block
    ortho = cpu_topk(pack_hermitian(y.conj().T @ y), 6)[:, 2:]
    assert np.linalg.norm(ap_complete(y, ortho, 1.0)) <= 1e-8
    with pytest.raises(ShapeError):
        ap_complete(y, basis[:4], 1.0)


def test_run_matches_centralized_oracle():
    rng = np.random.default_rng(7)
    y = low_rank(8, rows=12, tau_c=10, rank=3)
    y = np.where(rng.random(y.shape) < 0.6, y, 0.0)
    omega = y != 0
    cfg = SvdConfig(rank=3, calibration=noiseless(), upsample=2.0)
    res = run_svd(stacks(y, 4), stacks(omega, 4), cfg, 0)
    want = centralized_svd(y, 3, 2.0)
    assert np.linalg.norm(res.x_hat.reshape(want.shape) - want) <= 1e-9 * max(np.linalg.norm(want), 1.0)


def test_run_transcript_counts():
    y = stacks(low_rank(9, rows=8, tau_c=6, rank=2), 4)
    omega = np.ones(y.shape, dtype=bool)
    net = Backhaul()
    res = run_svd(y, omega, SvdConfig(2, Calibration(1.0, 1, 0.4), 1.0), 5, net=net)
    assert res.rounds == 1
    assert res.clip_events == 0
    assert kind_count(net.transcript, MessageKind.GRAM_RELEASE) == 4
    assert kind_count(net.transcript, MessageKind.BASIS_BROADCAST) == 1
    senders = {m.sender for m in net.transcript if m.kind is MessageKind.GRAM_RELEASE}
    assert senders == {"ap0", "ap1", "ap2", "ap3"}


def test_run_deterministic():
    y = stacks(low_rank(10, rows=6, tau_c=5, rank=2), 2)
    omega = np.ones(y.shape, dtype=bool)
    cfg = SvdConfig(2, Calibration(1.0, 1, 0.8), 1.0)
    a = run_svd(y, omega, cfg, 42)
    b = run_svd(y, omega, cfg, 42)
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    c = run_svd(y, omega, cfg, 43)
    assert not np.array_equal(a.x_hat, c.x_hat)


def test_run_argument_checks():
    y = stacks(low_rank(10, rows=6, tau_c=5, rank=2), 2)
    omega = np.ones(y.shape, dtype=bool)
    cfg = SvdConfig(2, noiseless(), 1.0)
    with pytest.raises(ArgumentError):
        run_svd(y, omega, SvdConfig(2, noiseless(), 0.0), 0)
    with pytest.raises(ShapeError):
        run_svd(y, omega[..., :4], cfg, 0)
    with pytest.raises(ShapeError):
        run_svd(y.reshape(6, 5), omega.reshape(6, 5), cfg, 0)  # one matrix, not a stack of AP blocks


@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_run_on_a_given_gram_equals_forming_it(sigma):
    """A given `stacked_gram(y)` gives the x_hat, transcript and payloads of a run that forms its own,
    and the Gram is left as it was."""
    y = stacks(low_rank(11, rows=6, tau_c=5, rank=2), 3)
    omega = np.ones(y.shape, dtype=bool)
    cfg = SvdConfig(2, Calibration(1.0, 1, sigma), 1.5)
    gram = stacked_gram(y)
    kept = gram.tobytes()
    gram.flags.writeable = False
    runs = []
    for given in (None, gram):
        net = RecordingBackhaul()
        runs.append((run_svd(y, omega, cfg, 42, net=net, gram=given), net))
    (want, want_net), (got, got_net) = runs
    assert got.x_hat.tobytes() == want.x_hat.tobytes()
    assert got_net.transcript == want_net.transcript
    assert [np.asarray(p).tobytes() for p in got_net.payloads] == [np.asarray(p).tobytes() for p in want_net.payloads]
    assert gram.tobytes() == kept


def test_run_rejects_a_gram_of_the_wrong_length():
    """A Gram that is not tau_c^2 packed entries is a ShapeError before any message is sent."""
    y = stacks(low_rank(10, rows=6, tau_c=5, rank=2), 2)
    omega = np.ones(y.shape, dtype=bool)
    net = Backhaul()
    for bad in (np.zeros(24), np.zeros(26), np.zeros((5, 5)), stacked_gram(y[..., :4])):
        with pytest.raises(ShapeError, match="tau_c"):
            run_svd(y, omega, SvdConfig(2, noiseless(), 1.0), 0, net=net, gram=bad)
    assert net.transcript == []
