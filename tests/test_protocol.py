import json

import numpy as np
import pytest

from support import kind_count
from privcell.errors import ProtocolError
from privcell.privacy import pack_hermitian
from privcell.protocol import (
    ALL_APS,
    AP_TO_CPU,
    BYTES_COMPLEX,
    BYTES_REAL,
    CPU,
    CPU_TO_AP,
    Backhaul,
    Message,
    MessageKind,
    ap_name,
    audit_privacy_surface,
    dump_transcript,
    is_ap,
    is_packed_hermitian,
    payload_nbytes,
)


def hermitian(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def packed(n, seed=0):
    """A Gram release as it goes on the wire: the packed form of hermitian(n)."""
    return pack_hermitian(hermitian(n, seed))


def test_names():
    assert ap_name(3) == "ap3"
    assert is_ap("ap0") and is_ap("ap17")
    assert not is_ap("cpu") and not is_ap("apx") and not is_ap(3)


# one payload of each kind, of the form the protocol sends it in
PAYLOADS = {
    MessageKind.GRAM_RELEASE: packed(4),
    MessageKind.EIG_BROADCAST: (np.ones(4, dtype=complex), 2.0),
    MessageKind.BASIS_BROADCAST: np.zeros((4, 2), dtype=complex),
    MessageKind.LOCAL_DETECTION: np.zeros((2, 6), dtype=complex),
}


def _send_one(net, verb, kind):
    """The messages one call of a verb records for PAYLOADS[kind] in round 1, AP 0 sending."""
    if verb == "broadcast":
        return [net.broadcast(kind, 1, PAYLOADS[kind])]
    return net.send_aps(kind, 0, 1, [PAYLOADS[kind]])


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize(
    "verb, allowed, sender, receiver",
    [("broadcast", CPU_TO_AP, CPU, ALL_APS), ("send_aps", AP_TO_CPU, ap_name(0), CPU)],
    ids=["broadcast", "send_aps"],
)
def test_direction_rules(verb, allowed, sender, receiver, kind):
    """broadcast takes the CPU's kinds and send_aps the APs'; a refusal records nothing."""
    assert AP_TO_CPU | CPU_TO_AP == set(MessageKind) and not AP_TO_CPU & CPU_TO_AP
    net = Backhaul()
    if kind not in allowed:
        with pytest.raises(ProtocolError, match="not allowed"):
            _send_one(net, verb, kind)
        assert net.transcript == []
        assert net.ledger == Backhaul().ledger
        return
    (msg,) = _send_one(net, verb, kind)
    assert net.transcript == [msg]
    assert (msg.kind, msg.sender, msg.receiver, msg.round_index) == (kind, sender, receiver, 1)
    assert msg.nbytes == payload_nbytes(kind, PAYLOADS[kind]) > 0
    assert net.ledger.total_unicast_bytes + net.ledger.broadcast_bytes == msg.nbytes


def test_payload_byte_counts():
    tau_c, k = 10, 3
    assert payload_nbytes(
        MessageKind.GRAM_RELEASE, np.zeros(tau_c * tau_c)
    ) == tau_c * tau_c * BYTES_REAL
    assert payload_nbytes(
        MessageKind.GRAM_RELEASE, np.zeros((tau_c, tau_c), dtype=complex)
    ) == tau_c * tau_c * BYTES_COMPLEX
    assert payload_nbytes(
        MessageKind.EIG_BROADCAST, (np.zeros(tau_c, dtype=complex), 1.0)
    ) == tau_c * BYTES_COMPLEX + BYTES_REAL
    assert payload_nbytes(
        MessageKind.BASIS_BROADCAST, np.zeros((tau_c, k), dtype=complex)
    ) == tau_c * k * BYTES_COMPLEX
    assert payload_nbytes(
        MessageKind.LOCAL_DETECTION, np.zeros((k, 7), dtype=complex)
    ) == k * 7 * BYTES_COMPLEX


def test_broadcast_byte_ratio():
    """T eigenpair broadcasts vs one basis broadcast: T(16 tau_c + 8)
    against K * 16 tau_c bytes."""
    tau_c, k, t = 60, 4, 8
    net = Backhaul()
    for n in range(1, t + 1):
        net.broadcast(MessageKind.EIG_BROADCAST, n, (np.zeros(tau_c, dtype=complex), 1.0))
    iterative = net.ledger.broadcast_bytes
    net2 = Backhaul()
    net2.broadcast(MessageKind.BASIS_BROADCAST, 1, np.zeros((tau_c, k), dtype=complex))
    one_shot = net2.ledger.broadcast_bytes
    assert iterative == t * (16 * tau_c + 8)
    assert one_shot == k * 16 * tau_c
    assert iterative / one_shot == pytest.approx((t / k) * (1 + 1 / (2 * tau_c)))


def test_ledger_accounting():
    net = Backhaul()
    for rnd in (1, 2):
        net.send_aps(MessageKind.GRAM_RELEASE, 0, rnd, np.stack([packed(4)] * 3))
        net.broadcast(MessageKind.EIG_BROADCAST, rnd, (np.ones(4, dtype=complex), 1.0))
    led = net.ledger
    assert kind_count(net.transcript, MessageKind.GRAM_RELEASE) == 6
    assert kind_count(net.transcript, MessageKind.EIG_BROADCAST) == 2
    assert sum(m.round_index == 2 for m in net.transcript if m.kind is MessageKind.GRAM_RELEASE) == 3
    assert sum(m.nbytes for m in net.transcript if m.sender == "ap0") == 2 * 16 * 8
    assert led.total_unicast_bytes == 6 * 16 * 8
    assert led.broadcast_bytes == 2 * (4 * 16 + 8)


def test_send_records_metadata_only():
    net = Backhaul()
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(5)])
    net.send_aps(MessageKind.LOCAL_DETECTION, 1, 0, [np.zeros((2, 6), dtype=complex)])
    net.broadcast(MessageKind.BASIS_BROADCAST, 1, np.zeros((5, 2), dtype=complex))
    gram, detection, basis = net.transcript
    assert (gram.shape, gram.hermitian, gram.nbytes) == ((25,), True, 25 * 8)
    assert (detection.shape, detection.hermitian) == ((2, 6), False)
    assert basis == Message(MessageKind.BASIS_BROADCAST, CPU, ALL_APS, 1, 5 * 2 * 16)
    assert not hasattr(gram, "payload")


def test_message_records_are_immutable_and_compare_by_value():
    """A record cannot be edited after it is made, and two records are equal when every field is."""
    net = Backhaul()
    (msg,) = net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(3)])
    with pytest.raises(AttributeError):
        msg.hermitian = False
    with pytest.raises(AttributeError):
        msg.nbytes = 0
    assert net.transcript[0].hermitian is True
    assert msg == Message(MessageKind.GRAM_RELEASE, "ap0", CPU, 1, 9 * 8, (9,), True)
    assert msg != Message(MessageKind.GRAM_RELEASE, "ap0", CPU, 2, 9 * 8, (9,), True)
    other = Backhaul()
    other.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(3, seed=1)])
    assert other.transcript == net.transcript


def test_audit_passes_on_clean_transcript():
    net = Backhaul()
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(5)])
    net.send_aps(MessageKind.LOCAL_DETECTION, 0, 0, [np.zeros((2, 6), dtype=complex)])
    net.broadcast(MessageKind.BASIS_BROADCAST, 1, np.zeros((5, 2), dtype=complex))
    report = audit_privacy_surface(net.transcript, tau_c=5, n_users=2, n_payload=6)
    assert report.ok


def test_audit_flags_injected_raw_signal():
    """A raw observation block sent as a Gram release must be caught."""
    net = Backhaul()
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(5)])
    raw = np.ones((2, 5), dtype=complex)  # antennas x slots, not a Gram
    net.send_aps(MessageKind.GRAM_RELEASE, 1, 1, [raw])
    report = audit_privacy_surface(net.transcript, tau_c=5, n_users=2, n_payload=6)
    assert not report.ok
    assert [i for i, _ in report.failures] == [1]
    assert "square" in report.failures[0][1]


def test_audit_flags_non_hermitian_and_wrong_side():
    """A full complex matrix is not a packed release; a packed one of the
    wrong tau_c is flagged by its side."""
    net = Backhaul()
    skewed = hermitian(5)
    skewed[0, 1] += 1.0  # break the symmetry only
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [skewed])
    net.send_aps(MessageKind.GRAM_RELEASE, 1, 1, [packed(4)])
    report = audit_privacy_surface(net.transcript, tau_c=5, n_users=2, n_payload=6)
    assert not report.ok
    (i_skew, skew_reason), (i_side, side_reason) = report.failures
    assert i_skew == 0 and "Hermitian" in skew_reason
    assert i_side == 1 and "side" in side_reason


@pytest.mark.parametrize(
    "payload, why",
    [
        (hermitian(4), "a full complex matrix, even an exactly Hermitian one"),
        (np.zeros(15), "a real vector whose length is not a square"),
        (np.zeros(16, dtype=complex), "a complex vector of square length"),
        (np.zeros((4, 4)), "a real square matrix"),
        (np.zeros(16, dtype=np.float32), "a vector of the wrong float width"),
        (np.zeros(0), "an empty vector"),
    ],
)
def test_send_records_only_the_packed_form_as_hermitian(payload, why):
    net = Backhaul()
    (msg,) = net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [payload])
    assert not msg.hermitian, why
    assert not is_packed_hermitian(payload)
    report = audit_privacy_surface(net.transcript, tau_c=4, n_users=2, n_payload=6)
    assert [i for i, _ in report.failures] == [0]
    assert "square" in report.failures[0][1]


def test_audit_checks_packed_length_against_tau_c():
    net = Backhaul()
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(4)])
    net.send_aps(MessageKind.GRAM_RELEASE, 1, 1, [packed(5)])
    assert all(msg.hermitian for msg in net.transcript)
    report = audit_privacy_surface(net.transcript, tau_c=4, n_users=2, n_payload=6)
    assert report.failures == [(1, "gram release side 5 != 4")]


def test_audit_flags_wrong_detection_shape():
    net = Backhaul()
    net.send_aps(MessageKind.LOCAL_DETECTION, 0, 0, [np.zeros((3, 6), dtype=complex)])
    ok = audit_privacy_surface(net.transcript, tau_c=5, n_users=3, n_payload=6)
    assert ok.ok
    bad = audit_privacy_surface(net.transcript, tau_c=5, n_users=2, n_payload=6)
    assert not bad.ok
    assert bad.failures == [(0, "detection payload shape (3, 6)")]


def test_audit_flags_hand_built_records():
    """Records that bypass the two verbs: a wrong direction, a wrong kind,
    and a release with no recorded shape or verdict are all flagged."""
    net = Backhaul()
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(3)])
    net.transcript += [
        Message(MessageKind.GRAM_RELEASE, "ap0", "ap1", 1, 9 * 8, (9,), True),
        Message(MessageKind.EIG_BROADCAST, "ap0", CPU, 1, 3 * 16 + 8, (3,)),
        Message(MessageKind.GRAM_RELEASE, "ap2", CPU, 1, 9 * 16),
        Message(MessageKind.LOCAL_DETECTION, CPU, ALL_APS, 0, 16),
    ]
    report = audit_privacy_surface(net.transcript, tau_c=3, n_users=2, n_payload=6)
    assert [i for i, _ in report.failures] == [1, 2, 3, 4]
    reasons = [r for _, r in report.failures]
    assert "AP message to 'ap1'" in reasons[0]
    assert "not allowed from an AP" in reasons[1]
    assert "square" in reasons[2]
    assert "not allowed from the CPU" in reasons[3]


def test_transcript_dump_and_load(tmp_path):
    net = Backhaul()
    net.send_aps(MessageKind.GRAM_RELEASE, 0, 1, [packed(3)])
    net.broadcast(MessageKind.EIG_BROADCAST, 1, (np.ones(3, dtype=complex), 1.0))
    path = tmp_path / "transcript.jsonl"
    dump_transcript(net.transcript, path)
    meta = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(meta) == 2
    assert meta[0] == {
        "round": 1, "sender": "ap0", "receiver": "cpu",
        "kind": "GramRelease", "bytes": 9 * 8,
    }
    assert meta[1]["receiver"] == ALL_APS


# ---------------------------------------------------------------- batched AP sends


def _detections(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2, 6)) + 1j * rng.standard_normal((n, 2, 6))


@pytest.mark.parametrize(
    "kind, stack",
    [
        (MessageKind.GRAM_RELEASE, np.stack([packed(5, seed) for seed in range(3)])),
        (MessageKind.GRAM_RELEASE, np.broadcast_to(packed(5), (4, 25))),  # one sum for every AP
        (MessageKind.GRAM_RELEASE, np.ones((3, 2, 5), dtype=complex)),  # raw blocks: audit fails
        (MessageKind.LOCAL_DETECTION, _detections(3)),
        (MessageKind.LOCAL_DETECTION, np.zeros((2, 3, 6), dtype=complex)),  # wrong shape: audit fails
    ],
)
def test_send_aps_equals_one_send_per_row(kind, stack):
    """One call for a stack leaves the transcript, ledger and audit of one single-row call per row."""
    one_call, per_row = Backhaul(), Backhaul()
    for net in (one_call, per_row):
        net.broadcast(MessageKind.BASIS_BROADCAST, 1, np.zeros((5, 2), dtype=complex))
    msgs = one_call.send_aps(kind, 4, 2, stack)
    for i, payload in enumerate(stack):
        per_row.send_aps(kind, 4 + i, 2, payload[None])
    assert msgs == one_call.transcript[1:]
    assert one_call.transcript == per_row.transcript
    assert [m.sender for m in msgs] == [ap_name(4 + i) for i in range(len(stack))]
    assert one_call.ledger == per_row.ledger
    audits = [audit_privacy_surface(net.transcript, tau_c=5, n_users=2, n_payload=6)
              for net in (one_call, per_row)]
    assert audits[0] == audits[1]


@pytest.mark.parametrize(
    "kind, first_ap, payloads",
    [
        (MessageKind.EIG_BROADCAST, 0, np.stack([packed(4)] * 2)),  # a CPU-only kind
        (MessageKind.BASIS_BROADCAST, 0, np.stack([packed(4)] * 2)),
        (MessageKind.GRAM_RELEASE, -1, np.stack([packed(4)] * 2)),
        (MessageKind.GRAM_RELEASE, 1.0, np.stack([packed(4)] * 2)),
        (MessageKind.GRAM_RELEASE, True, np.stack([packed(4)] * 2)),
        (MessageKind.GRAM_RELEASE, 0, np.zeros((0, 16))),  # an empty stack
        (MessageKind.LOCAL_DETECTION, 0, []),
        (MessageKind.LOCAL_DETECTION, 0, np.float64(1.0)),  # not a stack
        (MessageKind.LOCAL_DETECTION, 0, 2.0),
    ],
)
def test_send_aps_rejects_before_recording(kind, first_ap, payloads):
    net = Backhaul()
    with pytest.raises(ProtocolError):
        net.send_aps(kind, first_ap, 1, payloads)
    assert net.transcript == []
    assert net.ledger == Backhaul().ledger

