"""In-memory AP<->CPU message fabric with a closed communication surface.

The only things an AP may ever put on the wire toward the CPU are
privatised Gram releases and locally detected payload estimates; the CPU
talks back only through eigenpair or basis broadcasts.  `Backhaul` has
one verb per direction, and each refuses the other direction's kinds at
submission time.  APs send through `Backhaul.send_aps`, one call for a
run of consecutive APs whose payloads share dtype and shape, given the
first AP's payload and the AP count, their names made once per range of
APs; the CPU sends through `Backhaul.broadcast`.  `send_aps` checks the
kind once and records, for every AP message, the payload's shape and,
for a Gram release, whether it has the packed Hermitian form: a real
(float64) 1-D vector whose length is a perfect square, tau_c^2.
Any such vector is the packed form of an exactly Hermitian tau_c x tau_c
matrix (`privacy.pack_hermitian`), so the verdict is structural and costs
nothing per entry.  The simulator draws each round's aggregate noise
once, at sqrt(M) times the per-AP scale, and never forms a per-AP
release, so only the sum-only (secure aggregation) trust model can be
simulated: each AP's Gram release message carries the round's packed
sum, and the verdict describes that declared release, not a vector the
AP formed.  Likewise each AP's LocalDetection message carries the sum of
every AP's (K, tau_d) detection, the one thing the CPU reads of them, with
one AP's shape and byte count.  The transcript holds this metadata only: no
payload outlives the call that sent it.
`audit_privacy_surface` checks a finished transcript against those
recorded shapes and verdicts (packed Gram releases of length tau_c^2;
detection blocks of the expected shape), so a raw observation matrix, or
a full complex matrix, cannot slip through either layer.  There is no
later recheck of the payloads themselves.

Byte accounting: 16 bytes per complex entry, 8 per real entry or scalar,
so a packed tau_c x tau_c release costs 8 tau_c^2 bytes.  A broadcast is
counted once, not per recipient.
"""

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ProtocolError

CPU = "cpu"
ALL_APS = "all-aps"

BYTES_COMPLEX = 16
BYTES_REAL = 8


class MessageKind(Enum):
    GRAM_RELEASE = "GramRelease"
    EIG_BROADCAST = "EigBroadcast"
    BASIS_BROADCAST = "BasisBroadcast"
    LOCAL_DETECTION = "LocalDetection"


AP_TO_CPU = {MessageKind.GRAM_RELEASE, MessageKind.LOCAL_DETECTION}
CPU_TO_AP = {MessageKind.EIG_BROADCAST, MessageKind.BASIS_BROADCAST}


def ap_name(m):
    return f"ap{m}"


@functools.cache
def _ap_names(first, count):
    """The names of APs first .. first + count - 1, made once per range `send_aps` is asked for."""
    return tuple(ap_name(m) for m in range(first, first + count))


def is_ap(name):
    return isinstance(name, str) and name.startswith("ap") and name[2:].isdecimal()


class Message(NamedTuple):
    """Metadata of one sent message; the payload itself is not kept.

    A named tuple, so a record is immutable and cheap to make: a round
    records M + 1 of them.  shape and hermitian are what `send_aps` saw of
    an AP payload.  Their defaults fail the audit, so a record not made by
    it cannot pass it.
    """

    kind: MessageKind
    sender: str
    receiver: str
    round_index: int
    nbytes: int
    shape: tuple = ()  # payload shape of an AP message
    hermitian: bool = False  # a Gram release in packed Hermitian form (see is_packed_hermitian)


def payload_nbytes(kind, payload):
    if kind is MessageKind.EIG_BROADCAST:
        vec, _scalar = payload
        return vec.size * BYTES_COMPLEX + BYTES_REAL
    p = np.asarray(payload)
    return p.size * (BYTES_COMPLEX if np.iscomplexobj(p) else BYTES_REAL)


def is_packed_hermitian(p):
    """Whether p has the packed Hermitian release form: float64, 1-D, of nonzero square length."""
    return p.dtype == np.float64 and p.ndim == 1 and p.size > 0 and math.isqrt(p.size) ** 2 == p.size


@dataclass
class OverheadLedger:
    """Running byte totals for one transcript."""

    total_unicast_bytes: int = 0
    broadcast_bytes: int = 0


class Backhaul:
    """Reliable, ordered delivery with the direction rules baked in."""

    def __init__(self):
        self.transcript = []
        self.ledger = OverheadLedger()

    def send_aps(self, kind, first_ap, round_index, payload, count):
        """APs first_ap .. first_ap + count - 1 each send the CPU a payload, in AP order.

        payload is the first AP's; the others share its dtype and shape, so the byte count and
        the packed-Hermitian verdict of every message are taken from it.  Returns the recorded
        messages; nothing is recorded if a check fails.
        """
        if kind not in AP_TO_CPU:
            raise ProtocolError(f"kind {kind.value} not allowed from an AP")
        for name, value, least in (("first AP", first_ap, 0), ("AP count", count, 1)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ProtocolError(f"{name} must be an integer >= {least}, got {value!r}")
        payload = np.asarray(payload)
        nbytes = payload_nbytes(kind, payload)
        hermitian = kind is MessageKind.GRAM_RELEASE and is_packed_hermitian(payload)
        msgs = [
            Message._make((kind, name, CPU, round_index, nbytes, payload.shape, hermitian))
            for name in _ap_names(int(first_ap), int(count))
        ]
        self.transcript.extend(msgs)
        self.ledger.total_unicast_bytes += nbytes * len(msgs)
        return msgs

    def broadcast(self, kind, round_index, payload):
        """The CPU sends payload to every AP; records its metadata once, not per recipient."""
        if kind not in CPU_TO_AP:
            raise ProtocolError(f"kind {kind.value} not allowed from the CPU")
        nbytes = payload_nbytes(kind, payload)
        msg = Message(kind, CPU, ALL_APS, round_index, nbytes)
        self.ledger.broadcast_bytes += nbytes
        self.transcript.append(msg)
        return msg


@dataclass
class AuditReport:
    ok: bool
    failures: list  # (message index, reason)


def audit_privacy_surface(transcript, tau_c, n_users, n_payload):
    """Structural check that no raw observation ever reached the CPU.

    Reads the shapes and packed-form verdicts `send_aps` recorded.  Every
    AP-originated message must be a Gram release in packed Hermitian form
    of length tau_c^2, or a detection block of shape (n_users, n_payload).
    Returns an AuditReport listing offending message indices.
    """
    failures = []
    for i, msg in enumerate(transcript):
        if is_ap(msg.sender):
            shape = msg.shape
            if msg.receiver != CPU:
                failures.append((i, f"AP message to {msg.receiver!r}"))
            elif msg.kind is MessageKind.GRAM_RELEASE:
                if not msg.hermitian:
                    why = "is not packed Hermitian (a real vector of square length)"
                    failures.append((i, f"gram release of shape {shape} {why}"))
                elif shape != (tau_c * tau_c,):
                    failures.append((i, f"gram release side {math.isqrt(shape[0])} != {tau_c}"))
            elif msg.kind is MessageKind.LOCAL_DETECTION:
                if shape != (n_users, n_payload):
                    failures.append((i, f"detection payload shape {shape}"))
            else:
                failures.append((i, f"kind {msg.kind.value} not allowed from an AP"))
        elif msg.sender == CPU:
            if msg.kind not in CPU_TO_AP:
                failures.append((i, f"kind {msg.kind.value} not allowed from the CPU"))
        else:
            failures.append((i, f"unknown sender {msg.sender!r}"))
    return AuditReport(ok=not failures, failures=failures)


def dump_transcript(transcript, path):
    """Write one JSON record per line: round, sender, receiver, kind, bytes."""
    with open(path, "w") as fh:
        for msg in transcript:
            fh.write(
                json.dumps(
                    {
                        "round": msg.round_index,
                        "sender": msg.sender,
                        "receiver": msg.receiver,
                        "kind": msg.kind.value,
                        "bytes": msg.nbytes,
                    }
                )
                + "\n"
            )
