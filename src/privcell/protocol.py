"""In-memory AP<->CPU message fabric with a closed communication surface.

The only things an AP may ever put on the wire toward the CPU are
privatised Gram releases and locally detected payload estimates; the CPU
talks back only through eigenpair or basis broadcasts.  `Backhaul.send`
enforces the direction/kind rules at submission time, and
`audit_privacy_surface` re-checks a finished transcript structurally
(shapes and exact Hermitian symmetry of everything that left an AP), so
a raw observation matrix cannot slip through either layer.

Byte accounting: 16 bytes per complex entry, 8 per real scalar.  A
broadcast is counted once, not per recipient.
"""

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

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


def is_ap(name):
    return isinstance(name, str) and name.startswith("ap") and name[2:].isdigit()


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: str
    receiver: str
    round_index: int
    payload: Any
    nbytes: int


def payload_nbytes(kind, payload):
    if kind is MessageKind.EIG_BROADCAST:
        vec, _scalar = payload
        return vec.size * BYTES_COMPLEX + BYTES_REAL
    return np.asarray(payload).size * BYTES_COMPLEX


@dataclass
class OverheadLedger:
    """Running byte/message counts for one transcript."""

    unicast_bytes: Counter = field(default_factory=Counter)  # per sender
    broadcast_bytes: int = 0
    kind_counts: Counter = field(default_factory=Counter)  # (kind, round)

    def record(self, msg):
        self.kind_counts[(msg.kind, msg.round_index)] += 1
        if msg.receiver == ALL_APS:
            self.broadcast_bytes += msg.nbytes
        else:
            self.unicast_bytes[msg.sender] += msg.nbytes

    @property
    def total_unicast_bytes(self):
        return sum(self.unicast_bytes.values())

    def count(self, kind):
        return sum(n for (k, _), n in self.kind_counts.items() if k is kind)


class Backhaul:
    """Reliable, ordered delivery with the direction rules baked in."""

    def __init__(self):
        self.transcript = []
        self.ledger = OverheadLedger()
        self._payloads = defaultdict(list)  # (kind, round) -> payloads in send order

    def send(self, kind, sender, receiver, round_index, payload):
        if is_ap(sender):
            if receiver != CPU:
                raise ProtocolError(f"AP {sender} may only address the CPU")
            if kind not in AP_TO_CPU:
                raise ProtocolError(f"kind {kind.value} not allowed from an AP")
        elif sender == CPU:
            if receiver != ALL_APS:
                raise ProtocolError("CPU messages are broadcasts")
            if kind not in CPU_TO_AP:
                raise ProtocolError(f"kind {kind.value} not allowed from the CPU")
        else:
            raise ProtocolError(f"unknown sender {sender!r}")
        msg = Message(
            kind=kind,
            sender=sender,
            receiver=receiver,
            round_index=round_index,
            payload=payload,
            nbytes=payload_nbytes(kind, payload),
        )
        self.transcript.append(msg)
        self.ledger.record(msg)
        self._payloads[(kind, round_index)].append(payload)
        return msg

    def broadcast(self, kind, round_index, payload):
        return self.send(kind, CPU, ALL_APS, round_index, payload)

    def round_payloads(self, kind, round_index):
        """Payloads of one kind in one round, in send (AP) order; [] if none was sent."""
        return list(self._payloads.get((kind, round_index), ()))


@dataclass
class AuditReport:
    ok: bool
    failures: list  # (message index, reason)

    def __bool__(self):
        return self.ok


def audit_privacy_surface(transcript, tau_c=None, n_users=None, n_payload=None):
    """Structural check that no raw observation ever reached the CPU.

    Every AP-originated message must be a square, exactly Hermitian Gram
    release (of side tau_c when given) or a detection block of shape
    (n_users, n_payload) when those are given.  Returns an AuditReport
    listing offending message indices.
    """
    failures = []
    for i, msg in enumerate(transcript):
        if is_ap(msg.sender):
            if msg.receiver != CPU:
                failures.append((i, f"AP message to {msg.receiver!r}"))
            elif msg.kind is MessageKind.GRAM_RELEASE:
                p = np.asarray(msg.payload)
                if p.ndim != 2 or p.shape[0] != p.shape[1]:
                    failures.append((i, f"gram release of shape {p.shape} is not square"))
                elif tau_c is not None and p.shape[0] != tau_c:
                    failures.append((i, f"gram release side {p.shape[0]} != {tau_c}"))
                elif not np.array_equal(p, p.conj().T):
                    failures.append((i, "gram release is not Hermitian"))
            elif msg.kind is MessageKind.LOCAL_DETECTION:
                p = np.asarray(msg.payload)
                if p.ndim != 2:
                    failures.append((i, f"detection payload has ndim {p.ndim}"))
                elif n_users is not None and n_payload is not None and p.shape != (
                    n_users,
                    n_payload,
                ):
                    failures.append((i, f"detection payload shape {p.shape}"))
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
