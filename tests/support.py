"""Test-only helpers: a CSV reader for emit_csv output, a payload-keeping backhaul,
an FW iterate recorder, the noise std privacy.calibrate gives each schedule, the
release round over a stack of blocks and the full matrix of a packed release."""

import csv
import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from privcell import fw
from privcell.config import METHODS
from privcell.errors import ConfigError
from privcell.harness import CSV_HEADER
from privcell.privacy import calibrate, gram_round, stacked_gram
from privcell.protocol import Backhaul


def read_csv(path):
    """Round-trip reader for harness.emit_csv output."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ConfigError(f"{path} does not carry the expected header")
    out = []
    for row in rows[1:]:
        rec = dict(zip(CSV_HEADER, row))
        for k in ("axis_value", "nmse", "ser", "seconds"):
            rec[k] = float(rec[k])
        for k in ("trials", "failures", "seed"):
            rec[k] = int(rec[k])
        out.append(rec)
    return out


class RecordingBackhaul(Backhaul):
    """A Backhaul that also keeps every payload it accepts, in transcript order.

    payloads[i] is the payload of transcript[i]: the very object sent by
    `broadcast`, or the one payload of the `send_aps` call that recorded it:
    each AP's Gram release carries the round's packed sum, and each AP's
    LocalDetection the CPU's (K, tau_d) sum of every AP's detection.
    """

    def __init__(self):
        super().__init__()
        self.payloads = []

    def broadcast(self, kind, round_index, payload):
        msg = super().broadcast(kind, round_index, payload)
        self.payloads.append(payload)
        return msg

    def send_aps(self, kind, first_ap, round_index, payload, count):
        msgs = super().send_aps(kind, first_ap, round_index, payload, count)
        self.payloads.extend([payload] * count)
        return msgs


def kind_count(transcript, kind):
    """Number of transcript records of one message kind."""
    return sum(msg.kind is kind for msg in transcript)


@contextmanager
def recorded_iterates():
    """Within the block, collect the (M, N_a, tau_c) iterate after each FW round.

    Wraps fw.ap_update, whose first output is the new iterate, and
    yields the list the iterates are appended to, in round order.
    """
    iterates = []
    update = fw.ap_update

    def recording(*args, **kwargs):
        out = update(*args, **kwargs)
        iterates.append(out[0].copy())
        return out

    fw.ap_update = recording
    try:
        yield iterates
    finally:
        fw.ap_update = update


def fw_sigma(bound, iterations, n_aps, eps, delta):
    """privacy.calibrate's sigma for private FW over `iterations` rounds.

    The run is the two fields calibrate reads, unvalidated, so that a bad
    delta or round count reaches calibrate's own checks.
    """
    run = SimpleNamespace(fw_iters=iterations, delta=delta)
    return calibrate(METHODS["fw"], bound, n_aps, run, eps).sigma


def svd_sigma(bound, n_aps, eps, delta):
    """privacy.calibrate's sigma for the one-shot private release."""
    return calibrate(METHODS["svd"], bound, n_aps, SimpleNamespace(delta=delta), eps).sigma


def blocks_round(net, round_index, blocks, noise_scale, seed, kind, cpu, tail=()):
    """`privacy.gram_round` over an (M, N_a, tau_c) stack of blocks, as `fw.run_fw` calls it:
    the round on their `stacked_gram`."""
    return gram_round(net, round_index, stacked_gram(blocks), len(blocks), noise_scale, seed, kind, cpu, tail)


def unpack_hermitian(p):
    """The full exactly Hermitian matrix of a packed release p, C-ordered: the real parts of the
    strict upper triangle (row-major), then their imaginary parts, then the real diagonal.  The
    lower triangle's imaginary parts are 0.0 - upper (so a zero is +0.0), as `privacy.unpack_lower`
    writes them, and the diagonal's are +0.0."""
    dim = math.isqrt(p.size)
    assert p.ndim == 1 and dim * dim == p.size, p.shape
    i, j = np.triu_indices(dim, k=1)
    n_off = i.size
    h = np.zeros((dim, dim), dtype=complex)
    h.real[i, j] = h.real[j, i] = p[:n_off]
    h.imag[i, j], h.imag[j, i] = p[n_off : 2 * n_off], np.subtract(0.0, p[n_off : 2 * n_off])
    h.real[np.arange(dim), np.arange(dim)] = p[2 * n_off :]
    return h
