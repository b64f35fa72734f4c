"""One-shot private completion through a common spectral basis.

Each AP releases a single privatised Gram of its observed block, and
the CPU broadcasts the top-K eigenbasis of the aggregate.  Completion is
local: project the observations onto the broadcast basis and compensate
the switch undersampling by N_a / N_r.  No row is trimmed: the rule of
Bernoulli-sampled completion (zero a row with more than twice its expected
count of observed entries) cannot fire when N_r >= N_a / 2.
"""

from dataclasses import dataclass

from .errors import ArgumentError, ShapeError
from .linalg import hermitian_eig, shared_matmul
from .privacy import Calibration, CompletionResult, ap_stack, gram_round
from .protocol import Backhaul, MessageKind


@dataclass(frozen=True)
class SvdConfig:
    rank: int  # broadcast basis size (number of users)
    calibration: Calibration  # the one release per AP and its noise std
    upsample: float  # N_a / N_r, undoes the switch undersampling

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        if not self.upsample > 0:
            raise ArgumentError(f"upsample must be positive, got {self.upsample}")


def cpu_topk(w, rank):
    """Top-`rank` orthonormal eigenbasis of the aggregated releases."""
    return hermitian_eig(w, rank)[1]


def ap_complete(y, basis, upsample):
    """Project each AP's block onto the broadcast basis and undo the switch undersampling."""
    if basis.shape[0] != y.shape[-1]:
        raise ShapeError(f"basis has {basis.shape[0]} rows, blocks {y.shape[-1]} columns")
    return upsample * shared_matmul(shared_matmul(y, basis), basis.conj().T)


def run_svd(y, omega, cfg, seed, net=None):
    """Run the one-shot spectral completion on the APs' observed blocks.

    Args:
        y: (M, N_a, tau_c) stack of the APs' blocks, zeros off the observed set.
        omega: matching boolean observation mask (checked for shape only).
        cfg: SvdConfig.
        seed: int or tuple of ints for the round's aggregate release noise.
        net: optional Backhaul to append to.

    Returns a CompletionResult.
    """
    y = ap_stack(y, omega)
    basis = gram_round(
        Backhaul() if net is None else net, 1, y, cfg.calibration.sigma, seed,
        MessageKind.BASIS_BROADCAST, lambda w: cpu_topk(w, cfg.rank),
    )
    return CompletionResult(x_hat=ap_complete(y, basis, cfg.upsample), rounds=1)
