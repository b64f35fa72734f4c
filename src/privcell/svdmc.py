"""One-shot private completion through a common spectral basis.

Each AP trims implausibly dense rows of its observed block, releases a
single privatised Gram, and the CPU broadcasts the top-K eigenbasis of
the aggregate.  Completion is local: project the trimmed observations
onto the broadcast basis and compensate the switch undersampling by
N_a / N_r.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .linalg import hermitian_eig
from .privacy import CompletionResult, gram_round, split_aps
from .protocol import Backhaul, MessageKind


@dataclass(frozen=True)
class SvdConfig:
    rank: int  # broadcast basis size (number of users)
    noise_scale: float  # per-release Hermitian noise std (0 = non-private)
    trim_threshold: float  # rows with more nonzeros than this get zeroed

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        if self.noise_scale < 0:
            raise ArgumentError(f"noise_scale must be non-negative, got {self.noise_scale}")
        if self.trim_threshold < 0:
            raise ArgumentError(f"trim_threshold must be non-negative, got {self.trim_threshold}")

    @classmethod
    def derive(cls, scenario, noise_scale):
        """Threshold 2 * N_r * tau_c / N_a, twice the expected row density."""
        return cls(
            rank=scenario.K,
            noise_scale=noise_scale,
            trim_threshold=2.0 * scenario.N_r * scenario.tau_c / scenario.N_a,
        )


def trim(y_m, threshold):
    """Zero out rows whose nonzero count strictly exceeds the threshold."""
    y_m = np.asarray(y_m)
    counts = np.count_nonzero(y_m, axis=1)
    out = y_m.copy()
    out[counts > threshold] = 0.0
    return out


def cpu_topk(w, rank):
    """Top-`rank` orthonormal eigenbasis of the aggregated releases."""
    return np.column_stack([p.vector for p in hermitian_eig(w, rank)])


def ap_complete(y_trimmed, basis, upsample):
    """Project onto the broadcast basis and undo the switch undersampling."""
    if basis.shape[0] != y_trimmed.shape[1]:
        raise ShapeError(
            f"basis rows {basis.shape[0]} do not match block columns {y_trimmed.shape[1]}"
        )
    return upsample * ((y_trimmed @ basis) @ basis.conj().T)


def run_svd(y, omega, n_aps, cfg, seed, upsample, net=None):
    """Run the one-shot spectral completion on a stacked observation matrix.

    Args:
        y: (M*N_a, tau_c) observed matrix, zeros off the observed set.
        omega: matching boolean observation mask (kept for interface parity;
            trimming works off the stored zeros).
        n_aps: number of row blocks (APs).
        cfg: SvdConfig.
        seed: int or tuple of ints for the per-AP release noise.
        upsample: N_a / N_r compensation factor.
        net: optional Backhaul to append to.
    """
    if upsample <= 0:
        raise ArgumentError(f"upsample must be positive, got {upsample}")
    y_blocks, _ = split_aps(y, omega, n_aps)
    trimmed = [trim(b, cfg.trim_threshold) for b in y_blocks]
    basis = gram_round(
        Backhaul() if net is None else net, 1, trimmed, cfg.noise_scale, seed,
        MessageKind.BASIS_BROADCAST, lambda w: cpu_topk(w, cfg.rank),
    )
    x_blocks = [ap_complete(y_t, basis, upsample) for y_t in trimmed]
    return CompletionResult(
        x_hat=np.vstack(x_blocks),
        rounds=1,
        masked_norms=np.array([[float(np.linalg.norm(b)) for b in x_blocks]]),
    )
