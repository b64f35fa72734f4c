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
from .linalg import hermitian_eig, observed_norms
from .privacy import CompletionResult, ap_stack, gram_round
from .protocol import Backhaul, MessageKind


@dataclass(frozen=True)
class SvdConfig:
    rank: int  # broadcast basis size (number of users)
    noise_scale: float  # per-release Hermitian noise std (0 = non-private)
    trim_threshold: float  # rows with more nonzeros than this get zeroed
    upsample: float  # N_a / N_r, undoes the switch undersampling

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        if not 0 <= self.noise_scale < np.inf:  # a NaN scale must never mean "no noise"
            raise ArgumentError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.trim_threshold < 0:
            raise ArgumentError(f"trim_threshold must be non-negative, got {self.trim_threshold}")
        if not self.upsample > 0:
            raise ArgumentError(f"upsample must be positive, got {self.upsample}")

    @classmethod
    def derive(cls, scenario, noise_scale):
        """Threshold 2 * N_r * tau_c / N_a, twice the expected row density; upsample N_a / N_r."""
        return cls(
            rank=scenario.K,
            noise_scale=noise_scale,
            trim_threshold=2.0 * scenario.N_r * scenario.tau_c / scenario.N_a,
            upsample=scenario.N_a / scenario.N_r,
        )


def trim(y, threshold):
    """Zero out rows whose nonzero count strictly exceeds the threshold."""
    out = np.asarray(y).copy()
    out[np.count_nonzero(out, axis=-1) > threshold] = 0.0
    return out


def cpu_topk(w, rank):
    """Top-`rank` orthonormal eigenbasis of the aggregated releases."""
    return hermitian_eig(w, rank)[1]


def ap_complete(y_trimmed, basis, upsample):
    """Project each AP's block onto the broadcast basis and undo the switch undersampling."""
    if basis.shape[0] != y_trimmed.shape[-1]:
        raise ShapeError(f"basis has {basis.shape[0]} rows, blocks {y_trimmed.shape[-1]} columns")
    return upsample * ((y_trimmed @ basis) @ basis.conj().T)


def run_svd(y, omega, cfg, seed, net=None):
    """Run the one-shot spectral completion on the APs' observed blocks.

    Args:
        y: (M, N_a, tau_c) stack of the APs' blocks, zeros off the observed set.
        omega: matching boolean observation mask (trimming works off the
            stored zeros; omega only selects the entries masked_norms covers).
        cfg: SvdConfig.
        seed: int or tuple of ints for the per-AP release noise.
        net: optional Backhaul to append to.

    Returns a CompletionResult.
    """
    y = ap_stack(y, omega)
    trimmed = trim(y, cfg.trim_threshold)
    basis = gram_round(
        Backhaul() if net is None else net, 1, trimmed, cfg.noise_scale, seed,
        MessageKind.BASIS_BROADCAST, lambda w: cpu_topk(w, cfg.rank),
    )
    x = ap_complete(trimmed, basis, cfg.upsample)
    return CompletionResult(x_hat=x, rounds=1, masked_norms=observed_norms(x, omega)[None])
