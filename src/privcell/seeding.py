"""Deterministic seed derivation for every random stage of a run.

All randomness flows from one master seed.  Each consumer (topology draw,
shadowing, fast fading, payload, receiver noise, switch masks, privacy
noise, ...) gets its own substream keyed by a stage tag plus integer
indices (trial, node, round).  Two properties follow:

* trials are reproducible independently of execution order, so a sweep
  can be parallelised over trials without changing its output;
* pilot-slot randomness is keyed separately from payload-slot
  randomness, so runs that differ only in payload length share identical
  pilot draws.
"""

import numpy as np

# Stable numeric ids; never reorder, append only.
STAGES = {
    "topology": 1,
    "shadowing": 2,
    "channel": 3,
    "payload": 4,
    "noise_pilot": 5,
    "noise_data": 6,
    "mask_pilot": 7,
    "mask_data": 8,
    "dp_fw": 9,
    "dp_svd": 10,
    "crossval": 11,
}


def entropy_for(master_seed, stage, *indices):
    """The raw entropy tuple of one substream, for callers that extend it.

    Args:
        master_seed: non-negative int, the run's master seed.
        stage: one of the STAGES keys.
        indices: extra non-negative ints (trial, node, round, ...).
    """
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    if stage not in STAGES:
        raise KeyError(f"unknown seeding stage {stage!r}")
    return (int(master_seed), STAGES[stage], *map(int, indices))


def seed_for(master_seed, stage, *indices):
    """SeedSequence for one substream (see entropy_for)."""
    return np.random.SeedSequence(entropy_for(master_seed, stage, *indices))


def rng_for(master_seed, stage, *indices):
    """Generator for one substream (see entropy_for)."""
    return np.random.default_rng(seed_for(master_seed, stage, *indices))


def derive_master(master_seed, stage):
    """A fresh 64-bit master seed for an independent family of substreams."""
    return int(seed_for(master_seed, stage).generate_state(1, np.uint64)[0])
