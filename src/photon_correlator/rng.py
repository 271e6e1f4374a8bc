"""Deterministic per-stage seed derivation.

A run has a single top-level 64-bit seed; every random stage (source,
each detector, each sweep point) draws from its own generator
seeded by hashing (master seed, stage name).  Adding a stage therefore
never perturbs the random numbers any existing stage sees.
"""

import hashlib

import numpy as np

MAX_SEED = 2**64 - 1
# elements a stage draws or computes at once; it changes no draw.  A block of
# 8-byte numbers is 128 KiB: it stays in cache, and glibc's malloc reuses it
# from its heap, where it returns 512 KiB temporaries to the system and
# page-faults them back in on the next block
_BLOCK = 2**14


def derive_seed(master_seed, stage):
    """Map (master seed, stage name) to a stable 64-bit stage seed via SHA-256."""
    master_seed = int(master_seed)
    if not 0 <= master_seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^64), got {master_seed}")
    digest = hashlib.sha256(
        master_seed.to_bytes(8, "little") + b"/" + stage.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def generator(seed):
    """A numpy Generator for an already-derived stage seed."""
    return np.random.default_rng(int(seed))
