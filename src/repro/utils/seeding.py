"""Deterministic RNG derivation.

VirtualFlow's central invariant is that training depends only on the set of
virtual nodes, never on the virtual-node-to-device mapping.  Any randomness
consumed during a step (dropout masks, data augmentation) must therefore be a
pure function of *logical* coordinates — (root seed, epoch, step, virtual node
index) — and never of physical placement.  This module centralizes that
derivation so every consumer draws from the same, placement-free streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "derive_rng", "vn_rng", "augment_rng"]

# Domain tags keep independent subsystems (data shuffling, dropout, init)
# from colliding even when they share the same logical coordinates.
DOMAIN_INIT = 0x1A
DOMAIN_DATA = 0x2B
DOMAIN_DROPOUT = 0x3C
DOMAIN_WORKLOAD = 0x4D
DOMAIN_AUGMENT = 0x5F
DOMAIN_CHAOS = 0x8C


def derive_seed(root_seed: int, *coords: int) -> int:
    """Derive a 64-bit seed from a root seed and logical coordinates.

    Uses :class:`numpy.random.SeedSequence` entropy mixing, which is designed
    for exactly this "key hierarchy" use case and gives independent streams
    for distinct coordinate tuples.
    """
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(coords))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_rng(root_seed: int, *coords: int) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` keyed by logical coordinates."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(coords))
    return np.random.Generator(np.random.PCG64(ss))


def vn_rng(root_seed: int, epoch: int, step: int, vn_index: int) -> np.random.Generator:
    """RNG for a single virtual node within a single training step.

    This is the stream used for dropout and any other per-virtual-node
    stochasticity.  It is a pure function of logical coordinates, so two runs
    that map virtual nodes to different accelerators consume identical
    randomness — the keystone of mapping invariance.
    """
    return derive_rng(root_seed, DOMAIN_DROPOUT, epoch, step, vn_index)


def augment_rng(root_seed: int, epoch: int, step: int, vn_index: int) -> np.random.Generator:
    """RNG stream for data augmentation, separated from the dropout domain.

    Like :func:`vn_rng`, a pure function of logical coordinates, so augmented
    pixels are identical under any virtual-node-to-device mapping.
    """
    return derive_rng(root_seed, DOMAIN_AUGMENT, epoch, step, vn_index)


def data_order(root_seed: int, epoch: int, n_examples: int) -> np.ndarray:
    """The canonical shuffled order of a dataset for a given epoch.

    Shuffling is a pure function of ``(root_seed, epoch)`` — sharding across
    virtual nodes later slices this order, so the set of examples each virtual
    node sees is independent of device placement.
    """
    rng = derive_rng(root_seed, DOMAIN_DATA, epoch)
    return rng.permutation(n_examples)
