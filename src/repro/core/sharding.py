"""Exactly-once data sharding across virtual nodes.

Every global batch is split into contiguous, disjoint slices in canonical
virtual-node order.  Because the split is a pure function of the virtual
node *sizes* — not the device mapping — every example is observed exactly
once per epoch regardless of cluster shape, and uneven sizes (heterogeneous
training, §5.2 "Data sharding") fall out of the same code path.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.virtual_node import VirtualNodeSet

__all__ = ["shard_sizes", "shard_batch", "shard_indices", "check_shard_bounds"]


def shard_sizes(vn_set: VirtualNodeSet, batch_size: int) -> List[int]:
    """Per-virtual-node example counts for a batch of ``batch_size``.

    Normally ``batch_size == vn_set.global_batch_size`` and the answer is the
    node sizes themselves; the general form also supports scaled batches
    (e.g. evaluation slices) by proportional allocation with largest-remainder
    rounding, preserving Σ = batch_size.
    """
    total = vn_set.global_batch_size
    if batch_size == total:
        return vn_set.sizes
    if batch_size < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    exact = [n.batch_size * batch_size / total for n in vn_set]
    floors = [math.floor(e) for e in exact]
    remainder = batch_size - sum(floors)
    # Largest fractional parts get the leftover examples; ties break on index.
    order = sorted(range(len(exact)), key=lambda i: (floors[i] - exact[i], i))
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def shard_indices(vn_set: VirtualNodeSet, batch_size: int) -> List[Tuple[int, int]]:
    """Contiguous [start, end) slices of the batch, one per virtual node."""
    sizes = shard_sizes(vn_set, batch_size)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    if start != batch_size:
        raise AssertionError(f"shard sizes {sizes} do not cover batch {batch_size}")
    return bounds


def check_shard_bounds(bounds: Sequence[Tuple[int, int]], batch_size: int) -> None:
    """Raise ``ValueError`` unless ``bounds`` tile ``[0, batch_size)``.

    What :func:`shard_indices` guarantees and what a backend handed
    caller-made bounds must check: contiguous ``[start, end)`` slices in
    order from row 0 (empty ones allowed) that end at the batch length.  A
    gap, an overlap or a short table would otherwise drop rows or regroup
    them into shards no virtual node ever had.
    """
    row = 0
    for start, end in bounds:
        if start != row or end < start:
            raise ValueError(
                f"shard bounds {list(bounds)} do not tile the batch "
                f"contiguously from row 0")
        row = end
    if row != batch_size:
        raise ValueError(
            f"shard bounds {list(bounds)} cover {row} rows of a batch of "
            f"{batch_size}")


def shard_batch(vn_set: VirtualNodeSet, x: np.ndarray, y: np.ndarray,
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split one global batch into per-virtual-node (x, y) shards."""
    if len(x) != len(y):
        raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    shards = []
    for start, end in shard_indices(vn_set, len(x)):
        shards.append((x[start:end], y[start:end]))
    return shards
