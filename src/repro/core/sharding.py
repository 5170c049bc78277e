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

__all__ = ["shard_sizes", "shard_batch", "size_runs"]


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


def size_runs(sizes: Sequence[int]) -> np.ndarray:
    """``sizes`` run-length encoded: an ``(R, 2)`` integer array of ``(size,
    count)`` rows, ``count`` consecutive nodes of ``size`` rows each, in
    order — the one form in which a vectorized pass takes its split.
    Maximal: neighbouring rows differ in size (``[2, 3, 2]`` is three).
    """
    runs: List[List[int]] = []
    for size in sizes:
        if runs and runs[-1][0] == size:
            runs[-1][1] += 1
        else:
            runs.append([size, 1])
    return np.array(runs)


def shard_batch(vn_set: VirtualNodeSet, x: np.ndarray, y: np.ndarray,
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split one global batch into per-virtual-node (x, y) shards: contiguous
    slices of :func:`shard_sizes` rows, in canonical order."""
    if len(x) != len(y):
        raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    shards = []
    start = 0
    for size in shard_sizes(vn_set, len(x)):
        shards.append((x[start:start + size], y[start:start + size]))
        start += size
    return shards
