"""Virtual node state and its migration on resize (§4.1).

Besides the synchronized model parameters, training carries *stateful
kernels* — buffers updated during training but never synchronized, such as
batch-normalization moving means and variances.  VirtualFlow treats these as
**virtual node state**: they travel with the virtual node, so bootstrapping a
new worker (scale-out) all-gathers them instead of resetting them, and model
quality is unaffected by any resize.

In this reproduction the state lives in process memory, so "migration" is a
bookkeeping + cost-model operation: :func:`migrate_states` verifies that the
full state survives a mapping change and returns the simulated all-gather
time the paper reports as "typically less than a second".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.mapping import Mapping, migration_time
from repro.framework.arena import FlatLayout
from repro.hardware.interconnect import Interconnect

__all__ = [
    "VirtualNodeState",
    "merged_eval_state",
    "migrate_states",
    "migration_time",
    "state_layout",
    "pack_states",
    "packed_state_matrix",
    "unpack_states",
    "scatter_states",
]

Buffers = Dict[str, np.ndarray]


@dataclass
class VirtualNodeState:
    """Stateful-kernel buffers owned by one virtual node."""

    vn_index: int
    buffers: Buffers = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return int(sum(v.nbytes for v in self.buffers.values()))

    def copy(self) -> "VirtualNodeState":
        return VirtualNodeState(
            vn_index=self.vn_index,
            buffers={k: v.copy() for k, v in self.buffers.items()},
        )

    def equals(self, other: "VirtualNodeState") -> bool:
        if set(self.buffers) != set(other.buffers):
            return False
        return all(np.array_equal(self.buffers[k], other.buffers[k]) for k in self.buffers)


# -- flat snapshots ----------------------------------------------------------
#
# Stateful kernels are tiny compared to parameters, but there is one set per
# virtual node — a 32-node job snapshots/merges/serializes 32 dicts.  A
# FlatLayout over the buffer template turns all of that into operations on
# one (num_nodes, state_size) matrix.


def state_layout(states: List[VirtualNodeState]) -> Optional[FlatLayout]:
    """A flat layout over the (shared) buffer template, or None if stateless."""
    if not states or not states[0].buffers:
        return None
    return FlatLayout(states[0].buffers)


def pack_states(states: List[VirtualNodeState], layout: FlatLayout,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stack every node's buffers into one ``(num_nodes, state_size)`` matrix.

    Row order is list order (callers keep states in canonical vn order).
    """
    if out is None:
        out = np.empty((len(states), layout.total_size), dtype=layout.dtype)
    for row, state in zip(out, states):
        layout.pack(state.buffers, out=row)
    return out


def packed_state_matrix(states: List[VirtualNodeState], layout: FlatLayout,
                        scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Pack states into a reusable ``(num_nodes, state_size)`` scratch.

    Reuses ``scratch`` when its shape and dtype still fit, reallocating
    otherwise — the one hot-path caching pattern shared by the executor's
    merged-eval-state view and the fused backend's state round trip.
    Callers hold on to the returned matrix as next call's ``scratch``.
    """
    rows = len(states)
    if (scratch is None or scratch.shape != (rows, layout.total_size)
            or scratch.dtype != layout.dtype):
        scratch = np.empty((rows, layout.total_size), dtype=layout.dtype)
    return pack_states(states, layout, out=scratch)


def unpack_states(matrix: np.ndarray, layout: FlatLayout) -> List[VirtualNodeState]:
    """Rebuild per-node states from a packed ``(num_nodes, state_size)`` matrix."""
    return [
        VirtualNodeState(vn_index=i,
                         buffers={k: v.copy() for k, v in layout.views(row).items()})
        for i, row in enumerate(matrix)
    ]


def scatter_states(matrix: np.ndarray, layout: FlatLayout,
                   states: List[VirtualNodeState]) -> None:
    """Write a packed ``(num_nodes, state_size)`` matrix back into states.

    Row ``i`` replaces ``states[i].buffers`` with fresh copies — the same
    ownership semantics as the reference loop's per-wave
    ``state.buffers = model.state_dict()``, but driven from the one matrix a
    fused run updated in place.
    """
    if matrix.shape[0] != len(states):
        raise ValueError(
            f"{matrix.shape[0]} state rows for {len(states)} virtual nodes")
    for state, row in zip(states, matrix):
        state.buffers = {k: v.copy() for k, v in layout.views(row).items()}


def merged_eval_state(states: List[VirtualNodeState], layout: Optional[FlatLayout],
                      scratch: Optional[np.ndarray] = None):
    """Canonical evaluation view of stateful kernels: the virtual-node mean.

    Per-node moving statistics differ slightly (they are never synchronized);
    averaging in index order gives a mapping-independent evaluation model.
    The merge packs all node states into one ``(num_nodes, state_size)``
    matrix and reduces it in one in-order pass — bit-identical to a per-key
    accumulation loop.

    Returns ``(buffers, scratch)``: the merged buffer dict (empty for a
    stateless template, i.e. ``layout is None``) plus the pack matrix, which
    callers hold on to as next call's ``scratch``.  Both the training
    executor's evaluation path and the inference engine's serving path cache
    the result of this merge between steps / across micro-batches.
    """
    if layout is None:
        return {}, scratch
    scratch = packed_state_matrix(states, layout, scratch)
    merged_flat = scratch.sum(axis=0)
    merged_flat /= len(states)
    return layout.views(merged_flat), scratch


def migrate_states(states: List[VirtualNodeState], old_mapping: Mapping,
                   new_mapping: Mapping, model_bytes: int,
                   interconnect: Optional[Interconnect] = None) -> float:
    """Validate and cost a state migration across a mapping change.

    The virtual node set must be unchanged (that is the whole point of the
    abstraction); each node's state simply follows it to its new device.
    Returns the simulated migration time.
    """
    if old_mapping.vn_set != new_mapping.vn_set:
        raise ValueError(
            "resize must preserve the virtual node set "
            f"({old_mapping.vn_set!r} -> {new_mapping.vn_set!r})"
        )
    indices = sorted(s.vn_index for s in states)
    expected = list(range(old_mapping.vn_set.num_nodes))
    if indices != expected:
        raise ValueError(
            f"states cover virtual nodes {indices[:8]}..., expected {expected[:8]}..."
        )
    state_bytes = sum(s.nbytes for s in states)
    return migration_time(old_mapping, new_mapping, model_bytes, state_bytes, interconnect)
