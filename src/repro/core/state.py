"""Virtual node state and its migration on resize (§4.1).

Besides the synchronized model parameters, training carries *stateful
kernels* — buffers updated during training but never synchronized, such as
batch-normalization moving means and variances.  VirtualFlow treats these as
**virtual node state**: they travel with the virtual node, so bootstrapping a
new worker (scale-out) all-gathers them instead of resetting them, and model
quality is unaffected by any resize.

A job's state is the rows of one ``(num_nodes, state_size)`` matrix
(:class:`StateMatrix`, owned by the executor): each
:class:`VirtualNodeState`'s ``buffers`` are views into its node's row, and
a training step updates those arrays in place — it never replaces the
dict.  Copy a state (:meth:`VirtualNodeState.copy`) to keep its values
across a step.

In this reproduction the state lives in process memory, so "migration" is a
bookkeeping + cost-model operation: :func:`migrate_states` verifies that the
full state survives a mapping change and returns the simulated all-gather
time the paper reports as "typically less than a second".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.mapping import Mapping, migration_time
from repro.framework.arena import FlatLayout

__all__ = [
    "StateMatrix",
    "VirtualNodeState",
    "merged_eval_state",
    "migrate_states",
    "migration_time",
]

Buffers = Dict[str, np.ndarray]


@dataclass
class VirtualNodeState:
    """Stateful-kernel buffers owned by one virtual node (views into its row
    of a :class:`StateMatrix` when a job owns it; :meth:`copy` detaches)."""

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


# -- the state matrix ----------------------------------------------------------
#
# Stateful kernels are tiny compared to parameters, but there is one set per
# virtual node — a 32-node job steps, merges and serializes 32 of them.  They
# live as the rows of one (num_nodes, state_size) matrix over a FlatLayout of
# the buffer template, so each of those is one operation on the matrix.


class StateMatrix:
    """Every virtual node's stateful buffers as the rows of one matrix.

    ``rows`` is ``(num_nodes, layout.total_size)``; ``nodes[i].buffers`` are
    named views into row ``i`` and ``stacked`` the named ``(num_nodes,) +
    shape`` views over all rows, both built once, so a training step reads
    and updates the rows in place through either (the serial loop per node,
    the fused kernels all at once) and nothing is packed or scattered.
    """

    __slots__ = ("layout", "rows", "nodes", "stacked")

    def __init__(self, layout: FlatLayout, rows: np.ndarray) -> None:
        self.layout = layout
        self.rows = rows
        self.nodes = [VirtualNodeState(i, layout.views(row)) for i, row in enumerate(rows)]
        self.stacked = layout.stacked_views(rows)

    @classmethod
    def of(cls, states: Sequence[VirtualNodeState]) -> Optional["StateMatrix"]:
        """A new matrix holding copies of ``states``' buffers, row ``i`` from
        ``states[i]``; None for a stateless template (no states, or empty
        buffers)."""
        if not states or not states[0].buffers:
            return None
        layout = FlatLayout(states[0].buffers)
        matrix = cls(layout, np.empty((len(states), layout.total_size), dtype=layout.dtype))
        matrix.load(states)
        return matrix

    def load(self, states: Sequence[VirtualNodeState]) -> None:
        """Copy ``states``' buffers into the rows, in list order."""
        if len(states) != len(self.rows):
            raise ValueError(f"{len(states)} states for {len(self.rows)} state rows")
        for row, state in zip(self.rows, states):
            self.layout.pack(state.buffers, out=row)


def merged_eval_state(states: StateMatrix) -> Buffers:
    """Canonical evaluation view of stateful kernels: the virtual-node mean.

    Per-node moving statistics differ slightly (they are never synchronized);
    averaging in index order gives a mapping-independent evaluation model.
    The rows are reduced in one in-order pass — bit-identical to a per-key
    accumulation loop.  Both the training executor's evaluation path and
    the inference engine's serving path cache the result between steps /
    across micro-batches.
    """
    merged_flat = states.rows.sum(axis=0)
    merged_flat /= len(states.rows)
    return states.layout.views(merged_flat)


def migrate_states(states: List[VirtualNodeState], old_mapping: Mapping,
                   new_mapping: Mapping, model_bytes: int) -> float:
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
    return migration_time(old_mapping, new_mapping, model_bytes, state_bytes)
