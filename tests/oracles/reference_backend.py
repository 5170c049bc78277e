"""The canonical serial execution backend (paper Figure 5).

One training step processes every virtual node's shard as a strictly serial
wave loop in **canonical virtual-node order**: load the node's row of the
state matrix into the model's stateful kernels, forward, backward, snapshot
its gradients, write the kernels back into the row.
Floating-point addition is not associative, so this fixed order is what makes
training bit-identical across any virtual-node-to-device mapping — the
strongest form of the paper's "convergence depends only on virtual nodes"
guarantee.

This backend is deliberately unoptimized: it is the *oracle* the fused
backend (:mod:`repro.core.backends.fused`) is tested against, wave for wave
and bit for bit, by tests and benchmark gates that assign it to an engine's
``backend``.
Each wave's gradients are snapshotted as one contiguous row of a reused
``(V, P)`` stack over the model's flat tensor arena, and the §5.2 weighted
average is one scaled stack reduction — the same arithmetic as
:func:`weighted_average`, the canonical per-key loop, in a handful of
vector ops.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.backends.base import ExecutionBackend, TrainStep, TrainStepOutput
from repro.core.virtual_node import VirtualNodeSet
from repro.framework.layers import Module
from repro.utils.seeding import augment_rng, vn_rng

__all__ = ["ReferenceBackend", "weighted_average"]

Grads = Dict[str, np.ndarray]


class ReferenceBackend(ExecutionBackend):
    """Serial per-wave execution in canonical virtual-node order."""

    name = "reference"

    def train_step(self, step: TrainStep) -> TrainStepOutput:
        model = step.model
        arena = step.arena
        states = step.state_matrix
        buffers = [name for name, _ in model.named_buffers()]
        if buffers and states is None:
            # Never let one running state be shared silently across waves.
            raise KeyError(f"missing buffer {buffers[0]!r}: the step carries no state matrix")
        num_nodes = step.vn_set.num_nodes
        stack = arena.grad_stack(num_nodes)
        weights = [0.0] * num_nodes
        weighted_loss = 0.0
        # Physically, shards execute as per-device waves in parallel; since
        # every wave reads the same (frozen) parameters, iterating in
        # canonical virtual-node order computes identical values.
        for node, (x_vn, y_vn) in zip(step.vn_set, step.shards):
            if states is not None:
                model.load_state_dict(states.nodes[node.index].buffers)
            if step.augment is not None:
                x_vn = step.augment.apply(
                    x_vn, augment_rng(step.seed, step.epoch, step.step, node.index))
            rng = vn_rng(step.seed, step.epoch, step.step, node.index)
            logits = model.forward(x_vn, training=True, rng=rng)
            loss_value = step.loss_fn.forward(logits, y_vn)
            model.zero_grad()
            model.backward(step.loss_fn.backward())
            stack[node.index] = arena.grads_flat  # one contiguous snapshot
            weights[node.index] = float(node.batch_size)
            weighted_loss += loss_value * node.batch_size
            if states is not None:
                # Stateful kernels updated during the wave belong to this node.
                states.layout.pack(dict(model.named_buffers()),
                                   out=states.rows[node.index])
        import repro.core.sync as sync  # training only: serving never loads it
        avg_flat = sync.weighted_average_flat(stack, weights)
        return TrainStepOutput(
            avg_grads=arena.view_of(avg_flat),
            weighted_loss=weighted_loss,
        )

    def infer(self, model: Module, vn_set: VirtualNodeSet, x: np.ndarray,
              runs: Sequence[Tuple[int, int]]) -> np.ndarray:
        outputs: List[np.ndarray] = []
        row = 0
        for size, count in np.asarray(runs).tolist():
            if size < 0 or count < 0:
                raise ValueError(f"size runs {runs!r} hold a negative number")
            for _ in range(count):  # one forward per non-empty segment
                if size:
                    outputs.append(model.forward(x[row:row + size], training=False))
                row += size
        if row != len(x):
            raise ValueError(f"size runs cover {row} rows of a batch of {len(x)}")
        return np.concatenate(outputs, axis=0)


def weighted_average(contributions: Sequence[Tuple[Grads, float]]) -> Grads:
    """Example-weighted average of per-worker mean gradients (§5.2).

    Each contribution is ``(mean_grads, example_count)``.  The result equals
    the plain mean over all examples, however they were split.  Keys are
    visited in sorted order and contributions summed in the given
    (canonical) order, so results are bit-reproducible.
    """
    if not contributions:
        raise ValueError("no gradient contributions to synchronize")
    keys = sorted(contributions[0][0])
    for grads, _ in contributions[1:]:
        if sorted(grads) != keys:
            raise KeyError("gradient contributions disagree on parameter keys")
    # A plain sequential Python sum: the canonical accumulation order.
    total = float(sum(weight for _, weight in contributions))
    if total <= 0:
        raise ValueError(f"total weight must be positive, got {total}")
    out: Grads = {}
    for key in keys:
        acc = np.zeros_like(contributions[0][0][key])
        for grads, weight in contributions:
            acc += (weight / total) * grads[key]
        out[key] = acc
    return out
