"""The canonical serial execution backend (paper Figure 5).

One training step processes every virtual node's shard as a strictly serial
wave loop in **canonical virtual-node order**: load the node's stateful
kernels, forward, backward, snapshot its gradients, save its kernels.
Floating-point addition is not associative, so this fixed order is what makes
training bit-identical across any virtual-node-to-device mapping — the
strongest form of the paper's "convergence depends only on virtual nodes"
guarantee.

This backend is deliberately unoptimized: it is the *oracle* the fused
backend (:mod:`repro.core.backends.fused`) is tested against, wave for wave
and bit for bit, and that backend's fallback for modules without kernels.
Each wave's gradients are snapshotted as one contiguous row of a reused
``(V, P)`` stack over the model's flat tensor arena, and the §5.2 weighted
average is one scaled stack reduction — the same arithmetic as the per-key
loop (``tests/oracles/serial_step.py``) in a handful of vector ops.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends.base import ExecutionBackend, TrainStep, TrainStepOutput
from repro.core.sharding import check_shard_bounds, shard_indices
from repro.core.virtual_node import VirtualNodeSet
from repro.framework.layers import Module
from repro.utils.seeding import augment_rng, vn_rng

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ExecutionBackend):
    """Serial per-wave execution in canonical virtual-node order."""

    name = "reference"

    @staticmethod
    def _is_stateful(step: TrainStep) -> bool:
        """Whether this step must round-trip per-node stateful kernels.

        Stateless models (the empty-buffer common case) skip the per-wave
        ``state_dict()``/``load_state_dict()`` pair entirely — the reference
        loop used to deep-copy empty-adjacent dicts once per wave.  A
        stateful *model* never skips: if its step carries empty per-node
        buffers, ``load_state_dict`` raises the same loud KeyError it always
        did rather than silently sharing one running state across waves.
        """
        if step.state_layout is not None:
            return True
        if any(True for _ in step.model.named_buffers()):
            return True
        return any(state.buffers for state in step.vn_states)

    def train_step(self, step: TrainStep) -> TrainStepOutput:
        model = step.model
        arena = step.arena
        stateful = self._is_stateful(step)
        num_nodes = step.vn_set.num_nodes
        stack = arena.grad_stack(num_nodes)
        weights = [0.0] * num_nodes
        weighted_loss = 0.0
        # Physically, shards execute as per-device waves in parallel; since
        # every wave reads the same (frozen) parameters, iterating in
        # canonical virtual-node order computes identical values.
        for node, (x_vn, y_vn) in zip(step.vn_set, step.shards):
            state = step.vn_states[node.index]
            if stateful:
                model.load_state_dict(state.buffers)
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
            if stateful:
                # Stateful kernels updated during the wave belong to this node.
                state.buffers = model.state_dict()
        import repro.core.sync as sync  # training only: serving never loads it
        avg_flat = sync.weighted_average_flat(stack, weights, clobber=True)
        return TrainStepOutput(
            avg_grads=arena.view_of(avg_flat),
            weighted_loss=weighted_loss,
        )

    def infer(self, model: Module, vn_set: VirtualNodeSet, x: np.ndarray,
              bounds: Optional[Sequence[Tuple[int, int]]] = None) -> np.ndarray:
        if bounds is None:
            bounds = shard_indices(vn_set, len(x))
        else:
            if isinstance(bounds, np.ndarray):  # size runs: their segments
                sizes = np.repeat(*bounds.T)
                bounds = list(zip(np.cumsum(sizes) - sizes, np.cumsum(sizes)))
            check_shard_bounds(bounds, len(x))
        outputs: List[np.ndarray] = []
        for start, end in bounds:
            if end > start:
                outputs.append(model.forward(x[start:end], training=False))
        return np.concatenate(outputs, axis=0)
