"""A training step as the serial per-key loop the flat tensor arena replaced.

Kept as the executor ran it with ``arena=False`` on the reference backend:
each virtual node's wave runs in canonical order (load its stateful kernels,
forward under its RNG stream, backward, save its kernels), its gradients are
snapshotted as a dict of per-key copies, the §5.2 example-weighted average
is ``sync.weighted_average``'s per-key loop over those dicts, and
``Optimizer.step`` updates the model through plain dicts (its per-key
``_update`` path).  The model carries no arena, so nothing here touches a
flat buffer.  ``VirtualFlowExecutor.run_step`` — arena, stacked gradient
rows, whole-arena optimizer updates, on either backend — must produce the
same loss, gradient norm, parameters, optimizer slots and per-node states
bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.sharding import shard_batch
from repro.core.state import VirtualNodeState
from repro.core.sync import weighted_average
from repro.utils.seeding import vn_rng

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """The executor's numeric state, stepped by the per-key loop.

    Exposes ``model``, ``loss_fn``, ``optimizer`` and ``vn_states`` under
    the executor's names, so ``oracles.evaluate`` evaluates it as well.
    """

    def __init__(self, model, loss_fn, optimizer, vn_set, seed: int = 0) -> None:
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.vn_set = vn_set
        self.seed = seed
        init = model.state_dict()
        self.vn_states: List[VirtualNodeState] = [
            VirtualNodeState(i, {k: v.copy() for k, v in init.items()})
            for i in range(vn_set.num_nodes)]

    def run_step(self, x: np.ndarray, y: np.ndarray, epoch: int,
                 step: int) -> Tuple[float, float]:
        """One global batch; returns ``(mean loss, gradient norm)``."""
        model = self.model
        stateful = any(True for _ in model.named_buffers())
        contributions = []
        weighted_loss = 0.0
        for node, (x_vn, y_vn) in zip(self.vn_set, shard_batch(self.vn_set, x, y)):
            state = self.vn_states[node.index]
            if stateful:
                model.load_state_dict(state.buffers)
            logits = model.forward(x_vn, training=True,
                                   rng=vn_rng(self.seed, epoch, step, node.index))
            loss_value = self.loss_fn.forward(logits, y_vn)
            model.zero_grad()
            model.backward(self.loss_fn.backward())
            grads = {k: v.copy() for k, v in model.gradients().items()}
            contributions.append((grads, float(node.batch_size)))
            weighted_loss += loss_value * node.batch_size
            if stateful:
                state.buffers = model.state_dict()
        avg = weighted_average(contributions)
        self.optimizer.step(model.parameters(), avg)
        sq = 0.0
        for g in avg.values():
            sq += float(np.sum(g * g))
        return weighted_loss / len(x), float(np.sqrt(sq))
