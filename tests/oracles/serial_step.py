"""A training step as the serial per-key loop the flat tensor arena replaced.

Kept as the executor ran it with ``arena=False`` on the reference backend:
each virtual node's wave runs in canonical order (load its stateful kernels,
forward under its RNG stream, backward, save its kernels), its gradients are
snapshotted as a dict of per-key copies, the §5.2 example-weighted average
is ``reference_backend.weighted_average``'s per-key loop over those dicts,
and :class:`PerKeyOptimizer` updates the model one parameter at a time, in
sorted key order, with the update rules the optimizers ran before they
became whole-arena updates.  The model carries no arena, so nothing here
touches a flat buffer.  ``VirtualFlowExecutor.run_step`` — arena, stacked
gradient rows, whole-arena optimizer updates, on either backend — must
produce the same loss, gradient norm, parameters, optimizer slots and
per-node states bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.sharding import shard_batch
from repro.core.state import VirtualNodeState
from repro.framework.arena import FlatLayout
from repro.framework.optimizers import LAMB, SGD, Adam, AdamW, Momentum
from repro.utils.seeding import vn_rng

from oracles.reference_backend import weighted_average

__all__ = ["PerKeyOptimizer", "SerialExecutor"]


class PerKeyOptimizer:
    """``optimizer``'s update rule (and hyperparameters) applied per key.

    Slots are per-key dicts, created at zero on a key's first update;
    :meth:`state_dict` packs each into the flat ``{slot kind: array}`` form
    ``Optimizer.state_dict`` returns, so the two compare directly.
    """

    def __init__(self, optimizer) -> None:
        self.hyper = optimizer
        self.rule = {SGD: self._sgd, Momentum: self._momentum, Adam: self._adam,
                     AdamW: self._adamw, LAMB: self._lamb}[type(optimizer)]
        self.step_count = 0
        self.slots = {name: {} for name in optimizer.SLOTS}

    def step(self, params, grads) -> None:
        self.step_count += 1
        for key in sorted(params):  # sorted: deterministic update order
            self.rule(key, params[key], grads[key])

    def state_dict(self):
        return {name: FlatLayout(values).pack(values)
                for name, values in self.slots.items() if values}

    def _slot(self, name, key, param):
        return self.slots[name].setdefault(key, np.zeros_like(param))

    def _sgd(self, key, param, grad):
        param -= self.hyper.lr * grad

    def _momentum(self, key, param, grad):
        h = self.hyper
        v = self._slot("velocity", key, param)
        v *= h.momentum
        v += grad
        if h.nesterov:
            param -= h.lr * (grad + h.momentum * v)
        else:
            param -= h.lr * v

    def _moments(self, key, param, grad):
        h = self.hyper
        m = self._slot("m", key, param)
        v = self._slot("v", key, param)
        m *= h.beta1
        m += (1 - h.beta1) * grad
        v *= h.beta2
        v += (1 - h.beta2) * grad * grad
        m_hat = m / (1 - h.beta1**self.step_count)
        v_hat = v / (1 - h.beta2**self.step_count)
        return m_hat, v_hat

    def _adam(self, key, param, grad):
        m_hat, v_hat = self._moments(key, param, grad)
        param -= self.hyper.lr * m_hat / (np.sqrt(v_hat) + self.hyper.eps)

    def _adamw(self, key, param, grad):
        h = self.hyper
        m_hat, v_hat = self._moments(key, param, grad)
        param -= h.lr * (m_hat / (np.sqrt(v_hat) + h.eps) + h.weight_decay * param)

    def _lamb(self, key, param, grad):
        h = self.hyper
        m_hat, v_hat = self._moments(key, param, grad)
        update = m_hat / (np.sqrt(v_hat) + h.eps) + h.weight_decay * param
        w_norm = float(np.linalg.norm(param))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
        param -= h.lr * trust * update


class SerialExecutor:
    """The executor's numeric state, stepped by the per-key loop.

    Exposes ``model``, ``loss_fn``, ``optimizer`` and ``vn_states`` under
    the executor's names, so ``oracles.evaluate`` evaluates it as well.
    """

    def __init__(self, model, loss_fn, optimizer, vn_set, seed: int = 0) -> None:
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = PerKeyOptimizer(optimizer)
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
