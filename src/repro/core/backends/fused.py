"""The fused execution backend: every wave of a step as one vectorized pass.

The serial wave loop (the oracle) pays for determinism with one
forward/backward, one full ``state_dict`` round-trip, and one deep
gradient copy per virtual node.  :class:`FusedBackend` removes that cost
for the entire built-in workload zoo:

* All of a step's shards are concatenated along the batch axis in canonical
  virtual-node order and executed as **one** segmented forward/backward
  (:mod:`repro.core.backends.vectorized`), with per-virtual-node gradient
  contributions kept separate and reduced in canonical order.  Mixed-size
  wave groups fuse the same way — the per-virtual-node segment table keeps
  every reduction and GEMM on its reference shapes, so the result is
  bit-identical to the reference loop (see the vectorized module's
  contract) without fragmenting into one stacked run per shard size.
* Stateful kernels (BatchNorm moving statistics) no longer force the serial
  loop: the per-virtual-node states are the rows of the job's one
  ``(V, S)`` matrix (:class:`repro.core.state.StateMatrix`), and the run
  reads and updates them in place through its ``(V, ...)``-stacked views,
  built once per matrix — no per-node copy in or out of a step.
* Inference batches run the same kernels over a **stateless** run, built
  for its one call from the size runs the caller hands over: an inference
  engine's memoized per-length plan, or a serving router's micro-batches
  stacked with every node segment grouped by size
  (:meth:`~repro.core.inference.InferenceEngine.predict_stacked`).
* Kernel dispatch is resolved once per model, at :meth:`bind`, into one
  plan (:func:`~repro.core.backends.vectorized.kernel_plan`) that training
  and inference walk.  There is no serial fallback: what the pass cannot
  run raises ``UnsupportedModule`` — a module at ``bind``; a loss, or a
  stateful step without a state matrix, at the first step before any row
  changes.  Every engine shares one instance of this backend
  (:mod:`repro.core.engine`), so its plan cache serves them all.

Fusing changes *host wall-clock* cost only: the simulated device schedule
(waves, memory, step time) is a property of the mapping and is accounted by
the engine layer.
"""

from __future__ import annotations

import weakref
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.backends.base import (
    ExecutionBackend,
    Grads,
    TrainStep,
    TrainStepOutput,
)
from repro.core.backends.vectorized import (
    VectorizedRun,
    _dropout_fwd,
    kernel_plan,
    loss_kernel,
)
from repro.core.sharding import size_runs
from repro.core.virtual_node import VirtualNodeSet
from repro.framework.layers import Module
from repro.utils.seeding import augment_rng, vn_rng

__all__ = ["FusedBackend"]


class FusedBackend(ExecutionBackend):
    """Vectorize whole wave groups, walking one kernel plan per model."""

    name = "fused"

    def __init__(self) -> None:
        # Module graphs are immutable, so a model's kernel plan is a
        # constant; memoize it (weakly, models outlive no executor).
        self._plans: "weakref.WeakKeyDictionary[Module, List]" = weakref.WeakKeyDictionary()

    def bind(self, model: Module) -> None:
        """Resolve ``model``'s kernel plan (see the module doc)."""
        if model not in self._plans:
            self._plans[model] = kernel_plan(model)

    # -- training ------------------------------------------------------------

    def train_step(self, step: TrainStep) -> TrainStepOutput:
        try:
            plan = self._plans[step.model]
        except KeyError:  # a hand-built step on an unbound model
            plan = self._plans[step.model] = kernel_plan(step.model)
        loss = loss_kernel(step.loss_fn)  # before any kernel writes a state row

        # Concatenate shards along the batch axis in canonical virtual-node
        # order; their size runs keep each node's rows addressable.
        nodes = list(step.vn_set)
        xs: List[np.ndarray] = []
        ys: List[np.ndarray] = []
        sizes: List[int] = []
        for node, (x_vn, y_vn) in zip(nodes, step.shards):
            if step.augment is not None:
                x_vn = step.augment.apply(
                    x_vn, augment_rng(step.seed, step.epoch, step.step, node.index))
            xs.append(x_vn)
            ys.append(y_vn)
            sizes.append(len(x_vn))
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys, axis=0)

        def rngs() -> List[np.random.Generator]:  # derived by the first Dropout
            return [vn_rng(step.seed, step.epoch, step.step, node.index)
                    for node in nodes]

        # Stateful kernels update every node's row of the state matrix in
        # place, through its stacked views.
        states = step.state_matrix
        run = VectorizedRun(size_runs(sizes), training=True, rngs=rngs,
                            state_views=None if states is None else states.stacked,
                            workspace=step.workspace)
        for forward, _, module, prefix in plan:
            x = forward(module, run, prefix, x)
        losses, grad = loss(step.loss_fn, run, x, y)
        for i in range(len(plan) - 1, -1, -1):
            _, backward, module, prefix = plan[i]
            # Step 0 receives the batch input, whose gradient nobody reads.
            grad = backward(module, run, prefix, grad, i > 0)

        # Segment reduction in canonical virtual-node order — the exact
        # arithmetic of the §5.2 per-key weighted average, including its
        # sorted key iteration (grad_norm later sums values in dict order).
        # Scaling the (V, ...) stack row-wise and reducing over the stack
        # axis (a sequential, in-order accumulation in NumPy) is
        # bit-identical to the canonical loop — in one vector op per
        # parameter.  The averages land in one flat buffer (returned as an
        # arena view) so the optimizer's whole-arena update engages
        # downstream.
        total = float(sum(float(node.batch_size) for node in nodes))
        scales = [float(node.batch_size) / total for node in nodes]
        params = step.arena.layout
        avg: Grads = step.arena.view_of(np.empty(params.total_size, dtype=params.dtype))
        uniform_scale = scales[0] if len(set(scales)) == 1 else None
        scale_col = None if uniform_scale is not None else np.asarray(scales)
        for key in sorted(run.param_grads):
            stack = run.param_grads[key]
            if uniform_scale is not None:
                scaled = uniform_scale * stack
            else:
                scaled = stack * scale_col.reshape(
                    (len(nodes),) + (1,) * (stack.ndim - 1))
            np.add.reduce(scaled, 0, out=avg[key])

        weighted_loss = 0.0
        for node, loss_value in zip(nodes, losses):
            weighted_loss += loss_value * node.batch_size
        return TrainStepOutput(avg_grads=avg, weighted_loss=weighted_loss)

    # -- inference -----------------------------------------------------------

    def infer(self, model: Module, vn_set: VirtualNodeSet, x: np.ndarray,
              runs: Sequence[Tuple[int, int]]) -> np.ndarray:
        try:
            plan = self._plans[model]
        except KeyError:  # a model no engine bound
            plan = self._plans[model] = kernel_plan(model)
        run = VectorizedRun(runs, training=False)
        if run.batch != len(x):
            raise ValueError(
                f"size runs cover {run.batch} rows of a batch of {len(x)}")
        for forward, _, module, prefix in plan:
            if forward is not _dropout_fwd:  # the identity outside training
                x = forward(module, run, prefix, x)
        return x
