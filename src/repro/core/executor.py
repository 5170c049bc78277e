"""The virtual-node step executor (paper Figure 5).

One training step processes every virtual node's shard — V forward/backward
passes per device — folds gradients into the shared buffer, synchronizes the
weighted average across devices, and applies one optimizer update to the
(replicated) model.

Determinism contract
--------------------
The numeric reduction sums per-virtual-node gradients in **canonical
virtual-node order**, not in device order.  Floating-point addition is not
associative, so reducing per-device partial sums would make results depend on
the mapping; reducing in virtual-node order makes training *bit-identical*
across any mapping — the strongest possible version of the paper's
"convergence depends only on virtual nodes" guarantee.  The per-device
gradient buffer is still modeled (its bytes appear in every memory number);
only the reduction order is canonicalized.

Stateful kernels (BatchNorm moving statistics) are per-virtual-node state:
the rows of one matrix the executor owns (:class:`~repro.core.state.
StateMatrix`), which every step updates in place, node by node, so they
follow virtual nodes across resizes exactly as §4.1 requires.

Execution strategy
------------------
*How* the waves run on the host is delegated to the engine's
:class:`~repro.core.backends.ExecutionBackend` (the fused vectorized pass,
which resolves the model's kernel plan at construction and refuses a model
it cannot run there; tests swap in the serial oracle loop).  A backend may
only change host wall-clock cost; the simulated device schedule and the
numeric results are backend-independent (bit-exactly so for every built-in
workload, stateful kernels included).  Parameters and gradients live in
the model's :class:`~repro.framework.arena.FlatTensorArena`, installed at
construction: two contiguous buffers, so synchronization and the optimizer
update run as a handful of whole-arena vector ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.backends import TrainStep
from repro.core.engine import VirtualNodeEngine
from repro.core.mapping import Mapping
from repro.core.plan import ExecutionPlan
from repro.core.sharding import shard_batch
from repro.core.state import (
    StateMatrix,
    VirtualNodeState,
    merged_eval_state,
    migrate_states,
)
from repro.core.virtual_node import VirtualNodeSet
from repro.framework.arena import FlatTensorArena
from repro.framework.layers import Module
from repro.framework.losses import Loss
from repro.framework.metrics import accuracy
from repro.framework.optimizers import Optimizer

from repro.framework.models import Workload

__all__ = ["VirtualFlowExecutor", "StepResult"]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one synchronous training step."""

    loss: float
    examples: int
    sim_step_time: float
    grad_norm: float


class VirtualFlowExecutor:
    """Runs training steps under a virtual-node mapping.

    Parameters
    ----------
    workload:
        Registered workload (supplies the resource footprint and perf curve).
    model, loss_fn, optimizer:
        The numeric training state.  The single ``model`` instance plays the
        role of the per-device replicas: synchronous data parallelism keeps
        replicas identical, so one copy is semantically exact.
    mapping:
        The current virtual-node-to-device mapping.  Replaceable at any step
        boundary via :meth:`remap` — that is resource elasticity.
    seed:
        Root seed for all per-virtual-node randomness.
    """

    def __init__(self, workload: Workload, model: Module, loss_fn: Loss,
                 optimizer: Optimizer, mapping: Mapping, seed: int = 0,
                 augment=None) -> None:
        self.workload = workload
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.seed = seed
        self.augment = augment  # optional repro.data.augment.Transform
        self.arena = FlatTensorArena.install(model)
        self.engine = VirtualNodeEngine(workload, mapping)
        self.engine.backend.bind(model)
        self.sim_time = 0.0
        self.steps_run = 0
        self.examples_seen = 0
        self.resize_count = 0
        # Every virtual node starts from the model's initial stateful buffers,
        # as a row of the job's one state matrix (None: a stateless model).
        init_state = model.state_dict()
        states = [VirtualNodeState(i, dict(init_state))
                  for i in range(mapping.vn_set.num_nodes)]
        self.state_matrix = StateMatrix.of(states)
        self._vn_states = states if self.state_matrix is None else self.state_matrix.nodes
        self._eval_state: Optional[Dict[str, np.ndarray]] = None
        # The step workspace (TrainStep.workspace): buffers every step needs
        # again at the same shapes.  Kept across remap, which preserves the
        # virtual-node set and with it every shape.
        self._workspace: Dict[tuple, object] = {}

    # -- engine-delegated views ---------------------------------------------

    @property
    def vn_set(self) -> VirtualNodeSet:
        return self.engine.vn_set

    @property
    def mapping(self) -> Mapping:
        return self.engine.mapping

    @property
    def plan(self) -> ExecutionPlan:
        return self.engine.plan

    @property
    def backend(self):
        return self.engine.backend

    @property
    def vn_states(self) -> List[VirtualNodeState]:
        """Per-virtual-node stateful kernels (the live list).

        Each state's ``buffers`` are views into its row of
        :attr:`state_matrix`, which :meth:`run_step` updates in place; take a
        :meth:`~repro.core.state.VirtualNodeState.copy` to keep values.
        Assigning the property (the checkpoint-restore path) copies the
        given states' values into the rows.  The merged evaluation view of
        the states is cached; the cache is invalidated by :meth:`run_step`,
        :meth:`remap`, and assignment.  Callers that write into the buffers
        directly must reassign the property (``ex.vn_states =
        ex.vn_states``) so stale evaluation results cannot be served.
        """
        return self._vn_states

    @vn_states.setter
    def vn_states(self, states: List[VirtualNodeState]) -> None:
        if self.state_matrix is not None:
            self.state_matrix.load(states)
        self._eval_state = None

    # -- one step (Figure 5) ---------------------------------------------------

    def run_step(self, x: np.ndarray, y: np.ndarray, epoch: int, step: int) -> StepResult:
        """Process one global batch: V waves per device, sync, update."""
        if len(x) != self.vn_set.global_batch_size:
            raise ValueError(
                f"global batch of {len(x)} examples does not match the virtual "
                f"node set (expects {self.vn_set.global_batch_size})"
            )
        shards = shard_batch(self.vn_set, x, y)
        # Waves may update stateful kernels before a later wave fails, so the
        # cached evaluation view is stale the moment execution starts.
        self._eval_state = None
        # Steps 1-4: per-wave execution + canonical-order aggregation, via
        # the engine's execution backend (see module doc).
        out = self.engine.backend.train_step(TrainStep(
            model=self.model,
            loss_fn=self.loss_fn,
            vn_set=self.vn_set,
            state_matrix=self.state_matrix,
            shards=shards,
            seed=self.seed,
            epoch=epoch,
            step=step,
            augment=self.augment,
            arena=self.arena,
            workspace=self._workspace,
        ))
        avg_grads = out.avg_grads
        # Step 5: every replica applies the same averaged gradients.
        self.optimizer.step(self.model.parameters(), avg_grads)
        # A diverged model can overflow float64 here; report inf, not a warning.
        sq = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for g in avg_grads.values():
                sq += float(np.sum(g * g))
        step_time = self.engine.step_time()
        self.sim_time += step_time
        self.steps_run += 1
        self.examples_seen += len(x)
        return StepResult(
            loss=out.weighted_loss / len(x),
            examples=len(x),
            sim_step_time=step_time,
            grad_norm=float(np.sqrt(sq)),
        )

    # -- evaluation ----------------------------------------------------------------

    def _merged_eval_state(self) -> Dict[str, np.ndarray]:
        """Cached :func:`repro.core.state.merged_eval_state` of the live states.

        Repeated ``evaluate()`` calls (early-stopping loops) reuse the merge
        until a step, remap, or checkpoint restore invalidates it.
        """
        if self._eval_state is None:
            self._eval_state = merged_eval_state(self.state_matrix)
        return self._eval_state

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> Tuple[float, float]:
        """Return (mean loss, accuracy) on a dataset, in inference mode.

        Each batch is one inference call on the execution backend, as one
        shard: the same forward path serving runs, at the GEMM shapes of
        ``model.forward`` on the whole batch, so the logits are those of the
        reference layers bit for bit.  The fused backend leaves no
        activation cached on the model.
        """
        if len(x) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        saved = self.model.state_dict()
        if self.state_matrix is not None:
            self.model.load_state_dict(self._merged_eval_state())
        infer = self.engine.backend.infer
        total_loss = 0.0
        correct_weighted = 0.0
        for start in range(0, len(x), batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            logits = infer(self.model, self.vn_set, xb, ((0, len(xb)),))
            total_loss += self.loss_fn.forward(logits, yb) * len(xb)
            correct_weighted += accuracy(logits, yb) * len(xb)
        self.model.load_state_dict(saved)
        return total_loss / len(x), correct_weighted / len(x)

    # -- elasticity (§4) --------------------------------------------------------------

    def remap(self, new_mapping: Mapping) -> float:
        """Redistribute virtual nodes (resize); returns simulated migration time.

        The virtual node set must be preserved; model parameters, optimizer
        slots, and per-node stateful kernels all survive — training continues
        as if nothing happened, which is the paper's headline elasticity
        guarantee.
        """
        migration = migrate_states(
            self._vn_states, self.mapping, new_mapping,
            model_bytes=self.workload.footprint.param_bytes,
        )
        self.engine.remap(new_mapping)
        self._eval_state = None
        self.sim_time += migration
        self.resize_count += 1
        return migration
