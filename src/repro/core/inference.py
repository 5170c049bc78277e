"""Batched inference under virtual node processing.

The paper's abstraction covers "each step of training or inference": an
inference batch is split across virtual nodes exactly like a training batch,
so a serving job can also shrink onto fewer accelerators (more waves, more
latency) or spread out (fewer waves, less latency) without changing results.

:class:`InferenceEngine` is a thin driver over the shared
:class:`~repro.core.engine.VirtualNodeEngine`: sharding and the numeric
forward passes go through the engine's execution backend (the fused
backend runs all shards — equal- or mixed-size — as one segmented
vectorized pass over a run it caches per shard-bounds table: bounded, and
stateless, so nothing of one micro-batch outlives it), and per-request
latency accounting uses the engine's validated plan — the same plan/latency
logic training uses, not a private reimplementation.

Serving
-------
The online serving layer (:mod:`repro.serving`) drives this engine with
*micro-batches* of single-example requests.  :meth:`predict_requests` is the
batch-of-requests entry point: it stacks request rows into one batch and
serves them through the exact same code path as :meth:`predict`, so a
micro-batch's logits are bit-identical to a one-shot batch of the same
examples.  A serving engine built from a trained job
(:meth:`from_executor`, or ``vn_states=...``) evaluates under the canonical
merged view of the per-virtual-node stateful kernels
(:func:`repro.core.state.merged_eval_state`); the merge is computed once and
cached across micro-batches — and across :meth:`remap` calls, which change
placement but never state — rather than being recomputed per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import VirtualNodeEngine
from repro.core.mapping import Mapping
from repro.core.plan import ExecutionPlan
# Called through its module, so that a patch of the function reaches
# this module whenever it loads (see repro._lazy).
from repro.core import state as vn_state
from repro.core.state import VirtualNodeState, state_layout
from repro.framework.layers import Module
from repro.framework.models import Workload
from repro.hardware.perfmodel import PerfModel

__all__ = ["InferenceEngine", "InferenceResult"]


@dataclass(frozen=True)
class InferenceResult:
    """Predictions plus the simulated service latency for one batch."""

    logits: np.ndarray
    sim_latency: float
    waves: int


class InferenceEngine:
    """Serve forward passes under a virtual-node mapping.

    Unlike training, inference has no gradient synchronization; the latency
    model is the bottleneck device's sequential waves.  Results are
    mapping-independent because inference is deterministic (no dropout) and
    shards are concatenated back in canonical order.

    ``vn_states`` (optional) are the per-virtual-node stateful kernels of the
    training job this engine serves; when present and non-empty, their merged
    evaluation view is loaded into the model once, before the first request,
    and reused for every subsequent micro-batch (see :meth:`set_vn_states`).
    """

    def __init__(self, workload: Workload, model: Module, mapping: Mapping,
                 perf: Optional[PerfModel] = None,
                 vn_states: Optional[Sequence[VirtualNodeState]] = None) -> None:
        self.workload = workload
        self.model = model
        # Plan validation at construction (the simulated analogue of OOM at
        # graph build time) happens inside the shared engine.
        self.engine = VirtualNodeEngine(workload, mapping, perf=perf)
        self.requests_served = 0
        self.sim_time = 0.0
        self._vn_states: Optional[List[VirtualNodeState]] = None
        self._state_layout = None
        self._state_stack: Optional[np.ndarray] = None  # (V, S) merge scratch
        self._eval_state: Optional[Dict[str, np.ndarray]] = None
        if vn_states is not None:
            self.set_vn_states(vn_states)

    @classmethod
    def from_executor(cls, executor, mapping: Optional[Mapping] = None,
                      ) -> "InferenceEngine":
        """Serve a trained job's model under its merged stateful-kernel view.

        The returned engine shares the executor's model instance (parameters
        are replicated everywhere by synchronous training, so one copy is
        semantically exact) and snapshots its per-virtual-node states for the
        evaluation merge.  ``mapping`` defaults to the executor's current
        mapping.
        """
        return cls(
            executor.workload,
            executor.model,
            mapping if mapping is not None else executor.mapping,
            vn_states=executor.vn_states,
        )

    # -- engine-delegated views ---------------------------------------------

    @property
    def mapping(self) -> Mapping:
        return self.engine.mapping

    @property
    def plan(self) -> ExecutionPlan:
        return self.engine.plan

    @property
    def perf(self) -> PerfModel:
        return self.engine.perf

    @property
    def backend(self):
        return self.engine.backend

    # -- stateful-kernel evaluation view -------------------------------------

    def set_vn_states(self, vn_states: Sequence[VirtualNodeState]) -> None:
        """Install (or replace) the per-virtual-node states this engine serves.

        Invalidates the cached merged evaluation view; the next request
        recomputes it.  Remapping does *not* invalidate the cache —
        placement changes never touch virtual-node state.
        """
        self._vn_states = list(vn_states)
        self._eval_state = None
        self._state_layout = state_layout(self._vn_states)

    def _ensure_eval_state(self) -> None:
        """Serve under the cached merged evaluation view.

        The merge (pack + in-order reduce over all virtual-node states) is
        computed once and reused across micro-batches; the cheap buffer
        *load* happens per request batch, because an engine built with
        :meth:`from_executor` shares the executor's live model — a training
        step between requests leaves the last wave's un-merged kernels in
        the model's buffers, and they must not leak into serving results.
        """
        if self._state_layout is None:
            return
        if self._eval_state is None:
            self._eval_state, self._state_stack = vn_state.merged_eval_state(
                self._vn_states, self._state_layout, self._state_stack)
        self.model.load_state_dict(self._eval_state)

    # -- serving --------------------------------------------------------------

    def predict(self, x: np.ndarray) -> InferenceResult:
        """Run one inference batch, split across virtual nodes."""
        if len(x) == 0:
            raise ValueError("cannot run inference on an empty batch")
        self._ensure_eval_state()
        # Latency: bottleneck device's sequential forward waves (forward pass
        # ~1/3 of a full training wave in the analytic model's spirit; we use
        # the full wave time as a conservative envelope).
        engine = self.engine
        bounds, latency, waves = engine.inference_plan(len(x))
        logits = engine.backend.infer(self.model, engine.vn_set, x, bounds)
        self.requests_served += 1
        self.sim_time += latency
        return InferenceResult(logits=logits, sim_latency=latency, waves=waves)

    def predict_requests(self, examples: Sequence[np.ndarray]) -> InferenceResult:
        """Serve one micro-batch of single-example requests.

        ``examples`` are request payloads without a batch axis, in queue
        order; they are stacked into one batch and served through the exact
        :meth:`predict` path, so row ``i`` of the returned logits is
        request ``i``'s result and the whole micro-batch is bit-identical to
        a one-shot batch of the same examples.  The request router dispatches
        every micro-batch through here; the merged-eval-state cache persists
        across calls.
        """
        if len(examples) == 0:
            raise ValueError("cannot serve an empty micro-batch")
        # One array construction gathers the rows (ragged payloads raise
        # ValueError here, as stacking them would).
        return self.predict(np.array(examples))

    def remap(self, mapping: Mapping) -> None:
        """Move the serving job to different hardware (no state migration
        needed beyond parameters, which every replica already has)."""
        if mapping.vn_set != self.mapping.vn_set:
            raise ValueError("inference remap must preserve the virtual node set")
        self.engine.remap(mapping)
