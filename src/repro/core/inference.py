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
*micro-batches* of single-example requests, in two halves.  At dispatch the
router only prices a batch (:meth:`price`: the latency and waves of the
validated plan, charged to the engine's counters as :meth:`predict` charges
them), since simulated time comes from the perf model, never from host
compute.  The numbers come later: completed micro-batches queue up and
:meth:`predict_stacked` forwards them together, every node segment of every
micro-batch gathered by segment size into one backend call, so each layer
runs one stacked op per segment size instead of a few per micro-batch.
Every segment keeps the shape it has in its own micro-batch, so each
micro-batch's logits are byte-equal to :meth:`predict_requests` of it — a
one-shot batch of the same examples — on every backend.  A serving engine
built from a trained job (:meth:`from_executor`, or ``vn_states=...``)
copies the per-virtual-node stateful kernels into a state matrix of its own
and evaluates under their canonical merged view
(:func:`repro.core.state.merged_eval_state`); the merge is computed
once and cached across micro-batches — and across :meth:`remap` calls,
which change placement but never state — rather than being recomputed per
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import VirtualNodeEngine
from repro.core.mapping import Mapping
from repro.core.plan import ExecutionPlan
from repro.framework.layers import Module
from repro.framework.models import Workload

if TYPE_CHECKING:
    from repro.core.state import StateMatrix, VirtualNodeState

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
                 vn_states: Optional[Sequence[VirtualNodeState]] = None) -> None:
        self.workload = workload
        self.model = model
        # Plan validation at construction (the simulated analogue of OOM at
        # graph build time) happens inside the shared engine.
        self.engine = VirtualNodeEngine(workload, mapping)
        self.engine.backend.bind(model)
        self.requests_served = 0
        self.sim_time = 0.0
        # batch length -> each row's node-segment size (predict_stacked),
        # dropped with the engine's plan memo on remap
        self._row_labels: Dict[int, np.ndarray] = {}
        self._state_matrix: Optional[StateMatrix] = None
        self._eval_state: Optional[Dict[str, np.ndarray]] = None
        if vn_states is not None:
            self.set_vn_states(vn_states)

    @classmethod
    def from_executor(cls, executor, mapping: Optional[Mapping] = None,
                      ) -> "InferenceEngine":
        """Serve a trained job's model under its merged stateful-kernel view.

        The returned engine shares the executor's model instance (parameters
        are replicated everywhere by synchronous training, so one copy is
        semantically exact) and copies its per-virtual-node states for the
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
    def backend(self):
        return self.engine.backend

    # -- stateful-kernel evaluation view -------------------------------------

    def set_vn_states(self, vn_states: Sequence[VirtualNodeState]) -> None:
        """Install (or replace) the per-virtual-node states this engine serves:
        their values, copied into the engine's own state matrix.

        Invalidates the cached merged evaluation view; the next request
        recomputes it.  Remapping does *not* invalidate the cache —
        placement changes never touch virtual-node state.
        """
        import repro.core.state as vn_state  # only an engine with node state
        self._state_matrix = vn_state.StateMatrix.of(list(vn_states))
        self._eval_state = None

    def _ensure_eval_state(self) -> None:
        """Serve under the cached merged evaluation view.

        The merge (an in-order reduce over the state matrix's rows) is
        computed once and reused across micro-batches; the cheap buffer
        *load* happens per request batch, because an engine built with
        :meth:`from_executor` shares the executor's live model — a training
        step between requests leaves the last wave's un-merged kernels in
        the model's buffers, and they must not leak into serving results.
        """
        if self._state_matrix is None:
            return
        if self._eval_state is None:
            import repro.core.state as vn_state  # through the module: a patch is seen
            self._eval_state = vn_state.merged_eval_state(self._state_matrix)
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
        a one-shot batch of the same examples.  The merged-eval-state cache
        persists across calls.
        """
        if len(examples) == 0:
            raise ValueError("cannot serve an empty micro-batch")
        # One array construction gathers the rows (ragged payloads raise
        # ValueError here, as stacking them would).
        return self.predict(np.array(examples))

    def price(self, batch_size: int) -> Tuple[float, int]:
        """``(latency, waves)`` of one batch of ``batch_size``, charged to the
        engine's counters as :meth:`predict` charges them, without running
        it: the request router's dispatch (see "Serving" in the module doc).
        """
        _, latency, waves = self.engine.inference_plan(batch_size)
        self.requests_served += 1
        self.sim_time += latency
        return latency, waves

    def predict_stacked(self, bank: np.ndarray, rows: Sequence[int],
                        lengths: Sequence[int]) -> np.ndarray:
        """Logits of several micro-batches of single-example requests, in
        one backend call.

        ``rows`` index the micro-batches' payloads in ``bank``, back to back,
        and ``lengths`` are their sizes, in order; row ``i`` of the result is
        ``bank[rows[i]]``'s, and each micro-batch's rows are byte-equal to
        :meth:`predict_requests` of that micro-batch.  That call splits a
        micro-batch of length ``L`` along its plan's node segments
        (``inference_plan(L)``); here every row is labelled with the size of
        its node segment (each length's labels are computed once, and
        dropped with the plans on :meth:`remap`), a stable sort by that
        label lines the segments of every micro-batch up, whole and grouped
        by size, and the backend runs the gathered rows over the size runs
        — one ``(size, count)`` row per segment size, each segment at its
        own micro-batch's shape — before the rows are scattered back.
        Prices nothing: :meth:`price` did.
        """
        if not lengths or min(lengths) < 1 or sum(lengths) != len(rows):
            raise ValueError(
                f"micro-batch lengths {list(lengths)} do not split "
                f"{len(rows)} examples into non-empty batches")
        self._ensure_eval_state()
        engine = self.engine
        labels = self._row_labels
        for length in set(lengths).difference(labels):
            node_sizes = [end - start for start, end in engine.inference_plan(length)[0]]
            labels[length] = np.repeat(node_sizes, node_sizes)
        row_sizes = np.concatenate([labels[length] for length in lengths])
        order = row_sizes.argsort(kind="stable")
        runs = np.array([(size, count // size) for size, count
                         in enumerate(np.bincount(row_sizes).tolist()) if count])
        gathered = engine.backend.infer(self.model, engine.vn_set,
                                        bank[np.take(rows, order)], runs)
        logits = np.empty_like(gathered)
        logits[order] = gathered
        return logits

    def remap(self, mapping: Mapping) -> None:
        """Move the serving job to different hardware (no state migration
        needed beyond parameters, which every replica already has)."""
        if mapping.vn_set != self.mapping.vn_set:
            raise ValueError("inference remap must preserve the virtual node set")
        self.engine.remap(mapping)
        self._row_labels = {}
