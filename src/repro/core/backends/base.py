"""The execution-backend seam.

VirtualFlow's semantic model — virtual nodes, canonical-order reduction,
per-node state and RNG streams — is fixed by the paper.  *How* those
semantics are realized on the host is an execution strategy, and this
module pins down the interface between the two:
:class:`ExecutionBackend` receives one step's logical inputs
(:class:`TrainStep`) and returns the averaged gradients plus the
example-weighted loss sum (:class:`TrainStepOutput`); for serving it turns
one request batch into logits.  Everything a backend may *not* change —
sharding, weighting, optimizer application, simulated time — lives in the
engine/executor layer above.

:class:`~repro.core.backends.fused.FusedBackend` is what every engine
runs (one shared instance, see :mod:`repro.core.engine`): every wave of a
step — equal- or mixed-size, stateless or stateful (BatchNorm) — as one
segmented forward/backward, bit-identical to the serial loop for all
built-in workloads; a model it cannot run raises ``UnsupportedModule``.
The canonical serial wave loop, the bit-exactness oracle, lives with the
tests (``tests/oracles/reference_backend.py``), which assign it to an
engine's ``backend``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.state import StateMatrix
    from repro.core.virtual_node import VirtualNodeSet
    from repro.framework.arena import FlatTensorArena
    from repro.framework.layers import Module
    from repro.framework.losses import Loss

__all__ = ["TrainStep", "TrainStepOutput", "ExecutionBackend"]

Grads = Dict[str, np.ndarray]


@dataclass
class TrainStep:
    """The logical inputs of one training step, independent of backend.

    ``shards`` are the per-virtual-node ``(x, y)`` slices in canonical order
    (produced by :func:`repro.core.sharding.shard_batch`).

    ``arena`` is the model's installed
    :class:`~repro.framework.arena.FlatTensorArena`: backends stack
    per-virtual-node gradients as contiguous rows of it and return the
    average as an arena view (one flat array), which the optimizer updates
    in one whole-arena pass.

    ``state_matrix`` is the job's per-virtual-node stateful buffers, one
    row per node (:class:`~repro.core.state.StateMatrix`; None when the
    model carries none): the step updates the rows in place — the
    executor's own matrix, so its ``vn_states`` see the update.  A
    hand-built step over plain states passes ``StateMatrix.of(states)``;
    a stateful model on a step without one raises ``UnsupportedModule``.

    ``workspace`` is the executor's per-run buffer dict, handed to every
    step: the buffers a step needs again next step with the same shapes
    (patch rows, kernel scratch) live there instead
    of being freed and faulted back in each step (see
    :class:`~repro.core.backends.vectorized.VectorizedRun`).  A step built
    without one gets an empty dict of its own, filled on first use.
    """

    model: Module
    loss_fn: Loss
    vn_set: VirtualNodeSet
    shards: List[Tuple[np.ndarray, np.ndarray]]
    seed: int
    epoch: int
    step: int
    arena: FlatTensorArena
    state_matrix: Optional[StateMatrix] = None
    augment: Optional[object] = None  # repro.data.augment.Transform
    workspace: Dict[tuple, object] = field(default_factory=dict)


@dataclass(frozen=True)
class TrainStepOutput:
    """What a backend must produce for one step.

    ``avg_grads`` is the §5.2 example-weighted average in canonical
    virtual-node order; ``weighted_loss`` is ``sum_i loss_i * batch_i`` (the
    caller divides by the global batch size).
    """

    avg_grads: Grads
    weighted_loss: float


class ExecutionBackend(ABC):
    """Strategy interface: how waves execute on the host substrate.

    Implementations must be stateless across steps (all persistent training
    state lives in the executor, per-step scratch in the step's
    ``workspace``) so a single backend instance can be shared by training,
    inference, and the elastic simulator's job runner.  Caches of what is
    constant per model are not step state.
    """

    name: str = "abstract"

    def bind(self, model: Module) -> None:
        """Prepare to run ``model``; every engine built for it calls this
        before its first step, so nothing a backend resolves (or loads) per
        model lands inside a run loop, and a model the backend cannot run
        fails there.  The serial loop needs nothing."""

    @abstractmethod
    def train_step(self, step: TrainStep) -> TrainStepOutput:
        """Execute every wave of one step and reduce gradients.

        The contract: the returned gradients and loss must equal what the
        canonical serial loop produces for the same :class:`TrainStep` —
        bit-for-bit when the model is stateless, and exactly including
        per-node stateful-kernel updates otherwise.
        """

    @abstractmethod
    def infer(self, model: Module, vn_set: VirtualNodeSet, x: np.ndarray,
              runs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Run one inference batch sharded across virtual nodes.

        Returns logits concatenated in canonical virtual-node order;
        inference is deterministic (no dropout) so results must be identical
        across backends and mappings.  ``runs`` are the batch's **size
        runs**: an ``(R, 2)`` integer array (or a sequence of pairs) of
        ``(size, count)`` rows, ``count`` consecutive segments of ``size``
        rows each, the rows in order tiling ``x`` — one batch's non-empty
        node shards (:meth:`~repro.core.engine.VirtualNodeEngine.
        inference_plan`), or the node segments of several micro-batches
        gathered into one pass and grouped by size
        (:meth:`~repro.core.inference.InferenceEngine.predict_stacked`).
        Each segment's rows must equal ``model.forward`` of that segment
        alone, bit for bit, whatever the other rows hold.
        """
