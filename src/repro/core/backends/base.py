"""The execution-backend seam.

VirtualFlow's semantic model — virtual nodes, canonical-order reduction,
per-node state and RNG streams — is fixed by the paper.  *How* those
semantics are realized on the host is an execution-strategy choice, and this
module pins down the interface between the two:

* :class:`ExecutionBackend` is the strategy interface.  A backend receives
  one step's logical inputs (:class:`TrainStep`) and returns the averaged
  gradients plus the example-weighted loss sum (:class:`TrainStepOutput`);
  for serving it turns one request batch into logits.  Everything a backend
  may *not* change — sharding, weighting, optimizer application, simulated
  time — lives in the engine/executor layer above.

* :func:`get_backend` / :func:`register_backend` form the registry that the
  trainer config, the CLI, and the elastic job specs resolve names against.

Built-in backends:

``fused`` (:data:`DEFAULT_BACKEND`)
    :class:`~repro.core.backends.fused.FusedBackend` vectorizes every wave
    of a step — equal- or mixed-size, stateless or stateful (BatchNorm) —
    into one segmented forward/backward, reproducing the reference
    arithmetic bit-for-bit for all built-in workloads; only user-defined
    modules without kernels fall back to the serial loop.

``reference``
    The canonical serial wave loop (:class:`~repro.core.backends.reference.
    ReferenceBackend`).  It is the bit-exactness oracle every other backend
    is tested against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state import VirtualNodeState
from repro.core.virtual_node import VirtualNodeSet
from repro.framework.layers import Module
from repro.framework.losses import Loss

__all__ = [
    "DEFAULT_BACKEND",
    "TrainStep",
    "TrainStepOutput",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "backend_names",
]

Grads = Dict[str, np.ndarray]

# The backend every entry point runs unless told otherwise, named once.
# Results are bit-identical across backends, so this picks host cost only.
DEFAULT_BACKEND = "fused"


@dataclass
class TrainStep:
    """The logical inputs of one training step, independent of backend.

    ``shards`` are the per-virtual-node ``(x, y)`` slices in canonical order
    (produced by :func:`repro.core.sharding.shard_batch`); ``vn_states`` are
    updated in place when the model carries stateful kernels.

    ``arena`` is the model's installed
    :class:`~repro.framework.arena.FlatTensorArena`, when the executor runs
    the fused flat-buffer hot path.  Backends then stack per-virtual-node
    gradients as contiguous rows and return the average as an arena view
    (one flat array) instead of a dict of fresh allocations; results are
    bit-identical either way.

    ``state_layout`` is the shared :class:`~repro.framework.arena.FlatLayout`
    over the per-virtual-node stateful buffers (None when the model carries
    none).  The executor computes it once per state template so backends can
    skip the per-wave ``state_dict`` round trip for stateless models and
    pack/scatter stateful ones through one flat matrix; backends fall back to
    deriving it from ``vn_states`` when a caller leaves it unset.

    ``workspace`` is the executor's per-run buffer dict, handed to every
    step: the buffers a step needs again next step with the same shapes
    (patch rows, kernel scratch, the packed state matrix) live there instead
    of being freed and faulted back in each step (see
    :class:`~repro.core.backends.vectorized.VectorizedRun`).  A step built
    without one gets an empty dict of its own, filled on first use.
    """

    model: Module
    loss_fn: Loss
    vn_set: VirtualNodeSet
    vn_states: List[VirtualNodeState]
    shards: List[Tuple[np.ndarray, np.ndarray]]
    seed: int
    epoch: int
    step: int
    augment: Optional[object] = None  # repro.data.augment.Transform
    arena: Optional[object] = None  # repro.framework.arena.FlatTensorArena
    state_layout: Optional[object] = None  # repro.framework.arena.FlatLayout
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
    constant per model or per shard table are not step state.
    """

    name: str = "abstract"

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
              bounds: Optional[Sequence[Tuple[int, int]]] = None) -> np.ndarray:
        """Run one inference batch sharded across virtual nodes.

        Returns logits concatenated in canonical virtual-node order;
        inference is deterministic (no dropout) so results must be identical
        across backends and mappings.  ``bounds`` are the batch's
        :func:`~repro.core.sharding.shard_indices` when the caller already
        holds them (the engine memoizes them per batch length).
        """


_REGISTRY: Dict[str, Callable[[], "ExecutionBackend"]] = {}
_INSTANCES: Dict[str, "ExecutionBackend"] = {}


def register_backend(name: str, factory: Callable[[], "ExecutionBackend"]) -> None:
    """Register a backend factory under ``name`` (lowercase)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[key] = factory


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(backend) -> "ExecutionBackend":
    """Resolve a backend name (or pass through an instance).

    Backends are stateless, so named lookups share one instance per name.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    key = str(backend).lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown execution backend {backend!r}; available: {backend_names()}"
        )
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[key]()
    return _INSTANCES[key]
