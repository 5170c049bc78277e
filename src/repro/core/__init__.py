"""VirtualFlow's core: virtual node processing.

The paper's contribution is a layer of indirection between the model and the
hardware (§3): each global batch is split across **virtual nodes**; virtual
nodes map many-to-one onto accelerators and execute as sequential waves.
Model semantics (batch size, data order, RNG, stateful kernels) attach to
virtual nodes, so any change of mapping — fewer devices, more devices,
different device types — is invisible to the application.

The core is organized around two seams:

* the **engine layer** (:mod:`repro.core.engine`): one physical substrate —
  validated plans, perf model, bottleneck latency, remapping — shared by the
  training executor, the inference engine, and the elastic job model, so no
  driver re-implements shard/latency/plan logic;
* the **backend seam** (:mod:`repro.core.backends`): *how* waves execute on
  the host is a strategy behind one interface.  Every engine runs the fused
  backend, which executes all of a step's waves — or an inference batch's
  shards — as one segmented vectorized pass, bit-identical to the canonical
  serial loop (``ReferenceBackend``) that tests compare against.
"""

from repro.core.virtual_node import VirtualNode, VirtualNodeSet
from repro.core.mapping import Mapping
from repro.core.sharding import shard_batch, shard_sizes
from repro.core.gradient_buffer import GradientBuffer
from repro.core.sync import allreduce_gradients, weighted_average, weighted_average_flat
from repro.core.state import VirtualNodeState, migrate_states
from repro.core.plan import ExecutionPlan, PlanValidationError
from repro.core.backends import (
    ExecutionBackend,
    FusedBackend,
    ReferenceBackend,
)
from repro.core.engine import VirtualNodeEngine
from repro.core.pipeline import (
    PipelineConfig,
    data_parallel_pipeline,
    pipelined_virtual_nodes,
    virtual_node_pipeline,
)
from repro.core.executor import StepResult, VirtualFlowExecutor
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.fault_tolerance import (
    FaultToleranceError,
    RecoveryPolicy,
    handle_device_failure,
    restore_device,
)
from repro.core.inference import InferenceEngine, InferenceResult
from repro.core.trainer import EpochResult, TrainerConfig, VirtualFlowTrainer

__all__ = [
    "EpochResult",
    "ExecutionBackend",
    "ExecutionPlan",
    "FaultToleranceError",
    "FusedBackend",
    "GradientBuffer",
    "InferenceEngine",
    "InferenceResult",
    "Mapping",
    "PipelineConfig",
    "PlanValidationError",
    "RecoveryPolicy",
    "ReferenceBackend",
    "StepResult",
    "VirtualNodeEngine",
    "data_parallel_pipeline",
    "pipelined_virtual_nodes",
    "virtual_node_pipeline",
    "TrainerConfig",
    "VirtualFlowExecutor",
    "VirtualFlowTrainer",
    "VirtualNode",
    "VirtualNodeSet",
    "VirtualNodeState",
    "allreduce_gradients",
    "handle_device_failure",
    "load_checkpoint",
    "migrate_states",
    "restore_device",
    "save_checkpoint",
    "shard_batch",
    "shard_sizes",
    "weighted_average",
    "weighted_average_flat",
]
