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
  serial loop tests import from ``tests/oracles/reference_backend.py``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "EpochResult": "repro.core.trainer",
    "ExecutionBackend": "repro.core.backends.base",
    "ExecutionPlan": "repro.core.plan",
    "FaultToleranceError": "repro.core.fault_tolerance",
    "FusedBackend": "repro.core.backends.fused",
    "InferenceEngine": "repro.core.inference",
    "InferenceResult": "repro.core.inference",
    "Mapping": "repro.core.mapping",
    "PipelineConfig": "repro.core.pipeline",
    "PlanValidationError": "repro.core.plan",
    "RecoveryPolicy": "repro.core.fault_tolerance",
    "StepResult": "repro.core.executor",
    "VirtualNodeEngine": "repro.core.engine",
    "data_parallel_pipeline": "repro.core.pipeline",
    "pipelined_virtual_nodes": "repro.core.pipeline",
    "virtual_node_pipeline": "repro.core.pipeline",
    "TrainerConfig": "repro.core.trainer",
    "VirtualFlowExecutor": "repro.core.executor",
    "VirtualFlowTrainer": "repro.core.trainer",
    "VirtualNode": "repro.core.virtual_node",
    "VirtualNodeSet": "repro.core.virtual_node",
    "VirtualNodeState": "repro.core.state",
    "handle_device_failure": "repro.core.fault_tolerance",
    "load_checkpoint": "repro.core.checkpoint",
    "migrate_states": "repro.core.state",
    "restore_device": "repro.core.fault_tolerance",
    "save_checkpoint": "repro.core.checkpoint",
    "shard_batch": "repro.core.sharding",
    "shard_sizes": "repro.core.sharding",
    "weighted_average_flat": "repro.core.sync",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
