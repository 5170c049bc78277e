"""VirtualFlow reproduction.

A full from-scratch reproduction of *VirtualFlow: Decoupling Deep Learning
Models from the Underlying Hardware* (Or, Zhang, Freedman — MLSys 2022),
including the NumPy training framework it runs on, simulated accelerator
hardware, virtual node processing, resource elasticity with an elastic
weighted-fair-sharing scheduler, heterogeneous training with an offline
profiler and solver, and a Gavel-style cluster scheduler extension.

Quickstart::

    from repro import TrainerConfig, VirtualFlowTrainer

    trainer = VirtualFlowTrainer(TrainerConfig(
        workload="mlp_synthetic", global_batch_size=64,
        num_virtual_nodes=8, device_type="V100", num_devices=2,
    ))
    trainer.train(epochs=3)
    trainer.resize(num_devices=1)          # elastic: same model, fewer GPUs
    history = trainer.train(epochs=2)      # cumulative 5-epoch history
"""

from repro.core import (
    EpochResult,
    ExecutionBackend,
    ExecutionPlan,
    FaultToleranceError,
    GradientBuffer,
    InferenceEngine,
    InferenceResult,
    Mapping,
    PlanValidationError,
    StepResult,
    TrainerConfig,
    VirtualFlowExecutor,
    VirtualFlowTrainer,
    VirtualNode,
    VirtualNodeEngine,
    VirtualNodeSet,
    handle_device_failure,
    load_checkpoint,
    restore_device,
    save_checkpoint,
)
from repro.serving import (
    LatencyAutoscaler,
    MicroBatchPolicy,
    RequestRouter,
    ServingReport,
    serve_workload,
)
from repro.telemetry import LatencyHistogram, TelemetryRecorder
from repro.data import Dataset, make_dataset
from repro.framework import WORKLOADS, Workload, get_workload
from repro.hardware import (
    DEVICE_SPECS,
    Cluster,
    Device,
    DeviceSpec,
    Interconnect,
    OutOfDeviceMemory,
    PerfModel,
    get_spec,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DEVICE_SPECS",
    "Dataset",
    "Device",
    "DeviceSpec",
    "EpochResult",
    "ExecutionBackend",
    "ExecutionPlan",
    "FaultToleranceError",
    "GradientBuffer",
    "InferenceEngine",
    "InferenceResult",
    "Interconnect",
    "LatencyAutoscaler",
    "LatencyHistogram",
    "Mapping",
    "MicroBatchPolicy",
    "OutOfDeviceMemory",
    "PerfModel",
    "PlanValidationError",
    "RequestRouter",
    "ServingReport",
    "StepResult",
    "TelemetryRecorder",
    "TrainerConfig",
    "VirtualFlowExecutor",
    "VirtualFlowTrainer",
    "VirtualNode",
    "VirtualNodeEngine",
    "VirtualNodeSet",
    "WORKLOADS",
    "Workload",
    "__version__",
    "get_spec",
    "get_workload",
    "handle_device_failure",
    "load_checkpoint",
    "make_dataset",
    "restore_device",
    "save_checkpoint",
    "serve_workload",
]
