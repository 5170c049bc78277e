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

The package is layered and loads lazily: ``import repro`` reads only the
export table below, which names the subpackage each public name comes
from, and that subpackage — with the layers it needs — is imported the
first time the name is read, so ``repro train`` never loads the serving,
runtime or chaos layers.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "Cluster": "repro.hardware",
    "DEVICE_SPECS": "repro.hardware",
    "Dataset": "repro.data",
    "Device": "repro.hardware",
    "DeviceSpec": "repro.hardware",
    "EpochResult": "repro.core",
    "ExecutionBackend": "repro.core",
    "ExecutionPlan": "repro.core",
    "FaultToleranceError": "repro.core",
    "GradientBuffer": "repro.core",
    "InferenceEngine": "repro.core",
    "InferenceResult": "repro.core",
    "Interconnect": "repro.hardware",
    "LatencyAutoscaler": "repro.serving",
    "LatencyHistogram": "repro.telemetry",
    "Mapping": "repro.core",
    "MicroBatchPolicy": "repro.serving",
    "OutOfDeviceMemory": "repro.hardware",
    "PerfModel": "repro.hardware",
    "PlanValidationError": "repro.core",
    "RequestRouter": "repro.serving",
    "ServingReport": "repro.serving",
    "StepResult": "repro.core",
    "TelemetryRecorder": "repro.telemetry",
    "TrainerConfig": "repro.core",
    "VirtualFlowExecutor": "repro.core",
    "VirtualFlowTrainer": "repro.core",
    "VirtualNode": "repro.core",
    "VirtualNodeEngine": "repro.core",
    "VirtualNodeSet": "repro.core",
    "WORKLOADS": "repro.framework",
    "Workload": "repro.framework",
    "get_spec": "repro.hardware",
    "get_workload": "repro.framework",
    "handle_device_failure": "repro.core",
    "load_checkpoint": "repro.core",
    "make_dataset": "repro.data",
    "restore_device": "repro.core",
    "save_checkpoint": "repro.core",
    "serve_workload": "repro.serving",
}
__all__ = sorted([*_EXPORTS, "__version__"])
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
