"""Simulated accelerator hardware: device catalog, memory ledger, cluster,
interconnect, and the analytic step-time model.

This subpackage is the stand-in for the physical GPU testbed in the paper
(V100/P100/K80/RTX 2080 Ti servers).  Numeric training runs on the CPU, but
every throughput, step-time, and memory number reported by benchmarks comes
from these models, calibrated to the ratios the paper reports.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AllReduceStrategy": "repro.hardware.sync_strategy",
    "Cluster": "repro.hardware.cluster",
    "DEVICE_SPECS": "repro.hardware.device",
    "Device": "repro.hardware.device",
    "DeviceSpec": "repro.hardware.device",
    "Interconnect": "repro.hardware.interconnect",
    "MemoryLedger": "repro.hardware.memory",
    "MemoryTimeline": "repro.hardware.memory",
    "OutOfDeviceMemory": "repro.hardware.device",
    "ParameterServerStrategy": "repro.hardware.sync_strategy",
    "PerfModel": "repro.hardware.perfmodel",
    "StepTimeBreakdown": "repro.hardware.perfmodel",
    "SyncStrategy": "repro.hardware.sync_strategy",
    "get_spec": "repro.hardware.device",
    "ring_allreduce_time": "repro.hardware.interconnect",
    "simulate_step_memory": "repro.hardware.memory",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
