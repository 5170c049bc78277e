"""Job model for the scheduling simulations (§4.2, §6.4).

A job is a fixed-semantics training run: workload, global batch size, and a
total virtual node count that never changes.  What *can* change — under an
elastic scheduler — is how many GPUs the virtual nodes are spread across.
:meth:`JobSpec.step_time` gives the simulated synchronous step time at any
allocation (priced by the shared :class:`~repro.hardware.perfmodel.PerfModel`
step breakdown, the same substrate the execution engine uses); the
bottleneck device hosts ``ceil(V / gpus)`` waves.
:meth:`JobSpec.to_trainer_config` materializes a job as a numeric training
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.framework.models import Workload, get_workload
from repro.hardware.device import DeviceSpec, get_spec
from repro.hardware.perfmodel import PerfModel, StepTimeBreakdown

__all__ = ["JobSpec", "JobState", "JobStatus"]


class JobStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one training job in a trace."""

    job_id: int
    workload: str
    global_batch_size: int
    total_virtual_nodes: int
    demand_gpus: int
    total_steps: int
    priority: float = 1.0
    arrival_time: float = 0.0
    device_type: str = "V100"
    min_gpus: int = 1

    def __post_init__(self) -> None:
        if self.demand_gpus < 1:
            raise ValueError("demand_gpus must be >= 1")
        if self.min_gpus < 1 or self.min_gpus > self.demand_gpus:
            raise ValueError("min_gpus must be in [1, demand_gpus]")
        if self.total_virtual_nodes < self.demand_gpus:
            raise ValueError(
                "total_virtual_nodes must be >= demand_gpus (each GPU needs "
                "at least one virtual node at full allocation)"
            )
        if self.global_batch_size % self.total_virtual_nodes:
            raise ValueError("global batch must divide evenly across virtual nodes")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.priority <= 0:
            raise ValueError("priority must be positive")

    @property
    def wave_batch(self) -> int:
        return self.global_batch_size // self.total_virtual_nodes

    def step_breakdown(self, gpus: int,
                       perf: Optional[PerfModel] = None) -> StepTimeBreakdown:
        """Component times for one synchronous step at ``gpus`` devices.

        Priced with the shared :meth:`PerfModel.step_breakdown` — the same
        wave/update/all-reduce accounting the execution engine's plans use —
        with every device carrying the bottleneck wave count.  Exposing the
        breakdown (not just its total) lets chaos conditions derate the
        compute and comm components independently.
        """
        if gpus < 1:
            raise ValueError(f"gpus must be >= 1, got {gpus}")
        if gpus > self.total_virtual_nodes:
            gpus = self.total_virtual_nodes  # extra devices would idle
        perf = perf or PerfModel()
        workload: Workload = get_workload(self.workload)
        spec: DeviceSpec = get_spec(self.device_type)
        bottleneck_waves = math.ceil(self.total_virtual_nodes / gpus)
        waves = [self.wave_batch] * bottleneck_waves
        return perf.step_breakdown(workload, {spec: [waves] * gpus})

    def step_time(self, gpus: int, perf: Optional[PerfModel] = None) -> float:
        """Synchronous step time at an allocation of ``gpus`` devices."""
        return self.step_breakdown(gpus, perf).total

    def throughput_steps(self, gpus: int, perf: Optional[PerfModel] = None) -> float:
        """Training progress rate, steps per simulated second."""
        return 1.0 / self.step_time(gpus, perf)

    def serial_runtime(self, gpus: int) -> float:
        """Runtime at a fixed allocation (used for trace sizing)."""
        return self.total_steps * self.step_time(gpus)

    def to_trainer_config(self, num_devices: Optional[int] = None,
                          dataset_size: int = 4096):
        """Materialize this job as a numeric :class:`TrainerConfig`.

        The job's semantics (batch, virtual nodes, workload) carry over;
        ``num_devices`` defaults to the job's
        full demand.  This is the end-to-end path from a scheduling trace to
        a real training run.
        """
        from repro.core.trainer import TrainerConfig

        return TrainerConfig(
            workload=self.workload,
            global_batch_size=self.global_batch_size,
            num_virtual_nodes=self.total_virtual_nodes,
            device_type=self.device_type,
            num_devices=self.demand_gpus if num_devices is None else num_devices,
            dataset_size=dataset_size,
        )


@dataclass
class JobState:
    """Mutable simulation state for one job."""

    spec: JobSpec
    status: JobStatus = JobStatus.QUEUED
    gpus: int = 0
    steps_done: float = 0.0
    first_alloc_time: Optional[float] = None
    finish_time: Optional[float] = None
    # (time, gpus) allocation changes, for Fig 10/11 plots and resize replay.
    allocation_log: List[Tuple[float, int]] = field(default_factory=list)
    resizes: int = 0

    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def remaining_steps(self) -> float:
        return max(0.0, self.spec.total_steps - self.steps_done)

    def set_allocation(self, time: float, gpus: int) -> None:
        """Record an allocation change at ``time``."""
        if gpus < 0:
            raise ValueError("allocation cannot be negative")
        if gpus == self.gpus and self.status != JobStatus.QUEUED:
            return
        if gpus > 0:
            if self.first_alloc_time is None:
                self.first_alloc_time = time
            elif self.gpus > 0 and gpus != self.gpus:
                self.resizes += 1
            self.status = JobStatus.RUNNING
        elif self.status == JobStatus.RUNNING:
            self.status = JobStatus.QUEUED
        self.gpus = gpus
        self.allocation_log.append((time, gpus))

    def queuing_delay(self) -> float:
        if self.first_alloc_time is None:
            raise RuntimeError(f"job {self.job_id} was never allocated")
        return self.first_alloc_time - self.spec.arrival_time

    def jct(self) -> float:
        if self.finish_time is None:
            raise RuntimeError(f"job {self.job_id} did not finish")
        return self.finish_time - self.spec.arrival_time
