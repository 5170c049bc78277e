"""Execution plans: waves, memory feasibility, and simulated step time.

A plan turns a (virtual node set, mapping, workload) triple into the physical
schedule of Figure 4/5: per-device wave lists, memory requirements, and the
model-predicted step time.  Plans are validated eagerly so infeasible
configurations fail at construction — the simulated analogue of an OOM at
graph build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core.mapping import Mapping
from repro.hardware.perfmodel import PerfModel, StepTimeBreakdown
from repro.utils.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework.models import Workload

__all__ = ["ExecutionPlan", "PlanValidationError"]


class PlanValidationError(ValueError):
    """A plan that cannot execute (e.g. a wave exceeds device memory)."""


@dataclass(frozen=True)
class DevicePlan:
    """Per-device schedule: ordered virtual node waves and peak memory."""

    device_id: int
    spec_name: str
    vn_indices: Tuple[int, ...]
    wave_batches: Tuple[int, ...]
    peak_bytes: int

    @property
    def num_waves(self) -> int:
        return len(self.vn_indices)

    @property
    def local_batch(self) -> int:
        return sum(self.wave_batches)


class ExecutionPlan:
    """Validated physical schedule for one training step."""

    def __init__(self, workload: "Workload", mapping: Mapping) -> None:
        self.workload = workload
        self.mapping = mapping
        self.perf = PerfModel(mapping.cluster.interconnect)
        self.device_plans: List[DevicePlan] = []
        fp = workload.footprint
        for device in mapping.cluster.devices:
            vn_indices = tuple(mapping.nodes_on(device.device_id))
            if not vn_indices:
                continue
            batches = tuple(mapping.vn_set[i].batch_size for i in vn_indices)
            peak = fp.wave_bytes(max(batches), workload.optimizer_slots)
            if peak > device.spec.memory_bytes:
                raise PlanValidationError(
                    f"device {device.name}: wave of {max(batches)} examples needs "
                    f"{format_bytes(peak)} but capacity is "
                    f"{format_bytes(device.spec.memory_bytes)}; use more virtual "
                    f"nodes to shrink the per-wave batch"
                )
            self.device_plans.append(DevicePlan(
                device_id=device.device_id,
                spec_name=device.spec.name,
                vn_indices=vn_indices,
                wave_batches=batches,
                peak_bytes=peak,
            ))
        if not self.device_plans:
            raise PlanValidationError("plan has no active devices")

    # -- predictions ---------------------------------------------------------

    def _per_spec_waves(self) -> Dict:
        from repro.hardware.device import get_spec

        out: Dict = {}
        for dp in self.device_plans:
            out.setdefault(get_spec(dp.spec_name), []).append(list(dp.wave_batches))
        return out

    def step_breakdown(self) -> StepTimeBreakdown:
        return self.perf.step_breakdown(self.workload, self._per_spec_waves())

    def step_time(self) -> float:
        return self.step_breakdown().total

    def throughput(self) -> float:
        """Examples per simulated second."""
        t = self.step_time()
        return self.mapping.vn_set.global_batch_size / t if t > 0 else 0.0

    def peak_memory(self) -> Dict[int, int]:
        """Predicted peak bytes per device id."""
        return {dp.device_id: dp.peak_bytes for dp in self.device_plans}

    @property
    def num_devices(self) -> int:
        return len(self.device_plans)

    @property
    def max_waves(self) -> int:
        return max(dp.num_waves for dp in self.device_plans)

    def describe(self) -> str:
        lines = [
            f"ExecutionPlan: {self.workload.name}, "
            f"B={self.mapping.vn_set.global_batch_size}, "
            f"{self.mapping.vn_set.num_nodes} virtual nodes, "
            f"{self.num_devices} devices"
        ]
        for dp in self.device_plans:
            lines.append(
                f"  dev{dp.device_id} ({dp.spec_name}): {dp.num_waves} waves "
                f"{list(dp.wave_batches)}, peak {format_bytes(dp.peak_bytes)}"
            )
        bd = self.step_breakdown()
        lines.append(
            f"  predicted step: {bd.total:.4f}s "
            f"(compute {bd.compute:.4f}, update {bd.update:.4f}, comm {bd.comm:.4f})"
        )
        return "\n".join(lines)
