"""Analytic step-time model.

For a workload *w* on a device of type *d*, processing one wave (one virtual
node) with local batch *b* takes::

    wave_time = (alpha_w + beta_w * b) / compute_factor_d + aggregation_w,d

where ``alpha`` is the fixed per-wave kernel-launch cost, ``beta`` the
per-example cost (both calibrated on a V100), and ``aggregation`` is the
§3.2 cost of folding raw gradients into the shared gradient buffer
(model bytes / aggregation bandwidth) — present once per wave.

One training step on a device with waves ``b_1..b_V`` plus the optimizer
update costs::

    device_time = sum_v wave_time(b_v) + update_cost_w / compute_factor_d

and a distributed step is bottlenecked on the slowest device plus the ring
all-reduce of the gradients — the ``max_i(t_i(b_i) * v_i + comm)`` objective
of the heterogeneous solver (§5.1.2).

This single model reproduces all of the paper's performance figures:

* Fig 7 / 13 / 14: heterogeneous splits (via per-device compute factors);
* Fig 17 bottom: throughput *rises* with virtual nodes for large models
  because the expensive update amortizes over more examples;
* Fig 18: splitting an in-memory batch into V waves pays V·alpha instead of
  alpha, a small overhead (throughput stays within ~90% of vanilla).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Sequence

from repro.hardware.interconnect import Interconnect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.models import Workload
    from repro.hardware.device import DeviceSpec

__all__ = ["ClusterConditions", "PerfModel", "StepTimeBreakdown"]


@dataclass(frozen=True)
class StepTimeBreakdown:
    """Component times for one distributed step."""

    compute: float  # slowest device's wave compute, seconds
    update: float   # optimizer update on the bottleneck device
    comm: float     # gradient synchronization

    @property
    def total(self) -> float:
        return self.compute + self.update + self.comm

    def degraded_total(self, conditions: "ClusterConditions",
                       device_ids: Iterable[int]) -> float:
        """Step time under the current cluster conditions for a synchronous
        group.

        Both on-device components slow by the group's bottleneck speed
        (straggler x derate, per device: a synchronous step waits for its
        slowest worker) while only the gradient sync pays the network
        factor.  On a clean cluster this is exactly :attr:`total`, bit for
        bit — ``(c+u)/1.0 + m*1.0`` is the same float expression — so
        chaos-free paths can share one code path.  Both factors are
        validated where :class:`ClusterConditions` sets them.
        """
        return ((self.compute + self.update)
                / conditions.bottleneck_speed(device_ids)
                + self.comm * conditions.network_factor)


class ClusterConditions:
    """Mutable degradation state shared between chaos injection and pricing.

    The chaos controller mutates this (straggler onset/clear, network window
    open/close); consumers read it at pricing time: the training simulator
    derates a job's step rate by its lease's bottleneck straggler, the router
    stretches micro-batch service latency, and :class:`DegradedInterconnect`
    scales §4.1 collective costs.  A default-constructed instance is the
    clean cluster: every query answers 1.0.
    """

    def __init__(self) -> None:
        self._speed: Dict[int, float] = {}
        self._derate: Dict[int, float] = {}
        self._network = 1.0
        # bottleneck_speed per device-id tuple; every speed change clears it.
        self._bottleneck: Dict[tuple, float] = {}

    @property
    def network_factor(self) -> float:
        return self._network

    @network_factor.setter
    def network_factor(self, factor: float) -> None:
        if not 0 < factor < math.inf:  # NaN too
            raise ValueError(
                f"network factor must be finite and positive, got {factor}")
        self._network = float(factor)

    @property
    def degraded(self) -> bool:
        """True when any straggler, derate, or network window is active."""
        return (bool(self._speed) or bool(self._derate)
                or self._network != 1.0)

    def set_straggler(self, device_id: int, speed: float) -> None:
        """Mark ``device_id`` as running at ``speed`` (0 < speed < 1)."""
        self._set(self._speed, device_id, speed, "straggler")

    def clear_straggler(self, device_id: int) -> None:
        self._set(self._speed, device_id, 1.0, "straggler")

    def set_derate(self, device_id: int, speed: float) -> None:
        """Set ``device_id``'s sustained derate speed (0 < speed <= 1).

        Exactly 1.0 clears the derate — the level-set semantics derate
        curves rely on to be self-clearing.  Derates compose with straggler
        windows multiplicatively: a 0.7x-derated device inside a 0.6x
        straggler window runs at 0.42x.
        """
        self._set(self._derate, device_id, speed, "derate")

    def _set(self, table: Dict[int, float], device_id: int, speed: float,
             what: str) -> None:
        """The one speed write: validate, clear the bottleneck memo, then
        store ``speed`` — or drop the entry at exactly 1.0."""
        if not 0.0 < speed <= 1.0:
            raise ValueError(f"{what} speed must be in (0, 1], got {speed}")
        self._bottleneck.clear()
        if speed == 1.0:
            table.pop(device_id, None)
        else:
            table[device_id] = float(speed)

    def bottleneck_speed(self, device_ids: Iterable[int]) -> float:
        """Speed of the slowest device in a synchronous group (1.0 if clean),
        memoized per group until the next speed change."""
        key = tuple(device_ids)
        try:
            return self._bottleneck[key]
        except KeyError:  # every factor is in (0, 1], so no product exceeds 1.0
            slowest = self._bottleneck[key] = min(
                (self._speed.get(d, 1.0) * self._derate.get(d, 1.0)
                 for d in key), default=1.0)
            return slowest

    def effective_capacity(self, device_ids: Iterable[int]) -> float:
        """Sum of derate-only speeds over a group — the sustained fraction of
        nominal capacity the co-scheduler should budget against.  Transient
        straggler jitter is deliberately excluded: it self-clears too fast
        to be worth re-partitioning the pool over.  With no derates this is
        an exact integer count (a sum of 1.0s), so budget arbitration on a
        clean cluster is bit-identical to counting healthy devices.
        """
        return sum(self._derate.get(d, 1.0) for d in device_ids)

    def serving_latency(self, latency: float, device_ids: Iterable[int]) -> float:
        """Micro-batch service latency through the group's bottleneck device."""
        return latency / self.bottleneck_speed(device_ids)


class PerfModel:
    """Step-time estimates for (workload, device, batch) combinations."""

    def __init__(self, interconnect: Interconnect = Interconnect()) -> None:
        self.interconnect = interconnect

    # -- single-device components -------------------------------------------

    def wave_time(self, workload: "Workload", spec: "DeviceSpec", batch: int) -> float:
        """Time for one virtual node's forward+backward pass of ``batch``."""
        if batch < 0:
            raise ValueError(f"batch must be >= 0, got {batch}")
        if batch == 0:
            return 0.0
        compute = (workload.v100_alpha + workload.v100_beta * batch) / spec.compute_factor
        aggregation = workload.footprint.param_bytes / spec.aggregation_bandwidth
        return compute + aggregation

    def update_time(self, workload: "Workload", spec: "DeviceSpec") -> float:
        """Optimizer update cost (once per step, regardless of wave count)."""
        return workload.v100_update_cost / spec.compute_factor

    def device_step_time(self, workload: "Workload", spec: "DeviceSpec",
                         wave_batches: Sequence[int]) -> float:
        """One device's step time: sequential waves + one model update."""
        if len(wave_batches) == 0:
            return 0.0
        waves = sum(self.wave_time(workload, spec, b) for b in wave_batches)
        return waves + self.update_time(workload, spec)

    def vanilla_step_time(self, workload: "Workload", spec: "DeviceSpec", batch: int) -> float:
        """Baseline (no virtual nodes): a single fused wave, no grad buffer."""
        compute = (workload.v100_alpha + workload.v100_beta * batch) / spec.compute_factor
        return compute + self.update_time(workload, spec)

    # -- cluster-level --------------------------------------------------------

    def step_breakdown(self, workload: "Workload",
                       per_device_waves: Dict["DeviceSpec", Sequence[Sequence[int]]],
                       ) -> StepTimeBreakdown:
        """Breakdown for one synchronous distributed step.

        ``per_device_waves`` maps each device spec to a list of wave-batch
        sequences, one per physical device of that type, e.g.
        ``{V100: [[256]*4, [256]*4], P100: [[128]*2]}``.
        """
        n_devices = sum(len(v) for v in per_device_waves.values())
        if n_devices == 0:
            raise ValueError("no devices in step")
        slowest = 0.0
        update = 0.0
        for spec, device_list in per_device_waves.items():
            for waves in device_list:
                t = sum(self.wave_time(workload, spec, b) for b in waves)
                if t >= slowest:
                    slowest = t
                    update = self.update_time(workload, spec)
        comm = self.interconnect.allreduce_time(workload.footprint.param_bytes, n_devices)
        return StepTimeBreakdown(compute=slowest, update=update, comm=comm)

    def step_time(self, workload: "Workload",
                  per_device_waves: Dict["DeviceSpec", Sequence[Sequence[int]]]) -> float:
        return self.step_breakdown(workload, per_device_waves).total

    def throughput(self, workload: "Workload",
                   per_device_waves: Dict["DeviceSpec", Sequence[Sequence[int]]]) -> float:
        """Examples per second for one synchronous step."""
        total_examples = sum(
            sum(waves) for device_list in per_device_waves.values() for waves in device_list
        )
        t = self.step_time(workload, per_device_waves)
        return total_examples / t if t > 0 else 0.0
