"""The shared execution engine: one substrate under training, inference,
and the elastic simulator.

Historically each driver re-implemented the physical half of virtual-node
processing by hand: the training executor, the inference engine, and the
elastic job model all built plans, looked up devices, and accounted
bottleneck latency with their own loops.  :class:`VirtualNodeEngine` owns
that physical half exactly once:

* the validated :class:`~repro.core.plan.ExecutionPlan` and perf model for
  the current mapping (rebuilt atomically on :meth:`remap`);
* a precomputed ``device_id -> DeviceSpec`` table, so per-request latency
  accounting never scans the device list;
* simulated-time queries (:meth:`step_time`, :meth:`inference_latency`)
  and the per-batch-size serving plan memo (:meth:`inference_plan`);
* the execution backend (:mod:`repro.core.backends`) that decides *how*
  waves run on the host: one :class:`~repro.core.backends.FusedBackend`
  shared by every engine, so its per-model kernel plans are built once per
  process.  Tests compare against the serial oracle
  (``tests/oracles/reference_backend.py``) by assigning it to an engine's
  ``backend``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import ExecutionBackend, FusedBackend
from repro.core.mapping import Mapping
from repro.core.plan import ExecutionPlan
from repro.core.sharding import shard_sizes, size_runs
from repro.core.virtual_node import VirtualNodeSet
from repro.hardware.device import DeviceSpec, get_spec

from repro.framework.models import Workload

__all__ = ["VirtualNodeEngine"]

# Backends hold no step state, only caches of what is constant per model:
# one instance serves every engine in the process.
_BACKEND = FusedBackend()


class VirtualNodeEngine:
    """Physical execution substrate for one job under one mapping."""

    def __init__(self, workload: Workload, mapping: Mapping) -> None:
        self.workload = workload
        self.backend: ExecutionBackend = _BACKEND
        self._install(mapping)

    def _install(self, mapping: Mapping) -> None:
        """(Re)build the plan, perf model, and device table for a mapping."""
        self.mapping = mapping
        self.plan = ExecutionPlan(self.workload, mapping)
        self._specs: Dict[int, DeviceSpec] = {
            dp.device_id: get_spec(dp.spec_name) for dp in self.plan.device_plans
        }
        # The plan is immutable per mapping, so what is priced from it is
        # constant until the next install.  Both memos fill on first use: a
        # serving engine never asks for the training step time, a training
        # engine never for an inference plan.
        self._step_time: Optional[float] = None
        # batch length -> (size runs, latency, waves)
        self._inference_plans: Dict[int, Tuple[np.ndarray, float, int]] = {}

    # -- queries -------------------------------------------------------------

    @property
    def vn_set(self) -> VirtualNodeSet:
        return self.mapping.vn_set

    def step_time(self) -> float:
        """Simulated synchronous training step time under the current plan."""
        if self._step_time is None:
            self._step_time = self.plan.step_time()
        return self._step_time

    def inference_latency(self, shard_sizes: Sequence[int]) -> Tuple[float, int]:
        """Bottleneck-device latency for one sharded inference batch.

        ``shard_sizes`` are per-virtual-node example counts in canonical
        order.  Returns ``(latency, waves_on_bottleneck)``: each device runs
        its non-empty waves sequentially and the batch completes when the
        slowest device does.
        """
        latency = 0.0
        waves = 0
        perf = self.plan.perf
        for dp in self.plan.device_plans:
            spec = self._specs[dp.device_id]
            t = sum(perf.wave_time(self.workload, spec, shard_sizes[i])
                    for i in dp.vn_indices if shard_sizes[i] > 0)
            if t > latency:
                latency = t
                waves = sum(1 for i in dp.vn_indices if shard_sizes[i] > 0)
        return latency, waves

    def inference_plan(self, batch_size: int) -> Tuple[np.ndarray, float, int]:
        """``(size runs, latency, waves)`` for a batch of ``batch_size``.

        The runs are :func:`~repro.core.sharding.size_runs` of the batch's
        non-empty :func:`~repro.core.sharding.shard_sizes` (what the
        backend's ``infer`` takes) and the latency/waves
        :meth:`inference_latency` of the sizes, computed once per batch
        length and mapping — a serving run asks for at most ``max_batch``
        distinct lengths, thousands of times each.  Every caller receives
        the same plan object, so the runs are read-only.
        """
        plan = self._inference_plans.get(batch_size)
        if plan is None:
            sizes = shard_sizes(self.vn_set, batch_size)
            runs = size_runs([size for size in sizes if size])
            runs.flags.writeable = False
            latency, waves = self.inference_latency(sizes)
            plan = self._inference_plans[batch_size] = (runs, latency, waves)
        return plan

    # -- elasticity ----------------------------------------------------------

    def remap(self, new_mapping: Mapping) -> None:
        """Install a new mapping; the virtual node set must be preserved."""
        if new_mapping.vn_set != self.mapping.vn_set:
            raise ValueError(
                "remap must preserve the virtual node set "
                f"({self.mapping.vn_set!r} -> {new_mapping.vn_set!r})"
            )
        self._install(new_mapping)
