"""The offline profiler (§5.1.1).

Runs the workload on one device type at a time, across all power-of-2-like
batch sizes that fit in that device's memory, averaging a handful of steps
per point.  In this reproduction the "measurement" samples the analytic perf
model with small seeded measurement noise — the solver therefore works from
slightly imperfect profiles, exactly like the real system, which is what
produces the ~5% solver-vs-actual gap of Figure 14.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.framework.models import Workload, get_workload
from repro.hardware.device import DeviceSpec, get_spec
from repro.hardware.perfmodel import PerfModel
from repro.profiler.profiles import ProfileStore, ThroughputProfile
from repro.utils.seeding import derive_rng
from repro.utils.validation import power_of_two_like_sizes

__all__ = ["OfflineProfiler"]

_NOISE_DOMAIN = 0x5E
_PERF = PerfModel()


class OfflineProfiler:
    """Generates :class:`ThroughputProfile` objects for solver input.

    The ground truth being "measured" is the module's :class:`PerfModel`.

    Parameters
    ----------
    noise:
        Relative standard deviation of per-measurement noise.  Averaging
        ``steps_per_point`` samples shrinks it as 1/sqrt(n); the default pair
        (2% noise, 20 steps) yields ~0.5% profile error.
    seed:
        Seed for the measurement noise (profiles are reproducible).
    """

    def __init__(self, noise: float = 0.02, steps_per_point: int = 20,
                 seed: int = 0) -> None:
        if noise < 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        if steps_per_point < 1:
            raise ValueError(f"steps_per_point must be >= 1, got {steps_per_point}")
        self.noise = noise
        self.steps_per_point = steps_per_point
        self.seed = seed

    def candidate_batches(self, workload: Workload, spec: DeviceSpec,
                          min_batch: int = 1) -> List[int]:
        """Power-of-2-like batch sizes that fit in the device's memory."""
        cap = workload.footprint.max_batch(spec.memory_bytes, workload.optimizer_slots)
        return power_of_two_like_sizes(cap, min_size=min_batch)

    def _measure(self, true_time: float, rng: np.random.Generator) -> float:
        samples = true_time * (1.0 + self.noise * rng.standard_normal(self.steps_per_point))
        return float(np.clip(samples, 1e-9, None).mean())

    def profile(self, workload_name: str, device_type: str,
                batch_sizes: Optional[Sequence[int]] = None) -> ThroughputProfile:
        """Profile one workload on one device type.

        Takes ~``len(batch_sizes) * steps_per_point`` simulated steps — the
        paper's "no longer than 10 minutes" one-off cost.
        """
        workload = get_workload(workload_name)
        spec = get_spec(device_type)
        if batch_sizes is None:
            batch_sizes = self.candidate_batches(workload, spec)
        if not batch_sizes:
            raise ValueError(
                f"workload {workload_name!r} does not fit on {device_type!r} "
                f"at any batch size"
            )
        rng = derive_rng(self.seed, _NOISE_DOMAIN, hash_device(device_type))
        step_times = {}
        for b in sorted(set(int(b) for b in batch_sizes)):
            if b < 1:
                raise ValueError(f"batch sizes must be >= 1, got {b}")
            step_times[b] = self._measure(_PERF.wave_time(workload, spec, b), rng)
        update = self._measure(_PERF.update_time(workload, spec), rng)
        comm = self.estimate_comm_overhead(workload, n_devices=2)
        return ThroughputProfile(
            workload=workload_name,
            device_type=device_type,
            step_times=step_times,
            update_time=update,
            comm_overhead=comm,
        )

    def estimate_comm_overhead(self, workload: Workload, n_devices: int = 2) -> float:
        """§5.1.2: distributed minus single-node step time at local batch 1."""
        return _PERF.interconnect.allreduce_time(
            workload.footprint.param_bytes, n_devices
        )

    def profile_all(self, workload_name: str, device_types: Sequence[str],
                    store: Optional[ProfileStore] = None) -> ProfileStore:
        """Profile a workload on every target device type (Figure 7 left)."""
        store = store or ProfileStore()
        for device_type in device_types:
            store.add(self.profile(workload_name, device_type))
        return store


def hash_device(device_type: str) -> int:
    """Stable small integer per device type (noise stream separation)."""
    import zlib

    return zlib.crc32(device_type.encode()) & 0xFFFF
