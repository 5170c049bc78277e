"""The heterogeneous solver (§5.1.2).

Given offline profiles and a heterogeneous pool of devices, choose per-type
per-GPU batches ``b_i``, virtual node counts ``v_i``, and participation
``n_i`` that minimize the synchronous step time::

    min  max_i( v_i * t_i(b_i / v_i) + update_i ) + comm
    s.t. sum_i n_i * b_i = B

The search enumerates per-GPU batches over the power-of-2-like grid (§5.1.1)
for all but one type, closing the constraint exactly with the final type.
Virtual node counts are chosen per type as the smallest divisor of ``b_i``
whose wave batch fits in device memory (more waves only add launch
overhead).  If no heterogeneous combination beats the best single-type
configuration, the solver falls back to homogeneous — the paper's H1
behaviour where two P100s cannot keep up with a V100.
"""

from __future__ import annotations

from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

from repro.framework.models import Workload, get_workload
from repro.hardware.device import get_spec
from repro.hetero.assignment import HeteroAssignment, TypeAssignment
from repro.profiler.profiles import ProfileStore, ThroughputProfile
from repro.utils.validation import power_of_two_like_sizes

__all__ = ["HeterogeneousSolver"]


def _min_vn_count(batch: int, max_wave: int) -> Optional[int]:
    """Smallest divisor v of ``batch`` with batch/v <= max_wave, else None.

    Divisors come in pairs (d, batch // d) with d <= sqrt(batch), so one
    sqrt-bounded scan finds the answer — the smallest divisor at or above
    ``batch / max_wave`` — instead of walking ``range(2, batch + 1)``.
    """
    if max_wave < 1:
        return None
    if batch <= max_wave:
        return 1
    best: Optional[int] = None
    d = 1
    while d * d <= batch:
        if batch % d == 0:
            for v in (d, batch // d):
                if batch // v <= max_wave and (best is None or v < best):
                    best = v
        d += 1
    return best


class HeterogeneousSolver:
    """Searches heterogeneous configurations using offline profiles."""

    def __init__(self, workload_name: str, profiles: ProfileStore) -> None:
        self.workload_name = workload_name
        self.workload: Workload = get_workload(workload_name)
        self.profiles = profiles
        # Profiles are immutable per (workload, device_type); memoize lookups
        # so the _search recursion and the fig13/15/16 sweeps stop re-fetching
        # them in the inner loop.
        self._profile_cache: Dict[str, ThroughputProfile] = {}

    def _profile(self, device_type: str) -> ThroughputProfile:
        profile = self._profile_cache.get(device_type)
        if profile is None:
            profile = self.profiles.get(self.workload_name, device_type)
            self._profile_cache[device_type] = profile
        return profile

    # -- scoring -------------------------------------------------------------------

    def _type_step_time(self, profile: ThroughputProfile, batch_per_device: int,
                        vn_per_device: int) -> float:
        wave = batch_per_device // vn_per_device
        return vn_per_device * profile.step_time(wave) + profile.update_time

    def predict(self, assignments: Sequence[TypeAssignment]) -> Tuple[float, float]:
        """(step time, throughput) predicted from profiles for a configuration."""
        if not assignments:
            raise ValueError("no type assignments to predict")
        times = []
        comm = 0.0
        n_devices = sum(a.num_devices for a in assignments)
        for ta in assignments:
            profile = self._profile(ta.device_type)
            times.append(self._type_step_time(
                profile, ta.batch_per_device, ta.vn_per_device))
            if n_devices > 1:
                comm = max(comm, profile.comm_overhead)
        step = max(times) + comm
        total = sum(a.examples for a in assignments)
        return step, total / step

    def predict_assignment(self, assignments: Sequence[TypeAssignment]) -> HeteroAssignment:
        step, tput = self.predict(assignments)
        return HeteroAssignment(
            assignments=tuple(assignments),
            predicted_step_time=step,
            predicted_throughput=tput,
        )

    # -- search ---------------------------------------------------------------------

    def _max_wave(self, device_type: str) -> int:
        """Largest per-wave batch on this type (profiled memory limit)."""
        return self._profile(device_type).max_batch

    def _candidate_batches(self, global_batch: int) -> List[int]:
        return power_of_two_like_sizes(global_batch)

    def solve_homogeneous(self, device_counts: TMapping[str, int],
                          global_batch: int) -> Optional[HeteroAssignment]:
        """Best single-type configuration using all devices of that type."""
        best: Optional[HeteroAssignment] = None
        for device_type in sorted(device_counts):
            n = device_counts[device_type]
            if n < 1 or global_batch % n:
                continue
            per_device = global_batch // n
            v = _min_vn_count(per_device, self._max_wave(device_type))
            if v is None:
                continue
            candidate = self.predict_assignment([TypeAssignment(
                device_type=device_type, num_devices=n,
                batch_per_device=per_device, vn_per_device=v,
            )])
            if best is None or candidate.predicted_step_time < best.predicted_step_time:
                best = candidate
        return best

    def solve(self, device_counts: TMapping[str, int], global_batch: int,
              ) -> HeteroAssignment:
        """Best configuration over all type subsets and batch splits.

        Raises ``ValueError`` when no configuration (homogeneous or
        heterogeneous) can process the requested batch.
        """
        if global_batch < 1:
            raise ValueError(f"global_batch must be >= 1, got {global_batch}")
        types = sorted(t for t, n in device_counts.items() if n > 0)
        if not types:
            raise ValueError("no devices available")
        for t in types:
            get_spec(t)  # validate early
        best = self.solve_homogeneous(device_counts, global_batch)
        if len(types) > 1:
            hetero = self._search(types, device_counts, global_batch)
            if hetero is not None and (
                best is None or hetero.predicted_step_time < best.predicted_step_time
            ):
                best = hetero
        if best is None:
            raise ValueError(
                f"no feasible configuration for batch {global_batch} on "
                f"{dict(device_counts)}"
            )
        return best

    def _search(self, types: List[str], device_counts: TMapping[str, int],
                global_batch: int) -> Optional[HeteroAssignment]:
        """Enumerate grid splits across >= 2 device types."""
        candidates = self._candidate_batches(global_batch)
        best: Optional[HeteroAssignment] = None

        def recurse(i: int, remaining: int, chosen: List[TypeAssignment]) -> None:
            nonlocal best
            if i == len(types) - 1:
                final = self._close(types[i], device_counts[types[i]], remaining, chosen)
                if final is not None and len(final) >= 2:
                    candidate = self.predict_assignment(final)
                    if best is None or candidate.predicted_step_time < best.predicted_step_time:
                        best = candidate
                return
            t = types[i]
            n = device_counts[t]
            max_wave = self._max_wave(t)
            # Option: skip this type entirely.
            recurse(i + 1, remaining, chosen)
            for b in candidates:
                used = n * b
                if used > remaining:
                    break
                v = _min_vn_count(b, max_wave)
                if v is None:
                    continue
                chosen.append(TypeAssignment(t, n, b, v))
                recurse(i + 1, remaining - used, chosen)
                chosen.pop()

        recurse(0, global_batch, [])
        return best

    def _close(self, device_type: str, n: int, remaining: int,
               chosen: List[TypeAssignment]) -> Optional[List[TypeAssignment]]:
        """Assign the exact remainder to the final type (or skip it)."""
        if remaining == 0:
            return list(chosen) if chosen else None
        if n < 1 or remaining % n:
            return None
        b = remaining // n
        v = _min_vn_count(b, self._max_wave(device_type))
        if v is None:
            return None
        return list(chosen) + [TypeAssignment(device_type, n, b, v)]
