"""Cluster degradation state as two plain dicts and a loop.

:class:`ConditionsOracle` restates what
:class:`repro.hardware.perfmodel.ClusterConditions` answers about speed:
a straggler speed and a derate speed per device (exactly 1.0 removes
either), and a group's bottleneck is the minimum over its devices of the
two multiplied, starting from 1.0 — recomputed on every query, nothing
remembered between calls.  The network factor is kept beside them because
it must not move a bottleneck.
"""

from __future__ import annotations

from typing import Dict, Iterable

__all__ = ["ConditionsOracle"]


class ConditionsOracle:
    def __init__(self) -> None:
        self.speed: Dict[int, float] = {}
        self.derate: Dict[int, float] = {}
        self.network_factor = 1.0

    def set_straggler(self, device_id: int, speed: float) -> None:
        self.speed[device_id] = speed
        if speed == 1.0:
            del self.speed[device_id]

    def clear_straggler(self, device_id: int) -> None:
        self.speed.pop(device_id, None)

    def set_derate(self, device_id: int, speed: float) -> None:
        self.derate[device_id] = speed
        if speed == 1.0:
            del self.derate[device_id]

    def bottleneck_speed(self, device_ids: Iterable[int]) -> float:
        slowest = 1.0
        for d in device_ids:
            slowest = min(slowest,
                          self.speed.get(d, 1.0) * self.derate.get(d, 1.0))
        return slowest
