"""Simulated accelerator devices.

A :class:`DeviceSpec` describes a GPU type: memory capacity and a relative
compute factor (V100 ≡ 1.0).  The factors encode the throughput ratios the
paper observes — e.g. V100 ≈ 4× P100 for ResNet-50 (§5.1.2) — and the Gavel
experiments' V100/P100/K80 hierarchy.

A :class:`Device` instance additionally carries a :class:`MemoryLedger`, so
allocations are tracked per category (parameters / activations / gradient
buffer / optimizer slots / inputs / other) and capacity violations raise
:class:`OutOfDeviceMemory` — which is what makes the TF* baseline unable to
fit a batch of 8192 on one GPU while VirtualFlow can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.utils.units import GB, format_bytes

__all__ = ["DeviceSpec", "Device", "DEVICE_SPECS", "get_spec", "MemoryLedger",
           "OutOfDeviceMemory"]


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation exceeds a device's memory capacity."""


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of an accelerator type."""

    name: str
    memory_bytes: int
    # Relative compute rate; V100 == 1.0.  Per-wave times and update costs
    # in the perf model are divided by this.
    compute_factor: float
    # Rate at which the on-device gradient buffer absorbs a raw gradient
    # (the §3.2 aggregation); bytes/second.
    aggregation_bandwidth: float = 100 * GB

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive, got {self.memory_bytes}")
        if self.compute_factor <= 0:
            raise ValueError(f"compute_factor must be positive, got {self.compute_factor}")


# The paper's testbed (§6.1) plus the K80s used in the Gavel simulation
# (§6.5.2).  compute_factor encodes V100 ≈ 4x P100 on ResNet-50 and the
# usual V100 > 2080Ti > P100 >> K80 ordering.
DEVICE_SPECS: Dict[str, DeviceSpec] = {
    "V100": DeviceSpec(name="V100", memory_bytes=16 * GB, compute_factor=1.0),
    "P100": DeviceSpec(name="P100", memory_bytes=16 * GB, compute_factor=0.25),
    "K80": DeviceSpec(name="K80", memory_bytes=12 * GB, compute_factor=0.08),
    "RTX2080Ti": DeviceSpec(name="RTX2080Ti", memory_bytes=11 * GB, compute_factor=0.8),
}


def get_spec(name: str) -> DeviceSpec:
    """Look up a device type by name."""
    try:
        return DEVICE_SPECS[name]
    except KeyError:
        raise KeyError(f"unknown device type {name!r}; available: {sorted(DEVICE_SPECS)}") from None


class MemoryLedger:
    """Per-category byte accounting with capacity enforcement."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._live: Dict[str, int] = {}
        self.peak = 0
        self.peak_by_category: Dict[str, int] = {}

    @property
    def used(self) -> int:
        return sum(self._live.values())

    def live(self, category: str) -> int:
        return self._live.get(category, 0)

    def breakdown(self) -> Dict[str, int]:
        return dict(self._live)

    def allocate(self, category: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes ({nbytes})")
        new_total = self.used + nbytes
        if new_total > self.capacity_bytes:
            raise MemoryError(
                f"allocation of {format_bytes(nbytes)} for {category!r} would use "
                f"{format_bytes(new_total)} of {format_bytes(self.capacity_bytes)}"
            )
        self._live[category] = self._live.get(category, 0) + nbytes
        self.peak = max(self.peak, new_total)
        self.peak_by_category[category] = max(
            self.peak_by_category.get(category, 0), self._live[category]
        )

    def free(self, category: str, nbytes: Optional[int] = None) -> None:
        live = self._live.get(category, 0)
        if nbytes is None:
            nbytes = live
        if nbytes > live:
            raise ValueError(
                f"cannot free {format_bytes(nbytes)} from {category!r}; only "
                f"{format_bytes(live)} live"
            )
        self._live[category] = live - nbytes
        if self._live[category] == 0:
            del self._live[category]

    def reset(self) -> None:
        self._live.clear()
        self.peak = 0
        self.peak_by_category.clear()


class Device:
    """One simulated accelerator with a tracked memory ledger."""

    def __init__(self, spec: DeviceSpec, device_id: int) -> None:
        self.spec = spec
        self.device_id = device_id
        self.memory = MemoryLedger(capacity_bytes=spec.memory_bytes)

    @property
    def name(self) -> str:
        return f"{self.spec.name}:{self.device_id}"

    def allocate(self, category: str, nbytes: int) -> None:
        """Record an allocation; raises :class:`OutOfDeviceMemory` on overflow."""
        try:
            self.memory.allocate(category, nbytes)
        except MemoryError as exc:
            raise OutOfDeviceMemory(
                f"{self.name}: {exc} (capacity {format_bytes(self.spec.memory_bytes)})"
            ) from None

    def free(self, category: str, nbytes: Optional[int] = None) -> None:
        self.memory.free(category, nbytes)

    def __repr__(self) -> str:
        return (f"Device({self.name}, used={format_bytes(self.memory.used)}/"
                f"{format_bytes(self.spec.memory_bytes)})")
