"""Cluster abstraction: a (possibly heterogeneous) set of devices."""

from __future__ import annotations

from collections import Counter
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

from repro.hardware.device import Device, DeviceSpec, get_spec
from repro.hardware.interconnect import Interconnect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.topology import FailureDomainTopology

__all__ = ["Cluster"]


class Cluster:
    """A set of simulated accelerators sharing one interconnect.

    Construct homogeneous clusters with :meth:`homogeneous` or heterogeneous
    ones from a ``{type_name: count}`` mapping with :meth:`from_counts`
    (e.g. the paper's §6.5.2 testbed: ``{"V100": 4, "P100": 8, "K80": 16}``).
    """

    def __init__(self, devices: Sequence[Device],
                 interconnect: Optional[Interconnect] = None,
                 topology: Optional["FailureDomainTopology"] = None) -> None:
        if not devices:
            raise ValueError("a cluster needs at least one device")
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate device ids in cluster")
        if topology is not None:
            topology.validate_devices(ids, owner="cluster")
        self.devices: List[Device] = list(devices)
        self.interconnect = interconnect or Interconnect()
        self.topology = topology

    # -- constructors ---------------------------------------------------------

    @classmethod
    def homogeneous(cls, type_name: str, count: int,
                    interconnect: Optional[Interconnect] = None,
                    topology: Optional["FailureDomainTopology"] = None,
                    ) -> "Cluster":
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        spec = get_spec(type_name)
        return cls([Device(spec, i) for i in range(count)], interconnect,
                   topology=topology)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int],
                    interconnect: Optional[Interconnect] = None) -> "Cluster":
        devices: List[Device] = []
        next_id = 0
        for type_name in sorted(counts):
            spec = get_spec(type_name)
            for _ in range(counts[type_name]):
                devices.append(Device(spec, next_id))
                next_id += 1
        return cls(devices, interconnect)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)

    @property
    def specs(self) -> List[DeviceSpec]:
        """Distinct device specs present, sorted by name."""
        seen: Dict[str, DeviceSpec] = {d.spec.name: d.spec for d in self.devices}
        return [seen[name] for name in sorted(seen)]

    def counts(self) -> Dict[str, int]:
        return dict(Counter(d.spec.name for d in self.devices))

    @property
    def is_homogeneous(self) -> bool:
        return len({d.spec.name for d in self.devices}) == 1

    def total_memory(self) -> int:
        return sum(d.spec.memory_bytes for d in self.devices)

    def subset(self, device_ids: Iterable[int]) -> "Cluster":
        """A new cluster view over the given device ids (shared interconnect)."""
        wanted = set(device_ids)
        chosen = [d for d in self.devices if d.device_id in wanted]
        missing = wanted - {d.device_id for d in chosen}
        if missing:
            raise KeyError(f"device ids not in cluster: {sorted(missing)}")
        return Cluster(chosen, self.interconnect)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}x{t}" for t, n in sorted(self.counts().items()))
        return f"Cluster({parts})"
