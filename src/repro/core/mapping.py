"""The virtual-node-to-device mapping.

This is the *only* object that changes when a job is resized or moved across
hardware (Fig 3).  It never affects model semantics; it only determines which
device executes which waves, and therefore step time and memory placement.
"""

from __future__ import annotations

from typing import Dict, List, Mapping as TMapping, Optional

from repro.core.virtual_node import VirtualNodeSet
from repro.hardware.cluster import Cluster
from repro.hardware.interconnect import Interconnect

__all__ = ["Mapping", "migration_time"]


class Mapping:
    """An assignment of every virtual node to exactly one device."""

    def __init__(self, vn_set: VirtualNodeSet, cluster: Cluster,
                 assignment: TMapping[int, int]) -> None:
        self.vn_set = vn_set
        self.cluster = cluster
        device_ids = {d.device_id for d in cluster.devices}
        missing = [i for i in range(vn_set.num_nodes) if i not in assignment]
        if missing:
            raise ValueError(f"virtual nodes without a device: {missing[:8]}")
        extra = set(assignment) - set(range(vn_set.num_nodes))
        if extra:
            raise ValueError(f"assignment mentions unknown virtual nodes: {sorted(extra)[:8]}")
        bad = {v for v in assignment.values() if v not in device_ids}
        if bad:
            raise ValueError(f"assignment mentions unknown devices: {sorted(bad)[:8]}")
        self.assignment: Dict[int, int] = {i: int(assignment[i]) for i in range(vn_set.num_nodes)}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def even(cls, vn_set: VirtualNodeSet, cluster: Cluster) -> "Mapping":
        """Round-robin virtual nodes across devices (the homogeneous default).

        With N devices and V·N virtual nodes each device gets V nodes; the
        paper's Figure 1 redistribution (16 VNs: 16 GPUs → 4 GPUs with 4 VNs
        each) is exactly this constructor applied to a smaller cluster.
        """
        ids = sorted(d.device_id for d in cluster.devices)
        assignment = {i: ids[i % len(ids)] for i in range(vn_set.num_nodes)}
        return cls(vn_set, cluster, assignment)

    @classmethod
    def by_counts(cls, vn_set: VirtualNodeSet, cluster: Cluster,
                  counts: TMapping[int, int]) -> "Mapping":
        """Assign the first ``counts[d0]`` nodes to device d0, the next to d1, ...

        ``counts`` maps device id to the number of virtual nodes it hosts; the
        heterogeneous solver emits these (more nodes to faster devices).
        """
        total = sum(counts.values())
        if total != vn_set.num_nodes:
            raise ValueError(
                f"counts sum to {total} but the set has {vn_set.num_nodes} virtual nodes"
            )
        if any(c < 0 for c in counts.values()):
            raise ValueError("virtual node counts must be >= 0")
        assignment: Dict[int, int] = {}
        vn = 0
        for device_id in sorted(counts):
            for _ in range(counts[device_id]):
                assignment[vn] = device_id
                vn += 1
        return cls(vn_set, cluster, assignment)

    # -- queries ------------------------------------------------------------------

    def nodes_on(self, device_id: int) -> List[int]:
        """Virtual node indices hosted by ``device_id``, in canonical order."""
        return [i for i in range(self.vn_set.num_nodes) if self.assignment[i] == device_id]

    def waves(self) -> Dict[int, List[int]]:
        """Per-device ordered wave lists: device id -> [vn_index, ...]."""
        out: Dict[int, List[int]] = {d.device_id: [] for d in self.cluster.devices}
        for i in range(self.vn_set.num_nodes):
            out[self.assignment[i]].append(i)
        return out

    def wave_batches(self) -> Dict[int, List[int]]:
        """Per-device wave batch sizes: device id -> [batch, ...]."""
        return {
            dev: [self.vn_set[i].batch_size for i in nodes]
            for dev, nodes in self.waves().items()
        }

    def active_devices(self) -> List[int]:
        """Devices hosting at least one virtual node."""
        return [dev for dev, nodes in sorted(self.waves().items()) if nodes]

    @property
    def max_waves(self) -> int:
        """The longest wave sequence on any device (the time dimension of Fig 4)."""
        return max((len(nodes) for nodes in self.waves().values()), default=0)

    def local_batch(self, device_id: int) -> int:
        """Total examples per step on one device."""
        return sum(self.vn_set[i].batch_size for i in self.nodes_on(device_id))

    def redistribute(self, new_cluster: Cluster) -> "Mapping":
        """The elasticity primitive (§4.1): same virtual nodes, new devices."""
        return Mapping.even(self.vn_set, new_cluster)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"dev{dev}:{len(nodes)}vn" for dev, nodes in sorted(self.waves().items()) if nodes
        )
        return f"Mapping({parts})"


def migration_time(old_mapping: Mapping, new_mapping: Mapping, model_bytes: int,
                   state_bytes: int, interconnect: Optional[Interconnect] = None) -> float:
    """Simulated cost of the §4.1 all-gather that bootstraps new workers.

    Only devices that gained virtual nodes need state; when the device sets
    are identical (pure re-balance) or the job is shrinking onto existing
    devices, no parameter broadcast is needed and the cost is zero.
    """
    interconnect = interconnect or new_mapping.cluster.interconnect
    old_devices = set(old_mapping.active_devices())
    new_devices = set(new_mapping.active_devices())
    joiners = new_devices - old_devices
    if not joiners:
        return 0.0
    payload = model_bytes + state_bytes
    return interconnect.allgather_time(payload, len(new_devices))
