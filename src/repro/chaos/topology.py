"""Failure-domain topology: the device → rack → switch tree chaos samples.

Real clusters do not fail one device at a time: a PDU trip takes a rack, a
ToR switch takes every rack behind it.  :class:`FailureDomainTopology`
declares that tree over a pool's device ids so :func:`~repro.chaos.plan.
random_plan` can draw *correlated* modes — domain wipes that crash every
device in a sampled domain at one instant, and straggler windows that open
across a whole rack (a shared-cooling thermal event) — and so plan
validation can reject, at construction time, any scenario whose single
largest wipe would drop the pool below its ``min_healthy`` floor.

The topology is pure data: frozen, hashable by its member tuples, and
attachable to both :class:`~repro.runtime.pool.DevicePool` and
:class:`~repro.hardware.cluster.Cluster` (each validates that the declared
devices are exactly the pool's).  Domains are addressed by ``(level,
index)`` where level is ``"device"``, ``"rack"``, or ``"switch"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["DEVICE", "RACK", "SWITCH", "LEVELS", "FailureDomainTopology"]

DEVICE = "device"
RACK = "rack"
SWITCH = "switch"
LEVELS = (DEVICE, RACK, SWITCH)


@dataclass(frozen=True)
class FailureDomainTopology:
    """A device → rack → switch/power failure-domain tree.

    ``racks`` partitions the device ids into rack domains; ``switches``
    partitions the rack *indices* into switch/power domains (optional — an
    empty tuple means every rack is its own switch domain, i.e. the switch
    level degenerates to the rack level).
    """

    racks: Tuple[Tuple[int, ...], ...]
    switches: Tuple[Tuple[int, ...], ...] = ()
    _rack_of: Dict[int, int] = field(default_factory=dict, repr=False,
                                     compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.racks:
            raise ValueError("a topology needs at least one rack")
        object.__setattr__(
            self, "racks",
            tuple(tuple(sorted(r)) for r in self.racks))
        seen: Dict[int, int] = {}
        for idx, members in enumerate(self.racks):
            if not members:
                raise ValueError(f"rack {idx} is empty")
            for dev in members:
                if dev < 0:
                    raise ValueError(f"negative device id {dev} in rack {idx}")
                if dev in seen:
                    raise ValueError(
                        f"device {dev} appears in racks {seen[dev]} and {idx}")
                seen[dev] = idx
        object.__setattr__(self, "_rack_of", seen)
        if self.switches:
            object.__setattr__(
                self, "switches",
                tuple(tuple(sorted(s)) for s in self.switches))
            covered: List[int] = []
            for idx, rack_ids in enumerate(self.switches):
                if not rack_ids:
                    raise ValueError(f"switch domain {idx} is empty")
                bad = [r for r in rack_ids if not 0 <= r < len(self.racks)]
                if bad:
                    raise ValueError(
                        f"switch domain {idx} names unknown rack(s) {bad}")
                covered.extend(rack_ids)
            if sorted(covered) != list(range(len(self.racks))):
                raise ValueError(
                    "switch domains must partition the racks exactly")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def regular(cls, num_racks: int, devices_per_rack: int,
                num_switches: Optional[int] = None,
                first_device: int = 0) -> "FailureDomainTopology":
        """An even grid: ``num_racks`` racks of ``devices_per_rack`` devices,
        ids assigned contiguously from ``first_device``, optionally grouped
        into ``num_switches`` equal switch domains."""
        if num_racks < 1 or devices_per_rack < 1:
            raise ValueError("need >= 1 rack of >= 1 device, got "
                             f"{num_racks}x{devices_per_rack}")
        racks = tuple(
            tuple(range(first_device + r * devices_per_rack,
                        first_device + (r + 1) * devices_per_rack))
            for r in range(num_racks))
        switches: Tuple[Tuple[int, ...], ...] = ()
        if num_switches is not None:
            if not 1 <= num_switches <= num_racks or num_racks % num_switches:
                raise ValueError(
                    f"{num_switches} switch domain(s) must evenly divide "
                    f"{num_racks} racks")
            per = num_racks // num_switches
            switches = tuple(tuple(range(s * per, (s + 1) * per))
                             for s in range(num_switches))
        return cls(racks, switches)

    @classmethod
    def from_spec(cls, spec: str) -> "FailureDomainTopology":
        """Parse the CLI surface: ``"racks=4x8"`` or ``"racks=4x8,switches=2"``.

        ``racks=RxD`` declares R racks of D devices (ids ``0..R*D-1``);
        ``switches=S`` optionally groups the racks into S switch domains.
        """
        racks_part: Optional[str] = None
        num_switches: Optional[int] = None
        for part in spec.split(","):
            key, sep, value = part.strip().partition("=")
            if not sep:
                raise ValueError(f"expected key=value in topology spec, "
                                 f"got {part!r}")
            if key == "racks":
                racks_part = value
            elif key == "switches":
                try:
                    num_switches = int(value)
                except ValueError:
                    raise ValueError(
                        f"bad switch count {value!r} in {spec!r}") from None
            else:
                raise ValueError(f"unknown topology key {key!r} in {spec!r}")
        if racks_part is None:
            raise ValueError(f"topology spec needs racks=RxD, got {spec!r}")
        r, sep, d = racks_part.partition("x")
        try:
            num_racks, per_rack = int(r), int(d) if sep else -1
        except ValueError:
            raise ValueError(
                f"bad racks spec {racks_part!r}, expected RxD") from None
        if not sep:
            raise ValueError(
                f"bad racks spec {racks_part!r}, expected RxD")
        return cls.regular(num_racks, per_rack, num_switches)

    # -- queries --------------------------------------------------------------

    @property
    def device_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._rack_of))

    @property
    def num_devices(self) -> int:
        return len(self._rack_of)

    def domains(self, level: str) -> Tuple[Tuple[int, ...], ...]:
        """Device-id membership of every domain at ``level``."""
        if level == DEVICE:
            return tuple((d,) for d in self.device_ids)
        if level == RACK:
            return self.racks
        if level == SWITCH:
            if not self.switches:
                return self.racks
            return tuple(
                tuple(sorted(d for r in rack_ids for d in self.racks[r]))
                for rack_ids in self.switches)
        raise ValueError(f"unknown failure-domain level {level!r}; "
                         f"expected one of {LEVELS}")

    def members(self, level: str, index: int) -> Tuple[int, ...]:
        doms = self.domains(level)
        if not 0 <= index < len(doms):
            raise ValueError(
                f"no {level} domain {index} (have {len(doms)})")
        return doms[index]

    def blast_radius(self, level: str) -> int:
        """Devices lost when the largest ``level`` domain fails at once."""
        return max(len(d) for d in self.domains(level))

    def validate_devices(self, device_ids: Iterable[int],
                         owner: str = "pool") -> None:
        """Require the topology to cover exactly the given device set."""
        expected = set(device_ids)
        declared = set(self._rack_of)
        if declared != expected:
            extra = sorted(declared - expected)
            missing = sorted(expected - declared)
            raise ValueError(
                f"topology does not match the {owner}'s devices"
                + (f"; not in {owner}: {extra}" if extra else "")
                + (f"; undeclared: {missing}" if missing else ""))

    def describe(self) -> str:
        """One line for plan/CLI output: shape + worst-case blast radius."""
        sizes = sorted({len(r) for r in self.racks})
        shape = (f"{len(self.racks)} rack(s) x {sizes[0]}" if len(sizes) == 1
                 else f"{len(self.racks)} rack(s) of {sizes} devices")
        out = f"{shape}"
        if self.switches:
            out += f", {len(self.switches)} switch domain(s)"
        out += f" (blast radius {self.blast_radius(SWITCH)})"
        return out
