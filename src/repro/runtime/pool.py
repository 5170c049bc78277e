"""The shared device pool: leases, elasticity, device-second accounting.

The paper's virtual-node abstraction decouples a job from its devices so
allocations can change freely at runtime; :class:`DevicePool` is the object
allocations change *against*.  Every consumer — the serving router's
autoscaler, each elastic training job, a co-scheduler harvesting GPUs across
the train/serve boundary — holds a :class:`DeviceLease` and grows or shrinks
it; the pool enforces the physical invariants (a device belongs to at most
one lease, the free count never goes negative) and owns the device-second
accounting that used to be hand-rolled per subsystem.

Allocation policy is deterministic and prefix-friendly: ``acquire`` and
growth hand out the *lowest* free device ids, shrinking returns the
*highest* held ids.  A lease that is alone on the pool therefore always
holds a prefix ``[0..k)`` — exactly the device sets the pre-runtime router
used, which is what keeps the golden serving traces bit-identical.

Accounting: each lease accrues ``(now - last_change) * held_devices`` at
every size change (and at :meth:`settle`), the same running sum the router
kept inline.  :meth:`audit` checks conservation — busy + idle device-seconds
must equal ``capacity * elapsed`` — so a rescale boundary that double-counts
or drops an interval is caught structurally, not by eyeballing reports.

Chaos injection adds a third state: a **failed** device is quarantined out
of both the free list and whatever lease held it (:meth:`fail_device`
force-revokes mid-lease), accrues into its own bucket, and re-enters the
free list on :meth:`revive_device`.  Conservation then reads
busy + idle + failed == capacity * elapsed, so crash/revive boundaries are
held to the same accounting standard as rescales.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.topology import FailureDomainTopology

__all__ = ["DeviceLease", "DevicePool", "LeaseError"]


class LeaseError(RuntimeError):
    """A lease operation violated a pool invariant."""


class DeviceLease:
    """One consumer's current hold on pool devices, with accounting.

    Mutated only by the owning :class:`DevicePool` — consumers read
    ``device_ids`` and call the pool to change size.
    """

    __slots__ = ("owner", "_ids", "_accrued", "_last", "_active")

    def __init__(self, owner: str, ids: Sequence[int], now: float) -> None:
        self.owner = owner
        self._ids: Tuple[int, ...] = tuple(sorted(ids))
        self._accrued = 0.0
        self._last = now
        self._active = True

    @property
    def device_ids(self) -> Tuple[int, ...]:
        """The held device ids, ascending."""
        return self._ids

    @property
    def size(self) -> int:
        return len(self._ids)

    @property
    def active(self) -> bool:
        return self._active

    @property
    def device_seconds(self) -> float:
        """Device-seconds accrued so far (through the last accounted instant)."""
        return self._accrued

    def _accrue(self, now: float) -> None:
        if now < self._last:
            raise LeaseError(
                f"lease accounting cannot run backwards: {now!r} < {self._last!r}")
        self._accrued += (now - self._last) * len(self._ids)
        self._last = now


class DevicePool:
    """A fixed set of device ids shared by leases.

    ``devices`` is either a count (ids ``0..n-1``) or an explicit id
    sequence.  All mutating operations take the simulated time ``now`` so
    accounting stays exact across rescale boundaries; times must be
    non-decreasing per lease.
    """

    def __init__(self, devices: Union[int, Iterable[int]],
                 topology: Optional["FailureDomainTopology"] = None) -> None:
        if isinstance(devices, int):
            if devices < 1:
                raise ValueError(f"need at least one device, got {devices}")
            ids: List[int] = list(range(devices))
        else:
            ids = sorted(devices)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids: {ids}")
        if not ids:
            raise ValueError("need at least one device")
        if topology is not None:
            topology.validate_devices(ids, owner="pool")
        self.topology = topology
        self._all: Tuple[int, ...] = tuple(ids)
        self._free: List[int] = list(ids)  # kept sorted ascending
        self._failed: List[int] = []  # kept sorted ascending
        self._leases: List[DeviceLease] = []
        self._idle_accrued = 0.0
        self._failed_accrued = 0.0
        self._last = 0.0

    # -- introspection -------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self._all)

    @property
    def device_ids(self) -> Tuple[int, ...]:
        return self._all

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def leases(self) -> Tuple[DeviceLease, ...]:
        return tuple(self._leases)

    @property
    def failed_ids(self) -> Tuple[int, ...]:
        """Devices currently quarantined by :meth:`fail_device`, ascending."""
        return tuple(self._failed)

    @property
    def healthy_capacity(self) -> int:
        """Devices not currently failed — the budget chaos-aware consumers see."""
        return len(self._all) - len(self._failed)

    def lease_of(self, device_id: int) -> Optional[DeviceLease]:
        """The active lease holding ``device_id``, or ``None`` if free/failed."""
        for lease in self._leases:
            if lease.active and device_id in lease._ids:
                return lease
        return None

    # -- internal ------------------------------------------------------------

    def _accrue_idle(self, now: float) -> None:
        if now < self._last:
            raise LeaseError(
                f"pool accounting cannot run backwards: {now!r} < {self._last!r}")
        self._idle_accrued += (now - self._last) * len(self._free)
        self._failed_accrued += (now - self._last) * len(self._failed)
        self._last = now

    def _take(self, n: int, now: float) -> List[int]:
        if n > len(self._free):
            raise LeaseError(
                f"cannot lease {n} device(s) at t={now:g}: only "
                f"{len(self._free)} of {self.capacity} free")
        taken, self._free = self._free[:n], self._free[n:]
        return taken

    # -- the lease lifecycle -------------------------------------------------

    def acquire(self, owner: str, n: int, now: float = 0.0, *,
                ids: Optional[Sequence[int]] = None) -> DeviceLease:
        """Lease ``n`` devices (the lowest free ids, or explicit ``ids``)."""
        if n < 0:
            raise ValueError(f"cannot lease a negative device count: {n}")
        self._accrue_idle(now)
        if ids is not None:
            ids = sorted(ids)
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate device ids: {ids}")
            if len(ids) != n:
                raise ValueError(f"ids {ids} do not match requested count {n}")
            missing = [d for d in ids if d not in self._free]
            if missing:
                raise LeaseError(
                    f"device(s) {missing} are not free at t={now:g}")
            self._free = [d for d in self._free if d not in ids]
            taken = list(ids)
        else:
            taken = self._take(n, now)
        lease = DeviceLease(owner, taken, now)
        self._leases.append(lease)
        return lease

    def resize(self, lease: DeviceLease, n: int, now: float) -> Tuple[
            Tuple[int, ...], Tuple[int, ...]]:
        """Grow/shrink ``lease`` to ``n`` devices; returns (gained, lost).

        Accrues the lease's device-seconds at its *old* size through ``now``
        first — the interval before a rescale boundary is charged at the
        allocation that actually held it.
        """
        if n < 0:
            raise ValueError(f"cannot resize to a negative count: {n}")
        self._check_active(lease)
        self._accrue_idle(now)
        lease._accrue(now)
        gained: Tuple[int, ...] = ()
        lost: Tuple[int, ...] = ()
        if n > lease.size:
            gained = tuple(self._take(n - lease.size, now))
            lease._ids = tuple(sorted(lease._ids + gained))
        elif n < lease.size:
            keep, dropped = lease._ids[:n], lease._ids[n:]
            lease._ids = keep
            lost = dropped
            self._free = sorted(self._free + list(dropped))
        return gained, lost

    def release(self, lease: DeviceLease, now: float) -> float:
        """End the lease; returns its total accrued device-seconds."""
        self._check_active(lease)
        self._accrue_idle(now)
        lease._accrue(now)
        self._free = sorted(self._free + list(lease._ids))
        lease._ids = ()
        lease._active = False
        return lease.device_seconds

    def settle(self, now: float) -> None:
        """Bring every account (leases and idle) up to ``now``."""
        self._accrue_idle(now)
        for lease in self._leases:
            if lease.active:
                lease._accrue(now)

    # -- chaos: crash / revive -----------------------------------------------

    def fail_device(self, device_id: int, now: float) -> Optional[DeviceLease]:
        """Take one specific device out of service (a crash), mid-lease if held.

        Unlike :meth:`resize` — which always drops the *highest* held ids —
        a crash targets an arbitrary device: it is force-revoked from
        whatever lease holds it (after charging the lease at its old size
        through ``now``), or removed from the free list.  The device is
        quarantined until :meth:`revive_device`.  Returns the lease it was
        revoked from, or ``None`` if it was free, so the caller can route
        the reaction (remap serving, stall the training job, ...).
        """
        if device_id not in self._all:
            raise LeaseError(f"unknown device id {device_id}")
        if device_id in self._failed:
            raise LeaseError(f"device {device_id} is already failed")
        self._accrue_idle(now)
        if device_id in self._free:
            self._free.remove(device_id)
            self._failed = sorted(self._failed + [device_id])
            return None
        lease = self.lease_of(device_id)
        if lease is None:  # pragma: no cover - free+leased+failed covers _all
            raise LeaseError(f"device {device_id} is in no pool state")
        lease._accrue(now)
        lease._ids = tuple(d for d in lease._ids if d != device_id)
        self._failed = sorted(self._failed + [device_id])
        return lease

    def revive_device(self, device_id: int, now: float) -> None:
        """Return a failed device to the free list (repair completed)."""
        if device_id not in self._failed:
            raise LeaseError(f"device {device_id} is not failed")
        self._accrue_idle(now)
        self._failed.remove(device_id)
        self._free = sorted(self._free + [device_id])

    def _check_active(self, lease: DeviceLease) -> None:
        if not lease.active:
            raise LeaseError(f"lease for {lease.owner!r} was already released")
        if lease not in self._leases:
            raise LeaseError(f"lease for {lease.owner!r} belongs to another pool")

    # -- accounting ----------------------------------------------------------

    def device_seconds(self, owner: Optional[str] = None) -> float:
        """Accrued busy device-seconds (for one owner, or the whole pool)."""
        return sum(lease.device_seconds for lease in self._leases
                   if owner is None or lease.owner == owner)

    def audit(self, now: Optional[float] = None) -> Dict[str, float]:
        """Settle to ``now`` and verify device-second conservation.

        Busy + idle must equal ``capacity * elapsed`` (to float tolerance),
        and the structural invariants must hold: free + leased == capacity
        with no device in two places.  Returns the audited quantities.
        """
        if now is not None:
            self.settle(now)
        held: List[int] = []
        for lease in self._leases:
            if lease.active:
                held.extend(lease._ids)
        if len(set(held)) != len(held):
            raise LeaseError(f"device leased twice: {sorted(held)}")
        overlap = set(held) & set(self._free)
        if overlap:
            raise LeaseError(f"device(s) both free and leased: {sorted(overlap)}")
        quarantined = set(self._failed) & (set(held) | set(self._free))
        if quarantined:
            raise LeaseError(
                f"failed device(s) still free or leased: {sorted(quarantined)}")
        if len(held) + len(self._free) + len(self._failed) != self.capacity:
            raise LeaseError(
                f"{len(held)} leased + {len(self._free)} free + "
                f"{len(self._failed)} failed != capacity {self.capacity}")
        busy = self.device_seconds()
        expected = self.capacity * self._last
        total = busy + self._idle_accrued + self._failed_accrued
        if abs(total - expected) > 1e-6 * max(1.0, expected):
            raise LeaseError(
                f"device-seconds not conserved: busy {busy:g} + idle "
                f"{self._idle_accrued:g} + failed {self._failed_accrued:g} "
                f"!= capacity*elapsed {expected:g}")
        return {
            "busy_device_seconds": busy,
            "idle_device_seconds": self._idle_accrued,
            "failed_device_seconds": self._failed_accrued,
            "elapsed": self._last,
            "capacity": float(self.capacity),
        }
