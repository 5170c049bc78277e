"""DevicePool lease invariants and device-second conservation."""

from __future__ import annotations

import pytest

from repro.runtime import DevicePool, LeaseError
from runtime_state import free_ids


class TestLeaseInvariants:
    def test_acquire_hands_out_lowest_free_ids(self):
        pool = DevicePool(4)
        lease = pool.acquire("a", 2)
        assert lease.device_ids == (0, 1)
        assert free_ids(pool) == (2, 3)

    def test_no_double_lease(self):
        pool = DevicePool(4)
        pool.acquire("a", 2)
        with pytest.raises(LeaseError):
            pool.acquire("b", 2, ids=[1, 2])  # 1 is already held by "a"

    def test_free_count_never_negative(self):
        pool = DevicePool(4)
        lease = pool.acquire("a", 3)
        with pytest.raises(LeaseError):
            pool.acquire("b", 2)
        pool.resize(lease, 4, 1.0)
        assert pool.free_count == 0
        with pytest.raises(LeaseError):
            pool.resize(lease, 5, 2.0)

    def test_grow_takes_lowest_shrink_returns_highest(self):
        pool = DevicePool(6)
        lease = pool.acquire("a", 2)           # (0, 1)
        pool.resize(lease, 4, 1.0)
        assert lease.device_ids == (0, 1, 2, 3)
        gained, lost = pool.resize(lease, 1, 2.0)
        assert gained == () and lost == (1, 2, 3)
        assert lease.device_ids == (0,)        # prefix survives
        assert free_ids(pool) == (1, 2, 3, 4, 5)

    def test_solo_lease_always_holds_a_prefix(self):
        # The property the golden serving traces rely on: a lease alone on
        # the pool always holds exactly [0..k), whatever the resize path.
        pool = DevicePool(8)
        lease = pool.acquire("router", 2)
        for step, size in enumerate((4, 1, 8, 3)):
            pool.resize(lease, size, float(step + 1))
            assert lease.device_ids == tuple(range(size))

    def test_release_frees_everything(self):
        pool = DevicePool(4)
        lease = pool.acquire("a", 3)
        pool.release(lease, 1.0)
        assert not lease.active
        assert pool.free_count == 4
        with pytest.raises(LeaseError):
            pool.resize(lease, 2, 2.0)
        with pytest.raises(LeaseError):
            pool.release(lease, 2.0)

    def test_foreign_lease_rejected(self):
        a, b = DevicePool(2), DevicePool(2)
        lease = a.acquire("x", 1)
        with pytest.raises(LeaseError):
            b.resize(lease, 2, 1.0)

    def test_explicit_ids_must_match_count(self):
        pool = DevicePool(4)
        with pytest.raises(ValueError):
            pool.acquire("a", 2, ids=[0])

    def test_zero_size_lease_allowed(self):
        # A preempted training job holds a zero-size lease until devices
        # come back; that must be representable.
        pool = DevicePool(2)
        lease = pool.acquire("job", 0)
        assert lease.size == 0 and pool.free_count == 2
        pool.resize(lease, 2, 1.0)
        assert lease.size == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DevicePool(0)
        with pytest.raises(ValueError):
            DevicePool([1, 1])
        pool = DevicePool(2)
        with pytest.raises(ValueError):
            pool.acquire("a", -1)
        lease = pool.acquire("a", 1)
        with pytest.raises(ValueError):
            pool.resize(lease, -2, 1.0)


class TestDeviceSecondAccounting:
    def test_lease_accrues_at_each_size(self):
        pool = DevicePool(8)
        lease = pool.acquire("a", 2, 0.0)
        pool.resize(lease, 4, 10.0)    # 2 devices for 10 s
        pool.resize(lease, 1, 15.0)    # 4 devices for 5 s
        pool.settle(20.0)              # 1 device for 5 s
        assert lease.device_seconds == pytest.approx(2 * 10 + 4 * 5 + 1 * 5)

    def test_time_cannot_run_backwards(self):
        pool = DevicePool(2)
        lease = pool.acquire("a", 1, 5.0)
        with pytest.raises(LeaseError):
            pool.resize(lease, 2, 4.0)

    def test_conservation_audit(self):
        pool = DevicePool(4)
        a = pool.acquire("a", 2, 0.0)
        b = pool.acquire("b", 1, 1.0)
        pool.resize(a, 3, 2.0)
        pool.release(b, 3.0)
        audit = pool.audit(10.0)
        assert audit["busy_device_seconds"] == pytest.approx(
            pool.device_seconds())
        assert (audit["busy_device_seconds"] + audit["idle_device_seconds"]
                == pytest.approx(4 * 10.0))

    def test_per_owner_attribution(self):
        pool = DevicePool(4)
        a = pool.acquire("train", 2, 0.0)
        pool.acquire("serve", 1, 0.0)
        pool.settle(8.0)
        assert pool.device_seconds("train") == pytest.approx(16.0)
        assert pool.device_seconds("serve") == pytest.approx(8.0)
        assert pool.device_seconds() == pytest.approx(24.0)
        pool.release(a, 8.0)
        # Released leases keep contributing their history.
        assert pool.device_seconds("train") == pytest.approx(16.0)


class TestFailRevive:
    """Crash/revive quarantine invariants the chaos controller relies on."""

    def test_fail_leased_device_revokes_it(self):
        pool = DevicePool(4)
        lease = pool.acquire("train", 3, 0.0)
        owner = pool.fail_device(1, 1.0)
        assert owner is lease
        assert lease.device_ids == (0, 2)
        assert pool.failed_ids == (1,)
        assert pool.healthy_capacity == 3
        assert pool.lease_of(1) is None

    def test_fail_free_device_quarantines_it(self):
        pool = DevicePool(4)
        pool.acquire("a", 2, 0.0)
        assert pool.fail_device(3, 1.0) is None
        assert free_ids(pool) == (2,)
        assert pool.free_count == 1
        # The quarantined device is not leasable.
        with pytest.raises(LeaseError):
            pool.acquire("b", 1, 1.0, ids=[3])

    def test_no_double_lease_after_revive(self):
        pool = DevicePool(2)
        a = pool.acquire("a", 2, 0.0)
        pool.fail_device(0, 1.0)
        pool.revive_device(0, 2.0)
        # Revive frees the device; it must be leasable exactly once.
        b = pool.acquire("b", 1, 2.0)
        assert b.device_ids == (0,)
        assert set(a.device_ids) & set(b.device_ids) == set()
        with pytest.raises(LeaseError):
            pool.acquire("c", 1, 2.0, ids=[0])

    def test_free_count_never_negative_under_churn(self):
        pool = DevicePool(3)
        lease = pool.acquire("a", 3, 0.0)
        for t, dev in ((1.0, 0), (1.5, 1), (2.0, 2)):
            pool.fail_device(dev, t)
            assert pool.free_count >= 0
        assert lease.size == 0 and pool.free_count == 0
        for t, dev in ((3.0, 0), (3.5, 1), (4.0, 2)):
            pool.revive_device(dev, t)
            assert 0 <= pool.free_count <= 3
        assert pool.free_count == 3

    def test_fail_unknown_or_failed_device_rejected(self):
        pool = DevicePool(2)
        with pytest.raises(LeaseError):
            pool.fail_device(7, 0.0)
        pool.fail_device(1, 0.0)
        with pytest.raises(LeaseError):
            pool.fail_device(1, 1.0)       # already down
        with pytest.raises(LeaseError):
            pool.revive_device(0, 1.0)     # never failed

    def test_three_way_conservation_across_crash_revive(self):
        # busy + idle + failed == capacity * elapsed, exactly.
        pool = DevicePool(4)
        lease = pool.acquire("train", 3, 0.0)
        pool.fail_device(1, 2.0)           # leased -> failed
        pool.fail_device(3, 3.0)           # free -> failed
        pool.revive_device(1, 5.0)         # failed -> free
        pool.resize(lease, 3, 6.0)         # re-grow over the revived device
        pool.revive_device(3, 7.0)
        pool.settle(10.0)
        audit = pool.audit(10.0)
        total = (audit["busy_device_seconds"] + audit["idle_device_seconds"]
                 + audit["failed_device_seconds"])
        assert total == pytest.approx(4 * 10.0)
        # Failed bucket: device 1 down [2, 5], device 3 down [3, 7].
        assert audit["failed_device_seconds"] == pytest.approx(3.0 + 4.0)
        # The revoked device stopped billing its owner at the crash.
        assert lease.device_seconds == pytest.approx(
            3 * 2.0        # 3 devices [0, 2]
            + 2 * 4.0      # 2 devices [2, 6]
            + 3 * 4.0)     # 3 devices [6, 10]

    def test_conservation_under_simultaneous_domain_wipe(self):
        # A correlated domain wipe fails several devices at the *same*
        # timestamp — some leased, some free — then revives them together.
        # The three-way split must still conserve exactly:
        # busy + idle + failed == capacity * elapsed.
        pool = DevicePool(6)
        lease_a = pool.acquire("serve", 2, 0.0)    # (0, 1)
        lease_b = pool.acquire("train", 3, 0.0)    # (2, 3, 4); 5 stays free
        for device_id in (1, 2, 5):                # rack spanning both leases
            pool.fail_device(device_id, 3.0)       # + a free device, at once
        for device_id in (1, 2, 5):
            pool.revive_device(device_id, 7.0)     # atomic repair
        pool.settle(12.0)
        audit = pool.audit(12.0)
        total = (audit["busy_device_seconds"] + audit["idle_device_seconds"]
                 + audit["failed_device_seconds"])
        assert total == pytest.approx(6 * 12.0)
        # Three devices dark over [3, 7], regardless of prior ownership.
        assert audit["failed_device_seconds"] == pytest.approx(3 * 4.0)
        # Each lease billed only its surviving devices during the outage.
        assert lease_a.device_seconds == pytest.approx(2 * 3.0 + 1 * 9.0)
        assert lease_b.device_seconds == pytest.approx(3 * 3.0 + 2 * 9.0)


class TestPoolTopology:
    def test_topology_must_cover_every_device(self):
        from repro.chaos import FailureDomainTopology

        topo = FailureDomainTopology.regular(2, 2)     # devices 0..3
        pool = DevicePool(4, topology=topo)
        assert pool.topology is topo
        with pytest.raises(ValueError, match="pool"):
            DevicePool(6, topology=topo)               # 4 and 5 uncovered

    def test_topology_optional(self):
        assert DevicePool(4).topology is None
