"""The latency autoscaler's decision rules, on synthetic observations."""

from __future__ import annotations

import pytest

from repro.serving import LatencyAutoscaler
from repro.serving.autoscaler import AllocationProfile
from repro.serving.request import BatchRecord, RecordBlock

CAPACITY = {1: 500.0, 2: 1000.0, 4: 2000.0, 8: 4000.0}


def _records(start_id, arrivals, latency, batch_id=0, devices=1):
    """Fabricate one completed micro-batch's record block."""
    completion = arrivals[-1] + latency
    batch = BatchRecord(batch_id=batch_id, dispatch_time=completion - latency,
                        completion_time=completion, size=len(arrivals),
                        devices=devices, waves=1)
    return RecordBlock(batch, [(t, start_id + i, None, None, None)
                               for i, t in enumerate(arrivals)])


def _drive(scaler, rate, latency, devices, batches=40, batch_size=16,
           start_t=0.0):
    """Feed steady Poisson-like load; return the first proposed target."""
    t = start_t
    rid = 0
    gap = batch_size / rate
    for b in range(batches):
        arrivals = [t + i / rate for i in range(batch_size)]
        t += gap
        target = scaler.observe(_records(rid, arrivals, latency, b, devices),
                                now=t, devices=devices)
        rid += batch_size
        if target is not None:
            return target
    return None


class TestScaleUp:
    def test_rate_above_capacity_scales_up(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY)
        # 1500 req/s cannot fit 2 devices (cap 1000): feedforward to 4.
        assert _drive(scaler, rate=1500.0, latency=0.005, devices=2) == 4

    def test_big_burst_jumps_multiple_steps(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY)
        # 3500 req/s on 1 device jumps straight to 8, not to 2.
        assert _drive(scaler, rate=3500.0, latency=0.005, devices=1) == 8

    def test_tail_breach_near_capacity_escalates(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY)
        # Rate fits 4 devices on paper, but the observed tail breached.
        assert _drive(scaler, rate=1200.0, latency=0.040, devices=4) == 8

    def test_overprovisioned_breach_is_ignored(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY)
        # High latencies while the rate is far below capacity: backlog
        # draining after a remap, not a capacity problem.
        assert _drive(scaler, rate=100.0, latency=0.040, devices=8) is None

    def test_steady_fit_load_is_left_alone(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY)
        assert _drive(scaler, rate=1200.0, latency=0.005, devices=4) is None


class TestScaleDown:
    def test_idle_allocation_sheds_devices(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY, cooldown=0.0)
        target = _drive(scaler, rate=300.0, latency=0.004, devices=8,
                        batch_size=2)
        assert target is not None and target < 8

    def test_cooldown_defers_scale_down(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY, cooldown=1e9)
        scaler._last_action = 0.0
        assert _drive(scaler, rate=300.0, latency=0.004, devices=8,
                      batch_size=2) is None

    def test_unhealthy_tail_blocks_scale_down(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY, cooldown=0.0)
        # Rate would fit fewer devices but p99 is not comfortably low.
        assert _drive(scaler, rate=300.0, latency=0.020, devices=8,
                      batch_size=2) is None

    def test_burst_latency_floor_blocks_marginal_allocation(self):
        profiles = {
            1: AllocationProfile(1, 500.0, 0.020),   # burst ~20ms: too hot
            2: AllocationProfile(2, 1000.0, 0.008),
            4: AllocationProfile(4, 2000.0, 0.004),
        }
        scaler = LatencyAutoscaler(0.030, profiles, cooldown=0.0)
        target = _drive(scaler, rate=100.0, latency=0.004, devices=4,
                        batch_size=1, batches=80)
        # 100 req/s fits 1 device by rate, but its full-batch latency cannot
        # hold the tail: 2 is the smallest safe allocation.
        assert target == 2


class TestDebounce:
    def test_single_excursion_does_not_act(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY, persistence=3)
        # Warm up within capacity at 2 devices.
        assert _drive(scaler, rate=600.0, latency=0.004, devices=2,
                      batches=15, batch_size=4) is None
        # One burst batch (high instantaneous rate), then calm again.
        burst = [10.0 + i / 5000.0 for i in range(16)]
        assert scaler.observe(_records(0, burst, 0.004, 90, 2),
                              now=10.2, devices=2) is None

    def test_persistent_breach_acts(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY, persistence=3)
        target = _drive(scaler, rate=1500.0, latency=0.004, devices=2)
        assert target == 4


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"slo_p99": 0.0},
        {"capacity": {}},
        {"min_devices": 0},
        {"min_devices": 9, "max_devices": 8},
        {"headroom": 0.5, "down_headroom": 0.6},
        {"persistence": 0},
        {"burst_window": 1},
        {"rate_window": 4, "burst_window": 48},
        {"scale_down_margin": 1.5},
        {"min_samples": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        defaults = dict(slo_p99=0.030, capacity=CAPACITY)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            LatencyAutoscaler(**defaults)

    def test_candidates_respect_bounds(self):
        scaler = LatencyAutoscaler(0.030, CAPACITY, min_devices=2,
                                   max_devices=4)
        assert scaler.candidates == [2, 4]
