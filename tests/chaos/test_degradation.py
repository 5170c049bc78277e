"""Derate curves and the DERATE event kind through the conditions model."""

from __future__ import annotations

import pytest

from repro.chaos import (
    DERATE,
    ChaosEvent,
    DerateCurve,
    ECCThrottle,
    FaultPlan,
    ThermalRamp,
    random_plan,
)
from repro.hardware.perfmodel import ClusterConditions


class TestCurves:
    def test_ecc_throttle_is_one_step_down_and_back(self):
        curve = ECCThrottle(speed=0.7, duration_s=2.0)
        assert curve.segments() == [(0.0, 0.7), (2.0, 1.0)]
        assert curve.duration == 2.0

    def test_thermal_ramp_shape(self):
        curve = ThermalRamp(floor=0.5, ramp=1.0, hold=1.0, recover=1.0,
                            steps=4)
        segs = curve.segments()
        assert segs[0] == (0.0, 0.875)            # first governor stage
        assert (0.75, 0.5) in segs                # floor reached
        assert segs[-1][1] == 1.0                 # self-clearing
        offsets = [o for o, _ in segs]
        assert offsets == sorted(set(offsets))    # strictly increasing

    def test_events_stamp_device_and_start(self):
        events = ECCThrottle(speed=0.6, duration_s=1.5).events(3, 10.0)
        assert [(e.time, e.kind, e.device_id, e.factor) for e in events] == [
            (10.0, DERATE, 3, 0.6), (11.5, DERATE, 3, 1.0)]

    def test_curve_parameters_validated(self):
        with pytest.raises(ValueError):
            ECCThrottle(speed=1.0)
        with pytest.raises(ValueError):
            ECCThrottle(speed=0.7, duration_s=0.0)
        with pytest.raises(ValueError):
            ThermalRamp(floor=0.0)
        with pytest.raises(ValueError):
            ThermalRamp(steps=0)

    def test_malformed_custom_curve_rejected(self):
        class Broken(DerateCurve):
            def __init__(self, segs):
                self._segs = segs

            def segments(self):
                return self._segs

        with pytest.raises(ValueError, match="offset 0"):
            Broken([(1.0, 0.5), (2.0, 1.0)]).events(0, 0.0)
        with pytest.raises(ValueError, match="restoring"):
            Broken([(0.0, 0.5), (1.0, 0.9)]).events(0, 0.0)
        with pytest.raises(ValueError, match="strictly increase"):
            Broken([(0.0, 0.5), (0.0, 0.8), (1.0, 1.0)]).events(0, 0.0)


class TestDerateEvents:
    def test_derate_factor_validated(self):
        ChaosEvent(1.0, DERATE, 0, factor=0.5)
        ChaosEvent(1.0, DERATE, 0, factor=1.0)    # explicit restore
        with pytest.raises(ValueError):
            ChaosEvent(1.0, DERATE, 0, factor=0.0)
        with pytest.raises(ValueError):
            ChaosEvent(1.0, DERATE, 0, factor=1.2)

    def test_plan_counts_only_slowing_steps(self):
        plan = FaultPlan.from_events(
            ECCThrottle(speed=0.7, duration_s=1.0).events(0, 0.5))
        assert plan.derates == 1                  # the restore is not a derate
        assert "1 derate step(s)" in plan.describe()
        assert "@0.7x speed" in plan.describe()
        assert "restored" in plan.describe()

    def test_random_plan_derates_are_valid_curves(self):
        plan = random_plan(
            seed=3, duration=40.0, devices=4, crash_rate=0.0,
            derate_rate=0.3, derate_curve=ECCThrottle(speed=0.6,
                                                      duration_s=1.0))
        plan.validate()
        derate_events = [e for e in plan.events if e.kind == DERATE]
        assert derate_events, "derate_rate=0.3 over 40s drew nothing"
        # Per device, every slowdown is eventually restored to exactly 1.0.
        last = {}
        for e in derate_events:
            last[e.device_id] = e.factor
        assert all(f == 1.0 for f in last.values())


class TestConditionsDerates:
    def test_device_speed_is_straggler_times_derate(self):
        cond = ClusterConditions()
        cond.set_straggler(0, 0.5)
        cond.set_derate(0, 0.8)
        assert cond.bottleneck_speed([0]) == 0.5 * 0.8
        assert cond.effective_capacity([0]) == 0.8   # the derate alone
        assert cond.bottleneck_speed([0, 1]) == 0.4

    def test_restore_to_exactly_one_clears(self):
        cond = ClusterConditions()
        cond.set_derate(2, 0.7)
        assert cond.degraded
        assert [d for d in range(8) if cond.bottleneck_speed([d]) != 1.0] == [2]
        cond.set_derate(2, 1.0)
        assert not cond.degraded
        assert [d for d in range(8) if cond.bottleneck_speed([d]) != 1.0] == []
        assert cond.bottleneck_speed([2]) == 1.0

    def test_effective_capacity_sums_derated_speeds(self):
        cond = ClusterConditions()
        assert cond.effective_capacity([0, 1, 2]) == 3.0
        cond.set_derate(1, 0.5)
        assert cond.effective_capacity([0, 1, 2]) == 2.5
        # Stragglers are transient jitter — they do not change capacity.
        cond.set_straggler(0, 0.1)
        assert cond.effective_capacity([0, 1, 2]) == 2.5

    def test_clean_conditions_bottleneck_is_exactly_one(self):
        # The float-exactness invariant the golden traces rely on.
        cond = ClusterConditions()
        assert cond.bottleneck_speed([0, 1, 2, 3]) == 1.0


class TestNetworkFactor:
    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf"),
                                     -float("inf")])
    def test_rejects_a_non_positive_or_non_finite_factor(self, bad):
        # NaN passed `factor <= 0` and poisoned every collective cost.
        cond = ClusterConditions()
        with pytest.raises(ValueError, match="network factor must be finite"):
            cond.network_factor = bad
        assert cond.network_factor == 1.0
