"""FaultPlan construction, validation, and seeded generation."""

from __future__ import annotations

import pytest

from repro.chaos import (
    CRASH,
    DERATE,
    NETWORK_END,
    NETWORK_START,
    REVIVE,
    STRAGGLER_END,
    STRAGGLER_START,
    ChaosEvent,
    FaultPlan,
    random_plan,
)


class TestChaosEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chaos event kind"):
            ChaosEvent(1.0, "meteor_strike", 0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="predate"):
            ChaosEvent(-0.1, CRASH, 0)

    def test_device_kinds_need_a_device(self):
        for kind in (CRASH, REVIVE, STRAGGLER_START, STRAGGLER_END):
            with pytest.raises(ValueError, match="needs a device id"):
                ChaosEvent(1.0, kind)

    def test_network_kinds_need_no_device(self):
        ChaosEvent(1.0, NETWORK_START, factor=2.0)
        ChaosEvent(2.0, NETWORK_END)

    def test_straggler_factor_must_slow_down(self):
        ChaosEvent(1.0, STRAGGLER_START, 0, factor=0.5)
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="straggler factor"):
                ChaosEvent(1.0, STRAGGLER_START, 0, factor=bad)

    def test_network_factor_must_cost_more(self):
        ChaosEvent(1.0, NETWORK_START, factor=1.01)
        with pytest.raises(ValueError, match="network degradation factor"):
            ChaosEvent(1.0, NETWORK_START, factor=1.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                      -float("inf")])
    def test_rejects_a_non_finite_time(self, time):
        # NaN passes `time < 0`; the CLI's `_bounded` already refused it.
        with pytest.raises(ValueError, match="finite time"):
            ChaosEvent(time, CRASH, device_id=0)

    @pytest.mark.parametrize("kind, device", [
        (NETWORK_START, -1), (STRAGGLER_START, 0), (DERATE, 0), (CRASH, 0),
        (NETWORK_END, -1)])
    @pytest.mark.parametrize("factor", [float("nan"), float("inf"),
                                        -float("inf")])
    def test_rejects_a_non_finite_factor(self, kind, device, factor):
        # `factor <= 1.0` is False for NaN and +inf: a network window
        # could open at an infinite or NaN collective-cost multiplier.
        with pytest.raises(ValueError, match="factor must be finite"):
            ChaosEvent(1.0, kind, device_id=device, factor=factor)


class TestFaultPlanValidation:
    def test_from_events_sorts_canonically(self):
        plan = FaultPlan.from_events([
            ChaosEvent(2.0, REVIVE, 1),
            ChaosEvent(1.0, CRASH, 1),
        ])
        assert [ev.time for ev in plan.events] == [1.0, 2.0]
        assert plan.crashes == 1

    def test_double_crash_without_revive_rejected(self):
        with pytest.raises(ValueError, match="crashed twice"):
            FaultPlan.from_events([
                ChaosEvent(1.0, CRASH, 0),
                ChaosEvent(2.0, CRASH, 0),
            ])

    def test_revive_without_crash_rejected(self):
        with pytest.raises(ValueError, match="revived without"):
            FaultPlan.from_events([ChaosEvent(1.0, REVIVE, 0)])

    def test_overlapping_straggler_windows_rejected(self):
        with pytest.raises(ValueError, match="straggler window overlaps"):
            FaultPlan.from_events([
                ChaosEvent(1.0, STRAGGLER_START, 0, factor=0.5),
                ChaosEvent(2.0, STRAGGLER_START, 0, factor=0.5),
            ])

    def test_overlapping_network_windows_rejected(self):
        with pytest.raises(ValueError, match="network degradation windows"):
            FaultPlan.from_events([
                ChaosEvent(1.0, NETWORK_START, factor=2.0),
                ChaosEvent(2.0, NETWORK_START, factor=2.0),
            ])

    def test_stray_end_events_rejected(self):
        with pytest.raises(ValueError, match="cleared while clean"):
            FaultPlan.from_events([ChaosEvent(1.0, STRAGGLER_END, 0)])
        with pytest.raises(ValueError, match="closed while clean"):
            FaultPlan.from_events([ChaosEvent(1.0, NETWORK_END)])

    def test_interleaved_devices_are_independent(self):
        plan = FaultPlan.from_events([
            ChaosEvent(1.0, CRASH, 0),
            ChaosEvent(1.5, CRASH, 1),
            ChaosEvent(2.0, REVIVE, 0),
            ChaosEvent(2.5, REVIVE, 1),
        ])
        assert plan.crashes == 2

    def test_describe_mentions_every_event(self):
        plan = FaultPlan.from_events([
            ChaosEvent(1.0, CRASH, 3),
            ChaosEvent(2.0, STRAGGLER_START, 1, factor=0.5),
            ChaosEvent(2.5, NETWORK_START, factor=4.0),
        ], description="scenario-x")
        text = plan.describe()
        assert "scenario-x" in text
        assert "dev3" in text
        assert "@0.5x speed" in text
        assert "@4x cost" in text


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        kwargs = dict(duration=20.0, devices=8, crash_rate=0.5,
                      straggler_rate=0.3, network_rate=0.2)
        assert (random_plan(seed=3, **kwargs).events
                == random_plan(seed=3, **kwargs).events)

    def test_different_seed_different_plan(self):
        kwargs = dict(duration=20.0, devices=8, crash_rate=0.5)
        assert (random_plan(seed=3, **kwargs).events
                != random_plan(seed=4, **kwargs).events)

    def test_generated_plan_is_valid_and_scales_with_rate(self):
        lo = random_plan(seed=0, duration=50.0, devices=8, crash_rate=0.1)
        hi = random_plan(seed=0, duration=50.0, devices=8, crash_rate=1.0)
        lo.validate(), hi.validate()
        assert hi.crashes > lo.crashes > 0
        # Every crash is paired with a revive.
        assert hi.count(CRASH) == hi.count(REVIVE)

    def test_min_healthy_is_respected(self):
        plan = random_plan(seed=0, duration=50.0, devices=4,
                           crash_rate=5.0, mttr=10.0, min_healthy=2)
        down = set()
        for ev in plan.events:
            if ev.kind == CRASH:
                down.add(ev.device_id)
            elif ev.kind == REVIVE:
                down.discard(ev.device_id)
            assert 4 - len(down) >= 2

    def test_zero_rates_mean_empty_plan(self):
        assert len(random_plan(seed=0, duration=10.0, devices=4)) == 0

    def test_int_devices_means_id_range(self):
        plan = random_plan(seed=0, duration=50.0, devices=3, crash_rate=1.0)
        assert {ev.device_id for ev in plan.events} <= {0, 1, 2}

    def test_explicit_device_ids(self):
        plan = random_plan(seed=0, duration=50.0, devices=[5, 7],
                           crash_rate=1.0, min_healthy=1)
        assert {ev.device_id for ev in plan.events} <= {5, 7}

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="duration"):
            random_plan(seed=0, duration=0.0, devices=4)
        with pytest.raises(ValueError, match="at least one device"):
            random_plan(seed=0, duration=1.0, devices=0)
        with pytest.raises(ValueError, match="min_healthy"):
            random_plan(seed=0, duration=1.0, devices=4, min_healthy=0)
