"""Learning-rate schedules and the linear scaling rule."""

from __future__ import annotations

import pytest

from repro.framework.schedules import (
    ConstantSchedule,
    CosineSchedule,
    StepDecaySchedule,
    WarmupSchedule,
    linear_scaling_rule,
)


class TestLinearScalingRule:
    def test_paper_example(self):
        # Goyal et al.: 0.1 at batch 256 -> 3.2 at batch 8192.
        assert linear_scaling_rule(0.1, 256, 8192) == pytest.approx(3.2)

    def test_identity(self):
        assert linear_scaling_rule(0.5, 64, 64) == pytest.approx(0.5)

    def test_downscale(self):
        assert linear_scaling_rule(0.4, 128, 32) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_scaling_rule(0.0, 64, 64)
        with pytest.raises(ValueError):
            linear_scaling_rule(0.1, 0, 64)


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule(0.3)
        assert s(0) == s(10_000) == 0.3

    def test_warmup_ramps_linearly(self):
        s = WarmupSchedule(lr=1.0, warmup_steps=10, warmup_fraction=0.0 + 0.1)
        assert s(0) == pytest.approx(0.1)
        assert s(5) == pytest.approx(0.55)
        assert s(10) == 1.0
        assert s(100) == 1.0

    def test_warmup_zero_steps(self):
        assert WarmupSchedule(lr=0.5, warmup_steps=0)(0) == 0.5

    def test_step_decay(self):
        s = StepDecaySchedule(lr=1.0, milestones=(10, 20), gamma=0.1)
        assert s(9) == 1.0
        assert s(10) == pytest.approx(0.1)
        assert s(25) == pytest.approx(0.01)

    def test_step_decay_unsorted_rejected(self):
        with pytest.raises(ValueError):
            StepDecaySchedule(lr=1.0, milestones=(20, 10))

    def test_cosine_endpoints(self):
        s = CosineSchedule(lr=1.0, total_steps=100, min_lr=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(50) == pytest.approx(0.55)
        assert s(1000) == pytest.approx(0.1)  # clamps past the horizon

    def test_cosine_monotone_decreasing(self):
        s = CosineSchedule(lr=1.0, total_steps=50)
        values = [s(i) for i in range(51)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("bad", [
        lambda: ConstantSchedule(0.0),
        lambda: WarmupSchedule(lr=1.0, warmup_steps=-1),
        lambda: WarmupSchedule(lr=1.0, warmup_steps=5, warmup_fraction=0.0),
        lambda: StepDecaySchedule(lr=1.0, milestones=(), gamma=1.0),
        lambda: CosineSchedule(lr=1.0, total_steps=0),
        lambda: CosineSchedule(lr=1.0, total_steps=10, min_lr=2.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_schedule_drives_optimizer(self):
        """The intended usage pattern: assign lr before each step."""
        from repro.framework.optimizers import SGD
        from tests.conftest import arena_views

        opt = SGD(lr=1.0)
        schedule = StepDecaySchedule(lr=1.0, milestones=(1,), gamma=0.5)
        params, grads = arena_views(w=[10.0])
        grads["w"][...] = 1.0
        for step in range(2):
            opt.lr = schedule(step)
            opt.step(params, grads)
        # step 0 at lr 1.0, step 1 at lr 0.5 -> 10 - 1 - 0.5
        assert params["w"][0] == pytest.approx(8.5)
