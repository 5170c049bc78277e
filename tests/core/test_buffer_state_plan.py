"""Virtual-node state migration and execution plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExecutionPlan,
    Mapping,
    PlanValidationError,
    VirtualNodeSet,
)
from repro.core.state import VirtualNodeState, migrate_states, migration_time
from repro.framework import get_workload
from repro.hardware import Cluster


class TestStateMigration:
    def _mappings(self, n_old, n_new, vns=8):
        vn_set = VirtualNodeSet.even(vns * 4, vns)
        old = Mapping.even(vn_set, Cluster.homogeneous("V100", n_old))
        new = Mapping.even(vn_set, Cluster.homogeneous("V100", n_new))
        return old, new

    def _states(self, n):
        return [VirtualNodeState(i, {"bn": np.full(4, float(i))}) for i in range(n)]

    def test_scale_out_costs_allgather(self):
        old, new = self._mappings(2, 8)
        t = migrate_states(self._states(8), old, new, model_bytes=100 * 2**20)
        assert t > 0
        assert t < 1.0  # §4.1: "typically takes less than a second"

    def test_scale_in_is_free(self):
        old, new = self._mappings(8, 2)
        t = migrate_states(self._states(8), old, new, model_bytes=100 * 2**20)
        assert t == 0.0

    def test_vn_set_must_match(self):
        vn_a = VirtualNodeSet.even(16, 4)
        vn_b = VirtualNodeSet.even(16, 8)
        old = Mapping.even(vn_a, Cluster.homogeneous("V100", 2))
        new = Mapping.even(vn_b, Cluster.homogeneous("V100", 2))
        with pytest.raises(ValueError, match="preserve the virtual node set"):
            migrate_states(self._states(4), old, new, model_bytes=1)

    def test_states_must_cover_all_nodes(self):
        old, new = self._mappings(2, 4)
        with pytest.raises(ValueError, match="states cover"):
            migrate_states(self._states(5), old, new, model_bytes=1)

    def test_state_copy_is_deep(self):
        s = VirtualNodeState(0, {"x": np.zeros(3)})
        c = s.copy()
        c.buffers["x"] += 1
        assert s.equals(VirtualNodeState(0, {"x": np.zeros(3)}))
        assert not s.equals(c)

    def test_migration_time_zero_for_same_devices(self):
        old, new = self._mappings(4, 4)
        assert migration_time(old, new, 10**8, 10**6) == 0.0


class TestExecutionPlan:
    def test_oom_rejected_with_helpful_message(self):
        wl = get_workload("resnet50_imagenet")
        # One VN carrying the whole 8192 batch cannot fit any GPU.
        vn_set = VirtualNodeSet.even(8192, 1)
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 1))
        with pytest.raises(PlanValidationError, match="more virtual"):
            ExecutionPlan(wl, mapping)

    def test_large_batch_fits_with_enough_vns(self):
        """The paper's headline: batch 8192 on ONE V100 via 32 VNs."""
        wl = get_workload("resnet50_imagenet")
        vn_set = VirtualNodeSet.even(8192, 32)
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 1))
        plan = ExecutionPlan(wl, mapping)
        assert plan.max_waves == 32
        assert plan.device_plans[0].wave_batches == (256,) * 32

    def test_step_time_decreases_with_devices(self):
        wl = get_workload("resnet50_imagenet")
        vn_set = VirtualNodeSet.even(8192, 32)
        times = []
        for n in (1, 2, 4, 8, 16):
            mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", n))
            times.append(ExecutionPlan(wl, mapping).step_time())
        assert times == sorted(times, reverse=True)

    def test_throughput_counts_global_batch(self):
        wl = get_workload("mlp_synthetic")
        vn_set = VirtualNodeSet.even(64, 4)
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 2))
        plan = ExecutionPlan(wl, mapping)
        assert plan.throughput() == pytest.approx(64 / plan.step_time())

    def test_peak_memory_within_capacity(self):
        wl = get_workload("resnet50_imagenet")
        vn_set = VirtualNodeSet.even(8192, 32)
        cluster = Cluster.homogeneous("V100", 4)
        plan = ExecutionPlan(wl, Mapping.even(vn_set, cluster))
        for device in cluster:
            assert plan.peak_memory()[device.device_id] <= device.spec.memory_bytes

    def test_describe_mentions_devices(self):
        wl = get_workload("mlp_synthetic")
        vn_set = VirtualNodeSet.even(8, 2)
        plan = ExecutionPlan(wl, Mapping.even(vn_set, Cluster.homogeneous("V100", 2)))
        text = plan.describe()
        assert "dev0" in text and "dev1" in text and "predicted step" in text

    def test_single_wave_equals_vanilla_plus_buffer_overhead(self):
        """V=1 falls back to prior behaviour (§3.2) modulo aggregation cost."""
        from repro.hardware import PerfModel, get_spec

        wl = get_workload("resnet50_imagenet")
        perf = PerfModel()
        spec = get_spec("V100")
        vf = perf.device_step_time(wl, spec, [256])
        vanilla = perf.vanilla_step_time(wl, spec, 256)
        agg = wl.footprint.param_bytes / spec.aggregation_bandwidth
        assert vf == pytest.approx(vanilla + agg)
