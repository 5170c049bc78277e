"""Devices, memory ledger, cluster, interconnect, and the perf model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.framework import get_workload
from repro.hardware import (
    DEVICE_SPECS,
    Cluster,
    Device,
    Interconnect,
    MemoryLedger,
    OutOfDeviceMemory,
    PerfModel,
    get_spec,
    ring_allreduce_time,
    simulate_step_memory,
)
from repro.utils.units import GB


class TestDeviceSpecs:
    def test_catalog_has_paper_testbed(self):
        assert set(DEVICE_SPECS) >= {"V100", "P100", "K80", "RTX2080Ti"}

    def test_v100_is_reference(self):
        assert get_spec("V100").compute_factor == 1.0
        assert get_spec("V100").memory_bytes == 16 * GB

    def test_speed_ordering(self):
        order = ["V100", "RTX2080Ti", "P100", "K80"]
        factors = [get_spec(t).compute_factor for t in order]
        assert factors == sorted(factors, reverse=True)

    def test_v100_4x_p100(self):
        # §5.1.2: "V100 GPUs are 4x as fast as P100 GPUs" for ResNet-50.
        assert get_spec("V100").compute_factor / get_spec("P100").compute_factor == 4.0

    def test_unknown_spec(self):
        with pytest.raises(KeyError, match="unknown device"):
            get_spec("H100")


class TestDeviceMemory:
    def test_allocate_and_free(self):
        d = Device(get_spec("V100"), 0)
        d.allocate("activations", 8 * GB)
        assert d.memory.used == 8 * GB
        d.free("activations")
        assert d.memory.used == 0

    def test_oom_raises(self):
        d = Device(get_spec("RTX2080Ti"), 0)
        with pytest.raises(OutOfDeviceMemory, match="capacity"):
            d.allocate("activations", 12 * GB)

    def test_peak_tracking(self):
        ledger = MemoryLedger(capacity_bytes=100)
        ledger.allocate("a", 60)
        ledger.allocate("b", 30)
        ledger.free("a", 60)
        ledger.allocate("c", 10)
        assert ledger.peak == 90
        assert ledger.peak_by_category["a"] == 60

    def test_free_more_than_live_rejected(self):
        ledger = MemoryLedger(capacity_bytes=100)
        ledger.allocate("a", 10)
        with pytest.raises(ValueError):
            ledger.free("a", 20)

    def test_negative_alloc_rejected(self):
        ledger = MemoryLedger(capacity_bytes=100)
        with pytest.raises(ValueError):
            ledger.allocate("a", -1)

    def test_breakdown_and_reset(self):
        ledger = MemoryLedger(capacity_bytes=100)
        ledger.allocate("a", 10)
        ledger.allocate("b", 20)
        assert ledger.breakdown() == {"a": 10, "b": 20}
        ledger.reset()
        assert ledger.used == 0 and ledger.peak == 0


class TestCluster:
    def test_homogeneous(self):
        c = Cluster.homogeneous("V100", 4)
        assert len(c) == 4 and c.is_homogeneous
        assert c.counts() == {"V100": 4}

    def test_from_counts_heterogeneous(self):
        c = Cluster.from_counts({"V100": 2, "P100": 3})
        assert len(c) == 5 and not c.is_homogeneous
        assert c.counts() == {"V100": 2, "P100": 3}
        # ids grouped by sorted type name: P100 first.
        assert [d.spec.name for d in c.devices[:3]] == ["P100"] * 3

    def test_subset(self):
        c = Cluster.homogeneous("V100", 4)
        sub = c.subset([1, 3])
        assert len(sub) == 2
        assert {d.device_id for d in sub} == {1, 3}

    def test_subset_unknown_id(self):
        c = Cluster.homogeneous("V100", 2)
        with pytest.raises(KeyError):
            c.subset([5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_total_memory(self):
        c = Cluster.from_counts({"V100": 1, "K80": 1})
        assert c.total_memory() == 16 * GB + 12 * GB


class TestInterconnect:
    def test_single_worker_free(self):
        assert ring_allreduce_time(10**9, 1) == 0.0

    def test_cost_scales_with_bytes(self):
        a = ring_allreduce_time(10**8, 4)
        b = ring_allreduce_time(2 * 10**8, 4)
        assert b > a

    def test_nearly_flat_in_workers(self):
        """Ring all-reduce transfer cost approaches 2*bytes/bw, not linear in n."""
        small = ring_allreduce_time(10**9, 2, latency=0.0)
        large = ring_allreduce_time(10**9, 16, latency=0.0)
        assert large < small * 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(-1, 2)
        with pytest.raises(ValueError):
            ring_allreduce_time(1, 0)
        with pytest.raises(ValueError):
            Interconnect(bandwidth=0)

    def test_allgather_zero_for_single(self):
        assert Interconnect().allgather_time(10**9, 1) == 0.0


def _even_step_time(perf, wl, n_devices, global_batch, vn_per_device):
    """Step time of ``global_batch`` split evenly over ``n_devices`` V100s,
    ``vn_per_device`` waves each (the first waves take the remainder)."""
    per_wave, rem = divmod(global_batch // n_devices, vn_per_device)
    waves = [per_wave + (1 if i < rem else 0) for i in range(vn_per_device)]
    return perf.step_time(wl, {get_spec("V100"): [waves] * n_devices})


class TestPerfModel:
    def setup_method(self):
        self.perf = PerfModel()
        self.wl = get_workload("resnet50_imagenet")

    def test_wave_time_affine_in_batch(self):
        v100 = get_spec("V100")
        t64 = self.perf.wave_time(self.wl, v100, 64)
        t128 = self.perf.wave_time(self.wl, v100, 128)
        t192 = self.perf.wave_time(self.wl, v100, 192)
        assert t128 - t64 == pytest.approx(t192 - t128, rel=1e-9)

    def test_device_speed_ratio_applies(self):
        v = self.perf.wave_time(self.wl, get_spec("V100"), 256)
        p = self.perf.wave_time(self.wl, get_spec("P100"), 256)
        # Compute part is 4x; the aggregation term is speed-independent.
        assert 3.4 < p / v < 4.1

    def test_throughput_anchor_v100_resnet(self):
        """Calibration: one V100 sustains ~1000 img/s on ResNet-50."""
        step = self.perf.step_time(self.wl, {get_spec("V100"): [[256]]})
        tput = 256 / step
        assert 900 < tput < 1200

    def test_more_vns_cost_more_launch_overhead(self):
        spec = get_spec("V100")
        one = self.perf.device_step_time(self.wl, spec, [256])
        four = self.perf.device_step_time(self.wl, spec, [64] * 4)
        assert four > one  # same examples, more alpha

    def test_step_bottlenecked_on_slowest(self):
        waves = {get_spec("V100"): [[256]], get_spec("P100"): [[256]]}
        bd = self.perf.step_breakdown(self.wl, waves)
        p100_only = self.perf.device_step_time(self.wl, get_spec("P100"), [256])
        assert bd.compute + bd.update == pytest.approx(p100_only)

    def test_comm_zero_single_device(self):
        bd = self.perf.step_breakdown(self.wl, {get_spec("V100"): [[256]]})
        assert bd.comm == 0.0

    def test_empty_step_rejected(self):
        with pytest.raises(ValueError):
            self.perf.step_breakdown(self.wl, {})

    def test_zero_batch_wave_free(self):
        assert self.perf.wave_time(self.wl, get_spec("V100"), 0) == 0.0
        with pytest.raises(ValueError):
            self.perf.wave_time(self.wl, get_spec("V100"), -1)

    @given(st.integers(1, 16), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_property_throughput_monotone_in_devices(self, n1, n2):
        wl = get_workload("resnet50_imagenet")
        perf = PerfModel()
        if n1 == n2:
            return
        lo, hi = min(n1, n2), max(n1, n2)
        b = 8192
        t_lo = _even_step_time(perf, wl, lo, b, max(1, 32 // lo))
        t_hi = _even_step_time(perf, wl, hi, b, max(1, 32 // hi))
        assert t_hi <= t_lo * 1.01


class TestMemoryTimeline:
    def test_activations_dominate_at_peak(self):
        """Figure 6: activations are the bulk of peak memory for ResNet-50."""
        wl = get_workload("resnet50_imagenet")
        timeline = simulate_step_memory(wl, get_spec("RTX2080Ti"), [192])
        peaks = timeline.peak_by_category()
        assert peaks["activations"] > 0.6 * timeline.peak
        assert peaks["activations"] > 8 * peaks["parameters"]

    def test_grad_buffer_constant_across_waves(self):
        wl = get_workload("resnet50_imagenet")
        timeline = simulate_step_memory(wl, get_spec("V100"), [64] * 4)
        series = timeline.series("grad_buffer")
        assert len(set(series)) == 1  # never grows or shrinks

    def test_peak_within_capacity(self):
        wl = get_workload("resnet50_imagenet")
        spec = get_spec("V100")
        timeline = simulate_step_memory(wl, spec, [256])
        assert timeline.peak <= spec.memory_bytes

    def test_first_step_slower(self):
        wl = get_workload("resnet50_imagenet")
        timeline = simulate_step_memory(wl, get_spec("V100"), [128], num_steps=2,
                                        first_step_overhead=2.0)
        # The recorded times of step boundaries reflect the stretch.
        assert timeline.times[-1] > 0
