"""Elasticity: jobs, WFS allocation, schedulers, simulator, traces, metrics."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.elastic import (
    ClusterSimulator,
    ElasticWFSScheduler,
    JobSpec,
    JobState,
    JobStatus,
    StaticPriorityScheduler,
    TABLE3_WORKLOADS,
    compute_metrics,
    generate_trace,
    three_job_trace,
)
from repro.elastic.metrics import improvement
from repro.elastic.simulator import MAX_TIME
from repro.elastic.wfs import weighted_fair_shares


def _spec(job_id=0, priority=1.0, demand=4, arrival=0.0, steps=100, min_gpus=1):
    return JobSpec(job_id=job_id, workload="resnet56_cifar10",
                   global_batch_size=64, total_virtual_nodes=8,
                   demand_gpus=demand, total_steps=steps, priority=priority,
                   arrival_time=arrival, min_gpus=min_gpus)


class TestJobSpec:
    def test_step_time_decreases_with_gpus(self):
        spec = _spec()
        times = [spec.step_time(g) for g in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_extra_gpus_beyond_vns_idle(self):
        spec = _spec()  # 8 virtual nodes
        assert spec.step_time(8) == pytest.approx(spec.step_time(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(demand=0)
        with pytest.raises(ValueError, match="virtual node"):
            JobSpec(job_id=0, workload="resnet56_cifar10", global_batch_size=64,
                    total_virtual_nodes=2, demand_gpus=4, total_steps=1)
        with pytest.raises(ValueError, match="divide"):
            JobSpec(job_id=0, workload="resnet56_cifar10", global_batch_size=65,
                    total_virtual_nodes=8, demand_gpus=4, total_steps=1)

    def test_serial_runtime(self):
        spec = _spec(steps=10)
        assert spec.serial_runtime(4) == pytest.approx(10 * spec.step_time(4))


class TestJobState:
    def test_allocation_lifecycle(self):
        state = JobState(spec=_spec(arrival=5.0))
        assert state.status is JobStatus.QUEUED
        state.set_allocation(8.0, 2)
        assert state.status is JobStatus.RUNNING
        assert state.queuing_delay() == pytest.approx(3.0)
        state.set_allocation(10.0, 4)
        assert state.resizes == 1
        state.finish_time = 20.0
        assert state.jct() == pytest.approx(15.0)

    def test_unallocated_metrics_raise(self):
        state = JobState(spec=_spec())
        with pytest.raises(RuntimeError):
            state.queuing_delay()
        with pytest.raises(RuntimeError):
            state.jct()


class TestWeightedFairShares:
    def _states(self, *priorities, demand=8, min_gpus=1):
        return [JobState(spec=_spec(job_id=i, priority=p, demand=demand,
                                    min_gpus=min_gpus))
                for i, p in enumerate(priorities)]

    def test_proportional_to_priority(self):
        alloc = weighted_fair_shares(8, self._states(1.0, 3.0))
        assert alloc[0] == 2 and alloc[1] == 6

    def test_demand_caps(self):
        jobs = self._states(1.0, 100.0, demand=4)
        alloc = weighted_fair_shares(8, jobs)
        assert alloc[1] == 4      # capped at demand
        assert alloc[0] == 4      # surplus flows to the other job

    def test_never_exceeds_total(self):
        alloc = weighted_fair_shares(4, self._states(1.0, 1.0, 1.0))
        assert sum(alloc.values()) <= 4

    def test_empty(self):
        assert weighted_fair_shares(4, []) == {}

    @given(st.lists(st.sampled_from([1.0, 5.0, 10.0]), min_size=1, max_size=6),
           st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_property_valid_allocation(self, priorities, total):
        jobs = self._states(*priorities, demand=6)
        alloc = weighted_fair_shares(total, jobs)
        assert sum(alloc.values()) <= total
        for job in jobs:
            assert 0 <= alloc[job.job_id] <= job.spec.demand_gpus
        # Work-conserving up to demand caps.
        if sum(j.spec.demand_gpus for j in jobs) >= total:
            assert sum(alloc.values()) == min(
                total, sum(j.spec.demand_gpus for j in jobs))


class TestSchedulers:
    def test_wfs_downsizes_on_high_priority_arrival(self):
        sched = ElasticWFSScheduler()
        running = [JobState(spec=_spec(job_id=0, priority=1.0, demand=4))]
        running[0].set_allocation(0.0, 4)
        queued = [JobState(spec=_spec(job_id=1, priority=10.0, demand=4, arrival=1.0))]
        alloc = sched.allocate(1.0, 4, running, queued)
        assert alloc[1] > alloc[0]  # high priority takes the larger share
        assert sum(alloc.values()) <= 4

    def test_priority_scheduler_never_resizes(self):
        sched = StaticPriorityScheduler()
        running = [JobState(spec=_spec(job_id=0, demand=4))]
        running[0].set_allocation(0.0, 4)
        queued = [JobState(spec=_spec(job_id=1, priority=10.0, demand=4))]
        alloc = sched.allocate(1.0, 4, running, queued)
        assert alloc[0] == 4
        assert alloc.get(1, 0) == 0  # blocked, not preempting

    def test_priority_scheduler_strict_order_blocks_backfill(self):
        sched = StaticPriorityScheduler()
        queued = [
            JobState(spec=_spec(job_id=0, priority=10.0, demand=8)),  # too big
            JobState(spec=_spec(job_id=1, priority=1.0, demand=2)),   # would fit
        ]
        alloc = sched.allocate(0.0, 4, [], queued)
        assert alloc.get(0, 0) == 0 and alloc.get(1, 0) == 0


class TestSimulator:
    def test_single_job_runs_to_completion(self):
        sim = ClusterSimulator(4, ElasticWFSScheduler())
        result = sim.run([_spec(steps=50)])
        job = result.job(0)
        assert job.status is JobStatus.FINISHED
        assert job.jct() == pytest.approx(50 * job.spec.step_time(4), rel=0.01)

    def test_all_jobs_finish(self):
        trace = three_job_trace(steps_scale=0.1)
        for sched in (ElasticWFSScheduler(), StaticPriorityScheduler()):
            result = ClusterSimulator(4, sched).run(trace)
            assert all(j.status is JobStatus.FINISHED for j in result.jobs.values())

    def test_elastic_beats_static_on_three_job_trace(self):
        """The §6.4.1 headline: lower makespan and high-priority JCT."""
        trace = three_job_trace()
        wfs = compute_metrics(ClusterSimulator(4, ElasticWFSScheduler()).run(trace))
        pri = compute_metrics(ClusterSimulator(4, StaticPriorityScheduler()).run(trace))
        assert wfs.makespan < pri.makespan
        assert wfs.jcts[2] < pri.jcts[2]          # highest-priority job faster
        assert wfs.utilization > pri.utilization

    def test_utilization_bounded(self):
        trace = three_job_trace(steps_scale=0.1)
        result = ClusterSimulator(4, ElasticWFSScheduler()).run(trace)
        assert 0.0 < result.utilization() <= 1.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(4, ElasticWFSScheduler()).run([_spec(), _spec()])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(4, ElasticWFSScheduler()).run([])

    def test_an_arrival_past_the_runaway_bound_raises(self):
        trace = [_spec(steps=50), _spec(job_id=1, arrival=MAX_TIME + 1.0)]
        with pytest.raises(RuntimeError, match=re.escape(f"MAX_TIME={MAX_TIME}")):
            ClusterSimulator(4, ElasticWFSScheduler()).run(trace)

    def test_resize_logs_recorded(self):
        trace = three_job_trace(steps_scale=0.3)
        result = ClusterSimulator(4, ElasticWFSScheduler()).run(trace)
        # Job 0 must have been downsized when higher-priority jobs arrived.
        assert result.job(0).resizes >= 1
        log = result.job(0).allocation_log
        assert log[0][1] == 4  # started at demand

    def test_static_jobs_never_resize(self):
        trace = three_job_trace(steps_scale=0.3)
        result = ClusterSimulator(4, StaticPriorityScheduler()).run(trace)
        for job in result.jobs.values():
            assert job.resizes == 0


class TestTraces:
    def test_three_job_trace_shape(self):
        trace = three_job_trace()
        assert [j.priority for j in trace] == [1.0, 5.0, 10.0]
        assert [j.demand_gpus for j in trace] == [4, 2, 4]

    def test_generated_trace_reproducible(self):
        a = generate_trace(10, 12, seed=5)
        b = generate_trace(10, 12, seed=5)
        assert [(j.arrival_time, j.workload, j.total_steps) for j in a] == \
               [(j.arrival_time, j.workload, j.total_steps) for j in b]

    def test_generated_trace_poisson_mean(self):
        trace = generate_trace(200, jobs_per_hour=12, seed=0)
        gaps = np.diff([0.0] + [j.arrival_time for j in trace])
        assert np.mean(gaps) == pytest.approx(300.0, rel=0.2)

    def test_workloads_from_table3(self):
        trace = generate_trace(50, 12, seed=1)
        names = {j.workload for j in trace}
        assert names <= {t.workload for t in TABLE3_WORKLOADS}

    def test_priorities_from_paper_set(self):
        trace = generate_trace(50, 12, seed=1)
        assert {j.priority for j in trace} <= {1.0, 5.0, 10.0}

    def test_divisibility_invariants(self):
        for j in generate_trace(100, 12, seed=3):
            assert j.global_batch_size % j.total_virtual_nodes == 0
            assert j.total_virtual_nodes >= j.demand_gpus

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(0, 12)
        with pytest.raises(ValueError):
            generate_trace(5, 0)
        with pytest.raises(ValueError):
            three_job_trace(steps_scale=0)


class TestMetrics:
    def test_improvement(self):
        assert improvement(100, 55) == pytest.approx(0.45)
        assert improvement(0, 5) == 0.0

    def test_compute_metrics_fields(self):
        trace = three_job_trace(steps_scale=0.1)
        result = ClusterSimulator(4, ElasticWFSScheduler()).run(trace)
        m = compute_metrics(result)
        assert m.makespan > 0
        assert set(m.jcts) == {0, 1, 2}
        assert m.median_jct == pytest.approx(float(np.median(list(m.jcts.values()))))
