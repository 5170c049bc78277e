"""Gavel reimplementation and the heterogeneous-allocation extension (§6.5.2)."""

from __future__ import annotations

import math

import pytest

from repro.elastic.jobs import JobSpec, JobStatus
from repro.elastic.trace import generate_trace
from repro.sched import GavelSimulator, gavel, hetero_split, hetero_throughput

CLUSTER = {"V100": 4, "P100": 8, "K80": 16}


def _spec(job_id=0, steps=500, arrival=0.0, demand=4, workload="resnet50_imagenet",
          batch=2048, vns=8):
    return JobSpec(job_id=job_id, workload=workload, global_batch_size=batch,
                   total_virtual_nodes=vns, demand_gpus=demand,
                   total_steps=steps, arrival_time=arrival)


class TestHeteroThroughputModel:
    def test_split_proportional_to_speed(self):
        spec = _spec()
        shares = hetero_split(spec, {"V100": 1, "P100": 1})
        assert shares["V100"] > shares["P100"]  # V100 is 4x faster
        assert sum(shares.values()) == spec.global_batch_size

    def test_split_empty_rejected(self):
        with pytest.raises(ValueError):
            hetero_split(_spec(), {})

    def test_adding_devices_increases_throughput(self):
        spec = _spec()
        base = hetero_throughput(spec, {"K80": 16})
        more = hetero_throughput(spec, {"K80": 16, "P100": 5})
        assert more > base

    def test_figure16_rightmost_job_shape(self):
        """Fig 16: +5 P100s on top of 16 K80s improved throughput ~34%."""
        spec = _spec(batch=2048, vns=16)
        base = hetero_throughput(spec, {"K80": 16})
        more = hetero_throughput(spec, {"K80": 16, "P100": 5})
        gain = more / base - 1
        assert 0.1 < gain < 1.5  # meaningful but not absurd

    def test_homogeneous_matches_jobspec_model_roughly(self):
        spec = _spec(demand=4, batch=2048, vns=8)
        a = 1.0 / spec.step_time(4)
        b = hetero_throughput(spec, {"V100": 4})
        assert b == pytest.approx(a, rel=0.25)


class TestGavelSimulator:
    def test_all_jobs_finish(self):
        trace = [_spec(job_id=i, arrival=i * 600.0, steps=300) for i in range(4)]
        result = GavelSimulator(CLUSTER).run(trace)
        assert all(j.status is JobStatus.FINISHED for j in result.jobs.values())

    def test_las_prefers_low_attained_service(self):
        """A newcomer must get the fast GPUs over a long-running job."""
        sim = GavelSimulator(CLUSTER)
        trace = [
            _spec(job_id=0, steps=2000, arrival=0.0),
            _spec(job_id=1, steps=300, arrival=3600.0),
        ]
        result = sim.run(trace)
        late = result.jobs[1]
        first_alloc = next(a for _, a in late.round_log if a)
        assert "V100" in first_alloc  # newcomer has zero attained service

    def test_hetero_extension_reduces_avg_jct(self):
        trace = generate_trace(12, jobs_per_hour=6, seed=2, target_runtime=2400)
        base = GavelSimulator(CLUSTER, heterogeneous=False).run(trace)
        ht = GavelSimulator(CLUSTER, heterogeneous=True).run(trace)
        assert ht.avg_jct() < base.avg_jct()

    def test_stock_gavel_never_mixes_types(self):
        trace = generate_trace(8, jobs_per_hour=6, seed=3, target_runtime=1800)
        result = GavelSimulator(CLUSTER, heterogeneous=False).run(trace)
        for job in result.jobs.values():
            assert all(len(alloc) <= 1 for _, alloc in job.round_log)

    def test_extension_produces_hetero_rounds_at_low_load(self):
        trace = generate_trace(8, jobs_per_hour=4, seed=2, target_runtime=2400)
        result = GavelSimulator(CLUSTER, heterogeneous=True).run(trace)
        assert result.hetero_round_fraction() > 0

    def test_benefit_diminishes_at_high_load(self):
        """Figure 15: the HT advantage shrinks as arrival rate grows."""
        gains = []
        for rate in (3, 12):
            trace = generate_trace(12, jobs_per_hour=rate, seed=2,
                                   target_runtime=2400)
            base = GavelSimulator(CLUSTER, heterogeneous=False).run(trace)
            ht = GavelSimulator(CLUSTER, heterogeneous=True).run(trace)
            gains.append((base.avg_jct() - ht.avg_jct()) / base.avg_jct())
        assert gains[0] > gains[1]

    def test_round_accounting(self):
        result = GavelSimulator(CLUSTER).run([_spec(steps=100)])
        job = result.jobs[0]
        assert job.attained_service > 0
        assert job.jct() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GavelSimulator({})
        with pytest.raises(ValueError, match="no devices"):
            GavelSimulator({"V100": 0})
        with pytest.raises(ValueError):
            GavelSimulator(CLUSTER).run([])
        with pytest.raises(KeyError):
            GavelSimulator({"H100": 2})

    def test_duplicate_job_ids_rejected(self):
        """Two specs sharing an id must not run as one job."""
        with pytest.raises(ValueError, match="duplicate job ids"):
            GavelSimulator(CLUSTER).run([_spec(job_id=0), _spec(job_id=0, steps=100)])

    def test_round_guard(self, monkeypatch):
        """A trace still unfinished after ``MAX_ROUNDS`` played rounds is an
        error; rounds with nothing to schedule are not played, so how late
        a job arrives does not count against it."""
        monkeypatch.setattr(gavel, "MAX_ROUNDS", 3)
        with pytest.raises(RuntimeError, match="exceeded 3 rounds"):
            GavelSimulator(CLUSTER).run([_spec(steps=5000)])  # needs 8 rounds
        last = GavelSimulator(CLUSTER).run([_spec(steps=1500, arrival=4.0e7)])
        assert len(last.jobs[0].round_log) == 3  # served in round 3 of 3


class TestIdleGaps:
    """With nothing to schedule, the next round starts at the first round
    boundary that admits the next arrival; the rounds in between are not
    played and log nothing."""

    def _rounds(self, job):
        return [time for time, _ in job.round_log]

    def test_far_first_arrival(self):
        job = GavelSimulator(CLUSTER).run([_spec(arrival=4.0e7)]).jobs[0]
        start = 111_112 * gavel.ROUND_S  # the first boundary past 4.0e7 s
        assert self._rounds(job) == [start]
        alone = GavelSimulator(CLUSTER).run([_spec()]).jobs[0]
        assert job.finish_time - start == pytest.approx(alone.finish_time, abs=1e-6)
        assert job.status is JobStatus.FINISHED

    def test_gap_between_arrivals(self):
        late = 10 * gavel.ROUND_S + 5.0
        result = GavelSimulator(CLUSTER).run(
            [_spec(job_id=0, steps=5000), _spec(job_id=1, steps=5000, arrival=late)])
        first, second = result.jobs[0], result.jobs[1]
        assert self._rounds(first) == [k * gavel.ROUND_S for k in range(8)]
        assert self._rounds(second) == [k * gavel.ROUND_S for k in range(11, 19)]
        assert [a for _, a in second.round_log] == [a for _, a in first.round_log]

    def test_arrival_a_hair_past_a_boundary(self):
        boundary = 2 * gavel.ROUND_S
        on = GavelSimulator(CLUSTER).run([_spec(arrival=boundary)]).jobs[0]
        past = GavelSimulator(CLUSTER).run(
            [_spec(arrival=math.nextafter(boundary, math.inf))]).jobs[0]
        assert self._rounds(on) == [boundary]
        assert self._rounds(past) == [boundary + gavel.ROUND_S]
