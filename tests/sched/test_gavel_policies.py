"""Gavel scheduling policies beyond LAS."""

from __future__ import annotations

import pytest

from repro.elastic.jobs import JobSpec, JobStatus
from repro.sched import GavelSimulator

CLUSTER = {"V100": 2, "P100": 4}


def _spec(job_id, steps, arrival=0.0):
    return JobSpec(job_id=job_id, workload="resnet56_cifar10",
                   global_batch_size=128, total_virtual_nodes=4,
                   demand_gpus=2, total_steps=steps, arrival_time=arrival)


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            GavelSimulator(CLUSTER, policy="wfq")

    def test_all_policies_complete(self):
        trace = [_spec(0, 20000), _spec(1, 4000, arrival=360.0)]
        for policy in GavelSimulator.POLICIES:
            result = GavelSimulator(CLUSTER, policy=policy).run(trace)
            assert all(j.status is JobStatus.FINISHED for j in result.jobs.values())

    def test_srtf_prefers_short_job(self):
        """Under SRTF the short job gets the fast GPUs and finishes sooner
        than it does under FIFO."""
        trace = [_spec(0, 60000), _spec(1, 3000, arrival=360.0)]
        srtf = GavelSimulator(CLUSTER, policy="srtf").run(trace)
        fifo = GavelSimulator(CLUSTER, policy="fifo").run(trace)
        assert srtf.jobs[1].jct() <= fifo.jobs[1].jct()

    def test_fifo_serves_in_arrival_order(self):
        sim = GavelSimulator(CLUSTER, policy="fifo")
        trace = [_spec(0, 30000), _spec(1, 30000, arrival=1.0)]
        result = sim.run(trace)
        # Job 0 keeps the fast GPUs: its first allocation is the V100s.
        first = next(a for _, a in result.jobs[0].round_log if a)
        assert "V100" in first

    def test_policy_changes_outcomes(self):
        trace = [_spec(0, 60000), _spec(1, 3000, arrival=360.0),
                 _spec(2, 10000, arrival=720.0)]
        jcts = {}
        for policy in GavelSimulator.POLICIES:
            result = GavelSimulator(CLUSTER, policy=policy).run(trace)
            jcts[policy] = tuple(round(result.jobs[j].jct()) for j in (0, 1, 2))
        assert len(set(jcts.values())) > 1  # policies genuinely differ
