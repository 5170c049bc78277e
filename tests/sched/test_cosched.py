"""Co-scheduled training + serving on one shared pool."""

from __future__ import annotations

import pytest

from repro.elastic import ServingPhase, spike_phases
from repro.sched import resident_training_jobs, run_cosched

SLO = 0.035


def _spiky(base=400.0, spike=4.0):
    return spike_phases(base, spike, base_duration=2.0, spike_duration=1.0)


def _run(phases=None, **kwargs):
    kwargs.setdefault("pool_devices", 8)
    kwargs.setdefault("initial_serving", 2)
    kwargs.setdefault("resize_delay", 0.25)
    kwargs.setdefault("seed", 1)
    if kwargs.get("autoscale", True):
        kwargs.setdefault("slo_p99", SLO)
    jobs = kwargs.pop("train_specs", None) or resident_training_jobs(
        2, demand_gpus=4)
    return run_cosched("mlp_synthetic", phases or _spiky(), jobs, **kwargs)


class TestHarvest:
    def test_spike_harvests_and_restores_training_budget(self):
        report = _run()
        assert report.harvests, "the spike must move the training budget"
        shrinks = [(b, a) for _, b, a in report.harvests if a < b]
        grows = [(b, a) for _, b, a in report.harvests if a > b]
        assert shrinks, "serving never harvested training GPUs"
        assert grows, "training never got its devices back"
        # The final budget hands training everything serving released.
        final_budget = report.harvests[-1][2]
        assert final_budget == report.pool_devices - report.serving.final_devices

    def test_budget_moves_chain_contiguously(self):
        report = _run()
        for (_, _, after), (_, before, _) in zip(report.harvests,
                                                 report.harvests[1:]):
            assert after == before

    def test_train_floor_is_never_harvested(self):
        report = _run(train_floor=4)
        for _, _, after in report.harvests:
            assert after >= 4
        for _, _, new, _ in report.serving.scaling_events:
            assert new <= report.pool_devices - 4

    def test_training_pays_resize_stalls_for_the_spike(self):
        # Harvest + reclaim show up as resizes in the jobs' allocation logs.
        report = _run()
        assert any(j.resizes >= 1 for j in report.jobs.values())

    def test_static_partition_never_moves(self):
        report = _run(autoscale=False, slo_p99=None, initial_serving=4)
        assert report.harvests == []
        assert report.serving.scaling_events == []
        assert report.serving.final_devices == 4
        for job in report.jobs.values():
            assert job.resizes == 0


class TestAccounting:
    def test_device_seconds_conservation_across_tenants(self):
        report = _run()
        serving = report.serving.device_seconds
        training = sum(report.train_device_seconds.values())
        # Busy seconds can never exceed the pool (idle makes up the rest);
        # run_cosched audits exact conservation inside the pool itself.
        assert serving + training <= report.pool_devices * report.duration + 1e-9
        assert serving > 0 and training > 0

    def test_goodput_reflects_partial_progress(self):
        report = _run()
        assert report.train_steps > 0
        assert report.train_goodput() == pytest.approx(
            report.train_steps / report.duration)
        # Resident jobs are sized to outlast the serving trace.
        for job in report.jobs.values():
            assert job.steps_done < job.spec.total_steps

    def test_deterministic_under_fixed_seed(self):
        a, b = _run(), _run()
        assert a.summary(slo_p99=SLO) == b.summary(slo_p99=SLO)
        assert a.harvests == b.harvests

    def test_trace_out_round_trip(self, tmp_path):
        from repro.runtime import read_trace

        path = str(tmp_path / "cosched.jsonl")
        report = _run(trace=path)
        events = read_trace(path)
        assert len(events) == report.events_processed
        kinds = {e["kind"] for e in events}
        assert {"arrival", "admit", "dispatch", "complete"} <= kinds
        actors = {e["actor"] for e in events}
        assert {"train", "router"} <= actors
        # One schema: every line carries the same envelope.
        for e in events:
            assert set(e) == {"t", "seq", "kind", "actor", "data"}
        times = [e["t"] for e in events]
        assert times == sorted(times)


class TestValidation:
    def test_needs_training_jobs(self):
        with pytest.raises(ValueError, match="training jobs"):
            run_cosched("mlp_synthetic", _spiky(), [], pool_devices=8,
                        slo_p99=SLO)

    def test_autoscale_needs_slo(self):
        with pytest.raises(ValueError, match="SLO"):
            _run(slo_p99=None)

    def test_initial_serving_respects_floor(self):
        with pytest.raises(ValueError, match="initial_serving"):
            _run(initial_serving=7, train_floor=4)

    def test_resident_jobs_validation(self):
        with pytest.raises(ValueError):
            resident_training_jobs(0)
        with pytest.raises(ValueError, match="divide"):
            resident_training_jobs(1, demand_gpus=3)  # 6 nodes, batch 64

    def test_short_quiet_trace_still_reports(self):
        report = _run(phases=[ServingPhase(0.5, 50.0)])
        assert report.duration > 0
        assert report.harvests == []
