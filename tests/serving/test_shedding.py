"""Load-shedding admission control, brownout, and outage drain regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    ECCThrottle,
    FailureDomainTopology,
    FaultPlan,
    domain_wipe_events,
)
from repro.elastic import ServingPhase
from repro.hardware.perfmodel import ClusterConditions
from repro.sched import resident_training_jobs, run_cosched
from repro.serving import serve_workload
from repro.serving.batcher import AdmissionPolicy


def _serve(rate=300.0, duration=1.0, seed=0, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait", 0.002)
    kwargs.setdefault("pool_devices", 4)
    return serve_workload("mlp_synthetic", [ServingPhase(duration, rate)],
                          seed=seed, **kwargs)


class TestAdmissionPolicy:
    def test_needs_at_least_one_mechanism(self):
        with pytest.raises(ValueError):
            AdmissionPolicy()
        AdmissionPolicy(max_queue_depth=8)
        AdmissionPolicy(max_estimated_wait=0.05)
        AdmissionPolicy(brownout=True)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_estimated_wait=0.0)


class TestShedding:
    def test_no_admission_policy_is_bit_identical(self):
        # Arming no policy must not perturb a single float.
        base = _serve()
        again = _serve(admission=None)
        assert [(r.request_id, r.completion_time) for r in base.records] \
            == [(r.request_id, r.completion_time) for r in again.records]
        assert base.shed == [] and again.shed == []

    def test_depth_threshold_sheds_overload(self):
        # The depth gate polices the router's coalescing queue, which the
        # admission pull loop itself caps at max_batch — so a tripping
        # threshold sits *below* max_batch.
        overloaded = _serve(rate=4000.0, pool_devices=1,
                            admission=AdmissionPolicy(max_queue_depth=4))
        assert overloaded.shed, "4000 rps on one device must trip depth"
        assert all(reason == "depth" for _, _, reason in overloaded.shed)
        assert 0.0 < overloaded.shed_rate() < 1.0
        # Shed requests never appear as completed records.
        shed_ids = {rid for _, rid, _ in overloaded.shed}
        assert shed_ids.isdisjoint({r.request_id for r in overloaded.records})
        # Offered = admitted + shed, and the summary agrees.
        summary = overloaded.summary()
        assert summary["offered"] == len(overloaded.records) + len(
            overloaded.shed)

    def test_shedding_bounds_queue_delay(self):
        shed = _serve(rate=4000.0, pool_devices=1,
                      admission=AdmissionPolicy(max_queue_depth=4))
        unshed = _serve(rate=4000.0, pool_devices=1)
        assert max(r.queue_delay for r in shed.records) \
            < max(r.queue_delay for r in unshed.records)

    def test_wait_threshold_needs_observed_service_time(self):
        # A cold router has no service estimate, so a wait-only policy can
        # never shed the very first arrivals — they must be admitted.
        report = _serve(rate=4000.0, pool_devices=1,
                        admission=AdmissionPolicy(max_estimated_wait=1e-6))
        assert report.records, "the cold start must admit something"
        assert report.shed, "after one completion the estimate trips"
        assert all(reason == "wait" for _, _, reason in report.shed)

    def test_shedding_is_deterministic(self):
        policy = AdmissionPolicy(max_queue_depth=16, max_estimated_wait=0.02)
        a = _serve(rate=2000.0, admission=policy)
        b = _serve(rate=2000.0, admission=policy)
        assert a.shed == b.shed
        assert [(r.request_id, r.completion_time) for r in a.records] \
            == [(r.request_id, r.completion_time) for r in b.records]


def _wipe_run(*, admission=None, initial_serving=2, seed=1):
    """Co-scheduled run whose rack wipe takes out the whole serving split."""
    topology = FailureDomainTopology.regular(3, 2)
    events = domain_wipe_events(topology, "rack", 0, 0.5, 1.2)
    plan = FaultPlan.from_events(events, topology=topology, min_healthy=1)
    return run_cosched(
        "mlp_synthetic", [ServingPhase(2.0, 300.0)],
        resident_training_jobs(2, demand_gpus=2),
        pool_devices=6, max_batch=8, max_wait=0.002,
        initial_serving=initial_serving, autoscale=False,
        resize_delay=0.25, seed=seed, fault_plan=plan,
        topology=topology, admission=admission)


class TestOutageDrain:
    """Regression: a static deployment losing *every* serving device parks
    arrivals, halts (no retry spin), and drains the backlog on revive."""

    def test_no_requests_lost_across_total_outage(self):
        clean = _wipe_run(seed=1)
        # Sanity: the wipe hit serving and the router requeued in-flight work.
        chaos = clean.chaos
        assert len(chaos["serving_failures"]) == 2
        ids = [r.request_id for r in clean.serving.records]
        assert sorted(ids) == list(range(len(ids))), (
            "requests were lost across the outage")
        for r in clean.serving.records:
            assert r.completion_time >= r.dispatch_time >= r.arrival_time

    def test_outage_window_is_silent_then_drains(self):
        report = _wipe_run(seed=1)
        wipe, repair = 0.5, 1.2
        # No batch completes inside the dark window (the router is halted,
        # not spinning on retries against zero devices).
        assert not any(wipe < b.completion_time < repair
                       for b in report.serving.batches)
        # Arrivals that landed during the outage drain after the repair.
        parked = [r for r in report.serving.records
                  if wipe <= r.arrival_time < repair]
        assert parked, "the trace must offer load during the outage"
        assert all(r.dispatch_time >= repair for r in parked)

    def test_static_router_regrows_to_pinned_size(self):
        report = _wipe_run(seed=1)
        assert report.serving.final_devices == 2

    def test_shedding_trims_the_post_outage_backlog(self):
        admitted = _wipe_run(seed=1)
        shed = _wipe_run(seed=1, admission=AdmissionPolicy(
            max_queue_depth=64, max_estimated_wait=0.02))
        assert shed.serving.shed, "the outage backlog must trip the wait gate"
        # Everything still admitted completes, and the worst queueing delay
        # strictly improves on the admit-everything run.
        ids = sorted(r.request_id for r in shed.serving.records)
        shed_ids = sorted(rid for _, rid, _ in shed.serving.shed)
        assert len(ids) + len(shed_ids) == len(admitted.serving.records)
        # The request that arrived the instant the rack died still pays the
        # full outage (it was admitted before any backlog was observable),
        # so the *max* delay matches — but the drain is far cheaper on
        # average because doomed arrivals were turned away at the door.
        def mean_delay(report):
            records = report.serving.records
            return sum(r.queue_delay for r in records) / len(records)

        assert mean_delay(shed) < 0.5 * mean_delay(admitted)


class TestBrownout:
    def test_brownout_halves_batches_under_derate(self):
        topology = FailureDomainTopology.regular(3, 2)
        # Derate serving device 0 for most of the trace; no crashes at all.
        plan = FaultPlan.from_events(
            ECCThrottle(speed=0.6, duration_s=1.0).events(0, 0.3),
            topology=topology)
        brown = run_cosched(
            "mlp_synthetic", [ServingPhase(1.5, 600.0)],
            resident_training_jobs(2, demand_gpus=2),
            pool_devices=6, max_batch=8, max_wait=0.002,
            initial_serving=2, autoscale=False, resize_delay=0.25,
            seed=1, fault_plan=plan, topology=topology,
            admission=AdmissionPolicy(brownout=True))
        assert brown.serving.brownout_batches > 0
        assert brown.chaos["derate_events"] == 2
        # Brownout batches respect the halved cap.
        derated = [b for b in brown.serving.batches
                   if 0.3 <= b.dispatch_time < 1.3]
        assert derated and max(b.size for b in derated) <= 4

    @staticmethod
    def _router(policy):
        from repro.core import InferenceEngine, Mapping, VirtualNodeSet
        from repro.framework import get_workload
        from repro.hardware import Cluster
        from repro.serving import ClosedLoopSource, RequestRouter

        workload = get_workload("mlp_synthetic")
        cluster = Cluster.homogeneous("V100", 2)
        engine = InferenceEngine(
            workload, workload.build_model(0),
            Mapping.even(VirtualNodeSet.even(2, 2), cluster))
        conditions = ClusterConditions()
        router = RequestRouter(
            engine, ClosedLoopSource(1, 1, np.zeros((1, 1))), policy=policy,
            admission=AdmissionPolicy(brownout=True))
        router.configure_chaos(conditions)

        class _Lease:
            device_ids = (0, 1)

        router._lease = _Lease()
        return router, conditions

    def test_policy_object_reused_when_not_derated(self):
        # The brownout check must return the identical policy object on a
        # clean lease — that identity is what keeps un-derated runs
        # bit-exact and is how brownout batches are counted.
        from repro.serving.batcher import MicroBatchPolicy

        router, conditions = self._router(
            MicroBatchPolicy(max_batch=8, max_wait=0.002))
        assert router._policy_now() is router.policy
        conditions.set_derate(0, 0.5)
        halved = router._policy_now()
        assert halved is not router.policy
        assert halved.max_batch == 4 and halved.max_wait == 0.001
        # Built once, not per probe (four call sites ask per batch).
        assert router._policy_now() is halved
        conditions.set_derate(0, 1.0)
        assert router._policy_now() is router.policy

    def test_halved_policy_is_told_apart_by_identity_not_value(self):
        # max_batch=1, max_wait=0 halves to an *equal* policy; a browned-out
        # router must still answer "not the configured object".
        from repro.serving.batcher import MicroBatchPolicy

        router, conditions = self._router(
            MicroBatchPolicy(max_batch=1, max_wait=0.0))
        conditions.set_derate(1, 0.25)
        halved = router._policy_now()
        assert halved == router.policy and halved is not router.policy
        assert router._policy_now() is halved


class TestBrownoutProbedOncePerPull:
    """``RequestRouter._pull`` probes degradation once per admission pull
    and decides the whole wave on that answer.  That is only sound because
    nothing degrades *inside* a pull; both halves are checked on a
    co-scheduled gateway whose serving devices derate and recover mid-run."""

    SPEC = "prem:class=premium,weight=8,quota=300;flood:share=4"

    def _run(self):
        from repro.chaos import ThermalRamp
        from repro.serving import TenantRegistry

        topology = FailureDomainTopology.regular(3, 2)
        plan = FaultPlan.from_events(
            list(ECCThrottle(speed=0.6, duration_s=0.4).events(0, 0.2))
            + list(ThermalRamp(floor=0.5, ramp=0.2, hold=0.2, recover=0.2,
                               steps=3).events(1, 0.8)),
            topology=topology)
        return run_cosched(
            "mlp_synthetic", [ServingPhase(1.6, 2000.0)],
            resident_training_jobs(2, demand_gpus=2),
            pool_devices=6, max_batch=8, max_wait=0.002,
            initial_serving=2, autoscale=False, resize_delay=0.25,
            seed=1, fault_plan=plan, topology=topology,
            tenants=TenantRegistry.from_spec(self.SPEC),
            admission=AdmissionPolicy(max_queue_depth=16,
                                      max_estimated_wait=0.02,
                                      brownout=True))

    def test_decisions_equal_a_per_arrival_recomputation(self, monkeypatch):
        """Every pull of the live run, replayed through the oracle that
        re-derives brownout, batch size and limits for each arrival."""
        import repro.serving.admission as admission_module
        import repro.serving.router as router_module
        from oracles.admission import BucketOracle, admit

        meter, decide = router_module.meter, admission_module.decide
        quota = {"prem": BucketOracle(300.0, 30.0)}   # burst = quota / 10
        pulls, staged = [], {}

        def recording_meter(wave, times, contracts, browned):
            staged.update(tenants=[e[2] for e in wave.entries()],
                          browned=browned, live=contracts["prem"][0])
            return meter(wave, times, contracts, browned)

        def checking_decide(policy, times, depth, server_free, estimate,
                            max_batch, bypass, halved):
            admitted, shed, reasons = decide(
                policy, times, depth, server_free, estimate, max_batch,
                bypass, halved)
            browned = staged["browned"]
            expected = admit(
                policy, list(zip(times, staged["tenants"])), depth=depth,
                server_free=server_free, service_estimate=estimate,
                max_batch=8, degraded=lambda: browned, buckets=quota,
                premium={"prem"})
            got = dict(zip(shed, reasons))
            assert [got.get(j) for j in range(len(times))] == expected
            assert max_batch == (4 if browned else 8)
            assert staged["live"].tokens == quota["prem"].tokens
            pulls.append((browned, max_batch, expected))
            return admitted, shed, reasons

        monkeypatch.setattr(router_module, "meter", recording_meter)
        monkeypatch.setattr(admission_module, "decide", checking_decide)
        report = self._run().serving
        assert report.brownout_batches > 0
        # The scenario exercises what it claims to: both shed reasons,
        # decisions taken browned-out and clean, halved and full batches.
        decisions = [d for _, _, wave in pulls for d in wave]
        assert len(decisions) == len(report.records) + len(report.shed)
        assert set(decisions) == {None, "depth", "wait"}
        assert {reason for _, _, reason in report.shed} == {"depth", "wait"}
        assert {(brown, mb) for brown, mb, _ in pulls} == {(True, 4),
                                                           (False, 8)}

    def test_conditions_change_only_in_event_actions_never_in_a_pull(
            self, monkeypatch):
        import sys

        from repro.runtime import Runtime
        from repro.serving.router import RequestRouter

        event_loop = Runtime.run.__code__
        # An action probes brownout once and hands it to the plan and the
        # pulls it makes, so none of them may see conditions change either.
        pull_frames = {RequestRouter._pull.__code__,
                       RequestRouter._admit.__code__,
                       RequestRouter._plan.__code__}
        mutations = []

        def guarded(name):
            original = getattr(ClusterConditions, name)

            def wrapper(self, *args, **kwargs):
                frame, codes = sys._getframe(1), set()
                while frame is not None:
                    codes.add(frame.f_code)
                    frame = frame.f_back
                assert event_loop in codes, f"{name} outside an event action"
                assert not codes & pull_frames, f"{name} inside a pull"
                mutations.append(name)
                return original(self, *args, **kwargs)
            return wrapper

        for name in ("set_straggler", "clear_straggler", "set_derate"):
            monkeypatch.setattr(ClusterConditions, name, guarded(name))
        report = self._run()
        assert report.chaos["derate_events"] == 8
        assert mutations.count("set_derate") == 8
