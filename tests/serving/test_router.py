"""The request router: batching invariants, bit-identity, elasticity."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.core import (
    FusedBackend,
    InferenceEngine,
    Mapping,
    TrainerConfig,
    VirtualFlowTrainer,
    VirtualNodeSet,
)
from repro.data import make_dataset
from repro.elastic import ServingPhase, spike_phases
from repro.framework import get_workload
from repro.hardware import Cluster
from repro.serving import (
    ClosedLoopSource,
    MicroBatchPolicy,
    OpenLoopPoissonSource,
    RequestRouter,
    serve_workload,
)
from tests.conftest import on_reference

SLO = 0.035


def _serve(rate=300.0, duration=1.0, seed=0, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait", 0.002)
    kwargs.setdefault("pool_devices", 4)
    return serve_workload("mlp_synthetic", [ServingPhase(duration, rate)],
                          seed=seed, **kwargs)


def _example_bank(workload_name, seed):
    workload = get_workload(workload_name)
    return make_dataset(workload.dataset, n=512, seed=seed).x_val


class TestRouterInvariants:
    def test_every_request_served_exactly_once(self):
        report = _serve()
        ids = [r.request_id for r in report.records]
        assert sorted(ids) == list(range(len(ids)))

    def test_fcfs_dispatch_order(self):
        report = _serve()
        # Records accumulate in dispatch order; arrivals never go backwards
        # across batch boundaries (FCFS, no overtaking).
        arrivals = [r.arrival_time for r in report.records]
        batch_of = [r.batch_id for r in report.records]
        for i in range(1, len(arrivals)):
            if batch_of[i] != batch_of[i - 1]:
                continue
            assert arrivals[i] >= arrivals[i - 1]

    def test_latency_accounting(self):
        report = _serve()
        for r in report.records:
            assert r.dispatch_time >= r.arrival_time
            assert r.completion_time > r.dispatch_time
            assert r.latency == pytest.approx(r.queue_delay + r.service_time)

    def test_batch_size_respects_policy(self):
        report = _serve(rate=2000.0, max_batch=8)
        assert max(b.size for b in report.batches) <= 8
        # Overload coalesces: under heavy backlog batches actually fill.
        assert max(b.size for b in report.batches) == 8

    def test_max_wait_bounds_idle_queueing(self):
        # At a trickle rate the pipeline is idle, so the only queueing a
        # request can see is the coalescing wait itself.
        report = _serve(rate=20.0, duration=1.0, max_wait=0.003)
        for batch in report.batches:
            first = min(r.arrival_time for r in report.records
                        if r.batch_id == batch.batch_id)
            assert batch.dispatch_time <= first + 0.003 + 1e-12

    def test_batches_never_overlap(self):
        report = _serve(rate=1500.0)
        for prev, cur in zip(report.batches, report.batches[1:]):
            assert cur.dispatch_time >= prev.completion_time - 1e-12

    def test_summary_shape(self):
        report = _serve()
        summary = report.summary(slo_p99=SLO)
        for key in ("requests", "throughput_rps", "latency_p99_ms",
                    "avg_devices", "slo_attainment", "meets_slo"):
            assert key in summary
        assert summary["requests"] == len(report.records)

    def test_closed_loop_source_drives_router(self):
        workload = get_workload("mlp_synthetic")
        bank = _example_bank("mlp_synthetic", 0)
        source = ClosedLoopSource(num_clients=4, requests_per_client=5,
                                  examples=bank, think_time=0.002, seed=0)
        vn_set = VirtualNodeSet.even(4, 4)
        pool = Cluster.homogeneous("V100", 2)
        engine = InferenceEngine(workload, workload.build_model(0),
                                 Mapping.even(vn_set, pool))
        report = RequestRouter(engine, source,
                               MicroBatchPolicy(max_batch=4, max_wait=0.001)).run()
        assert len(report.records) == 4 * 5


def _one_shot_logits_hold(report, seed):
    """Each completed batch's collected logits equal a one-shot engine batch
    of the same examples.  The engine is a fresh one on a *different*
    mapping: predictions are mapping-invariant, so this is the strictest
    form of the check."""
    workload = get_workload("mlp_synthetic")
    bank = _example_bank("mlp_synthetic", seed)
    oneshot = InferenceEngine(
        workload, workload.build_model(seed),
        Mapping.even(VirtualNodeSet.even(4, 4), Cluster.homogeneous("V100", 1)))
    by_batch = defaultdict(list)
    for r in report.records:
        by_batch[r.batch_id].append(r)
    for records in by_batch.values():
        x = np.stack([bank[r.request_id % len(bank)] for r in records])
        got = np.stack([report.logits[r.request_id] for r in records])
        np.testing.assert_array_equal(got, oneshot.predict(x).logits)


class TestBitIdentity:
    """The acceptance bar: router micro-batches == one-shot engine batches."""

    @pytest.mark.parametrize("autoscale", [False, True])
    def test_served_logits_equal_one_shot_batches(self, autoscale):
        seed = 3
        kwargs = dict(autoscale=autoscale)
        if autoscale:
            kwargs["slo_p99"] = SLO
        report = _serve(rate=600.0, duration=0.8, seed=seed,
                        collect_logits=True, **kwargs)
        assert report.logits, "collect_logits must populate the report"
        _one_shot_logits_hold(report, seed)

    def test_autoscaled_results_match_fixed_results(self):
        # Scaling policy changes *when* batches launch, so the two runs
        # coalesce different micro-batches; per-request results agree to
        # numerical noise (exactness holds per batch composition — the GEMM
        # batch dimension moves OpenBLAS's last-ulp rounding, the same
        # substrate property the fused backend's contract documents).
        fixed = _serve(rate=800.0, seed=1, collect_logits=True,
                       initial_devices=4)
        auto = _serve(rate=800.0, seed=1, collect_logits=True,
                      autoscale=True, slo_p99=SLO)
        assert set(fixed.logits) == set(auto.logits)
        for request_id, logits in fixed.logits.items():
            np.testing.assert_allclose(logits, auto.logits[request_id],
                                       rtol=1e-9, atol=1e-12)

    def test_fused_backend_serves_identical_logits(self):
        def serve(reference):
            workload = get_workload("mlp_synthetic")
            mapping = Mapping.even(VirtualNodeSet.even(4, 4),
                                   Cluster.homogeneous("V100", 4))
            router = RequestRouter(
                InferenceEngine(workload, workload.build_model(2), mapping),
                OpenLoopPoissonSource([ServingPhase(1.0, 500.0)],
                                      _example_bank("mlp_synthetic", 2), seed=2),
                policy=MicroBatchPolicy(max_batch=8, max_wait=0.002),
                collect_logits=True)
            return (on_reference(router) if reference else router).run()

        ref, fused = serve(True), serve(False)
        assert len(ref.logits) == len(fused.logits) > 0
        for request_id, logits in ref.logits.items():
            np.testing.assert_array_equal(logits, fused.logits[request_id])


class TestWhenTheForwardRuns:
    """Dispatch prices a batch; the numbers come after it completes, in a
    stacked pass over the completed batches — so a batch a crash cancels is
    never forwarded, and every run forwards what it completed before it
    returns."""

    SEED = 2

    def _router(self, devices, rate=500.0, duration=0.5, limit=None):
        workload = get_workload("mlp_synthetic")
        mapping = Mapping.even(VirtualNodeSet.even(4, 4),
                               Cluster.homogeneous("V100", devices))
        router = RequestRouter(
            InferenceEngine(workload, workload.build_model(self.SEED), mapping),
            OpenLoopPoissonSource([ServingPhase(duration, rate)],
                                  _example_bank("mlp_synthetic", self.SEED),
                                  seed=self.SEED, limit=limit),
            policy=MicroBatchPolicy(max_batch=8, max_wait=0.002),
            collect_logits=True)
        # Every request id each stacked pass forwards, in order.
        router.forwarded = []
        forward = router.forward_completed

        def recording():
            router.forwarded += [e[1] for batch in router._completed for e in batch]
            forward()

        router.forward_completed = recording
        return router

    def _crash_during(self, router, dispatch_number, device_id):
        """Crash ``device_id`` right after the router's ``dispatch_number``-th
        dispatch, with that batch in flight; return its request ids."""
        dispatch, cancelled = router._dispatch, []

        def dispatch_then_crash(launch):
            out = dispatch(launch)
            if out["batch_id"] == dispatch_number:
                cancelled.extend(e[1] for e in router._inflight[1])
                router._queue.post(launch, lambda now: (
                    router._device_pool.fail_device(device_id, now),
                    router.on_device_failed(now, device_id)), kind="crash")
            return out

        router._dispatch = dispatch_then_crash
        return cancelled

    def test_a_cancelled_batch_is_never_forwarded(self):
        router = self._router(devices=2, rate=1500.0)  # several stacked passes
        cancelled = self._crash_during(router, 20, device_id=1)
        report = router.run()
        assert report.failures and report.failures[0][2] == len(cancelled) > 0
        served = [r.request_id for r in report.records]
        # Each served request forwarded exactly once, the cancelled ones too:
        # only when the batch that served them completed.
        assert sorted(router.forwarded) == sorted(served)
        assert len(set(router.forwarded)) == len(served)
        assert set(cancelled) <= set(served)
        assert list(report.logits) == served  # completion order
        _one_shot_logits_hold(report, self.SEED)

    def test_a_run_that_serves_nothing_forwards_nothing(self):
        router = self._router(devices=2, limit=0)
        router.inference.engine.backend = backend = FusedBackend()
        calls = []
        backend.infer = lambda *args: calls.append(args)
        report = router.run()
        assert not report.records and calls == [] and report.logits == {}

    def test_a_halted_router_forwards_what_it_completed(self):
        router = self._router(devices=1)
        self._crash_during(router, 5, device_id=0)
        report = router.run()
        # The lone device died: the router halted with requests still
        # queued and never drained; the run forwarded its batches anyway.
        assert router._halted and not router._done
        assert 0 < len(report.records) < router.source.total_requests
        assert sorted(router.forwarded) == [r.request_id for r in report.records]
        _one_shot_logits_hold(report, self.SEED)


class TestStatefulServing:
    def test_trained_job_serves_under_merged_eval_state(self):
        # Train a BatchNorm model briefly, then serve it through the router:
        # the engine must evaluate under the canonical merged virtual-node
        # state, identically to the executor's own evaluation path.
        trainer = VirtualFlowTrainer(TrainerConfig(
            workload="resnet56_cifar10", global_batch_size=16,
            num_virtual_nodes=4, num_devices=2, dataset_size=64, seed=0))
        x = trainer.dataset.x_train[:16]
        y = trainer.dataset.y_train[:16]
        trainer.executor.run_step(x, y, epoch=0, step=0)
        executor = trainer.executor

        engine = InferenceEngine.from_executor(executor)
        batch = trainer.dataset.x_val[:8]
        served = engine.predict(batch).logits

        model = executor.model
        model.load_state_dict(executor._merged_eval_state())
        expected = model.forward(batch, training=False)
        np.testing.assert_array_equal(served, expected)

    def test_eval_state_cache_survives_remap(self):
        trainer = VirtualFlowTrainer(TrainerConfig(
            workload="resnet56_cifar10", global_batch_size=16,
            num_virtual_nodes=4, num_devices=2, dataset_size=64, seed=0))
        trainer.executor.run_step(trainer.dataset.x_train[:16],
                                  trainer.dataset.y_train[:16],
                                  epoch=0, step=0)
        engine = InferenceEngine.from_executor(trainer.executor)
        batch = trainer.dataset.x_val[:8]
        before = engine.predict(batch).logits
        engine.remap(Mapping.even(engine.mapping.vn_set,
                                  Cluster.homogeneous("P100", 1)))
        after = engine.predict(batch).logits
        np.testing.assert_array_equal(before, after)


class TestAutoscaledServing:
    def test_spike_triggers_scale_up_and_back_down(self):
        report = serve_workload(
            "mlp_synthetic", spike_phases(400.0, 6.0, 3.0, 1.0),
            max_batch=16, max_wait=0.002, pool_devices=8,
            autoscale=True, slo_p99=0.030, initial_devices=2, seed=1)
        assert report.scaling_events, "the spike must trigger a remap"
        peak = max(new for _, _, new, _ in report.scaling_events)
        assert peak > 2
        # After the spike the allocation comes back down.
        assert report.final_devices < peak

    def test_autoscaling_beats_fixed_small_mapping_on_tail(self):
        phases = spike_phases(400.0, 6.0, 3.0, 1.0)
        fixed = serve_workload("mlp_synthetic", phases, max_batch=16,
                               max_wait=0.002, pool_devices=8,
                               initial_devices=2, seed=1)
        auto = serve_workload("mlp_synthetic", phases, max_batch=16,
                              max_wait=0.002, pool_devices=8,
                              autoscale=True, slo_p99=0.030,
                              initial_devices=2, seed=1)
        assert auto.percentile(99) < fixed.percentile(99)

    def test_remap_cost_charged_for_joining_devices(self):
        report = serve_workload(
            "mlp_synthetic", spike_phases(400.0, 6.0, 3.0, 1.0),
            max_batch=16, max_wait=0.002, pool_devices=8,
            autoscale=True, slo_p99=0.030, initial_devices=2, seed=1)
        ups = [c for _, old, new, c in report.scaling_events if new > old]
        downs = [c for _, old, new, c in report.scaling_events if new < old]
        assert all(c > 0 for c in ups)     # §4.1 all-gather to joiners
        assert all(c == 0 for c in downs)  # shrinking is free

    def test_device_seconds_accounting(self):
        report = _serve(rate=300.0, initial_devices=2, pool_devices=2)
        assert report.avg_devices() == pytest.approx(2.0)


class TestEdgeCases:
    def test_non_ladder_initial_devices_autoscale(self):
        # 3 is not on the power-of-two ladder; overload from it must scale,
        # not crash (regression: KeyError in the breach-guard capacity
        # lookup).
        report = serve_workload(
            "mlp_synthetic", spike_phases(2000.0, 2.0, 1.0, 0.5),
            max_batch=16, max_wait=0.002, pool_devices=8,
            autoscale=True, slo_p99=0.005, initial_devices=3, seed=1)
        assert len(report.records) > 0
        assert any(new > 3 for _, _, new, _ in report.scaling_events)

    def test_empty_run_summary_does_not_crash(self):
        from repro.serving import ServingReport

        summary = ServingReport().summary(slo_p99=SLO)
        assert summary["requests"] == 0.0
        assert summary["meets_slo"] == 1.0  # vacuously

    def test_trace_with_no_arrivals(self):
        # A rate/duration combination that yields zero Poisson arrivals must
        # produce an empty, well-formed report end to end.
        report = _serve(rate=0.5, duration=0.2, seed=3)
        assert report.records == []
        assert report.summary(slo_p99=SLO)["requests"] == 0.0


class TestServeWorkloadValidation:
    def test_autoscale_requires_slo(self):
        with pytest.raises(ValueError):
            _serve(autoscale=True)

    def test_virtual_nodes_must_cover_pool(self):
        with pytest.raises(ValueError):
            _serve(virtual_nodes=2, pool_devices=4)

    def test_initial_devices_bounded_by_pool(self):
        with pytest.raises(ValueError):
            _serve(initial_devices=9, pool_devices=4)

    def test_router_requires_pool_for_autoscaling(self):
        workload = get_workload("mlp_synthetic")
        vn_set = VirtualNodeSet.even(4, 4)
        engine = InferenceEngine(workload, workload.build_model(0),
                                 Mapping.even(vn_set, Cluster.homogeneous("V100", 2)))
        source = OpenLoopPoissonSource([ServingPhase(0.1, 10.0)],
                                       _example_bank("mlp_synthetic", 0))
        from repro.serving import LatencyAutoscaler

        scaler = LatencyAutoscaler(SLO, {1: 100.0, 2: 200.0})
        with pytest.raises(ValueError):
            RequestRouter(engine, source, autoscaler=scaler)
