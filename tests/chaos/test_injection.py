"""Chaos controller routing and end-to-end injection via run_cosched."""

from __future__ import annotations

import pytest

from repro.chaos import (
    CRASH,
    NETWORK_END,
    NETWORK_START,
    REVIVE,
    STRAGGLER_END,
    STRAGGLER_START,
    ChaosController,
    ChaosEvent,
    FaultPlan,
    random_plan,
)
from repro.core import RecoveryPolicy
from repro.elastic import ServingPhase
from repro.hardware.perfmodel import ClusterConditions
from repro.runtime import DevicePool
from repro.sched import resident_training_jobs, run_cosched

SLO = 0.035


def _run(phases=None, **kwargs):
    kwargs.setdefault("pool_devices", 8)
    kwargs.setdefault("initial_serving", 2)
    kwargs.setdefault("resize_delay", 0.25)
    kwargs.setdefault("seed", 1)
    if kwargs.get("autoscale", True):
        kwargs.setdefault("slo_p99", SLO)
    jobs = kwargs.pop("train_specs", None) or resident_training_jobs(
        2, demand_gpus=4)
    return run_cosched("mlp_synthetic",
                       phases or [ServingPhase(2.0, 300.0)], jobs, **kwargs)


# -- controller unit tests (duck-typed consumers) -----------------------------

class _StubReport:
    def __init__(self):
        self.failures = []


class _StubRouter:
    def __init__(self, lease):
        self.lease = lease
        self.report = _StubReport()
        self.failed = []
        self.revived = []

    def on_device_failed(self, now, device_id):
        self.failed.append((now, device_id))

    def on_device_revived(self, now):
        self.revived.append(now)


class _StubTraining:
    def __init__(self, lease, budget=4):
        self.lease = lease
        self.gpu_budget = budget
        self.failed = []
        self.budgets = []
        self.conditions_changes = []

    def on_device_failed(self, now, device_id, lease):
        self.failed.append((now, device_id, lease))

    def set_budget(self, now, budget):
        self.budgets.append((now, budget))

    def on_conditions_changed(self, now):
        self.conditions_changes.append(now)


class TestChaosController:
    def _wire(self):
        pool = DevicePool(6)
        serving_lease = pool.acquire("router", 2, 0.0)
        train_lease = pool.acquire("train", 4, 0.0)
        router = _StubRouter(serving_lease)
        training = _StubTraining(train_lease)
        controller = ChaosController(pool, ClusterConditions(),
                                     training=training, router=router)
        return pool, router, training, controller

    def test_crash_routes_by_lease_identity(self):
        pool, router, training, controller = self._wire()
        controller.apply(1.0, ChaosEvent(1.0, CRASH, 0))  # serving device
        assert router.failed == [(1.0, 0)]
        assert training.failed == []
        controller.apply(2.0, ChaosEvent(2.0, CRASH, 3))  # training device
        assert training.failed[0][:2] == (2.0, 3)
        assert len(router.failed) == 1

    def test_crash_on_free_device_notifies_no_tenant(self):
        pool = DevicePool(4)
        lease = pool.acquire("router", 1, 0.0)
        router = _StubRouter(lease)
        controller = ChaosController(pool, ClusterConditions(), router=router)
        data = controller.apply(1.0, ChaosEvent(1.0, CRASH, 3))
        assert router.failed == []
        assert data["healthy"] == 3 and "owner" not in data

    def test_revive_notifies_router_for_readmission(self):
        pool, router, training, controller = self._wire()
        controller.apply(1.0, ChaosEvent(1.0, CRASH, 0))
        controller.apply(2.0, ChaosEvent(2.0, REVIVE, 0))
        assert router.revived == [2.0]

    def test_budget_repair_falls_back_to_training_without_cosched(self):
        pool, router, training, controller = self._wire()
        controller.apply(1.0, ChaosEvent(1.0, CRASH, 3))
        # healthy went 6 -> 5; training budget clamps to min(4, 5) = 4.
        assert training.budgets == [(1.0, 4)]
        controller.apply(2.0, ChaosEvent(2.0, CRASH, 4))
        assert training.budgets[-1] == (2.0, 4)

    def test_condition_windows_set_and_clear_shared_state(self):
        pool, router, training, controller = self._wire()
        conditions = controller.conditions
        controller.apply(1.0, ChaosEvent(1.0, STRAGGLER_START, 2, factor=0.5))
        assert conditions.bottleneck_speed([2]) == pytest.approx(0.5)
        assert conditions.bottleneck_speed([1, 2, 3]) == pytest.approx(0.5)
        controller.apply(2.0, ChaosEvent(2.0, NETWORK_START, factor=3.0))
        assert conditions.network_factor == pytest.approx(3.0)
        assert conditions.degraded
        controller.apply(3.0, ChaosEvent(3.0, STRAGGLER_END, 2))
        controller.apply(4.0, ChaosEvent(4.0, NETWORK_END))
        assert conditions.bottleneck_speed([2]) == pytest.approx(1.0)
        assert conditions.network_factor == pytest.approx(1.0)
        assert not conditions.degraded
        # Training was told to recompute step rates on every change.
        assert training.conditions_changes == [1.0, 2.0, 3.0, 4.0]

    def test_stats_digest_counts_everything(self):
        pool, router, training, controller = self._wire()
        for ev in (ChaosEvent(1.0, CRASH, 3), ChaosEvent(2.0, REVIVE, 3),
                   ChaosEvent(3.0, NETWORK_START, factor=2.0),
                   ChaosEvent(4.0, NETWORK_END)):
            controller.apply(ev.time, ev)
        stats = controller.stats()
        assert stats["crashes"] == 1 and stats["revives"] == 1
        assert stats["network_windows"] == 1
        assert len(stats["events"]) == 4


# -- end-to-end injection through run_cosched ---------------------------------

class TestTrainingChaos:
    def test_training_crash_recovers_and_costs_goodput(self):
        clean = _run()
        plan = FaultPlan.from_events([
            ChaosEvent(0.5, CRASH, 7),
            ChaosEvent(1.2, REVIVE, 7),
        ])
        faulty = _run(fault_plan=plan, recovery=RecoveryPolicy(mode="migrate"))
        chaos = faulty.chaos
        assert chaos["crashes"] == 1 and chaos["revives"] == 1
        assert len(chaos["train_recoveries"]) >= 1
        now, jid, dev, mode, stall, attempt, lost = chaos["train_recoveries"][0]
        assert dev == 7 and mode == "migrate" and stall > 0 and lost == 0
        # The stall plus a device-second deficit must cost training steps.
        assert (faulty.summary(slo_p99=SLO)["train_goodput_sps"]
                < clean.summary(slo_p99=SLO)["train_goodput_sps"])

    def test_checkpoint_mode_rolls_back_steps(self):
        plan = FaultPlan.from_events([
            ChaosEvent(0.8, CRASH, 7),
            ChaosEvent(1.4, REVIVE, 7),
        ])
        report = _run(fault_plan=plan,
                      recovery=RecoveryPolicy(mode="checkpoint"))
        chaos = report.chaos
        assert chaos["checkpoint_restores"] >= 1
        recovery = chaos["train_recoveries"][0]
        assert recovery[3] == "checkpoint" and recovery[6] >= 0  # steps lost

    def test_crash_during_recovery_backs_off(self):
        # Both crashes hit the single resident job inside its recovery
        # window, so the second attempt must carry a retry counter.
        plan = FaultPlan.from_events([
            ChaosEvent(0.50, CRASH, 5),
            ChaosEvent(0.52, CRASH, 4),
            ChaosEvent(1.40, REVIVE, 5),
            ChaosEvent(1.50, REVIVE, 4),
        ])
        report = _run(train_specs=resident_training_jobs(1, demand_gpus=4),
                      fault_plan=plan,
                      recovery=RecoveryPolicy(mode="migrate"))
        recoveries = report.chaos["train_recoveries"]
        assert len(recoveries) == 2
        attempts = [r[5] for r in recoveries]
        assert attempts == [0, 1]

    def test_straggler_window_derates_training(self):
        clean = _run(autoscale=False, initial_serving=2)
        plan = FaultPlan.from_events([
            ChaosEvent(0.2, STRAGGLER_START, 5, factor=0.3),
            ChaosEvent(1.8, STRAGGLER_END, 5),
        ])
        slow = _run(autoscale=False, initial_serving=2, fault_plan=plan)
        assert slow.chaos["straggler_windows"] == 1
        assert (slow.summary(slo_p99=SLO)["train_goodput_sps"]
                < clean.summary(slo_p99=SLO)["train_goodput_sps"])

    def test_network_window_stretches_collectives(self):
        clean = _run()
        plan = FaultPlan.from_events([
            ChaosEvent(0.2, NETWORK_START, factor=8.0),
            ChaosEvent(1.8, NETWORK_END),
        ])
        degraded = _run(fault_plan=plan)
        assert degraded.chaos["network_windows"] == 1
        assert (degraded.summary(slo_p99=SLO)["train_goodput_sps"]
                < clean.summary(slo_p99=SLO)["train_goodput_sps"])


class TestServingChaos:
    def test_serving_crash_requeues_without_losing_requests(self):
        plan = FaultPlan.from_events([
            ChaosEvent(0.5, CRASH, 0),
            ChaosEvent(1.0, REVIVE, 0),
        ])
        clean = _run(autoscale=False, initial_serving=1)
        faulty = _run(autoscale=False, initial_serving=1, fault_plan=plan)
        chaos = faulty.chaos
        assert chaos["serving_failures"], "the crash must hit the router"
        assert chaos["requeued_requests"] > 0
        # No request is lost: the same admitted set completes, later.
        assert len(faulty.serving.records) == len(clean.serving.records)
        assert all(r.completion_time >= r.dispatch_time >= r.arrival_time
                   for r in faulty.serving.records)

    def test_static_deployment_restores_pinned_size_on_revive(self):
        plan = FaultPlan.from_events([
            ChaosEvent(0.5, CRASH, 1),
            ChaosEvent(1.0, REVIVE, 1),
        ])
        report = _run(autoscale=False, initial_serving=2, fault_plan=plan)
        assert report.serving.final_devices == 2


class TestChaosDeterminism:
    def test_empty_plan_is_bitwise_noop(self):
        base = _run()
        wired = _run(fault_plan=FaultPlan.from_events([]))
        assert wired.chaos == {
            "events": [], "crashes": 0, "revives": 0,
            "straggler_windows": 0, "network_windows": 0,
            "serving_failures": [], "requeued_requests": 0,
            "train_recoveries": [], "checkpoint_restores": 0,
        }
        assert base.duration == wired.duration
        assert base.harvests == wired.harvests
        assert ([(r.request_id, r.completion_time)
                 for r in base.serving.records]
                == [(r.request_id, r.completion_time)
                    for r in wired.serving.records])

    def test_trace_bytes_identical_across_runs(self, tmp_path):
        plan = random_plan(seed=9, duration=2.0, devices=8, crash_rate=1.0,
                           straggler_rate=0.5, network_rate=0.3,
                           min_healthy=3)

        def run(path):
            _run(fault_plan=plan, recovery=RecoveryPolicy(mode="migrate"),
                 trace=str(path))
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_trace_bytes_identical_across_backends(self, tmp_path,
                                                   monkeypatch):
        """The production queue and the ``(time, seq)`` heap model journal
        the same chaos timeline, byte for byte."""
        import repro.runtime.core as runtime_core
        from oracles.event_queue import HeapQueueOracle

        plan = random_plan(seed=9, duration=2.0, devices=8, crash_rate=1.0,
                           min_healthy=3)
        blobs = []
        for make_queue in (runtime_core.EventQueue, HeapQueueOracle):
            monkeypatch.setattr(runtime_core, "EventQueue", make_queue)
            path = tmp_path / f"{make_queue.__name__}.jsonl"
            _run(fault_plan=plan, recovery=RecoveryPolicy(mode="migrate"),
                 trace=str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] and len(blobs[0]) > 10_000


class TestInferencePlanMemo:
    def test_autoscaled_chaos_run_equals_memo_free_recomputation(
            self, monkeypatch):
        """The engine memoizes (size runs, latency, waves) per batch
        length and mapping; autoscaler rescales and chaos remaps must
        re-price.  Recomputing every plan from scratch serves every request
        at the same instants on the same devices."""
        from repro.core.engine import VirtualNodeEngine
        from repro.core.sharding import shard_sizes, size_runs

        plan = random_plan(seed=9, duration=2.0, devices=8, crash_rate=1.0,
                           straggler_rate=0.5, network_rate=0.3,
                           min_healthy=3)
        phases = [ServingPhase(0.8, 300.0), ServingPhase(0.6, 2400.0),
                  ServingPhase(0.6, 300.0)]

        def run():
            return _run(phases, fault_plan=plan,
                        recovery=RecoveryPolicy(mode="migrate")).serving

        memoized = run()
        installs = []
        install = VirtualNodeEngine._install

        def counting_install(self, *args, **kwargs):
            installs.append(self)
            return install(self, *args, **kwargs)

        def memo_free(self, batch_size):
            sizes = shard_sizes(self.vn_set, batch_size)
            return (size_runs([size for size in sizes if size]),
                    *self.inference_latency(sizes))

        monkeypatch.setattr(VirtualNodeEngine, "_install", counting_install)
        monkeypatch.setattr(VirtualNodeEngine, "inference_plan", memo_free)
        recomputed = run()
        assert memoized.records == recomputed.records
        assert memoized.batches == recomputed.batches
        assert memoized.scaling_events == recomputed.scaling_events
        # The scenario really remapped the serving engine, by both routes.
        assert memoized.scaling_events and memoized.failures
        serving_engine = installs[-1]
        assert installs.count(serving_engine) > 3
        assert len({r.devices for r in memoized.records}) > 1
