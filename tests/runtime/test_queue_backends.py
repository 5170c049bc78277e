"""The event queue against its reference model, and reclamation under
cancellation storms.

The production queue must be observably indistinguishable from the
``(time, seq)`` heap model in ``tests/oracles/event_queue.py``: same fired
order, same survivors under heavy ETA-invalidation (>50% of scheduled events
cancelled), on small populations and on thousands of live events — and it
may not let dead entries accumulate without bound: the slab recycles slots
on cancel and the heap compacts its stale entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.event_queue import HeapQueueOracle
from repro.runtime import EventQueue, Runtime
from runtime_state import queue_stats

# The contract tests below hold for the production queue and for the
# reference model, or the model is no reference.
QUEUES = pytest.mark.parametrize(
    "make_queue", [EventQueue, HeapQueueOracle], ids=["production", "heap"])


def _both():
    """A fresh production queue and a fresh reference model, by name."""
    return ("production", EventQueue()), ("heap", HeapQueueOracle())


def _runtime(make_queue=EventQueue) -> Runtime:
    rt = Runtime()
    rt.queue = make_queue()   # before any process reads it
    return rt


def _random_schedule(seed: int, n: int, span: float = 500.0):
    """(times, cancel_mask) with >50% of events marked for cancellation."""
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, span, size=n)
    cancel = rng.random(n) < 0.6
    return times, cancel


def _drain(queue: EventQueue):
    order = []
    while (item := queue.pop_dispatch()) is not None:
        order.append(item[:2])   # (time, seq)
    return order


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fired_order_identical_under_cancellation_storm(self, seed):
        times, cancel = _random_schedule(seed, n=2000)
        orders = {}
        for name, q in _both():
            handles = [q.post(float(t), lambda t: None) for t in times]
            for handle, dead in zip(handles, cancel):
                if dead:
                    q.cancel_handle(handle)
            orders[name] = _drain(q)
        assert orders["production"] == orders["heap"]
        fired = len(orders["heap"])
        assert fired == int((~cancel).sum())
        assert fired < len(times) // 2  # the storm really cancelled >50%

    def test_post_many_matches_post_loop_order(self):
        times, _ = _random_schedule(seed=3, n=500)
        action = lambda t: None  # noqa: E731
        loop_q = EventQueue()
        for t in times:
            loop_q.post(float(t), action)
        bulk_q = EventQueue()
        bulk_q.post_many(times, action)
        assert _drain(bulk_q) == _drain(loop_q)

    @pytest.mark.parametrize("width", [10 / 3, 0.1, 0.3, 1 / 7, 2.2, 0.7])
    def test_times_on_bucket_edges_fire_in_order(self, width):
        """An evenly spaced wave of 10,161 times that are exact multiples of
        ``width / 80``: the shape that once misordered thousands of events
        on a time-bucketed index (a bucket edge computed two ways disagreed
        in the last ulp).  Any index must fire it in time order."""
        times = np.arange(10161) * (width / 80)
        orders = {}
        for name, q in _both():
            q.post_many(times, lambda t: None)
            orders[name] = _drain(q)
        assert orders["production"] == orders["heap"]
        assert [t for t, _ in orders["heap"]] == times.tolist()

    def test_handle_cancellation_agrees_across_backends(self):
        times, cancel = _random_schedule(seed=4, n=1000)
        orders = {}
        for name, q in _both():
            handles = q.post_many(times, lambda t: None)
            for h, dead in zip(handles.tolist(), cancel):
                if dead:
                    assert q.cancel_handle(h)
                    assert not q.handle_alive(h)
                    assert not q.cancel_handle(h)  # second cancel is a no-op
            orders[name] = _drain(q)
        assert orders["production"] == orders["heap"]

    @QUEUES
    def test_interleaved_schedule_and_fire(self, make_queue):
        """Actions keep scheduling/cancelling while the loop runs."""
        rt = _runtime(make_queue)
        fired = []
        pending = []

        def tick(t):
            fired.append((t, "tick"))
            if pending:
                # Cancel the previous tick's doomed event (fires at
                # t + 0.5, i.e. after this tick) before it can go off.
                assert rt.queue.cancel_handle(pending.pop())
            if t < 50.0:
                rt.queue.post(rt.now + 1.0, tick)
                pending.append(rt.queue.post(
                    rt.now + 1.5, lambda t2: fired.append((t2, "DOOM"))))

        rt.queue.post(0.0, tick)
        rt.run()
        # Every doomed event was cancelled before its fire time.
        assert sum(1 for _, k in fired if k == "DOOM") == 0
        assert [t for t, k in fired if k == "tick"] == [float(i)
                                                        for i in range(51)]


class TestBoundedMemory:
    def test_cancellation_storm_reclaims_slots_and_index(self):
        q = EventQueue()
        rng = np.random.default_rng(11)
        survivors = 0
        for wave in range(40):
            times = rng.uniform(wave * 10.0, wave * 10.0 + 1000.0, size=500)
            handles = q.post_many(times, lambda t: None)
            doomed = rng.random(len(handles)) < 0.9
            for h in handles[doomed].tolist():
                q.cancel_handle(h)
            survivors += int((~doomed).sum())
        stats = queue_stats(q)
        assert stats["live"] == survivors == len(q)
        # Slab capacity is a function of peak live events, not of the
        # 20k scheduled: with ~90% cancelled it must stay well below the
        # total scheduled count (power-of-two growth from 256).
        assert stats["slab_capacity"] < 20_000
        # The heap compacts dead entries instead of hoarding them.
        assert stats["index_entries"] <= 2 * survivors + 128

    def test_sparse_cancellation_storm_compacts_the_heap(self):
        """The same storm on a population kept at 20 live events: the heap
        must drop its dead entries there too."""
        q = EventQueue()
        rng = np.random.default_rng(12)
        live = []
        for wave in range(200):
            handles = q.post_many(
                rng.uniform(wave, wave + 50.0, size=100), lambda t: None)
            doomed = rng.random(len(handles)) < 0.95
            for h in handles[doomed].tolist():
                q.cancel_handle(h)
            live.extend(handles[~doomed].tolist())
            while len(live) > 20:   # keep the population small
                assert q.cancel_handle(live.pop())
        stats = queue_stats(q)
        assert stats["live"] == len(live) == len(q)
        assert stats["slab_capacity"] <= 256
        assert stats["index_entries"] <= 2 * len(live) + 128

    # Rounds below and above the 128 live events at which the queue once
    # switched from a heap to a time wheel.
    @pytest.mark.parametrize("per_round", [100, 300],
                             ids=["heap", "production"])
    def test_slab_slots_recycled_after_fire(self, per_round):
        """Slots recycle whether a round holds 100 or 300 events."""
        q = EventQueue()
        for round_ in range(50):
            q.post_many(np.linspace(round_, round_ + 0.9, per_round),
                        lambda t: None)
            while q.pop_dispatch() is not None:
                pass
        assert len(q) == 0
        # 50 rounds x per_round events reuse the same slots.
        assert queue_stats(q)["slab_capacity"] <= 512

    @QUEUES
    def test_cancel_after_fire_is_harmless(self, make_queue):
        """A stale handle must never kill the slot's new tenant."""
        q = make_queue()
        first = q.post(1.0, lambda t: None, kind="first")
        assert q.pop_dispatch()[2] == "first"
        assert not q.handle_alive(first)
        # The slot is recycled by the next post; cancelling the fired
        # event must not touch it.
        second = q.post(2.0, lambda t: None, kind="second")
        if make_queue is EventQueue:
            slot = (1 << 32) - 1
            assert second & slot == first & slot and second != first
        assert not q.cancel_handle(first)
        assert q.handle_alive(second)
        assert q.pop_dispatch()[2] == "second"


class TestStructureObservability:
    def test_serving_run_never_leaves_the_sparse_heap(self, monkeypatch):
        """The serve chain keeps one or two events alive: the slab never
        grows past its first 256 slots, and the run ends with an empty
        heap."""
        from repro.elastic import ServingPhase
        from repro.serving import TenantRegistry, serve_workload

        finished = []
        original = Runtime.run

        def run(self, until=None):
            try:
                return original(self, until)
            finally:
                finished.append((self.events_processed,
                                 queue_stats(self.queue)))

        monkeypatch.setattr(Runtime, "run", run)
        report = serve_workload(
            "mlp_synthetic", [ServingPhase(1.0, 2000.0)], pool_devices=4,
            tenants=TenantRegistry.from_spec(
                "prem:class=premium,weight=8,quota=300;flood:share=4"))
        (events, stats), = finished
        assert len(report.records) > 1500 and events > 500
        assert stats == {"live": 0, "slab_capacity": 256, "index_entries": 0}
