"""The discrete-event core: queue ordering, cancellation, the runtime's
clock and loop."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.runtime import EventQueue, EventTrace, Runtime, read_trace


class TestEventQueue:
    @staticmethod
    def _drain(q):
        kinds = []
        while (item := q.pop_dispatch()) is not None:
            time, _seq, kind, _actor, action = item
            action(time)
            kinds.append(kind)
        return kinds

    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.post(2.0, lambda t: fired.append("b"))
        q.post(1.0, lambda t: fired.append("a"))
        q.post(3.0, lambda t: fired.append("c"))
        self._drain(q)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        for i in range(5):
            q.post(1.0, lambda t: None, kind=str(i))
        # FIFO among simultaneous events.
        assert self._drain(q) == ["0", "1", "2", "3", "4"]

    def test_cancellation_is_invisible_to_pop(self):
        q = EventQueue()
        q.post(1.0, lambda t: None, kind="keep")
        dead = q.post(0.5, lambda t: None, kind="dead")
        assert q.cancel_handle(dead)
        assert len(q) == 1
        assert q.pop_dispatch()[2] == "keep"
        assert q.pop_dispatch() is None

    def test_rejects_non_finite_times(self):
        q = EventQueue()
        for bad in (float("inf"), float("-inf"), float("nan"),
                    np.float64("nan"), np.float64("inf")):
            with pytest.raises(ValueError, match="event time must be finite"):
                q.post(bad, lambda t: None)
            with pytest.raises(ValueError):
                q.post_many([1.0, bad], lambda t: None)
        assert len(q) == 0
        # An int or numpy time is stored as the plain float it equals: the
        # timeline spells "t" with that float's repr.
        q.post(3, lambda t: None)
        q.post(np.float64(2.5), lambda t: None)
        popped = [q.pop_dispatch()[0] for _ in range(2)]
        assert [(type(t), repr(t)) for t in popped] == [
            (float, "2.5"), (float, "3.0")]


class TestRuntime:
    def test_clock_follows_events(self):
        rt = Runtime()
        seen = []
        rt.queue.post(2.0, lambda t: seen.append(rt.now))
        rt.queue.post(1.0, lambda t: seen.append(rt.now))
        assert rt.run() == 2
        assert seen == [1.0, 2.0]
        assert rt.now == 2.0

    def test_actions_can_schedule_more_events(self):
        rt = Runtime()
        fired = []

        def chain(t):
            fired.append(t)
            if len(fired) < 3:
                rt.queue.post(rt.now + 1.0, chain)

        rt.queue.post(0.0, chain)
        rt.run()
        assert fired == [0.0, 1.0, 2.0]

    def test_same_instant_events_fire_after_queued_peers(self):
        rt = Runtime()
        order = []
        rt.queue.post(1.0, lambda t: (
            order.append("first"),
            rt.queue.post(1.0, lambda t2: order.append("third"))))
        rt.queue.post(1.0, lambda t: order.append("second"))
        rt.run()
        assert order == ["first", "second", "third"]

    def test_until_bound_is_inclusive(self):
        rt = Runtime()
        fired = []
        rt.queue.post(1.0, lambda t: fired.append(t))
        rt.queue.post(2.0, lambda t: fired.append(t))
        rt.run(until=1.0)
        assert fired == [1.0]
        rt.run()
        assert fired == [1.0, 2.0]

    def test_stop_ends_the_loop(self):
        rt = Runtime()
        fired = []
        rt.queue.post(1.0, lambda t: (fired.append(t), rt.stop()))
        rt.queue.post(2.0, lambda t: fired.append(t))
        rt.run()
        assert fired == [1.0]

    def test_stop_before_run_prevents_the_loop(self):
        # A process that drains during registration may stop the runtime
        # before run() is ever called; the loop must honor that.
        rt = Runtime()
        rt.queue.post(1.0, lambda t: pytest.fail("must not fire"))
        rt.stop()
        assert rt.run() == 0

    def test_process_protocol_seeds_events(self):
        class Pinger:
            name = "pinger"

            def __init__(self):
                self.fired = []

            def start(self, runtime):
                runtime.queue.post(0.5, lambda t: self.fired.append(t),
                                   actor=self.name)

        rt = Runtime()
        ping = Pinger()
        rt.add(ping)
        rt.run()
        assert ping.fired == [0.5]

    def test_clock_cannot_run_backwards(self):
        """``run()`` owns the clock: a queue that hands back an earlier
        time than the last event's is a scheduling bug, and the loop
        refuses it instead of moving ``now`` backwards."""
        fired = []
        items = [(1.0, 2, "late", "a", fired.append),
                 (1.5, 1, "tie", "a", fired.append),
                 (1.5, 0, "first", "a", fired.append)]

        class Rewinding:
            def pop_dispatch(self, until=None):
                return items.pop() if items else None

        rt = Runtime()
        rt.queue = Rewinding()
        with pytest.raises(RuntimeError, match="backwards"):
            rt.run()
        assert fired == [1.5, 1.5]  # the same instant twice is fine
        assert rt.now == 1.5 and rt.events_processed == 2


class TestEventTrace:
    def test_journals_fired_events_as_jsonl(self):
        buf = io.StringIO()
        rt = Runtime(trace=EventTrace(buf))
        rt.queue.post(1.0, lambda t: {"detail": 7}, kind="ping", actor="test")
        rt.queue.post(2.0, lambda t: None, kind="pong", actor="test")
        rt.run()
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [ln["kind"] for ln in lines] == ["ping", "pong"]
        assert lines[0] == {"t": 1.0, "seq": 0, "kind": "ping",
                            "actor": "test", "data": {"detail": 7}}
        assert lines[1]["data"] == {}

    def test_cancelled_events_never_reach_the_trace(self):
        buf = io.StringIO()
        rt = Runtime(trace=EventTrace(buf))
        rt.queue.cancel_handle(rt.queue.post(1.0, lambda t: None, kind="dead"))
        rt.queue.post(2.0, lambda t: None, kind="live")
        rt.run()
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [ln["kind"] for ln in lines] == ["live"]

    def test_path_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "timeline.jsonl")
        with EventTrace(path) as trace:
            rt = Runtime(trace=trace)
            rt.queue.post(0.25, lambda t: {"x": 1}, kind="k", actor="a")
            rt.run()
        events = read_trace(path)
        assert events == [{"t": 0.25, "seq": 0, "kind": "k", "actor": "a",
                           "data": {"x": 1}}]
