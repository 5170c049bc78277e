"""Generated interleavings across the event queue's population rule.

The queue keeps a population that would not fill one wheel bucket
(``_CalendarIndex._TARGET_OCC`` live events) in a plain heap, promotes onto
the wheel when an insert crosses that line and collapses back on a rebuild
or drain that finds it under the line again.  None of that may be
observable: every interleaving of ``push`` / ``post`` / ``post_many`` /
``cancel_handle`` / ``pop`` / ``pop_dispatch(until)`` must fire the same
``(time, seq)`` sequence as a sorted-list model *and* the heap model in
``tests/oracles/event_queue.py``, with ``len(queue)`` and
``debug_stats()["live"]`` exact after every step.

One harness applies each operation to the sorted list, the oracle and the
production queue; a hypothesis state machine draws the interleavings, and a
seeded walk steers the population across the line in both directions so the
crossings are guaranteed, not left to the draw.
"""

from __future__ import annotations

import bisect

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oracles.event_queue import HeapQueueOracle
from repro.runtime import EventQueue, Runtime, batch_action
from repro.runtime.core import _CalendarIndex

THRESHOLD = _CalendarIndex._TARGET_OCC

# A coarse grid (coincident times are the norm, so seq order decides) plus
# a far-future tail that stretches the wheel's span.
TIMES = st.one_of(
    st.integers(0, 40).map(lambda k: k / 4.0),
    st.sampled_from([1e3, 1e6, 2.5e-7]),
)


class QueueHarness:
    """A sorted list, the heap oracle and the production queue, in lockstep."""

    def __init__(self) -> None:
        self.queues = {"heap": HeapQueueOracle(), "calendar": EventQueue()}
        self.model = []          # live (time, seq, batched), sorted
        self.handles = {}        # seq -> {queue: int handle, or the Event
        #                          push() returned}; never forgotten
        self.seq = 0
        self.scalar = lambda t: None  # noqa: E731
        self.batched = batch_action(lambda times: None)

    # -- scheduling -----------------------------------------------------------

    def _scheduled(self, time: float, batched: bool, handles) -> None:
        bisect.insort(self.model, (float(time), self.seq, batched))
        self.handles[self.seq] = handles
        self.seq += 1

    def _action(self, batched: bool):
        return self.batched if batched else self.scalar

    def push(self, time: float, batched: bool) -> None:
        events = {b: q.push(time, self._action(batched))
                  for b, q in self.queues.items()}
        assert {e.seq for e in events.values()} == {self.seq}
        self._scheduled(time, batched, events)

    def post(self, time: float, batched: bool) -> None:
        self._scheduled(time, batched,
                        {b: q.post(time, self._action(batched))
                         for b, q in self.queues.items()})

    def post_many(self, times, batched: bool) -> None:
        per_backend = {b: q.post_many(times, self._action(batched)).tolist()
                       for b, q in self.queues.items()}
        for i, t in enumerate(times):
            self._scheduled(t, batched,
                            {b: hs[i] for b, hs in per_backend.items()})

    # -- cancellation ---------------------------------------------------------

    def cancel(self, seq: int) -> None:
        """Cancel any handle ever issued — live, fired or already cancelled."""
        live = [e for e in self.model if e[1] == seq]
        for b, q in self.queues.items():
            handle = self.handles[seq][b]
            if isinstance(handle, int):
                assert q.handle_alive(handle) == bool(live)
                assert q.cancel_handle(handle) == bool(live)
                assert not q.handle_alive(handle)
            else:   # scheduled by push(): the Event object is the handle
                assert handle.alive == bool(live)
                handle.cancel()
                assert not handle.alive
        if live:
            self.model.remove(live[0])

    # -- consumption ----------------------------------------------------------

    def pop(self) -> None:
        expected = self.model.pop(0)[:2] if self.model else None
        for q in self.queues.values():
            event = q.pop()
            assert (None if event is None
                    else (event.time, event.seq)) == expected

    def _expected_dispatch(self, until):
        model = self.model
        if not model or (until is not None and model[0][0] > until):
            return None
        if not model[0][2]:
            return [model.pop(0)[:2]]
        run = []
        while model and model[0][2] and (until is None
                                         or model[0][0] <= until):
            run.append(model.pop(0)[:2])
        return run

    def pop_dispatch(self, until=None) -> None:
        expected = self._expected_dispatch(until)
        for q in self.queues.values():
            item = q.pop_dispatch(until)
            if item is None:
                assert expected is None
                continue
            times, seqs, _kind, _actor, _action, batched = item
            if batched:
                fired = list(zip(times.tolist(), seqs.tolist()))
            else:
                fired = [(times, seqs)]
            assert fired == expected

    def drain(self, count: int) -> None:
        for _ in range(count):
            self.pop_dispatch()

    # -- invariants -----------------------------------------------------------

    def check(self) -> None:
        live = len(self.model)
        assert len(self.queues["heap"]) == live
        stats = self.queues["calendar"].debug_stats()
        assert len(self.queues["calendar"]) == stats["live"] == live
        assert stats["index_entries"] >= live
        if stats["structure"] == "wheel":
            # The wheel is only ever entered above the line.
            assert stats["promotions"] >= 1


class QueueMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.h = QueueHarness()

    @rule(time=TIMES, batched=st.booleans())
    def push(self, time, batched):
        self.h.push(time, batched)

    @rule(time=TIMES, batched=st.booleans())
    def post(self, time, batched):
        self.h.post(time, batched)

    @rule(times=st.lists(TIMES, min_size=1, max_size=8), batched=st.booleans())
    def post_small_wave(self, times, batched):
        self.h.post_many(times, batched)

    @rule(size=st.integers(THRESHOLD - 8, 2 * THRESHOLD), start=TIMES,
          step=st.sampled_from([0.0, 1e-3, 0.25]), batched=st.booleans())
    def post_big_wave(self, size, start, step, batched):
        self.h.post_many([start + i * step for i in range(size)], batched)

    @rule(data=st.data())
    def cancel(self, data):
        if self.h.seq:
            self.h.cancel(data.draw(st.integers(0, self.h.seq - 1)))

    @rule(data=st.data(), share=st.floats(0.1, 1.0))
    def cancel_storm(self, data, share):
        live = [e[1] for e in self.h.model]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        for seq in live:
            if rng.random() < share:
                self.h.cancel(seq)

    @rule()
    def pop(self):
        self.h.pop()

    @rule(until=st.one_of(st.none(), TIMES))
    def pop_dispatch(self, until):
        self.h.pop_dispatch(until)

    @rule(count=st.integers(1, 2 * THRESHOLD))
    def drain(self, count):
        self.h.drain(count)

    @invariant()
    def counts_exact(self):
        self.h.check()


TestQueueMachine = QueueMachine.TestCase
TestQueueMachine.settings = settings(max_examples=60, stateful_step_count=40,
                                     deadline=None)


def test_seeded_walk_crosses_the_line_in_both_directions():
    """Up over the line by single posts, by one wave and by a wave that
    lands on a non-empty heap; down by drain and by a cancellation storm."""
    rng = np.random.default_rng(7)
    h = QueueHarness()
    calendar = h.queues["calendar"]

    def structure():
        return calendar.debug_stats()["structure"]

    def crossings():
        stats = calendar.debug_stats()
        return stats["promotions"], stats["collapses"]

    # At the line, still sparse; one more post promotes.
    for _ in range(THRESHOLD):
        h.post(float(rng.integers(0, 20)), batched=bool(rng.random() < 0.3))
        h.check()
    assert structure() == "heap" and crossings() == (0, 0)
    h.post(3.0, batched=False)
    assert structure() == "wheel" and crossings() == (1, 0)
    # Draining below the line does not collapse by itself (no thrash at the
    # boundary) ...
    h.drain(40)
    h.check()
    assert structure() == "wheel"
    # ... a full drain does.
    h.drain(THRESHOLD)
    h.check()
    assert len(calendar) == 0
    assert structure() == "heap" and crossings() == (1, 1)

    # One wave above the line goes straight onto the wheel.
    h.post_many(rng.uniform(0.0, 50.0, size=3 * THRESHOLD).tolist(),
                batched=True)
    h.check()
    assert structure() == "wheel" and crossings() == (2, 1)
    # A cancellation storm forces a rebuild that finds a sparse population.
    for seq in [e[1] for e in h.model][10:]:
        h.cancel(seq)
    h.check()
    assert len(calendar) == 10
    assert structure() == "heap" and crossings() == (2, 2)
    # Cancelling fired and cancelled handles again changes nothing.
    live = {e[1] for e in h.model}
    for seq in range(0, h.seq, 7):
        if seq not in live:
            h.cancel(seq)
    h.check()
    assert len(calendar) == 10

    # A wave that crosses the line on top of a non-empty heap (with stale
    # entries from the cancellations above still inside it).
    for seq in [e[1] for e in h.model][:4]:
        h.cancel(seq)
    h.post_many(rng.uniform(0.0, 50.0, size=THRESHOLD).tolist(),
                batched=False)
    h.check()
    assert structure() == "wheel" and crossings() == (3, 2)
    while h.model:
        h.pop_dispatch(until=float(rng.uniform(0.0, 60.0)))
        h.pop()
        h.check()
    h.pop()  # the drain is noticed by the peek that finds nothing
    assert structure() == "heap" and crossings() == (3, 3)


def test_batch_run_spanning_a_promotion_matches_the_heap_oracle():
    """A batch action whose run starts sparse and schedules the wave that
    promotes the queue: run boundaries and order equal the oracle's."""

    def run(make_queue):
        rt = Runtime()
        rt.queue = make_queue()
        fired = []

        @batch_action
        def on_wave(times):
            fired.append(("wave", times.tolist()))
            if len(fired) == 1:
                # Posted from inside the first (sparse) run: crosses the line.
                rt.post_many(np.linspace(0.9, 9.5, 3 * THRESHOLD), on_wave)
                rt.post(4.0, lambda t: fired.append(("tick", t)))

        rt.post_many(np.linspace(0.0, 1.0, THRESHOLD // 2), on_wave)
        rt.post(0.75, lambda t: fired.append(("tick", t)))
        rt.run()
        return fired, rt.queue

    (heap_fired, _), (cal_fired, queue) = run(HeapQueueOracle), run(EventQueue)
    stats = queue.debug_stats()
    assert cal_fired == heap_fired
    assert sum(len(item[1]) for item in cal_fired if item[0] == "wave") \
        == THRESHOLD // 2 + 3 * THRESHOLD
    assert stats["promotions"] == 1 and stats["structure"] == "heap"
