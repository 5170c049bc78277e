"""Generated interleavings of the event queue's operations, on small and
large live populations.

Every interleaving of ``post`` / ``post_many`` / ``cancel_handle`` /
``handle_alive`` / ``pop_dispatch(until)`` must fire the same
``(time, seq)`` sequence as a sorted-list model *and* the heap model in
``tests/oracles/event_queue.py``, with ``len(queue)`` and
``queue_stats(queue)["live"]`` (``tests/runtime_state.py``) exact after
every step.

One harness applies each operation to the sorted list, the oracle (the
production design without bulk insertion or heap compaction) and two
production queues — one takes each wave through ``post_many``, the other
through a loop of ``post`` — whose handles must equal the oracle's and the
model's sequence numbers, wave or not (a handle is its event's ``seq``).
A hypothesis state machine draws the interleavings, and a seeded walk
steers the population across ``LINE`` live events (where the queue once
switched from a heap to a time wheel) in both directions, with waves,
drains and cancellation storms, so large populations are guaranteed, not
left to the draw.
"""

from __future__ import annotations

import bisect

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oracles.event_queue import HeapQueueOracle
from repro.runtime import EventQueue
from runtime_state import queue_stats

LINE = 128

# A coarse grid (coincident times are the norm, so seq order decides) plus
# a far-future tail and a near-zero outlier.
TIMES = st.one_of(
    st.integers(0, 40).map(lambda k: k / 4.0),
    st.sampled_from([1e3, 1e6, 2.5e-7]),
)


class QueueHarness:
    """A sorted list, the heap oracle and the production queue, in lockstep
    — the latter twice: ``post_loop`` posts each wave one ``post`` at a
    time."""

    def __init__(self) -> None:
        self.queues = {"heap": HeapQueueOracle(), "production": EventQueue(),
                       "post_loop": EventQueue()}
        self.model = []          # live (time, seq), sorted
        self.handles = {}        # seq -> {queue: int handle}; never forgotten
        self.seq = 0
        self.action = lambda t: None  # noqa: E731

    # -- scheduling -----------------------------------------------------------

    def _scheduled(self, time: float, handles) -> None:
        bisect.insort(self.model, (float(time), self.seq))
        self.handles[self.seq] = handles
        self.seq += 1

    def post(self, time: float) -> None:
        handles = {b: q.post(time, self.action) for b, q in self.queues.items()}
        assert set(handles.values()) == {self.seq}
        self._scheduled(time, handles)

    def post_many(self, times) -> None:
        per_backend = {b: q.post_many(times, self.action).tolist()
                       for b, q in self.queues.items() if b != "post_loop"}
        per_backend["post_loop"] = [self.queues["post_loop"].post(t, self.action)
                                    for t in times]
        seqs = list(range(self.seq, self.seq + len(times)))
        assert all(hs == seqs for hs in per_backend.values())
        for i, t in enumerate(times):
            self._scheduled(t, {b: hs[i] for b, hs in per_backend.items()})

    # -- cancellation ---------------------------------------------------------

    def cancel(self, seq: int) -> None:
        """Cancel any handle ever issued — live, fired or already cancelled."""
        live = [e for e in self.model if e[1] == seq]
        for b, q in self.queues.items():
            handle = self.handles[seq][b]
            assert q.handle_alive(handle) == bool(live)
            assert q.cancel_handle(handle) == bool(live)
            assert not q.handle_alive(handle)
        if live:
            self.model.remove(live[0])

    # -- consumption ----------------------------------------------------------

    def pop_dispatch(self, until=None) -> None:
        model = self.model
        expected = None
        if model and (until is None or model[0][0] <= until):
            expected = model.pop(0)
        for q in self.queues.values():
            item = q.pop_dispatch(until)
            assert (None if item is None else item[:2]) == expected

    def drain(self, count: int) -> None:
        for _ in range(count):
            self.pop_dispatch()

    # -- invariants -----------------------------------------------------------

    def check(self) -> None:
        live = len(self.model)
        assert len(self.queues["heap"]) == live
        for name in ("production", "post_loop"):
            stats = queue_stats(self.queues[name])
            assert len(self.queues[name]) == stats["live"] == live
            assert stats["index_entries"] >= live


class QueueMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.h = QueueHarness()

    @rule(time=TIMES)
    def post(self, time):
        self.h.post(time)

    @rule(times=st.lists(TIMES, min_size=1, max_size=8))
    def post_small_wave(self, times):
        self.h.post_many(times)

    @rule(size=st.integers(LINE - 8, 2 * LINE), start=TIMES,
          step=st.sampled_from([0.0, 1e-3, 0.25]))
    def post_big_wave(self, size, start, step):
        self.h.post_many([start + i * step for i in range(size)])

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

    @rule(until=st.one_of(st.none(), TIMES))
    def pop_dispatch(self, until):
        self.h.pop_dispatch(until)

    @rule(count=st.integers(1, 2 * LINE))
    def drain(self, count):
        self.h.drain(count)

    @invariant()
    def counts_exact(self):
        self.h.check()


TestQueueMachine = QueueMachine.TestCase
TestQueueMachine.settings = settings(max_examples=60, stateful_step_count=40,
                                     deadline=None)


def test_seeded_walk_crosses_the_line_in_both_directions():
    """Up over ``LINE`` live events by single posts, by one wave and by a
    wave that lands on a non-empty heap; down by drains and by a
    cancellation storm — in lockstep with both models throughout."""
    rng = np.random.default_rng(7)
    h = QueueHarness()
    queue = h.queues["production"]

    for _ in range(LINE + 1):
        h.post(float(rng.integers(0, 20)))
        h.check()
    h.drain(40)
    h.check()
    h.drain(LINE)
    h.check()
    assert len(queue) == 0

    # One wave far above the line, then a storm down to ten survivors.
    h.post_many(rng.uniform(0.0, 50.0, size=3 * LINE).tolist())
    h.check()
    for seq in [e[1] for e in h.model][10:]:
        h.cancel(seq)
    h.check()
    assert len(queue) == 10
    # Cancelling fired and cancelled handles again changes nothing.
    live = {e[1] for e in h.model}
    for seq in range(0, h.seq, 7):
        if seq not in live:
            h.cancel(seq)
    h.check()
    assert len(queue) == 10

    # A wave that crosses the line on top of a non-empty heap (with stale
    # entries from the cancellations above still inside it).
    for seq in [e[1] for e in h.model][:4]:
        h.cancel(seq)
    h.post_many(rng.uniform(0.0, 50.0, size=LINE).tolist())
    h.check()
    assert len(queue) == LINE + 6
    while h.model:
        h.pop_dispatch(until=float(rng.uniform(0.0, 60.0)))
        h.pop_dispatch()
        h.check()
    h.pop_dispatch()
    assert len(queue) == 0
