"""A large elastic trace on the production event queue and on the reference
model.

The largest golden fixture schedules 20 jobs, so no golden run ever holds
more than a few dozen live events.  ``repro simulate`` with a few hundred
jobs posts its whole arrival wave at start-up and then keeps well over 128
events live — the one production path with a population that large.  This
run must come out the same, to the event, on ``EventQueue`` and on the
``(time, seq)`` heap model in ``tests/oracles/event_queue.py``.
"""

from __future__ import annotations

from oracles.event_queue import HeapQueueOracle
from repro.elastic import (ElasticWFSScheduler, TrainingClusterProcess,
                           generate_trace)
from repro.runtime import DevicePool, Runtime


class PeakCountingOracle(HeapQueueOracle):
    """The reference model, remembering its largest live population.

    ``post_many`` schedules through ``post`` one event at a time, so the
    peak is counted after every event either of them posts."""

    def __init__(self) -> None:
        super().__init__()
        self.peak = 0

    def post(self, time, action, *, kind="event", actor="runtime"):
        handle = super().post(time, action, kind=kind, actor=actor)
        self.peak = max(self.peak, len(self))
        return handle


def _simulate(queue=None):
    process = TrainingClusterProcess(
        generate_trace(150, 600.0, seed=0), ElasticWFSScheduler(),
        gpu_budget=64, pool=DevicePool(64))
    runtime = Runtime()
    if queue is not None:
        runtime.queue = queue   # before add(): start() reads the queue
    runtime.add(process)
    runtime.run()
    assert not process.unfinished()
    return process.result(), runtime.events_processed


def test_a_150_job_trace_matches_the_reference_queue():
    oracle = PeakCountingOracle()
    (want, want_events), (got, got_events) = _simulate(oracle), _simulate()
    assert oracle.peak > 128  # the population really is that large
    assert {i: j.finish_time for i, j in got.jobs.items()} \
        == {i: j.finish_time for i, j in want.jobs.items()}
    assert got.makespan == want.makespan
    assert got_events == want_events
