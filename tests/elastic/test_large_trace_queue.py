"""A large elastic trace on the production event queue and on the reference
model.

The largest golden fixture schedules 20 jobs, so no golden run ever holds
more than a few dozen live events.  ``repro simulate`` with a few hundred
jobs posts its whole arrival wave at start-up and then keeps well over 128
events live — the one production path with a population that large.  This
run must come out the same, to the event, on ``EventQueue`` and on the
``(time, seq)`` heap model in ``tests/oracles/event_queue.py``.

It is also the largest pinned elastic run, and the goldens stop at 20 jobs.
Only a long trace separates the jobs that have arrived from those still
live (at 600 jobs an average wake finds 447 arrived, 297 live), so its full
result and its event timeline are pinned by hash under both schedulers.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from golden.capture_golden import sim_to_dict
from oracles.event_queue import HeapQueueOracle
from repro.elastic import (ClusterSimulator, ElasticWFSScheduler,
                           StaticPriorityScheduler, TrainingClusterProcess,
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


# sha256 of the sorted-key JSON of ``sim_to_dict``, and of the ``trace=``
# timeline's bytes, for the 150-job trace on 64 GPUs.
PINNED = {
    "wfs": (ElasticWFSScheduler,
            "a21371d1172b7280201bbbb35826f8aa1fecdc12a23e0980f9fd7593d835347e",
            "d9eee75586a2bffd6a3d5cd8408f6c256a09d31edd83052506cd2c560e48e7c4"),
    "static": (StaticPriorityScheduler,
               "d57312d95c1e30f2c5971c9f9af0ca6312c158ffeb8ba91b2178213f99eecf2b",
               "712e4c914f432827a52c2a86861992533be064d91dc56134afebafca6758007f"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_150_job_result_and_timeline_are_pinned(name, tmp_path):
    scheduler, result_sha, timeline_sha = PINNED[name]
    path = tmp_path / "timeline.jsonl"
    result = ClusterSimulator(64, scheduler()).run(
        generate_trace(150, 600.0, seed=0), trace=str(path))
    blob = json.dumps(sim_to_dict(result), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == result_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == timeline_sha
