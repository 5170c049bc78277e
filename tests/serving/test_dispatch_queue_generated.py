"""The dispatch queues' kept order statistics against reads from scratch.

:class:`repro.serving.DispatchQueue` answers ``oldest_arrival()`` and
``arrival_times()`` from an ascending list it keeps in step with whatever
orders dispatch — an append per in-order arrival, an ``insort`` per requeue
or late push, a ``bisect`` + delete per dispatched request.  The contract is
that nobody can tell: after every operation, on **both** queues, ``len``,
``oldest_arrival()`` and ``list(arrival_times())`` equal what
``tests/oracles/dispatch_queue.py`` recomputes over everything pending
(``min`` / collect-and-sort), and ``take`` hands out the same requests in
the same order as the by-the-book models there.  The walk is built to reach
every bookkeeping branch: waves on both sides of the WFQ queue's 16-request
vectorization threshold, one to three tenants with coincident arrival times
across them, pushes older than what is waiting, crash requeues, launch
times that leave late arrivals behind (the WFQ skip-and-repush branch), and
``clear``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from oracles.dispatch_queue import FifoOracle, WfqOracle
from repro.serving import (
    FifoDispatchQueue,
    Request,
    TenantRegistry,
    WFQDispatchQueue,
)

REGISTRY = TenantRegistry.from_spec("gold:weight=8;silver:weight=3;bulk")
WEIGHTS = {spec.tenant_id: spec.weight for spec in REGISTRY}
# "ghost" is unregistered and None untagged: both ride the default flow.
TENANTS = st.sampled_from(["gold", "silver", "bulk", "ghost", None])
# Gap 0 is the norm at high rates: coincident arrivals, often across tenants.
GAPS = st.sampled_from([0.0, 0.0, 1e-5, 3e-4, 2e-3, 0.05])
EXAMPLE = np.zeros(1)
WAVE_SIZES = st.one_of(st.integers(1, 15), st.integers(16, 40))


def make_queues(kind):
    if kind == "fifo":
        return FifoDispatchQueue(), FifoOracle()
    return WFQDispatchQueue(REGISTRY), WfqOracle(WEIGHTS)


class DispatchQueueMachine(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(["fifo", "wfq"]))
    def setup(self, kind):
        self.queue, self.oracle = make_queues(kind)
        self.now = 0.0
        self.next_id = 0
        self.taken = []  # the last batch handed out, until it is requeued

    def _requests(self, gaps, tenants):
        out = []
        for gap, tenant in zip(gaps, tenants):
            self.now += gap
            out.append(Request(self.next_id, self.now, EXAMPLE, tenant=tenant))
            self.next_id += 1
        return out

    def _both(self, method, *args):
        getattr(self.oracle, method)(*args)
        return getattr(self.queue, method)(*args)

    @rule(gap=GAPS, tenant=TENANTS)
    def push(self, gap, tenant):
        self._both("push", *self._requests([gap], [tenant]))

    @rule(tenant=TENANTS, back=st.floats(0.0, 1.0))
    def push_older_than_what_waits(self, tenant, back):
        late = Request(self.next_id, self.now * back, EXAMPLE, tenant=tenant)
        self.next_id += 1
        self._both("push", late)

    @rule(data=st.data(), n=WAVE_SIZES, bulk=st.sampled_from(["push_wave", "extend"]),
          table=st.lists(TENANTS, min_size=1, max_size=3, unique=True))
    def push_wave(self, data, n, bulk, table):
        gaps = data.draw(st.lists(GAPS, min_size=n, max_size=n))
        tenants = data.draw(st.lists(st.sampled_from(table), min_size=n, max_size=n))
        self._both(bulk, self._requests(gaps, tenants))

    @rule(data=st.data(), max_batch=st.integers(1, 12))
    def take(self, data, max_batch):
        # Launch at a drawn pending arrival (later ones stay behind), before
        # everything, or after everything.
        times = self.oracle.arrival_times()
        launch = data.draw(st.sampled_from(times + [-1.0, self.now + 1.0]))
        expected = self.oracle.take(launch, max_batch)
        batch = self.queue.take(launch, max_batch)
        assert [r.request_id for r in batch] == [r.request_id for r in expected]
        if batch:
            self.taken = batch

    @rule(data=st.data())
    def requeue(self, data):
        # A crash hands back the batch in flight — all of it, as the router
        # does, or part of it.
        keep = data.draw(st.integers(0, len(self.taken)))
        batch, self.taken = self.taken[:keep], []
        self._both("requeue", batch)

    @rule()
    def clear(self):
        self._both("clear")
        self.taken = []

    @invariant()
    def reads_equal_a_recomputation(self):
        assert len(self.queue) == len(self.oracle)
        assert bool(self.queue) == (len(self.oracle) > 0)
        assert list(self.queue.arrival_times()) == self.oracle.arrival_times()
        if len(self.oracle):
            assert self.queue.oldest_arrival() == self.oracle.oldest_arrival()


TestDispatchQueueMachine = DispatchQueueMachine.TestCase
TestDispatchQueueMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)


@pytest.mark.parametrize("kind", ["fifo", "wfq"])
def test_empty_queues_refuse_oldest_arrival_the_same_way(kind):
    queue, oracle = make_queues(kind)
    queue.push(Request(0, 1.0, EXAMPLE))
    queue.take(2.0, 8)
    for empty in (queue, oracle):
        with pytest.raises(IndexError, match="oldest_arrival on an empty queue"):
            empty.oldest_arrival()
    assert list(queue.arrival_times()) == [] and not queue


def _calls(fn) -> int:
    """Python + C calls made by ``fn`` — ``e2e_measure.count_calls``' rule."""
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", ["fifo", "wfq"])
def test_the_reads_cost_the_same_at_any_depth(kind):
    """No O(depth) work is left in the two reads the router makes per plan:
    a 10,000-deep queue answers them in as many calls as a 10-deep one (the
    ``min`` over the heap and the collect-and-sort made one generator step
    per queued request each)."""
    def reads(depth):
        queue, _ = make_queues(kind)
        tenants = ["gold", "bulk", None]
        queue.push_wave([Request(i, i * 1e-4, EXAMPLE, tenant=tenants[i % 3])
                         for i in range(depth)])
        queue.requeue(queue.take(depth * 1e-4, 4))
        return _calls(lambda: (queue.oldest_arrival(), queue.arrival_times()))

    assert reads(10_000) == reads(10) <= 4
