"""The dispatch queue's flows and kept order statistics against the oracles.

:class:`repro.serving.DispatchQueue` holds plain entry tuples in flows —
FIFO runs monotone in arrival time (and, under WFQ, in ``(finish, seq)``)
— and answers ``oldest_arrival()`` and ``arrival_times()`` from an
ascending list it keeps in step with them — an append per in-order arrival,
an ``insort`` per requeue or late push, a ``bisect`` + delete per
dispatched entry.  The contract is that nobody can tell: after every
operation, in **both** orderings, ``len`` (and the ``depth`` attribute the
router reads), ``oldest_arrival()`` and ``list(arrival_times())`` equal
what ``tests/oracles/dispatch_queue.py``
recomputes over everything pending (``min`` / collect-and-sort), and
``take`` hands out the same entries in the same order as the by-the-book
models there.  The walk is built to reach every flow branch: waves of any
length, one to three tenants with coincident arrival times across them,
pushes older than what is waiting (a new flow for their tenant), a late
push behind a head that has not arrived, finish tags tied across tenants
(push order decides), tenants never registered (weight 1.0), crash
requeues and launches that leave arrivals behind them, and ``clear``.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from oracles.dispatch_queue import FifoOracle, WfqOracle, request_id
from repro.serving import DispatchQueue, TenantRegistry

REGISTRY = TenantRegistry.from_spec("gold:weight=8;silver:weight=3;bulk")
WEIGHTS = {spec.tenant_id: spec.weight for spec in REGISTRY}
# "ghost" is unregistered and None untagged: both weigh 1.0.
TENANTS = st.sampled_from(["gold", "silver", "bulk", "ghost", None])
# Gap 0 is the norm at high rates: coincident arrivals, often across tenants.
GAPS = st.sampled_from([0.0, 0.0, 1e-5, 3e-4, 2e-3, 0.05])
EXAMPLE = 0  # a bank row index: the queue never reads it
BATCHES = st.integers(1, 12)


def entry(i, arrival, tenant=None):
    """A queue entry: ``(arrival, request_id, tenant, client, example)``."""
    return (arrival, i, tenant, None, EXAMPLE)


def make_queues(kind):
    if kind == "fifo":
        return DispatchQueue(), FifoOracle()
    return DispatchQueue(REGISTRY), WfqOracle(WEIGHTS)


class DispatchQueueMachine(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(["fifo", "wfq"]))
    def setup(self, kind):
        self.queue, self.oracle = make_queues(kind)
        self.now = 0.0
        self.next_id = 0
        self.taken = []  # the last batch handed out, until it is requeued

    def _entry(self, arrival, tenant):
        self.next_id += 1
        return entry(self.next_id - 1, arrival, tenant)

    def _entries(self, gaps, tenants):
        out = []
        for gap, tenant in zip(gaps, tenants):
            self.now += gap
            out.append(self._entry(self.now, tenant))
        return out

    def _both(self, method, *args):
        getattr(self.oracle, method)(*args)
        return getattr(self.queue, method)(*args)

    def _take(self, launch, max_batch):
        expected = self.oracle.take(launch, max_batch)
        batch = self.queue.take(launch, max_batch)
        assert list(map(request_id, batch)) == list(map(request_id, expected))
        assert batch == expected  # the very entries, untouched
        if batch:
            self.taken = batch

    @rule(gap=GAPS, tenant=TENANTS)
    def push(self, gap, tenant):
        self._both("push_wave", self._entries([gap], [tenant]))

    @rule(tenant=TENANTS, back=st.floats(0.0, 1.0))
    def push_older_than_what_waits(self, tenant, back):
        self._both("push_wave", (self._entry(self.now * back, tenant),))

    @rule(data=st.data(), n=st.integers(1, 40),
          table=st.lists(TENANTS, min_size=1, max_size=3, unique=True))
    def push_wave(self, data, n, table):
        gaps = data.draw(st.lists(GAPS, min_size=n, max_size=n))
        tenants = data.draw(st.lists(st.sampled_from(table), min_size=n, max_size=n))
        self._both("push_wave", self._entries(gaps, tenants))

    @rule(tenant=TENANTS, ahead=st.sampled_from([1e-5, 0.01]),
          max_batch=BATCHES)
    def late_push_behind_a_head_not_yet_arrived(self, tenant, ahead, max_batch):
        """The tenant's flow ends in an arrival after the launch, then a
        push arrives before it: one unsplit FIFO per tenant would hold the
        late push behind that head, past the launch it arrived for."""
        launch = self.now
        self.now += ahead
        self._both("push_wave", (self._entry(self.now, tenant),))
        self._both("push_wave", (self._entry(launch, tenant),))
        self._take(launch, max_batch)

    @rule(order=st.permutations(["gold"] * 8 + ["bulk", "ghost", None]),
          max_batch=BATCHES)
    def finish_tags_tied_across_tenants(self, order, max_batch):
        """From empty, eight gold pushes (weight 8) finish at 1/8 … 1.0 and
        one push each of bulk, ghost and untagged (weight 1) at 1.0: four
        entries tie on finish 1.0 exactly, and push order alone ranks them."""
        self._both("clear")
        self._both("push_wave", [self._entry(self.now, t) for t in order])
        self._take(self.now, max_batch)

    @rule(gap=GAPS)
    def push_a_tenant_never_registered(self, gap):
        """A tenant first seen mid-run weighs 1.0 and its start tag snaps up
        to the virtual time, like any idle tenant's."""
        self.now += gap
        self._both("push_wave",
                   (self._entry(self.now, f"stranger{self.next_id}"),))

    @rule(data=st.data(), max_batch=BATCHES)
    def take(self, data, max_batch):
        # Launch at a drawn pending arrival (later ones stay behind), before
        # everything, or after everything.
        times = self.oracle.arrival_times()
        launch = data.draw(st.sampled_from(times + [-1.0, self.now + 1.0]))
        self._take(launch, max_batch)

    def _requeue_some(self, data, least=0):
        # A crash hands back the batch in flight — all of it, as the router
        # does, or part of it.
        keep = data.draw(st.integers(least, len(self.taken)))
        batch, self.taken = self.taken[:keep], []
        self._both("requeue", batch)
        return batch

    @rule(data=st.data())
    def requeue(self, data):
        self._requeue_some(data)

    @precondition(lambda self: self.taken)
    @rule(data=st.data(), max_batch=BATCHES)
    def requeue_then_launch_before_the_front_arrived(self, data, max_batch):
        """A launch after a requeue that leaves arrivals behind, the front's
        head among them: under FIFO the front and the flow are one sequence,
        so the batch ends there; WFQ goes on to the flows."""
        head = self._requeue_some(data, least=1)[0][0]
        early = [t for t in self.oracle.arrival_times() if t < head]
        self._take(data.draw(st.sampled_from(early + [-1.0])), max_batch)

    @rule()
    def clear(self):
        self._both("clear")
        self.taken = []

    @invariant()
    def reads_equal_a_recomputation(self):
        assert len(self.queue) == len(self.oracle)
        assert self.queue.depth == len(self.queue.arrival_times())
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
    queue.push_wave((entry(0, 1.0),))
    queue.take(2.0, 8)
    for empty in (queue, oracle):
        with pytest.raises(IndexError, match="oldest_arrival on an empty queue"):
            empty.oldest_arrival()
    assert list(queue.arrival_times()) == [] and not queue


@pytest.mark.parametrize("kind,want", [("fifo", []), ("wfq", [1])])
def test_a_front_head_not_yet_arrived(kind, want):
    """Entry 0 arrived after entry 1 but was pushed first; requeued, it
    heads the front at a launch only entry 1 has reached.  FIFO's front and
    flow are one sequence, so nothing dispatches; WFQ goes on to the flows."""
    for queue in make_queues(kind):
        queue.push_wave((entry(0, 1.0),))
        queue.push_wave((entry(1, 0.5),))
        queue.requeue(queue.take(1.0, 1))
        assert list(map(request_id, queue.take(0.5, 8))) == want


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
    a 10,000-deep queue answers them in as many calls as a 10-deep one (a
    ``min`` over the pending entries and a collect-and-sort would make one
    generator step per queued entry each)."""
    def reads(depth):
        queue, _ = make_queues(kind)
        tenants = ["gold", "bulk", None]
        queue.push_wave([entry(i, i * 1e-4, tenants[i % 3])
                         for i in range(depth)])
        queue.requeue(queue.take(depth * 1e-4, 4))
        return _calls(lambda: (queue.oldest_arrival(), queue.arrival_times()))

    assert reads(10_000) == reads(10) <= 4
