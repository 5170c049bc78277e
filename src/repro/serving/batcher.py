"""The micro-batching policy: when does a waiting queue become a batch?

Dynamic batching trades latency for throughput: a fuller batch amortizes the
per-wave fixed cost (the perf model's ``alpha``), but every admitted request
waits for the batch to launch.  :class:`MicroBatchPolicy` is the standard
``max_batch`` / ``max_wait`` contract used by production serving layers:

* launch as soon as ``max_batch`` requests are queued, and
* never hold the oldest request longer than ``max_wait`` seconds,
* but never launch before the (single) serving pipeline is free.

The policy object is pure arithmetic over arrival times — the router owns
the event loop and the interaction with the request source.  The arrival
times it reads come from the :class:`DispatchQueue`, which guarantees them
as kept order statistics: ``oldest_arrival()`` and ``arrival_times()`` cost
the same at any queue depth, because the queue maintains the ascending
list on every push, requeue and take instead of scanning or sorting what
is pending per planned batch.  The overload half of the contract
(:class:`~repro.serving.admission.AdmissionPolicy`, re-exported here) lives
with its decision kernel in :mod:`repro.serving.admission`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.serving.admission import AdmissionPolicy

if TYPE_CHECKING:
    from repro.serving.request import Request
    from repro.serving.tenancy import TenantRegistry

__all__ = ["AdmissionPolicy", "DispatchQueue", "FifoDispatchQueue",
           "MicroBatchPolicy", "WFQDispatchQueue"]


@dataclass(frozen=True)
class MicroBatchPolicy:
    """The ``max_batch`` / ``max_wait`` coalescing contract."""

    max_batch: int = 8
    max_wait: float = 0.002  # seconds

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")

    def deadline(self, first_arrival: float) -> float:
        """Latest launch time the oldest queued request tolerates."""
        return first_arrival + self.max_wait

    def trigger_time(self, arrivals: Sequence[float]) -> float:
        """When a queue with the given arrival times triggers a launch.

        ``arrivals`` are the known queued arrival times in FCFS order (the
        router has already pulled every arrival that could affect this
        decision).  The batch fills at the ``max_batch``-th arrival; an
        underfull queue launches at the oldest request's deadline.
        """
        if not arrivals:
            raise ValueError("cannot compute a trigger time for an empty queue")
        if len(arrivals) >= self.max_batch:
            return arrivals[self.max_batch - 1]
        return self.deadline(arrivals[0])


class DispatchQueue:
    """The router's pending-request queue, as an ordering policy.

    The router admits requests, asks the queue which arrivals are pending
    (:meth:`oldest_arrival` / :meth:`arrival_times` feed the coalescing
    policy's trigger computation), and drains a micro-batch with
    :meth:`take`.  Two implementations: :class:`FifoDispatchQueue`
    reproduces the original single-stream deque bit-for-bit, and
    :class:`WFQDispatchQueue` orders dispatch by weighted-fair virtual-time
    finish tags so a flooding tenant cannot starve the others.

    Crash-requeued requests re-enter via :meth:`requeue` and are served
    strictly first in their original batch order under *both* policies —
    they were already admitted and dispatched once; fairness applies to
    admission order, not to crash recovery.

    **Order statistics.**  Whatever structure orders *dispatch*, the queue
    also keeps the pending arrival times as an ascending multiset, so the
    two reads the router makes per planned batch cost nothing per queued
    request: :meth:`oldest_arrival` is its first element and
    :meth:`arrival_times` is the multiset itself — a *read-only view*,
    ascending, valid until the queue is next mutated.  The base class owns
    that list and the only two spellings of its upkeep: a subclass calls
    :meth:`_hold` with whatever it queues (``push``, ``push_wave``,
    ``extend``, ``requeue``) and :meth:`_release` with the batch ``take``
    is about to return, and chains ``clear``.  Both implementations raise
    the same :class:`IndexError` from :meth:`oldest_arrival` on an empty
    queue.
    """

    def __init__(self) -> None:
        self._arrivals: List[float] = []

    def _hold(self, requests: Iterable["Request"]) -> None:
        """File the arrival times of newly queued requests.

        Sources hand arrivals over in ascending time, so the append is the
        common case; a crash requeue (older than what is waiting) or an
        out-of-order push pays one binary search and one list insert.
        """
        arrivals = self._arrivals
        for r in requests:
            t = r.arrival_time
            if arrivals and t < arrivals[-1]:
                insort(arrivals, t)
            else:
                arrivals.append(t)

    def _release(self, batch: Iterable["Request"]) -> None:
        """Forget the arrival times of the requests ``take`` hands out."""
        arrivals = self._arrivals
        for r in batch:
            del arrivals[bisect_left(arrivals, r.arrival_time)]

    def push(self, request: "Request") -> None:
        raise NotImplementedError

    def extend(self, requests: Sequence["Request"]) -> None:
        for r in requests:
            self.push(r)

    def push_wave(self, requests: Sequence["Request"]) -> None:
        """Queue a whole admitted wave at once.

        Semantically identical to pushing each request in order; queue
        implementations override this to batch the bookkeeping (the WFQ
        queue computes the wave's finish tags vectorized and restores the
        heap invariant once instead of per push).
        """
        self.extend(requests)

    def requeue(self, batch: Sequence["Request"]) -> None:
        raise NotImplementedError

    def take(self, launch: float, max_batch: int) -> List["Request"]:
        """Drain up to ``max_batch`` requests that arrived by ``launch``."""
        raise NotImplementedError

    def oldest_arrival(self) -> float:
        """The earliest queued arrival time (the deadline anchor)."""
        if not self._arrivals:
            raise IndexError("oldest_arrival on an empty queue")
        return self._arrivals[0]

    def arrival_times(self) -> Sequence[float]:
        """All queued arrival times, ascending (the trigger-time input).

        The queue's own list, not a copy: read it, do not keep or change it.
        """
        return self._arrivals

    def clear(self) -> None:
        self._arrivals.clear()

    def __len__(self) -> int:
        return len(self._arrivals)


class FifoDispatchQueue(DispatchQueue):
    """Strict arrival-order dispatch — the pre-tenancy router behaviour.

    A thin wrapper over a deque: arrivals append, crash requeues prepend,
    and :meth:`take` pops from the head while the head arrived by the
    launch time.  Because both the source and the requeue path keep the
    deque sorted by arrival time, stopping at the first too-late head is
    exhaustive.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque["Request"] = deque()

    def push(self, request: "Request") -> None:
        self._hold((request,))
        self._queue.append(request)

    def extend(self, requests: Sequence["Request"]) -> None:
        self._hold(requests)
        self._queue.extend(requests)

    def requeue(self, batch: Sequence["Request"]) -> None:
        self._hold(batch)
        for r in reversed(batch):
            self._queue.appendleft(r)

    def take(self, launch: float, max_batch: int) -> List["Request"]:
        batch: List["Request"] = []
        while (self._queue and len(batch) < max_batch
               and self._queue[0].arrival_time <= launch):
            batch.append(self._queue.popleft())
        self._release(batch)
        return batch

    def clear(self) -> None:
        super().clear()
        self._queue.clear()


class WFQDispatchQueue(DispatchQueue):
    """Weighted fair queueing over tenants, via virtual-time finish tags.

    Start-time fair queueing (SFQ): a request from tenant *i* gets
    ``start = max(vtime, last_finish[i])`` and
    ``finish = start + 1/weight_i``; dispatch drains in ascending
    ``(finish, seq)`` order, and ``vtime`` advances to the start tag of the
    last dispatched request.  While two tenants are both backlogged, tenant
    *i* receives ``weight_i / sum(weights)`` of the dispatch slots; an idle
    tenant banks nothing (its next start tag snaps up to ``vtime``).

    Determinism and the single-tenant identity: tags are pure arithmetic
    over arrival order, ties break on the push sequence number, and with
    one tenant every finish tag exceeds the previous one — so tag order
    *is* arrival order and the dispatch stream is bit-identical to
    :class:`FifoDispatchQueue`.  That identity is pinned by the golden
    trace suite.

    ``registry`` supplies per-tenant weights; requests from unregistered
    tenants (and untagged requests, ``tenant=None``) share a default
    weight-1.0 flow.
    """

    def __init__(self, registry: Optional["TenantRegistry"] = None) -> None:
        super().__init__()
        self._weights: Dict[Optional[str], float] = {}
        if registry is not None:
            for spec in registry:
                self._weights[spec.tenant_id] = spec.weight
        # (finish, seq, start, request) — heapq orders by finish then seq.
        self._heap: List[Tuple[float, int, float, "Request"]] = []
        self._front: Deque["Request"] = deque()
        self._vtime = 0.0
        self._last_finish: Dict[Optional[str], float] = {}
        self._seq = 0

    def push(self, request: "Request") -> None:
        self._hold((request,))
        self._tag(request)

    def _tag(self, request: "Request") -> None:
        """Stamp one request's start/finish tags and file it on the heap."""
        weight = self._weights.get(request.tenant, 1.0)
        start = max(self._vtime, self._last_finish.get(request.tenant, 0.0))
        finish = start + 1.0 / weight
        self._last_finish[request.tenant] = finish
        heapq.heappush(self._heap, (finish, self._seq, start, request))
        self._seq += 1

    def push_wave(self, requests: Sequence["Request"]) -> None:
        """Push a whole admitted wave with one tag pass per tenant.

        Within one wave a tenant's finish tags follow the pure recurrence
        ``f_j = f_{j-1} + 1/weight`` seeded at ``max(vtime, last_finish)``
        (``vtime`` only moves on dispatch), so the wave's tags per tenant
        are one scalar seed plus a ``cumsum`` — the same left-fold float
        adds :meth:`push` performs, hence bit-identical tags.  Sequence
        numbers are assigned in wave order across tenants, and the heap
        invariant is restored once (heapify) when that is cheaper than
        per-entry pushes; pop order is unaffected either way because
        ``(finish, seq)`` keys are unique.
        """
        self._hold(requests)
        n = len(requests)
        if n < 16:
            for r in requests:
                self._tag(r)
            return
        groups: Dict[Optional[str], List[int]] = {}
        for j, r in enumerate(requests):
            group = groups.get(r.tenant)
            if group is None:
                groups[r.tenant] = [j]
            else:
                group.append(j)
        seq0 = self._seq
        vtime = self._vtime
        heap = self._heap
        entries: List[Tuple[float, int, float, "Request"]] = []
        for tenant, positions in groups.items():
            k = len(positions)
            inv = 1.0 / self._weights.get(tenant, 1.0)
            s0 = max(vtime, self._last_finish.get(tenant, 0.0))
            incs = np.full(k, inv)
            incs[0] = s0 + inv
            finishes = np.cumsum(incs)
            starts = np.empty(k)
            starts[0] = s0
            if k > 1:
                np.maximum(vtime, finishes[:-1], out=starts[1:])
            self._last_finish[tenant] = float(finishes[-1])
            entries.extend(
                zip(finishes.tolist(),
                    (seq0 + j for j in positions),
                    starts.tolist(),
                    (requests[j] for j in positions)))
        self._seq = seq0 + n
        # Pick the cheaper way to restore the heap invariant; the popped
        # order is identical either way (all keys are distinct).
        if 2 * (len(heap) + n) < n * max(1.0, math.log2(len(heap) + n)):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)

    def requeue(self, batch: Sequence["Request"]) -> None:
        self._hold(batch)
        for r in reversed(batch):
            self._front.appendleft(r)

    def take(self, launch: float, max_batch: int) -> List["Request"]:
        batch: List["Request"] = []
        while (self._front and len(batch) < max_batch
               and self._front[0].arrival_time <= launch):
            batch.append(self._front.popleft())
        skipped: List[Tuple[float, int, float, "Request"]] = []
        while self._heap and len(batch) < max_batch:
            entry = heapq.heappop(self._heap)
            if entry[3].arrival_time <= launch:
                batch.append(entry[3])
                self._vtime = max(self._vtime, entry[2])
            else:
                # Not yet arrived at this launch time: keep its tags so it
                # rejoins the heap at exactly the same rank.
                skipped.append(entry)
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        self._release(batch)
        return batch

    def clear(self) -> None:
        super().clear()
        self._heap.clear()
        self._front.clear()
        self._vtime = 0.0
        self._last_finish.clear()
        self._seq = 0
