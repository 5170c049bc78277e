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
is pending per planned batch.  It keeps the number of entries pending the
same way, as the plain attribute ``depth`` the router reads at every
event.  The overload half of the contract,
:class:`AdmissionPolicy`, is defined here too; its decision kernel is
:func:`repro.serving.admission.decide`, loaded only by a router that sheds.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.serving.tenancy import TenantRegistry

__all__ = ["AdmissionPolicy", "DispatchQueue", "MicroBatchPolicy"]


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


# Below this many arrivals numpy's setup costs more than the loop it saves.
VECTOR_MIN = 32


@dataclass(frozen=True)
class AdmissionPolicy:
    """Load-shedding thresholds evaluated at each request's arrival.

    A new arrival is **shed** (rejected at the door, never queued) when
    either threshold trips:

    * ``max_queue_depth`` — the router already holds that many admitted,
      undispatched requests.  Without a tenant registry the router's
      coalescing pull itself stops filling the queue at ``max_batch``, so
      there a depth threshold trips when set *below* the batch size;
      serving tenants it admits eagerly, so the threshold polices the
      whole backlog;
    * ``max_estimated_wait`` — the deterministic wait estimate (current
      server backlog plus queued-batches-ahead times the last observed
      batch service time) exceeds this many seconds.  Until the first
      batch completes the estimate is zero, so a cold router never
      wait-sheds.

    Requests re-queued after a device failure were already admitted and are
    **never** shed — shedding is an admission decision, not an eviction.

    ``brownout`` additionally halves the router's ``max_batch``/``max_wait``
    whenever the serving lease's capacity is derated below 1.0, so admitted
    requests see smaller, sooner batches while the hardware runs slow.
    """

    max_queue_depth: Optional[int] = None
    max_estimated_wait: Optional[float] = None
    brownout: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_estimated_wait is not None and self.max_estimated_wait <= 0:
            raise ValueError(
                f"max_estimated_wait must be positive, "
                f"got {self.max_estimated_wait}")
        if (self.max_queue_depth is None and self.max_estimated_wait is None
                and not self.brownout):
            raise ValueError("an admission policy needs at least one "
                             "threshold (or brownout)")


class _Tenant:
    """One tenant's weighted-fair state: ``1/weight``, the finish tag of its
    last push, and the flow its next in-order push joins."""

    __slots__ = ("inv", "finish", "flow")

    def __init__(self, inv: float) -> None:
        self.inv = inv
        self.finish = 0.0
        self.flow: Optional[Deque[tuple]] = None


class DispatchQueue:
    """The router's pending-request queue, as an ordering policy.

    What it holds are **entries**: one plain tuple ``(arrival, request_id,
    tenant, client, example)`` per admitted request, built by the arrival
    wave (:meth:`repro.serving.generators.ArrivalWave.entries`); ``example``
    is the request's row index in the source's example bank.  The
    router admits entries with :meth:`push_wave`, asks which arrivals are
    pending (:meth:`oldest_arrival` / :meth:`arrival_times` feed the
    coalescing policy's trigger computation), and drains a micro-batch —
    a list of entries — with :meth:`take`.

    Pending entries sit in **flows**: FIFO runs that are monotone in arrival
    time (and, under WFQ, in ``(finish, seq)``).  Two orderings:

    * **FIFO** (no ``registry``) — one flow that never splits: arrivals
      append, and :meth:`take` pops from its head while the head arrived by
      the launch time.  Sources hand over ascending arrivals, so stopping at
      the first too-late head is exhaustive.
    * **WFQ** (a ``registry`` supplies per-tenant weights) — start-time fair
      queueing: an entry of tenant *i* gets ``start = max(vtime,
      last_finish[i])`` and ``finish = start + 1/weight_i`` when pushed;
      dispatch drains in ascending ``(finish, seq)`` order, ``seq`` being
      the push order, and ``vtime`` rises to the start tag of each
      dispatched entry.  While two tenants are both backlogged, tenant *i*
      receives ``weight_i / sum(weights)`` of the dispatch slots; an idle
      tenant banks nothing.  Unregistered tenants (and untagged entries,
      ``tenant=None``) get weight 1.0.  Each tenant pushes onto its current
      flow; a push that arrived earlier than that flow's tail opens a new
      one, so every flow's not-yet-arrived entries are a suffix and
      :meth:`take` is an exact merge over the arrived flow heads.  With one
      tenant every finish tag exceeds the previous one, so the dispatch
      stream is bit-identical to FIFO — the golden trace suite pins that.

    Crash-requeued entries re-enter via :meth:`requeue` onto a front deque
    and are served strictly first in their original batch order under
    *both* orderings — they were already admitted and dispatched once;
    fairness applies to admission order, not to crash recovery.  Under FIFO
    the front and the flow are one sequence: a front entry that has not
    arrived ends the batch.

    **Order statistics.**  Whatever orders *dispatch*, the queue also keeps
    the pending arrival times as an ascending multiset, so the two reads
    the router makes per planned batch cost nothing per queued entry:
    :meth:`oldest_arrival` is its first element and :meth:`arrival_times`
    is the multiset itself — a *read-only view*, ascending, valid until the
    queue is next mutated.  :meth:`_hold` files what is queued and
    :meth:`_release` forgets what :meth:`take` hands out; both keep
    ``depth``, the number of entries queued, as a plain attribute (the
    router reads it several times per event; ``len(queue)`` is the same
    number).
    """

    def __init__(self, registry: Optional["TenantRegistry"] = None) -> None:
        self._weights: Optional[Dict[Optional[str], float]] = (
            None if registry is None
            else {spec.tenant_id: spec.weight for spec in registry})
        self._arrivals: List[float] = []
        self._front: Deque[tuple] = deque()
        self.clear()

    def _hold(self, entries: Sequence[tuple]) -> None:
        """File the arrival times of newly queued entries.

        Sources hand arrivals over in ascending time, so the append is the
        common case; a crash requeue (older than what is waiting) or an
        out-of-order push pays one binary search and one list insert.
        """
        arrivals = self._arrivals
        for entry in entries:
            t = entry[0]
            if arrivals and t < arrivals[-1]:
                insort(arrivals, t)
            else:
                arrivals.append(t)
        self.depth = len(arrivals)

    def _release(self, batch: Sequence[tuple]) -> None:
        """Forget the arrival times of the entries ``take`` hands out."""
        arrivals = self._arrivals
        self.depth -= len(batch)
        if not self.depth:
            arrivals.clear()  # the batch is everything pending
            return
        for entry in batch:
            del arrivals[bisect_left(arrivals, entry[0])]

    def push_wave(self, requests: Sequence[tuple]) -> None:
        """Queue a whole admitted wave of entries, in order."""
        self._hold(requests)
        if self._weights is None:
            self._flows[0].extend(requests)
            return
        weights, tenants, flows = self._weights, self._tenants, self._flows
        vtime, seq = self._vtime, self._seq
        for entry in requests:
            state = tenants.get(entry[2])
            if state is None:
                state = tenants[entry[2]] = _Tenant(
                    1.0 / weights.get(entry[2], 1.0))
            start = state.finish
            if start < vtime:
                start = vtime
            state.finish = finish = start + state.inv
            flow = state.flow
            if flow is None or (flow and entry[0] < flow[-1][3][0]):
                # A new tenant, or this entry would sit behind a later
                # arrival: a new flow keeps both orders monotone.
                if flow is not None:
                    self._drop_drained()
                flow = state.flow = deque()
                flows.append(flow)
            flow.append((finish, seq, start, entry))
            seq += 1
        self._seq = seq

    def _drop_drained(self) -> None:
        """Forget every drained flow (a split's old flow drains for good);
        a tenant whose current flow went opens a fresh one on its next
        push."""
        for state in self._tenants.values():
            if not state.flow:
                state.flow = None
        self._flows[:] = [flow for flow in self._flows if flow]

    def requeue(self, batch: Sequence[tuple]) -> None:
        self._hold(batch)
        self._front.extendleft(reversed(batch))

    def take(self, launch: float, max_batch: int) -> List[tuple]:
        """Drain up to ``max_batch`` entries that arrived by ``launch``.

        WFQ merges the flows: the next entry is the least ``(finish, seq)``
        among the flow heads that arrived by ``launch`` — a flow whose head
        has not arrived holds nothing that has.
        """
        batch: List[tuple] = []
        front = self._front
        while front and len(batch) < max_batch and front[0][0] <= launch:
            batch.append(front.popleft())
        if self._weights is None:
            flow = self._flows[0]
            if not front:
                for _ in range(max_batch - len(batch)):
                    if not flow or flow[0][0] > launch:
                        break
                    batch.append(flow.popleft())
        else:
            flows, vtime = self._flows, self._vtime
            for _ in range(max_batch - len(batch)):
                best = None
                for flow in flows:
                    # (finish, seq) decides: seq is unique.
                    if (flow and flow[0][3][0] <= launch
                            and (best is None or flow[0] < best[0])):
                        best = flow
                if best is None:
                    break
                _, _, start, entry = best.popleft()
                batch.append(entry)
                if start > vtime:
                    vtime = start
            self._vtime = vtime
        self._release(batch)
        return batch

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
        self.depth = 0
        self._front.clear()
        # FIFO keeps its one flow for good; WFQ flows come and go.
        self._flows: List[Deque[tuple]] = (
            [deque()] if self._weights is None else [])
        self._tenants: Dict[Optional[str], _Tenant] = {}
        self._vtime = 0.0
        self._seq = 0

    def __len__(self) -> int:
        return self.depth
