"""The dispatch queue's two orderings, with every read done from scratch.

Two plain models of :class:`repro.serving.DispatchQueue`'s contract — what
is pending, in which order it is dispatched, and the two order statistics
the router reads per planned batch — written the way the production queue
answered those reads before it kept them up to date: ``oldest_arrival``
is a ``min`` over everything pending, ``arrival_times`` collects every
pending arrival time and sorts.  Nothing is maintained between calls.

* :class:`FifoOracle` — a list in dispatch order: arrivals at the back,
  crash requeues at the front, ``take`` pops from the head while the head
  arrived by the launch time.
* :class:`WfqOracle` — start-time fair queueing by the book: a request of
  tenant *i* gets ``start = max(vtime, last_finish[i])`` and ``finish =
  start + 1/weight_i`` when it is pushed; ``take`` walks the tagged requests
  in ascending ``(finish, push order)``, dispatches those that arrived by
  the launch time (``vtime`` rises to their start tag) and leaves the rest
  where they are; crash requeues go first, in their batch order.

Queue entries (``(arrival, request_id, tenant, client, example)`` tuples)
are read through :func:`arrival` and :func:`tenant` only; a wave is the same
as its entries pushed one at a time.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["FifoOracle", "WfqOracle", "arrival", "request_id", "tenant"]

# The fields of a queue entry the models (and their tests) read.
arrival = itemgetter(0)
request_id = itemgetter(1)
tenant = itemgetter(2)


class _FromScratch:
    """The reads, recomputed over :meth:`_everything` on every call."""

    def _everything(self) -> list:
        raise NotImplementedError

    def push_wave(self, requests: Sequence) -> None:
        for request in requests:
            self.push(request)

    def __len__(self) -> int:
        return len(self._everything())

    def oldest_arrival(self) -> float:
        pending = self._everything()
        if not pending:
            raise IndexError("oldest_arrival on an empty queue")
        return min(arrival(r) for r in pending)

    def arrival_times(self) -> List[float]:
        times = [arrival(r) for r in self._everything()]
        times.sort()
        return times


class FifoOracle(_FromScratch):
    def __init__(self) -> None:
        self.pending: list = []

    def _everything(self) -> list:
        return self.pending

    def push(self, request) -> None:
        self.pending.append(request)

    def requeue(self, batch: Sequence) -> None:
        self.pending[:0] = batch

    def take(self, launch: float, max_batch: int) -> list:
        batch: list = []
        while (self.pending and len(batch) < max_batch
               and arrival(self.pending[0]) <= launch):
            batch.append(self.pending.pop(0))
        return batch

    def clear(self) -> None:
        self.pending.clear()


class WfqOracle(_FromScratch):
    def __init__(self, weights: Mapping[Optional[str], float]) -> None:
        self.weights = dict(weights)  # unlisted tenants (and None): 1.0
        self.clear()

    def clear(self) -> None:
        self.front: list = []
        # (finish, push order, start, request)
        self.tagged: List[Tuple[float, int, float, object]] = []
        self.vtime = 0.0
        self.last_finish: Dict[Optional[str], float] = {}
        self.pushed = 0

    def _everything(self) -> list:
        return self.front + [entry[3] for entry in self.tagged]

    def push(self, request) -> None:
        owner = tenant(request)
        start = max(self.vtime, self.last_finish.get(owner, 0.0))
        finish = start + 1.0 / self.weights.get(owner, 1.0)
        self.last_finish[owner] = finish
        self.tagged.append((finish, self.pushed, start, request))
        self.pushed += 1

    def requeue(self, batch: Sequence) -> None:
        self.front[:0] = batch

    def take(self, launch: float, max_batch: int) -> list:
        batch: list = []
        while (self.front and len(batch) < max_batch
               and arrival(self.front[0]) <= launch):
            batch.append(self.front.pop(0))
        left = []
        for entry in sorted(self.tagged, key=lambda e: (e[0], e[1])):
            if len(batch) < max_batch and arrival(entry[3]) <= launch:
                batch.append(entry[3])
                self.vtime = max(self.vtime, entry[2])
            else:
                left.append(entry)
        self.tagged = left
        return batch
