"""The event queue's contract as a ``(time, seq)`` binary heap of objects.

:class:`HeapQueueOracle` answers every call :class:`repro.runtime.EventQueue`
answers — ``push`` / ``post`` / ``post_many`` / ``cancel_handle`` /
``handle_alive`` / ``peek`` / ``pop`` / ``pop_dispatch`` / ``len`` — with one
Python object per event on a ``heapq``, lazy deletion, and no slab or
vectorisation: the pre-slab event core, kept as the thing the production
queue must be indistinguishable from.  Assign one to
``runtime.queue`` (or substitute the class for ``EventQueue`` while a run
builds its own runtime) and the run must not change by a byte.

A handle is the event's sequence number: sequence numbers are never reused,
so a handle held past its event's firing is stale by construction.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional

import numpy as np

__all__ = ["HeapQueueOracle", "OracleEvent"]


class OracleEvent:
    """One scheduled occurrence; what ``push``/``peek``/``pop`` hand out."""

    __slots__ = ("time", "seq", "kind", "actor", "action", "_queue")

    def __init__(self, queue, time, seq, kind, actor, action) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.actor = actor
        self.action = action
        self._queue = queue

    @property
    def alive(self) -> bool:
        return self._queue.handle_alive(self.seq)

    def cancel(self) -> None:
        self._queue.cancel_handle(self.seq)

    def __lt__(self, other: "OracleEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class HeapQueueOracle:
    def __init__(self) -> None:
        self._heap: List[OracleEvent] = []
        self._live: Dict[int, OracleEvent] = {}   # seq -> scheduled event
        self._seq = 0

    def __len__(self) -> int:
        return len(self._live)

    # -- scheduling ----------------------------------------------------------

    def push(self, time, action, *, kind="event", actor="runtime"):
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        event = OracleEvent(self, float(time), self._seq, kind, actor, action)
        self._seq += 1
        self._live[event.seq] = event
        heapq.heappush(self._heap, event)
        return event

    def post(self, time, action, *, kind="event", actor="runtime") -> int:
        return self.push(time, action, kind=kind, actor=actor).seq

    def post_many(self, times, action, *, kind="event", actor="runtime"):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("post_many expects a 1-D array of times")
        if not bool(np.isfinite(times).all()):
            raise ValueError("event times must be finite")
        return np.asarray(
            [self.post(t, action, kind=kind, actor=actor)
             for t in times.tolist()], dtype=np.int64)

    # -- handle API ----------------------------------------------------------

    def cancel_handle(self, handle: int) -> bool:
        return self._live.pop(handle, None) is not None

    def handle_alive(self, handle: int) -> bool:
        return handle in self._live

    # -- consumption ---------------------------------------------------------

    def peek(self) -> Optional[OracleEvent]:
        heap = self._heap
        while heap and heap[0].seq not in self._live:
            heapq.heappop(heap)   # cancelled: drop lazily
        return heap[0] if heap else None

    def pop(self) -> Optional[OracleEvent]:
        event = self.peek()
        if event is not None:
            heapq.heappop(self._heap)
            del self._live[event.seq]
        return event

    def pop_dispatch(self, until: Optional[float] = None):
        """The next event due by ``until``, as the runtime's 5-tuple."""
        head = self.peek()
        if head is None or (until is not None and head.time > until):
            return None
        self.pop()
        return (head.time, head.seq, head.kind, head.actor, head.action)
