"""The event queue's contract as a ``(time, seq)`` binary heap of tuples.

:class:`HeapQueueOracle` answers every call :class:`repro.runtime.EventQueue`
answers in production — ``post`` / ``post_many`` / ``cancel_handle`` /
``handle_alive`` / ``pop_dispatch`` / ``len`` — with one Python tuple per
event on a ``heapq``, a dict of live events, lazy deletion, and no slab or
vectorisation: the pre-slab event core, kept as the thing the production
queue must be indistinguishable from.  Assign one to ``runtime.queue``
before any process is added (processes read the queue in ``start``), or
substitute the class for ``EventQueue`` while a run builds its own
runtime, and the run must not change by a byte.

A handle is the event's sequence number: sequence numbers are never reused,
so a handle held past its event's firing is stale by construction.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["HeapQueueOracle"]


class HeapQueueOracle:
    def __init__(self) -> None:
        self._heap: List[Tuple[float, int]] = []
        self._live: Dict[int, tuple] = {}   # seq -> (kind, actor, action)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._live)

    # -- scheduling ----------------------------------------------------------

    def post(self, time, action, *, kind="event", actor="runtime") -> int:
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        seq = self._seq
        self._seq += 1
        self._live[seq] = (kind, actor, action)
        heapq.heappush(self._heap, (float(time), seq))
        return seq

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

    def pop_dispatch(self, until: Optional[float] = None):
        """The next event due by ``until``, as the runtime's 5-tuple."""
        heap = self._heap
        while heap and heap[0][1] not in self._live:
            heapq.heappop(heap)   # cancelled: drop lazily
        if not heap or (until is not None and heap[0][0] > until):
            return None
        time, seq = heapq.heappop(heap)
        kind, actor, action = self._live.pop(seq)
        return (time, seq, kind, actor, action)
