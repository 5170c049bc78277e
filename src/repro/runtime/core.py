"""The shared discrete-event core: event queue, processes, runtime.

The elastic cluster simulator (training jobs), the serving router
(inference traffic) and the Gavel scheduler (one event per round) are
discrete-event loops over the same simulated clock; until this module
existed each hand-rolled its own time bookkeeping and event ordering, which
made the paper's most interesting scenario — training elastically donating
devices to a serving spike on one shared pool — inexpressible.  This is the
one event loop all three run on:

* :class:`EventQueue` — the scheduler, and the one way to schedule an
  event.  A dict keyed by sequence number holds the live events' ``(action,
  kind, actor)`` triples, and one binary heap of ``(time, seq)`` tuples
  orders them.  :meth:`EventQueue.post` schedules one event and returns its
  *handle*, which is its sequence number; :meth:`EventQueue.post_many`
  schedules a whole wave sharing one action in a single call,
  sequence-numbered exactly as a loop of ``post()`` calls would be.

  Cancellation by handle is O(1) (ETA invalidation: a completion
  prediction that a reallocation obsoletes is cancelled in place, not
  searched for), and ``len(queue)`` is the size of the live dict, not a
  scan.
* :class:`Process` — the actor protocol: anything that posts events on
  ``runtime.queue`` and reacts to them (a training cluster, a request
  router, a chaos plan);
* :class:`Runtime` — drives the loop: pop the earliest live event, move
  ``now`` to its time, dispatch to its action, optionally journal the
  event to a :class:`~repro.runtime.trace.EventTrace` (the
  ``--trace-out`` JSONL timeline).

Determinism is a contract, not an accident: events at the same timestamp
fire in the order they were scheduled (``seq`` is a global monotone
counter), so every run of a fixed seed replays the identical event
sequence — the golden-trace harness in ``tests/golden`` pins this, and the
generated suites under ``tests/runtime`` hold the queue to the ``(time,
seq)`` reference model in ``tests/oracles/event_queue.py``.
"""

from __future__ import annotations

import heapq
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple, Union)

import numpy as np

from repro.runtime.trace import EventTrace

__all__ = [
    "EventQueue",
    "Process",
    "Runtime",
]

# An event action receives the fire time and may return a dict of fields to
# journal on the trace timeline (or None for no extra fields).
Action = Callable[[float], Optional[Dict[str, Any]]]


class EventQueue:
    """The scheduler: a dict of live events ordered by one binary heap.

    Heap entries are ``(time, seq)`` tuples, which gives the deterministic
    ``(time, seq)`` order; ``_live`` maps each live event's ``seq`` to its
    ``(action, kind, actor)``.  A handle is the event's ``seq``, and
    sequence numbers are never reused, so a handle held past its event's
    firing or cancellation is stale by construction.  Cancellation removes
    the event from ``_live`` and leaves its heap entry behind: a dead entry
    is skipped lazily when it reaches the head, and the heap is compacted
    wholesale once dead entries outnumber live ones, so a cancellation
    storm cannot grow it without bound.
    """

    def __init__(self) -> None:
        self._live: Dict[int, Tuple[Action, str, str]] = {}
        self._heap: List[Tuple[float, int]] = []
        self._dead = 0   # cancelled entries still in the heap
        self._seq = 0

    def __len__(self) -> int:
        return len(self._live)

    # -- scheduling ----------------------------------------------------------

    def post(self, time: float, action: Action, *, kind: str = "event",
             actor: str = "runtime") -> int:
        """Schedule ``action`` at ``time`` and return its *handle* (its
        ``seq``), which drives :meth:`cancel_handle` and
        :meth:`handle_alive`.  ``time`` must be finite."""
        if type(time) is not float:
            time = float(time)
        if time - time != 0.0:  # inf - inf and nan - nan are nan
            raise ValueError(f"event time must be finite, got {time!r}")
        seq = self._seq
        self._seq = seq + 1
        self._live[seq] = (action, kind, actor)
        heapq.heappush(self._heap, (time, seq))
        return seq

    def post_many(self, times: Union[Sequence[float], np.ndarray],
                  action: Action, *, kind: str = "event",
                  actor: str = "runtime") -> np.ndarray:
        """Schedule one event per entry of ``times``, all sharing ``action``.

        Equivalent to (and sequence-numbered exactly like) a loop of
        :meth:`post` calls in array order, but with one shared payload and
        bulk heap insertion — this is how a process schedules a whole
        arrival wave in one call.  Returns the handles as an int64 array.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("post_many expects a 1-D array of times")
        n = len(times)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if not bool(np.isfinite(times).all()):
            raise ValueError("event times must be finite")
        seq0 = self._seq
        self._seq = seq0 + n
        seqs = range(seq0, seq0 + n)
        self._live.update(dict.fromkeys(seqs, (action, kind, actor)))
        entries = list(zip(times.tolist(), seqs))
        heap = self._heap
        if n > max(8, len(heap) // 8):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        return np.arange(seq0, seq0 + n, dtype=np.int64)

    # -- handle API ----------------------------------------------------------

    def cancel_handle(self, handle: int) -> bool:
        """Cancel the event behind ``handle``; False if already dead/fired."""
        if self._live.pop(handle, None) is None:
            return False
        self._dead += 1
        if self._dead > 64 and self._dead * 2 > len(self._heap):
            live = self._live
            self._heap = [e for e in self._heap if e[1] in live]
            heapq.heapify(self._heap)
            self._dead = 0
        return True

    def handle_alive(self, handle: int) -> bool:
        return handle in self._live

    # -- consumption ---------------------------------------------------------

    def pop_dispatch(self, until: Optional[float] = None,
                     ) -> Optional[Tuple[float, int, str, str, Action]]:
        """Pop the earliest live event for the runtime's loop.

        Returns ``None`` when drained (or the head lies beyond ``until``),
        else ``(time, seq, kind, actor, action)``.  Dead heap entries met
        on the way to the head are dropped.
        """
        heap = self._heap
        live = self._live
        while heap:
            time, seq = heap[0]
            if seq in live:
                break
            heapq.heappop(heap)
            self._dead -= 1
        else:
            return None
        if until is not None and time > until:
            return None
        heapq.heappop(heap)
        action, kind, actor = live.pop(seq)
        return (time, seq, kind, actor, action)


class Process(Protocol):
    """The actor protocol: a named participant in the event loop.

    A process posts its initial events on ``runtime.queue`` in
    :meth:`start` and thereafter reacts to the events it scheduled (each
    event's action closes over the process).  A process reads
    ``runtime.queue`` no earlier than :meth:`start`, so a test may swap
    the queue for a reference model between building the runtime and
    adding the process.  Processes never call each other synchronously
    across subsystem boundaries except through explicit mediator objects
    (the co-scheduler), which keeps event ordering the single source of
    truth.
    """

    name: str

    def start(self, runtime: "Runtime") -> None:
        ...


class Runtime:
    """The event loop: a queue, the simulated time ``now``, and a trace.

    ``run()`` pops live events in ``(time, seq)`` order, moves ``now`` to
    each event's time, and dispatches.  An action may post further events
    on :attr:`queue` (including at the current instant — they fire later
    this same timestamp, after already-queued same-time events) and may
    call :meth:`stop` to end the run early (a co-scheduled run stops when
    the serving trace drains, even though training ETAs remain queued).
    ``events_processed`` counts fired events across every ``run()``.
    """

    def __init__(self, trace: Optional[EventTrace] = None) -> None:
        self.queue = EventQueue()
        self.trace = trace
        self.now = 0.0
        self.events_processed = 0
        self._stopped = False

    def add(self, process: Process) -> None:
        """Register a process: let it post its initial events."""
        process.start(self)

    def stop(self) -> None:
        """End the run after the current event's action returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> int:
        """Process events until the queue drains (or ``until`` / ``stop()``).

        Returns the number of events processed.  ``until`` is inclusive:
        an event at exactly ``until`` still fires.  A ``stop()`` issued
        before the loop starts (e.g. by a process that drained during
        registration) is honored: the loop never begins.  Any attached
        trace is flushed before returning.
        """
        start = self.events_processed
        queue = self.queue
        trace = self.trace
        try:
            while not self._stopped:
                item = queue.pop_dispatch(until)
                if item is None:
                    break
                time, seq, kind, actor, action = item
                if time < self.now:
                    raise RuntimeError(
                        f"clock cannot run backwards: {time!r} < "
                        f"{self.now!r}")
                self.now = time
                try:
                    data = action(time)
                except BaseException as exc:
                    # A crashed action still journals its event — with the
                    # exception in place of its data — so a trace file
                    # always explains where the run died.
                    if trace is not None:
                        trace.emit(time, seq, kind, actor,
                                   {"error": f"{type(exc).__name__}: {exc}"})
                    raise
                self.events_processed += 1
                if trace is not None:
                    trace.emit(time, seq, kind, actor, data)
        finally:
            if trace is not None:
                trace.flush()
        return self.events_processed - start
