"""The shared discrete-event core: event queue, processes, runtime.

The elastic cluster simulator (training jobs), the serving router
(inference traffic) and the Gavel scheduler (one event per round) are
discrete-event loops over the same simulated clock; until this module
existed each hand-rolled its own time bookkeeping and event ordering, which
made the paper's most interesting scenario — training elastically donating
devices to a serving spike on one shared pool — inexpressible.  This is the
one event loop all three run on:

* :class:`EventQueue` — the scheduler, and the one way to schedule an
  event.  Events live in **slab storage** (:class:`_EventSlab`:
  preallocated lists of sequence numbers and slot generations plus a free
  list, addressed by integer handles) so the hot path allocates no
  per-event objects, and one binary heap of ``(time, seq, slot)`` tuples
  orders them.  :meth:`EventQueue.post` schedules one event and returns
  its integer handle; :meth:`EventQueue.post_many` schedules a whole wave
  sharing one action in a single call, sequence-numbered exactly as a
  loop of ``post()`` calls would be.

  Cancellation by handle is O(1) (ETA invalidation: a completion
  prediction that a reallocation obsoletes is cancelled in place, not
  searched for), and ``len(queue)`` is an O(1) live counter, not a scan.
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
                    Tuple, Union, runtime_checkable)

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

_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1


class _EventSlab:
    """Array-of-struct event storage: parallel lists plus a free list.

    Each live event occupies one *slot*: ``seq`` and ``gen`` are plain
    Python lists of ints (an event reads and writes them one slot at a
    time, where a list index costs less than a numpy scalar), and
    ``payload`` holds the ``(action, kind, actor)`` triple — one shared
    tuple per ``post_many`` wave.  :meth:`EventQueue.post` and
    :meth:`EventQueue.pop_dispatch` take and release their slot inline.
    Handles encode ``generation << 32 | slot``; releasing a slot bumps its
    generation, so a handle held across the slot's reuse is detectably
    stale: ``cancel_handle()`` on a fired-and-recycled event is a no-op,
    never a misfire on the new tenant.

    Released slots go back on the free list immediately — memory is bounded
    by the peak *live* event count, not the total scheduled count.  Heap
    entries pointing at a released slot identify themselves as dead because
    the slot's ``seq`` is reset to -1 (sequence numbers are never reused).
    """

    __slots__ = ("seq", "gen", "payload", "_free", "live")

    def __init__(self, capacity: int = 256) -> None:
        self.seq: List[int] = [-1] * capacity
        self.gen: List[int] = [0] * capacity
        self.payload: List[Optional[Tuple[Action, str, str]]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self.live = 0

    def _grow(self, need: int = 1) -> None:
        old = len(self.payload)
        new = old
        while new - old + len(self._free) < need:
            new *= 2
        extra = new - old
        self.seq.extend([-1] * extra)
        self.gen.extend([0] * extra)
        self.payload.extend([None] * extra)
        # New slots go under the free ones (a bulk allocation pops those
        # first, as single pops would) and pop in ascending order.
        self._free[:0] = range(new - 1, old - 1, -1)

    def alloc_many(self, n: int, seq0: int,
                   payload: Tuple[Action, str, str]) -> np.ndarray:
        """Allocate ``n`` slots; seqs run ``seq0..seq0+n-1`` in order.

        Returns generation-encoded handles as an int64 array, equal to
        those ``n`` single :meth:`EventQueue.post` calls would return.  All
        events share one payload tuple — no per-event allocation beyond the
        slot bookkeeping itself.
        """
        if len(self._free) < n:
            self._grow(n)
        # Identical slot order to n single pops.
        slots = self._free[: -n - 1: -1]
        del self._free[-n:]
        seqs, gens, store = self.seq, self.gen, self.payload
        for seq, slot in zip(range(seq0, seq0 + n), slots):
            seqs[slot] = seq
            store[slot] = payload
        self.live += n
        return np.array([(gens[slot] << _SLOT_BITS) | slot for slot in slots],
                        dtype=np.int64)

    def free(self, slot: int) -> None:
        """Release a slot: stale-mark its heap entry and recycle it."""
        self.seq[slot] = -1
        self.gen[slot] += 1
        self.payload[slot] = None
        self._free.append(slot)
        self.live -= 1

    def handle_live(self, handle: int) -> bool:
        return self.gen[handle & _SLOT_MASK] == handle >> _SLOT_BITS


class EventQueue:
    """The scheduler: slab-stored events ordered by one binary heap.

    Heap entries are ``(time, seq, slot)`` tuples — ``(time, seq)`` is
    unique, so the slot never takes part in a comparison — which gives the
    deterministic ``(time, seq)`` order.  Cancellation frees the slot in
    place and leaves its entry behind: a dead entry (its slot's seq
    changed) is skipped lazily when it reaches the head, and the heap is
    compacted wholesale once dead entries outnumber live ones, so a
    cancellation storm cannot grow it without bound.  ``len()`` counts
    live events in O(1).
    """

    def __init__(self) -> None:
        self._slab = _EventSlab()
        self._heap: List[Tuple[float, int, int]] = []
        self._dead = 0   # cancelled entries still in the heap
        self._seq = 0

    def __len__(self) -> int:
        return self._slab.live

    # -- scheduling ----------------------------------------------------------

    def post(self, time: float, action: Action, *, kind: str = "event",
             actor: str = "runtime") -> int:
        """Schedule ``action`` at ``time`` and return its *handle*.

        The handle is an int that drives :meth:`cancel_handle` and
        :meth:`handle_alive`; it stays safe to use after its event fired
        (see :class:`_EventSlab`).  ``time`` must be finite.
        """
        if type(time) is not float:
            time = float(time)
        if time - time != 0.0:  # inf - inf and nan - nan are nan
            raise ValueError(f"event time must be finite, got {time!r}")
        seq = self._seq
        self._seq = seq + 1
        slab = self._slab
        if not slab._free:
            slab._grow()
        slot = slab._free.pop()
        slab.seq[slot] = seq
        slab.payload[slot] = (action, kind, actor)
        slab.live += 1
        heapq.heappush(self._heap, (time, seq, slot))
        return (slab.gen[slot] << _SLOT_BITS) | slot

    def post_many(self, times: Union[Sequence[float], np.ndarray],
                  action: Action, *, kind: str = "event",
                  actor: str = "runtime") -> np.ndarray:
        """Schedule one event per entry of ``times``, all sharing ``action``.

        Equivalent to (and sequence-numbered exactly like) a loop of
        :meth:`post` calls in array order, but with bulk slab allocation
        and bulk heap insertion — this is how a process schedules a whole
        arrival wave in one call.  Returns an int64 array of event
        *handles*.
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
        self._seq += n
        handles = self._slab.alloc_many(n, seq0, (action, kind, actor))
        entries = list(zip(times.tolist(), range(seq0, seq0 + n),
                           (handles & _SLOT_MASK).tolist()))
        heap = self._heap
        if n > max(8, len(heap) // 8):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        return handles

    # -- handle API ----------------------------------------------------------

    def cancel_handle(self, handle: int) -> bool:
        """Cancel the event behind ``handle``; False if already dead/fired."""
        slab = self._slab
        if not slab.handle_live(handle):
            return False
        slab.free(handle & _SLOT_MASK)
        self._dead += 1
        if self._dead > 64 and self._dead * 2 > len(self._heap):
            seqs = slab.seq
            self._heap = [e for e in self._heap if seqs[e[2]] == e[1]]
            heapq.heapify(self._heap)
            self._dead = 0
        return True

    def handle_alive(self, handle: int) -> bool:
        return self._slab.handle_live(handle)

    # -- consumption ---------------------------------------------------------

    def pop_dispatch(self, until: Optional[float] = None,
                     ) -> Optional[Tuple[float, int, str, str, Action]]:
        """Pop the earliest live event for the runtime's loop.

        Returns ``None`` when drained (or the head lies beyond ``until``),
        else ``(time, seq, kind, actor, action)``.  Dead heap entries met
        on the way to the head are dropped.
        """
        heap = self._heap
        slab = self._slab
        seqs = slab.seq
        while heap:
            time, seq, slot = heap[0]
            if seqs[slot] == seq:
                break
            heapq.heappop(heap)
            self._dead -= 1
        else:
            return None
        if until is not None and time > until:
            return None
        heapq.heappop(heap)
        # Release the slot (as _EventSlab.free does).
        payload = slab.payload
        action, kind, actor = payload[slot]
        seqs[slot] = -1
        slab.gen[slot] += 1
        payload[slot] = None
        slab._free.append(slot)
        slab.live -= 1
        return (time, seq, kind, actor, action)


@runtime_checkable
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
