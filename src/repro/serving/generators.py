"""Request generators: how load arrives at the serving router.

Two canonical load models from the serving literature:

* **open loop** (:class:`OpenLoopPoissonSource`) — arrivals follow a Poisson
  process whose rate is a piecewise-constant function of time
  (:class:`~repro.elastic.trace.ServingPhase` segments).  Arrivals are
  independent of completions, so an overloaded server builds a real queue —
  this is the model that exposes latency cliffs and is what the SLO
  benchmarks sweep.
* **closed loop** (:class:`ClosedLoopSource`) — a fixed population of
  clients, each with at most one outstanding request; a client thinks for an
  exponential delay after each completion, then issues its next request.
  Load self-limits at the service rate, which is why closed-loop numbers
  alone can hide overload behavior.

Both draw request payloads by cycling the rows of an example bank in a fixed
order, so a serving run is fully reproducible from (trace, seed, bank).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

# Called through its module, so that a patch of the function reaches
# this module whenever it loads (see repro._lazy).
from repro.elastic import trace as elastic_trace
from repro.elastic.trace import ServingPhase
from repro.serving.request import Request, RequestRecord, ShedBlock
from repro.utils.seeding import derive_rng

__all__ = ["ArrivalWave", "RequestSource", "OpenLoopPoissonSource",
           "ClosedLoopSource"]

_CLOSED_LOOP_DOMAIN = 0x7C


@dataclass
class ArrivalWave:
    """One admission wave as parallel arrays — no per-request objects.

    The admission path consumes arrivals the way the event core consumes
    event runs: ``times`` is the ascending arrival-time array, request ids
    are ``first_id + j``, and the payload row for wave offset ``j`` is the
    bank's row ``first_cursor + j`` (cyclically) — read only for the
    arrivals that survive admission, each of which becomes one plain queue
    entry (:meth:`entries`).  A shed arrival becomes neither an entry nor a
    :class:`Request`.

    ``tenant_idx``/``tenant_table`` carry tenancy without per-request
    strings: offset ``j`` belongs to ``tenant_table[tenant_idx[j]]``.
    ``tenant_idx=None`` means every request in the wave belongs to
    ``tenant_table[0]`` (single-stream sources use ``[None]``).

    A source that cannot cut array waves hands over the requests it already
    built (:meth:`of`): ``prebuilt[j]`` is then offset ``j``'s entry, read
    off its request — ids, client and payload included.
    """

    times: np.ndarray
    first_id: int = 0
    bank: Optional["_ExampleBank"] = None
    first_cursor: int = 0
    tenant_idx: Optional[np.ndarray] = None
    tenant_table: Sequence[Optional[str]] = (None,)
    prebuilt: Optional[List[tuple]] = None

    @classmethod
    def of(cls, requests: Sequence[Request]) -> "ArrivalWave":
        """Wrap already-built requests, in order, as one wave."""
        entries = [(r.arrival_time, r.request_id, r.tenant, r.client, r.example)
                   for r in requests]
        table = tuple(dict.fromkeys(e[2] for e in entries)) or (None,)
        idx = None
        if len(table) > 1:
            position = {tenant: k for k, tenant in enumerate(table)}
            idx = np.array([position[e[2]] for e in entries])
        return cls(times=np.array([e[0] for e in entries], float),
                   tenant_idx=idx, tenant_table=table, prebuilt=entries)

    def __len__(self) -> int:
        return len(self.times)

    def entries(self, times: List[float],
                offsets: Optional[Sequence[int]] = None) -> List[tuple]:
        """The queue entries ``(arrival, request_id, tenant, client,
        example)`` of the arrivals at ``offsets`` (all of them by default);
        ``times`` is ``self.times`` as plain floats."""
        if self.prebuilt is not None:
            if offsets is None:
                return self.prebuilt
            return [self.prebuilt[j] for j in offsets]
        if offsets is None:
            offsets = range(len(times))
        table = self.tenant_table
        idx = ([0] * len(times) if self.tenant_idx is None
               else self.tenant_idx.tolist())
        first_id, cursor = self.first_id, self.first_cursor
        examples = self.bank.examples
        n = len(examples)
        return [(times[j], first_id + j, table[idx[j]], None,
                 examples[(cursor + j) % n]) for j in offsets]

    def shed_block(self, offsets: Sequence[int],
                   reasons: List[str]) -> ShedBlock:
        """The arrivals at ``offsets`` as one shed record block, ``reasons``
        parallel to them (no entry is built)."""
        at = np.asarray(offsets, dtype=np.intp)
        ids = (at + self.first_id if self.prebuilt is None
               else np.array([self.prebuilt[j][1] for j in offsets]))
        idx = self.tenant_idx
        return ShedBlock(self.times[at], ids, None if idx is None else idx[at],
                         self.tenant_table, reasons)


class RequestSource(ABC):
    """The router's view of incoming load.

    The router is a discrete-event loop: it peeks the next arrival time to
    decide whether waiting (for a fuller micro-batch) is worthwhile, admits
    arrivals up to a clock value, and notifies the source of completions so
    closed-loop clients can schedule their next request.
    """

    @abstractmethod
    def next_arrival_time(self) -> Optional[float]:
        """Arrival time of the next pending request, or None when drained."""

    @abstractmethod
    def take_arrivals(self, until: float) -> List[Request]:
        """Pop every request arriving at or before ``until``, in order."""

    def take_wave(self, until: float) -> ArrivalWave:
        """Pop every request at or before ``until`` as one wave — what the
        router pulls; an empty wave when nothing arrived.

        The default wraps :meth:`take_arrivals`' requests, so a source that
        cannot cut array waves (closed-loop populations, or a subclass that
        customized :meth:`take_arrivals`) never silently changes semantics.
        An array wave consumes exactly the arrivals (and example-bank rows)
        the equivalent :meth:`take_arrivals` call would have.
        """
        return ArrivalWave.of(self.take_arrivals(until))

    def on_completion(self, records: Sequence[RequestRecord]) -> None:
        """Hook: a micro-batch completed (closed-loop sources react here)."""


# What an array source returns when nothing arrived: shared, never mutated.
EMPTY_WAVE = ArrivalWave.of([])


class _ExampleBank:
    """Cycles the rows of a fixed example array in canonical order."""

    def __init__(self, examples: np.ndarray) -> None:
        if len(examples) == 0:
            raise ValueError("the example bank needs at least one row")
        self.examples = examples
        self._cursor = 0

    def next_example(self) -> np.ndarray:
        row = self.examples[self._cursor % len(self.examples)]
        self._cursor += 1
        return row

    @property
    def cursor(self) -> int:
        return self._cursor

    def advance(self, n: int) -> None:
        """Consume ``n`` rows in bulk (the wave path's cursor bump)."""
        self._cursor += n


class OpenLoopPoissonSource(RequestSource):
    """Poisson arrivals over :class:`ServingPhase` segments, then silence."""

    def __init__(self, phases: Sequence[ServingPhase], examples: np.ndarray,
                 seed: int = 0, limit: Optional[int] = None) -> None:
        times = elastic_trace.serving_arrival_times(phases, seed=seed,
                                                    limit=limit)
        self._load(times, examples)

    def _load(self, times: np.ndarray, examples: np.ndarray,
              tenant_idx: Optional[np.ndarray] = None,
              tenant_table: Sequence[Optional[str]] = (None,)) -> None:
        """Install the sorted arrival array and, for a merged multi-tenant
        stream, whose arrival each one is (see :class:`ArrivalWave`)."""
        self._times = times
        self._tenant_idx = tenant_idx
        self._tenant_table = tenant_table
        self._bank = _ExampleBank(examples)
        self._next = 0
        # The next pending arrival as a plain float (None once drained), so
        # peeking and empty pulls touch no array.
        self._next_time: Optional[float] = (
            float(times[0]) if times.size else None)

    @property
    def total_requests(self) -> int:
        return len(self._times)

    def next_arrival_time(self) -> Optional[float]:
        return self._next_time

    def _cut(self, until: float) -> ArrivalWave:
        # Nothing pending at or before ``until``: a float compare.
        if self._next_time is None or until < self._next_time:
            return EMPTY_WAVE
        # One searchsorted over the sorted arrival array cuts the wave;
        # nothing per request happens until admission has decided.
        end = int(self._times.searchsorted(until, "right"))
        start = self._next
        idx = self._tenant_idx
        wave = ArrivalWave(times=self._times[start:end], first_id=start,
                           bank=self._bank, first_cursor=self._bank.cursor,
                           tenant_idx=None if idx is None else idx[start:end],
                           tenant_table=self._tenant_table)
        self._next = end
        self._next_time = (
            float(self._times[end]) if end < self._times.size else None)
        self._bank.advance(end - start)
        return wave

    def take_arrivals(self, until: float) -> List[Request]:
        wave = self._cut(until)
        return [Request(request_id=i, arrival_time=t, example=x, tenant=tenant)
                for t, i, tenant, _, x in wave.entries(wave.times.tolist())]

    def take_wave(self, until: float) -> ArrivalWave:
        if type(self).take_arrivals is not OpenLoopPoissonSource.take_arrivals:
            return super().take_wave(until)  # a subclass re-defined arrivals
        return self._cut(until)


class ClosedLoopSource(RequestSource):
    """A fixed client population with one outstanding request per client."""

    def __init__(self, num_clients: int, requests_per_client: int,
                 examples: np.ndarray, think_time: float = 0.01,
                 seed: int = 0) -> None:
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got {requests_per_client}")
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {think_time}")
        self._bank = _ExampleBank(examples)
        self._think = think_time
        self._rng = derive_rng(seed, _CLOSED_LOOP_DOMAIN)
        self._remaining = {c: requests_per_client - 1 for c in range(num_clients)}
        self._next_id = 0
        # (issue_time, client) min-heap; every client thinks once before its
        # first request so arrivals do not all land at t=0.
        self._issues: List[tuple] = [
            (self._think_delay(), c) for c in range(num_clients)
        ]
        heapq.heapify(self._issues)

    def _think_delay(self) -> float:
        if self._think == 0:
            return 0.0
        return float(self._rng.exponential(self._think))

    def next_arrival_time(self) -> Optional[float]:
        if not self._issues:
            return None
        return self._issues[0][0]

    def take_arrivals(self, until: float) -> List[Request]:
        out: List[Request] = []
        while self._issues and self._issues[0][0] <= until:
            issue_time, client = heapq.heappop(self._issues)
            out.append(Request(
                request_id=self._next_id,
                arrival_time=issue_time,
                example=self._bank.next_example(),
                client=client,
            ))
            self._next_id += 1
        return out

    def on_completion(self, records: Sequence[RequestRecord]) -> None:
        for record in records:
            if record.client is None:
                continue
            if self._remaining.get(record.client, 0) > 0:
                self._remaining[record.client] -= 1
                heapq.heappush(self._issues, (
                    record.completion_time + self._think_delay(), record.client))
