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

Both hand the router their arrivals the one way load enters it, as an
:class:`ArrivalWave` per pull, and both draw request payloads by cycling the
rows of an example bank in a fixed order, so a serving run is fully
reproducible from (trace, seed, bank).  Completions come back as one
:class:`~repro.serving.request.RecordBlock` per micro-batch.

A wave holds its arrival times and tenant indices twice: as arrays, for
shed blocks and long-wave metering, and as the plain lists the admission
path reads.  The open-loop source keeps both forms of its whole stream and
cuts a wave as slices of each, so a pull converts nothing from numpy to
Python.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

# Called through its module, so that a patch of the function reaches
# this module whenever it loads (see repro._lazy).
from repro.elastic import trace as elastic_trace
from repro.elastic.trace import ServingPhase
from repro.serving.request import RecordBlock, ShedBlock
from repro.utils.seeding import derive_rng

__all__ = ["ArrivalWave", "RequestSource", "OpenLoopPoissonSource",
           "ClosedLoopSource"]

_CLOSED_LOOP_DOMAIN = 0x7C


@dataclass
class ArrivalWave:
    """One admission wave as parallel arrays — no per-request objects.

    The admission path consumes arrivals the way the event core consumes
    event runs: ``times`` is the ascending arrival-time array, request ids
    are ``first_id + j``, and the payload of wave offset ``j`` is the
    bank's row ``first_cursor + j`` (cyclically).  An arrival that survives
    admission becomes one plain queue entry (:meth:`entries`) naming that
    row by its index; a shed arrival becomes no entry.

    ``tenant_idx``/``tenant_table`` carry tenancy without per-request
    strings: offset ``j`` belongs to ``tenant_table[tenant_idx[j]]``.
    ``tenant_idx=None`` means every request in the wave belongs to
    ``tenant_table[0]`` (single-stream sources use ``[None]``).
    ``clients[j]`` is the closed-loop client that issued offset ``j``;
    ``None`` on every open-loop wave.

    The admission path reads the times and (when there are any) the tenant
    indices as plain Python lists, :attr:`time_list` and :attr:`idx_list`;
    the arrays stay for the readers that need one (a shed block, long-wave
    metering).  A source that keeps its columns as lists too sets the two
    to its list slices when it cuts the wave; otherwise they are read off
    the arrays once.
    """

    times: np.ndarray
    first_id: int = 0
    bank: Optional["_ExampleBank"] = None
    first_cursor: int = 0
    tenant_idx: Optional[np.ndarray] = None
    tenant_table: Sequence[Optional[str]] = (None,)
    clients: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def time_list(self) -> List[float]:
        return self.times.tolist()

    @cached_property
    def idx_list(self) -> List[int]:
        return self.tenant_idx.tolist()

    def entries(self, offsets: Optional[Sequence[int]] = None) -> List[tuple]:
        """The queue entries ``(arrival, request_id, tenant, client,
        example)`` of the arrivals at ``offsets`` (all of them by default).
        ``example`` is the request's row index into ``bank.examples``, a
        plain int: the rows themselves are gathered once per forward pass,
        as one column."""
        times = self.time_list
        if offsets is None:
            offsets = range(len(times))
        table = self.tenant_table
        idx = [0] * len(times) if self.tenant_idx is None else self.idx_list
        first_id, cursor, clients = self.first_id, self.first_cursor, self.clients
        n = self.bank.rows
        # ``clients and ...``: None for every entry of an open-loop wave.
        return [(times[j], first_id + j, table[idx[j]], clients and clients[j],
                 (cursor + j) % n) for j in offsets]

    def shed_block(self, offsets: Sequence[int],
                   reasons: List[str]) -> ShedBlock:
        """The arrivals at ``offsets`` as one shed record block, ``reasons``
        parallel to them (no entry is built)."""
        at = np.asarray(offsets, dtype=np.intp)
        idx = self.tenant_idx
        return ShedBlock(self.times[at], at + self.first_id,
                         None if idx is None else idx[at],
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
    def take_wave(self, until: float) -> ArrivalWave:
        """Pop every request at or before ``until`` as one wave, in order —
        the router's only pull; an empty wave when nothing arrived."""

    def on_completion(self, block: RecordBlock) -> None:
        """Hook: a micro-batch completed (closed-loop sources react here)."""


# What an array source returns when nothing arrived: shared, never mutated.
EMPTY_WAVE = ArrivalWave(np.empty(0))


class _ExampleBank:
    """Cycles the rows of a fixed example array in canonical order:
    ``cursor`` counts the rows handed out, and a source moves it by a whole
    wave at a time."""

    def __init__(self, examples: np.ndarray) -> None:
        self.examples = examples
        self.rows = len(examples)
        if not self.rows:
            raise ValueError("the example bank needs at least one row")
        self.cursor = 0


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
        # The same columns as plain lists: a pull cuts its wave with a
        # bisection over the times and hands over list slices, touching no
        # array.
        floats = times.tolist()
        self._time_list: List[float] = floats
        self._idx_list = None if tenant_idx is None else tenant_idx.tolist()
        self.total_requests = len(floats)
        self._tenant_table = tenant_table
        self._bank = _ExampleBank(examples)
        self._next = 0
        # The next pending arrival (None once drained).
        self._next_time: Optional[float] = floats[0] if floats else None

    def next_arrival_time(self) -> Optional[float]:
        return self._next_time

    def take_wave(self, until: float) -> ArrivalWave:
        # Nothing pending at or before ``until``: a float compare.
        if self._next_time is None or until < self._next_time:
            return EMPTY_WAVE
        # One bisection cuts the wave; nothing per request happens until
        # admission has decided.
        start = self._next
        times = self._time_list
        idx = self._idx_list
        bank = self._bank
        self._next = end = bisect_right(times, until, start)
        wave = ArrivalWave(self._times[start:end], start, bank, bank.cursor,
                           None if idx is None else self._tenant_idx[start:end],
                           self._tenant_table)
        wave.time_list = times[start:end]
        if idx is not None:
            wave.idx_list = idx[start:end]
        self._next_time = times[end] if end < self.total_requests else None
        bank.cursor += end - start
        return wave


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

    def take_wave(self, until: float) -> ArrivalWave:
        times: List[float] = []
        clients: List[int] = []
        while self._issues and self._issues[0][0] <= until:
            issue_time, client = heapq.heappop(self._issues)
            times.append(issue_time)
            clients.append(client)
        if not times:
            return EMPTY_WAVE
        wave = ArrivalWave(np.array(times), self._next_id, self._bank,
                           self._bank.cursor, clients=clients)
        self._next_id += len(times)
        self._bank.cursor += len(times)
        return wave

    def on_completion(self, block: RecordBlock) -> None:
        completion = block.batch.completion_time
        for client in block.clients:
            if self._remaining.get(client, 0) > 0:
                self._remaining[client] -= 1
                heapq.heappush(self._issues, (
                    completion + self._think_delay(), client))
