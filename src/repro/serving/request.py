"""Per-request accounting records for the serving subsystem.

A request is one single-example inference call: a payload row (no batch
axis) plus its arrival time in the simulated clock.  It reaches the router
as one offset of an :class:`~repro.serving.generators.ArrivalWave`, and
once admitted it is a plain tuple ``(arrival, request_id, tenant, client,
example)``, a queue **entry**, where ``example`` is the payload's row index
in the source's example bank (the rows themselves are gathered once per
forward pass).  The router keeps its accounting as column
blocks — a :class:`RecordBlock` per completed micro-batch of entries, a
:class:`ShedBlock` per admission pull that shed — and builds a
:class:`RequestRecord` (the per-request latency breakdown, queueing vs.
service) only when one is read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = ["RequestRecord", "BatchRecord", "RecordBlock",
           "ShedBlock", "BlockLog"]


@dataclass(frozen=True)
class RequestRecord:
    """The completed lifecycle of one request.

    ``latency`` is what the SLO is written against: queueing (arrival →
    dispatch) plus service (dispatch → completion; every request in a
    micro-batch completes when its batch does).
    """

    request_id: int
    arrival_time: float
    dispatch_time: float
    completion_time: float
    batch_id: int
    batch_size: int
    devices: int
    client: Optional[int] = None
    tenant: Optional[str] = None

    @property
    def queue_delay(self) -> float:
        return self.dispatch_time - self.arrival_time

    @property
    def service_time(self) -> float:
        return self.completion_time - self.dispatch_time

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time


@dataclass(slots=True)
class BatchRecord:
    """One dispatched micro-batch.  Not frozen: the router builds one per
    batch and changes none, and plain slot stores cost a fraction of a
    frozen dataclass's ``object.__setattr__`` per field."""

    batch_id: int
    dispatch_time: float
    completion_time: float
    size: int
    devices: int
    waves: int

    @property
    def service_time(self) -> float:
        return self.completion_time - self.dispatch_time


class RecordBlock(SequenceABC):
    """One micro-batch's completed requests as columns.

    ``batch`` holds what they share; ``ids``, ``arrivals``, ``tenants`` and
    ``clients`` are tuples in batch order, transposed off the batch's queue
    entries.  Element ``k`` is the request's :class:`RequestRecord`, built
    on access (a report's ``records`` read that way); the accounting, the
    autoscaler and closed-loop sources read the columns.
    """

    __slots__ = ("batch", "ids", "arrivals", "tenants", "clients")

    def __init__(self, batch: BatchRecord, entries: Sequence[tuple]) -> None:
        self.batch = batch
        self.arrivals, self.ids, self.tenants, self.clients, _ = zip(*entries)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        b = self.batch
        return RequestRecord(
            request_id=self.ids[k], arrival_time=self.arrivals[k],
            dispatch_time=b.dispatch_time, completion_time=b.completion_time,
            batch_id=b.batch_id, batch_size=b.size, devices=b.devices,
            client=self.clients[k], tenant=self.tenants[k])

    def latencies(self) -> List[float]:
        """Each request's ``completion - arrival``, as its record computes it."""
        completion = self.batch.completion_time
        return [completion - a for a in self.arrivals]


@dataclass(eq=False)
class ShedBlock:
    """One admission pull's shed arrivals as columns: arrival ``times`` and
    request ``ids`` (arrays), the ``reasons`` (the gate that tripped), and
    each arrival's tenant, ``tenant_table[tenant_idx[j]]`` — all
    ``tenant_table[0]`` when ``tenant_idx`` is None, as on an arrival wave.
    """

    times: np.ndarray
    ids: np.ndarray
    tenant_idx: Optional[np.ndarray]
    tenant_table: Sequence[Optional[str]]
    reasons: List[str]

    def __len__(self) -> int:
        return len(self.reasons)

    def tenants(self) -> List[str]:
        """Each arrival's tenant id, ``""`` for an untagged one."""
        names = ["" if t is None else t for t in self.tenant_table]
        if self.tenant_idx is None:
            return names[:1] * len(self.reasons)
        return [names[k] for k in self.tenant_idx.tolist()]

    def rows(self) -> List[tuple]:
        """``(time, request_id, reason)`` per arrival, as plain Python values."""
        return list(zip(self.times.tolist(), self.ids.tolist(), self.reasons))

    def tenant_rows(self) -> List[tuple]:
        """``(time, request_id, tenant, reason)`` per arrival."""
        return list(zip(self.times.tolist(), self.ids.tolist(), self.tenants(),
                        self.reasons))


class BlockLog(SequenceABC):
    """Rows over column blocks appended whole — a report's ``records``,
    ``shed`` and ``tenant_shed``; ``append(block, size)`` takes the block's
    row count from the caller.  ``len`` is O(1); a row is built when read
    (indexing bisects to its block), from ``rows(block)`` — by default the
    block itself.  ``==`` compares the rows with any sequence."""

    __slots__ = ("blocks", "_bounds", "_rows")

    def __init__(self, rows: Optional[Callable] = None) -> None:
        self.blocks: list = []
        self._bounds = [0]  # block k holds rows bounds[k]:bounds[k + 1]
        self._rows = rows

    def view(self, rows: Callable) -> "BlockLog":
        """The same blocks, later appends included, read through ``rows``."""
        other = BlockLog(rows)
        other.blocks, other._bounds = self.blocks, self._bounds
        return other

    def append(self, block, size: int) -> None:
        self.blocks.append(block)
        self._bounds.append(self._bounds[-1] + size)

    def _read(self, block) -> Sequence:
        return block if self._rows is None else self._rows(block)

    def __len__(self) -> int:
        return self._bounds[-1]

    def __iter__(self):
        for block in self.blocks:
            yield from self._read(block)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        n = len(self)
        if not -n <= i < n:
            raise IndexError("BlockLog index out of range")
        i %= n
        k = bisect_right(self._bounds, i) - 1
        return self._read(self.blocks[k])[i - self._bounds[k]]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SequenceABC):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]
