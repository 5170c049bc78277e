"""Multi-tenant serving: tagged load, per-tenant accounting, the journal.

A :class:`~repro.serving.router.RequestRouter` given a
:class:`~repro.serving.tenancy.TenantRegistry` serves tenants, and owes
them three things a production front end does:

* **weighted fair queueing** — the router's pending
  :class:`~repro.serving.batcher.DispatchQueue` orders dispatch by the
  registry's weights, so a flooding tenant is confined to its share of
  dispatch slots instead of starving everyone behind a FIFO
  (``dispatcher="fifo"`` builds the same queue without the registry, one
  arrival-order flow, for A/B comparison — that is what
  ``benchmarks/bench_tenant_fairness.py`` sweeps);
* **tenant-aware admission** — load shedding consults the tenant's
  contract: a *premium* tenant inside its token-bucket quota is never
  shed; over-quota premium and best-effort arrivals face the configured
  thresholds, and brownout halves those thresholds for non-premium
  traffic only (shed best-effort first).  The tenants' whole share of this
  is a metering pre-stage (:func:`repro.serving.tenancy.meter`) in front
  of the router's one shed rule, drawing on the quota meters
  :class:`TenantAccounting` keeps;
* **a durable request journal** — an append-only JSONL file in the
  ``--trace-out`` event schema (one ``registry`` header line, then one
  line per completed request and per shed arrival).  The journal is
  flushed even when the run dies mid-way (close-on-error), and
  :func:`audit_journal` replays it offline into the exact per-tenant SLO
  attainment numbers the live run reported — ``repro audit`` is that
  replay as a subcommand.

Load arrives tagged: :class:`MultiTenantPoissonSource` merges one
deterministic Poisson stream per tenant (independent seed domains, merged
with a stable tenant-order tie-break), and :class:`TenantTaggingSource`
stamps a fixed tenant onto any existing source — the single-tenant
configuration the golden-trace suite uses to pin a tenant-serving router
bit-identical to the plain one.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# Called through its module, so that a patch of the function reaches
# this module whenever it loads (see repro._lazy).
from repro.elastic import trace as elastic_trace
from repro.elastic.trace import ServingPhase
from repro.runtime import EventTrace
from repro.runtime.trace import load_trace
from repro.serving.generators import OpenLoopPoissonSource, RequestSource
from repro.serving.request import (RecordBlock, Request, RequestRecord,
                                   ShedBlock)
from repro.serving.tenancy import TenantRegistry, TenantSpec
from repro.telemetry import StreamingHistogram, percentile
from repro.utils.seeding import derive_seed

__all__ = ["MultiTenantPoissonSource", "TenantAccounting",
           "TenantTaggingSource", "audit_journal"]

# Seed domain for per-tenant arrival streams (coords: tenant index in
# registry order) — disjoint from every other DOMAIN_* tag.
DOMAIN_TENANT = 0x9E

DISPATCHERS = ("wfq", "fifo")

# A shed journal line's payload fragments are keyed by (reason, tenant).
_RUN_KEY = itemgetter(0, 1)


class _JsonCache(dict):
    """``cache[value]`` is ``json.dumps(value)``, encoded on first use."""

    def __missing__(self, value: Optional[str]) -> str:
        encoded = self[value] = json.dumps(value)  # None -> 'null'
        return encoded


class TenantTaggingSource(RequestSource):
    """Stamp every request from an inner source with one tenant id."""

    def __init__(self, inner: RequestSource, tenant_id: str) -> None:
        self._inner = inner
        self._tenant = tenant_id

    def next_arrival_time(self) -> Optional[float]:
        return self._inner.next_arrival_time()

    def take_arrivals(self, until: float) -> List[Request]:
        return [dataclasses.replace(r, tenant=self._tenant)
                for r in self._inner.take_arrivals(until)]

    def on_completion(self, records: Sequence[RequestRecord]) -> None:
        self._inner.on_completion(records)


class MultiTenantPoissonSource(OpenLoopPoissonSource):
    """One open-loop Poisson stream per tenant, merged deterministically.

    Each tenant draws arrivals from its own phase trace on its own seed
    stream (``derive_seed(seed, DOMAIN_TENANT, tenant_index)``), so adding
    or re-weighting one tenant never perturbs another's arrival times.
    Streams merge sorted by arrival time with registry order as the
    tie-break; request ids and example-bank rows are assigned in merged
    order, and ``limit`` caps the merged total.
    """

    def __init__(self, registry: TenantRegistry,
                 phases_by_tenant: Dict[str, Sequence[ServingPhase]],
                 examples: np.ndarray, seed: int = 0,
                 limit: Optional[int] = None) -> None:
        missing = [t for t in registry.tenant_ids if t not in phases_by_tenant]
        if missing:
            raise ValueError(f"no phase trace for tenants: {missing}")
        tenant_ids = registry.tenant_ids
        all_times: List[np.ndarray] = []
        all_idx: List[np.ndarray] = []
        for i, tenant_id in enumerate(tenant_ids):
            times = elastic_trace.serving_arrival_times(
                phases_by_tenant[tenant_id],
                seed=derive_seed(seed, DOMAIN_TENANT, i), limit=limit)
            all_times.append(times)
            all_idx.append(np.full(len(times), i, dtype=np.int64))
        times = np.concatenate(all_times) if all_times else np.empty(0)
        idx = np.concatenate(all_idx) if all_idx else np.empty(0, np.int64)
        # lexsort: primary key last — sort by time, break ties in registry
        # order so two tenants' coincident arrivals merge deterministically.
        order = np.lexsort((idx, times))[:limit]
        # The merged stream carries tenant *indices*; the table maps them
        # back to ids, so no per-request string list is ever built.
        self._load(times[order], examples,
                   np.ascontiguousarray(idx[order]), tenant_ids)


def _tenant_digest(spec: TenantSpec, latencies: Sequence[float],
                   shed: int) -> Dict[str, float]:
    """One tenant's SLO digest from raw latencies + shed count.

    Shared verbatim by the live router's report and the offline journal
    audit, so the two paths produce bit-identical floats (JSONL round-trips
    doubles exactly).
    """
    lat = np.asarray(latencies, dtype=float)
    served = len(lat)
    offered = served + shed
    out: Dict[str, float] = {
        "requests": float(served),
        "shed": float(shed),
        "shed_rate": shed / offered if offered else 0.0,
        "slo_p99_ms": spec.slo * 1e3,
        "weight": spec.weight,
    }
    if served:
        p99 = percentile(lat, 99)
        out["latency_p50_ms"] = percentile(lat, 50) * 1e3
        out["latency_p99_ms"] = p99 * 1e3
        out["slo_attainment"] = float((lat <= spec.slo).mean())
        out["meets_slo"] = float(p99 <= spec.slo)
    else:
        out["latency_p50_ms"] = 0.0
        out["latency_p99_ms"] = 0.0
        out["slo_attainment"] = 1.0  # vacuously: nothing was late
        out["meets_slo"] = 1.0
    return out


class TenantAccounting:
    """What a tenant-serving router keeps per tenant, and its journal.

    The router holds one and calls it at four points: the shed rule's
    metering pre-stage reads :attr:`contracts`, and :meth:`record_shed`,
    :meth:`record_completion` and :meth:`finalize` take each shed block,
    each completed micro-batch and the finished report.  The accumulators
    are append-only — per-tenant latency lists in completion order and
    shed counts — and the report's per-tenant :meth:`digests` are built
    from them once, at finalize; :func:`audit_journal` fills the same
    accumulators from a journal's lines and reads the same digests.

    journal:
        Optional path (or :class:`EventTrace`) for the durable request
        journal, written as ``actor``.  Header line carries the registry;
        then one ``request`` line per completion and one ``shed`` line per
        rejected arrival.  The router closes the writer (and therefore
        flushes it) even when the run raises, so a crashed run still
        leaves an auditable journal.
    """

    def __init__(self, registry: TenantRegistry, dispatcher: str = "wfq",
                 journal: Optional[Union[str, EventTrace]] = None,
                 actor: str = "gateway") -> None:
        self.registry = registry
        self.dispatcher = dispatcher
        self.actor = actor
        self._journal_dest = journal
        self._journal: Optional[EventTrace] = None
        self._journal_owned = False
        self._journal_seq = 0
        # The journal fast path serializes each tenant id once per run, not
        # once per line.
        self._tenant_json = _JsonCache()
        # (reason, tenant) -> the constant shed-line fragments around the
        # per-line request id / seq / time — one f-string per journal line.
        self._shed_fragments: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.reset()

    def reset(self) -> None:
        """Fresh quota meters and accumulators for one run."""
        # tenant -> (a full quota meter or None, premium?): what the
        # admission pre-stage needs to know of each tenant.
        self.contracts = {spec.tenant_id: (spec.bucket(), spec.premium)
                          for spec in self.registry}
        # tenant -> latencies; unregistered tenants' lists are never read.
        self.latencies: Dict[Optional[str], List[float]] = defaultdict(list)
        self.shed_counts: Counter = Counter()
        self._hists: Dict[str, StreamingHistogram] = {
            t: StreamingHistogram() for t in self.registry.tenant_ids}

    def live_tenant_histograms(self) -> Dict[str, StreamingHistogram]:
        """Per-tenant streaming latency histograms, current as of this call.

        An O(bins) live view of each tenant's latency distribution —
        dashboards can poll quantiles mid-run without sorting the exact
        per-request lists the final report is computed from.  The
        histograms fold lazily: each poll feeds a tenant's histogram the
        completions recorded since the previous poll (its ``count`` is the
        cursor into the append-only latency list), so a run nobody polls
        pays one fold per tenant, at finalize.
        """
        for tenant, hist in self._hists.items():
            latencies = self.latencies[tenant]
            if hist.count < len(latencies):
                hist.observe_many(latencies[hist.count:])
        return dict(self._hists)

    def digests(self) -> Dict[str, Dict[str, float]]:
        """Each registered tenant's SLO digest, in registry order."""
        shed_counts = self.shed_counts
        return {
            spec.tenant_id: _tenant_digest(
                spec, self.latencies[spec.tenant_id],
                shed_counts.get(spec.tenant_id, 0))
            for spec in self.registry
        }

    # -- the journal ----------------------------------------------------------

    def _journal_emit(self, kind: str, t: float, data: Dict[str, object]
                      ) -> None:
        if self._journal is None:
            return
        self._journal.emit(t, self._journal_seq, kind, self.actor, data)
        self._journal_seq += 1

    def open_journal(self) -> None:
        if self._journal_dest is None or self._journal is not None:
            return
        if isinstance(self._journal_dest, str):
            self._journal = EventTrace(self._journal_dest)
            self._journal_owned = True
        else:
            self._journal = self._journal_dest
            self._journal_owned = False
        self._journal_seq = 0
        # The line's keys are sorted: the registry order travels as a list.
        self._journal_emit("registry", 0.0, {
            "tenants": self.registry.to_dict(),
            "order": self.registry.tenant_ids,
            "dispatcher": self.dispatcher,
        })

    def close_journal(self) -> None:
        """Flush and release the journal (idempotent)."""
        if self._journal is None:
            return
        if self._journal_owned:
            self._journal.close()
        else:
            self._journal.flush()
        self._journal = None

    # -- the router's sinks ---------------------------------------------------

    def record_shed(self, block: ShedBlock) -> None:
        counts = self.shed_counts
        table = block.tenant_table
        if block.tenant_idx is None:
            counts[table[0]] += len(block)
        else:
            for tenant, n in zip(table, np.bincount(block.tenant_idx).tolist()):
                counts[tenant] += n
        journal = self._journal
        if journal is None:
            return
        # Assemble each complete journal line in one f-string from cached
        # constant fragments around the writer's own envelope: key order
        # inside data is reason < request_id < tenant, so every line is
        # byte-identical to per-event emit().  One fragment lookup per run
        # of arrivals sharing (reason, tenant).
        prefix, middle = journal.line_parts(self.actor, "shed")
        fragments = self._shed_fragments
        seq = self._journal_seq
        self._journal_seq = seq + len(block)
        rows = zip(block.reasons, block.tenants(), block.times.tolist(),
                   block.ids.tolist(), range(seq, seq + len(block)))
        lines: List[str] = []
        for key, run in groupby(rows, _RUN_KEY):
            parts = fragments.get(key)
            if parts is None:
                reason, tenant = key
                parts = fragments[key] = (
                    f'{prefix}{{"reason": "{reason}", "request_id": ',
                    f', "tenant": {self._tenant_json[tenant]}}}{middle}')
            pre, mid = parts
            lines.extend([f'{pre}{i}{mid}{s}, "t": {t!r}}}\n'
                          for _, _, t, i, s in run])
        journal.emit_many_lines(lines)

    def record_completion(self, block: RecordBlock) -> None:
        # Incremental per-tenant accounting: append-only latency lists — the
        # finalize digests and live_tenant_histograms() both read these.
        lat_map = self.latencies
        completion = block.batch.completion_time
        for tenant, arrival in zip(block.tenants, block.arrivals):
            lat_map[tenant].append(completion - arrival)
        journal = self._journal
        if journal is None:
            return
        # A batch shares its id, dispatch and completion time (which is also
        # the line's "t"): format those once, then one f-string per request
        # around what differs.  Sorted key order: arrival < batch_id <
        # completion < dispatch < request_id < tenant.
        batch = block.batch
        prefix, middle = journal.line_parts(self.actor, "request")
        head = f'{prefix}{{"arrival": '
        shared = (f', "batch_id": {batch.batch_id}, '
                  f'"completion": {completion!r}, '
                  f'"dispatch": {batch.dispatch_time!r}, "request_id": ')
        tail = f', "t": {completion!r}}}\n'
        tenant_json = self._tenant_json
        seq0 = self._journal_seq
        self._journal_seq = seq0 + len(block)
        journal.emit_many_lines([
            f'{head}{arrival!r}{shared}{i}, '
            f'"tenant": {tenant_json[tenant]}}}{middle}{seq}{tail}'
            for seq, arrival, i, tenant in zip(range(seq0, seq0 + len(block)),
                                               block.arrivals, block.ids,
                                               block.tenants)])

    def finalize(self, report) -> None:
        """Write the per-tenant digests into the finished ``report`` and
        close the journal's run with a ``summary`` line."""
        # The closing fold — one observe_many per tenant for the whole run —
        # leaves the finished run's histograms complete without a poll.
        self.live_tenant_histograms()
        report.tenants = self.digests()
        self._journal_emit("summary", report.duration, {
            "tenants": report.tenants,
            "requests": len(report.records),
            "shed": len(report.shed),
        })
        if self._journal is not None:
            self._journal.flush()


def audit_journal(path: str) -> Dict[str, object]:
    """Replay a request journal into per-tenant SLO attainment offline.

    Reads only the journal — no report object, no rerun — and reproduces
    the exact per-tenant numbers the live run computed: its ``request`` and
    ``shed`` lines feed the :class:`TenantAccounting` accumulators the live
    router filled, in the same order, and JSONL round-trips every double
    exactly.  This is the ``repro audit`` subcommand's engine.
    """
    events, torn = load_trace(path)
    header = next((e.get("data", {}) for e in events
                   if e.get("kind") == "registry"), None)
    if header is None:
        raise ValueError(
            f"{path}: not a request journal (no 'registry' header line)")
    accounting = TenantAccounting(
        TenantRegistry.from_dict(header["tenants"], header.get("order")))
    latencies, shed_counts = accounting.latencies, accounting.shed_counts
    requests = sheds = 0
    for event in events:
        kind = event.get("kind")
        data = event.get("data", {})
        if kind == "request":
            latencies[data.get("tenant")].append(
                data["completion"] - data["arrival"])
            requests += 1
        elif kind == "shed":
            shed_counts[data.get("tenant", "")] += 1
            sheds += 1
    return {
        "dispatcher": header.get("dispatcher"),
        "requests": requests,
        "shed": sheds,
        "tenants": accounting.digests(),
        **({"torn_tail": torn} if torn else {}),  # absent when intact
    }
