"""Shed and completion accounting, one tuple and one record at a time.

:class:`EagerAccounting` keeps what a tenant-serving run accounts the way
the router did before it kept column blocks: every shed arrival
becomes a ``(time, request_id, reason)`` tuple and a ``(time, request_id,
tenant, reason)`` tuple (an untagged arrival's tenant is ``""``), its tenant
is counted with ``Counter.update``, and its journal line is serialized on
its own; every completed request becomes a :class:`RequestRecord` in a list
and its latency is appended to its tenant's list.  Journal lines are
``json.dumps(record, sort_keys=True)`` of the event record, the schema
:class:`repro.runtime.EventTrace` writes.  :func:`eager_summary` is
``ServingReport.summary`` over those lists, per-record properties and all.

The production sinks (``ServingReport``'s views, a tenant router's
``TenantAccounting`` accumulators and journal lines) must agree with these
bit for bit.  :func:`tenant_report` rebuilds the per-tenant report whole
from ``(tenant, latency)`` pairs and shed tenants, as a reference for the
incremental accumulators.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import RequestRecord, TenantRegistry
from repro.serving.gateway import _tenant_digest
from repro.telemetry import StreamingHistogram, percentile

__all__ = ["EagerAccounting", "eager_summary", "tenant_report"]


def tenant_report(registry: TenantRegistry,
                  latency_pairs: Sequence[Tuple[Optional[str], float]],
                  shed_tenants: Sequence[str],
                  ) -> Dict[str, Dict[str, float]]:
    """Per-tenant SLO digests from (tenant, latency) pairs + shed tenants."""
    by_tenant: Dict[str, List[float]] = {t: [] for t in registry.tenant_ids}
    for tenant, latency in latency_pairs:
        if tenant in by_tenant:
            by_tenant[tenant].append(latency)
    sheds = Counter(shed_tenants)
    return {
        spec.tenant_id: _tenant_digest(
            spec, by_tenant[spec.tenant_id], sheds.get(spec.tenant_id, 0))
        for spec in registry
    }


def _line(t: float, seq: int, kind: str, actor: str, data: dict) -> str:
    return json.dumps({"t": t, "seq": seq, "kind": kind, "actor": actor,
                       "data": data}, sort_keys=True) + "\n"


class EagerAccounting:
    """Everything a tenant router accounts, appended one arrival at a time.

    ``seq`` is the journal sequence number of the first line this model
    writes (the live journal's ``registry`` header takes 0).
    """

    def __init__(self, registry: TenantRegistry, actor: str = "gateway",
                 seq: int = 1) -> None:
        self.registry = registry
        self.actor = actor
        self.seq = seq
        self.shed: List[tuple] = []
        self.tenant_shed: List[tuple] = []
        self.shed_counts: Counter = Counter()
        self.records: List[RequestRecord] = []
        self.latencies: Dict[str, List[float]] = {
            t: [] for t in registry.tenant_ids}
        self.hists = {t: StreamingHistogram() for t in registry.tenant_ids}
        self.lines: List[str] = []

    def record_shed(self, times: Sequence[float], ids: Sequence[int],
                    tenants: Sequence[Optional[str]],
                    reasons: Sequence[str]) -> None:
        self.shed.extend(zip(times, ids, reasons))
        tenants = [t if t is not None else "" for t in tenants]
        self.tenant_shed.extend(zip(times, ids, tenants, reasons))
        self.shed_counts.update(tenants)
        for t, i, tenant, reason in zip(times, ids, tenants, reasons):
            self.lines.append(_line(t, self.seq, "shed", self.actor, {
                "reason": reason, "request_id": i, "tenant": tenant}))
            self.seq += 1

    def complete(self, batch: Sequence, batch_id: int, launch: float,
                 completion: float, devices: int) -> List[RequestRecord]:
        """Account one micro-batch of queue entries ``(arrival, request_id,
        tenant, client, example)``; returns its records."""
        records = [
            RequestRecord(
                request_id=request_id, arrival_time=arrival,
                dispatch_time=launch, completion_time=completion,
                batch_id=batch_id, batch_size=len(batch), devices=devices,
                client=client, tenant=tenant)
            for arrival, request_id, tenant, client, _ in batch
        ]
        self.records.extend(records)
        for r in records:
            if r.tenant in self.latencies:
                self.latencies[r.tenant].append(
                    r.completion_time - r.arrival_time)
            self.lines.append(_line(completion, self.seq, "request",
                                    self.actor, {
                "arrival": r.arrival_time, "batch_id": r.batch_id,
                "completion": r.completion_time,
                "dispatch": r.dispatch_time, "request_id": r.request_id,
                "tenant": r.tenant}))
            self.seq += 1
        return records

    def live_tenant_histograms(self) -> Dict[str, StreamingHistogram]:
        """Each tenant's histogram fed what completed since the last poll."""
        for tenant, hist in self.hists.items():
            fresh = self.latencies[tenant][hist.count:]
            if fresh:
                hist.observe_many(fresh)
        return self.hists

    def tenant_digests(self) -> Dict[str, Dict[str, float]]:
        """The per-tenant report, rebuilt the way the offline audit does."""
        return tenant_report(self.registry,
                             [(r.tenant, r.latency) for r in self.records],
                             [tenant for _, _, tenant, _ in self.tenant_shed])


def eager_summary(report, records: Sequence[RequestRecord],
                  shed: Sequence[tuple],
                  slo_p99: Optional[float] = None) -> Dict[str, float]:
    """``ServingReport.summary`` with ``records``/``shed`` as plain lists;
    the run-level fields (duration, batches, remaps...) are ``report``'s."""
    offered = len(records) + len(shed)
    shed_rate = len(shed) / offered if offered else 0.0
    duration = report.duration
    avg_devices = report.device_seconds / duration if duration > 0 else 0.0
    if not records:
        out = {
            "requests": 0.0, "batches": 0.0, "duration_s": duration,
            "throughput_rps": 0.0, "mean_batch_size": 0.0,
            "latency_p50_ms": 0.0, "latency_p99_ms": 0.0,
            "latency_max_ms": 0.0, "mean_queue_delay_ms": 0.0,
            "mean_service_ms": 0.0, "avg_devices": avg_devices,
            "remaps": float(len(report.scaling_events)),
            "offered": float(len(shed)),
            "shed_requests": float(len(shed)),
            "shed_rate": shed_rate,
            "brownout_batches": float(report.brownout_batches),
        }
        if slo_p99 is not None:
            out["slo_p99_ms"] = slo_p99 * 1e3
            out["slo_attainment"] = 1.0
            out["meets_slo"] = 1.0
        return out
    lat = np.asarray([r.latency for r in records], dtype=float)
    out = {
        "requests": float(len(records)),
        "batches": float(len(report.batches)),
        "duration_s": duration,
        "throughput_rps": len(records) / duration if duration > 0 else 0.0,
        "mean_batch_size": (float(np.mean([b.size for b in report.batches]))
                            if report.batches else 0.0),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
        "latency_max_ms": float(lat.max()) * 1e3,
        "mean_queue_delay_ms":
            float(np.mean([r.queue_delay for r in records])) * 1e3,
        "mean_service_ms":
            float(np.mean([r.service_time for r in records])) * 1e3,
        "avg_devices": avg_devices,
        "remaps": float(len(report.scaling_events)),
        "offered": float(offered),
        "shed_requests": float(len(shed)),
        "shed_rate": shed_rate,
        "brownout_batches": float(report.brownout_batches),
    }
    if slo_p99 is not None:
        out["slo_p99_ms"] = slo_p99 * 1e3
        out["slo_attainment"] = float((lat <= slo_p99).mean())
        out["meets_slo"] = float(percentile(lat, 99) <= slo_p99)
    return out
